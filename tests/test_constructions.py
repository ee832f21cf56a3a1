import random

import pytest

from deltacodes.field import ExtField, Field
from deltacodes.geometry import is_degenerate, make_conic
from deltacodes.codes import gf_rank
from deltacodes.constructions import (
    build_net,
    conic_from_lambda,
    construction1_code,
    construction1_samples,
    construction2_code,
    find_lambda_point,
    full_conic_code,
    in_lambda_orbit,
    lambda_orbit_count,
    lambda_orbit_size,
    line_code,
    make_net_context,
    net_basis,
)


@pytest.mark.parametrize("h", [2, 3, 4])
def test_line_code_parameters(h):
    F = Field(h)
    q = F.q
    rep = line_code(F)
    assert rep["matches_expected"], rep
    assert (rep["n"], rep["k"], rep["d"]) == (q * (q - 1) // 2, 3, (q - 1) * (q - 2) // 2)
    # the unreduced code doubles every evaluation point, hence the distance
    assert 2 * rep["d"] == (q - 1) * (q - 2)


@pytest.mark.parametrize("h", [2, 3, 4])
def test_construction2_parameters(h):
    F = Field(h)
    q = F.q
    rep = construction2_code(F)
    assert rep["matches_expected"], rep
    assert rep["weight_set"] == sorted({
        q * (q - 3) // 2, (q - 1) * (q - 2) // 2, q * q // 2 - q,
        q * q // 2 - q + 1, q * (q - 1) // 2,
    })


def test_full_conic_code_true_parameters(F8):
    rep = full_conic_code(F8)
    # the claimed distance q(q-3)/2 = 20 is not attained: two crossing
    # squared-intercept lines meet the set in 2q - 3 points
    assert (rep["n"], rep["k"], rep["d"]) == (28, 6, 15)
    assert rep["expected"]["d"] == 20
    assert not rep["matches_expected"]
    assert rep["d"] == (F8.q - 2) * (F8.q - 3) // 2


def test_full_conic_code_q4_reports_achieved(F4):
    rep = full_conic_code(F4)
    assert rep["n"] == 6 and rep["k"] == 6 and rep["d"] == 1


def test_lambda_orbit_membership(F4):
    E = ExtField(F4, 3)
    # rational points are rejected
    rational = (E.one, E.embed(3), E.embed(2))
    assert not in_lambda_orbit(E, rational)
    p = find_lambda_point(E, "scan")
    assert in_lambda_orbit(E, p)
    p2 = find_lambda_point(E, "seeded", 1)
    assert in_lambda_orbit(E, p2)
    assert find_lambda_point(E, "seeded", 1) == p2


def test_lambda_orbit_count_q4(F4):
    E = ExtField(F4, 3)
    assert lambda_orbit_count(E) == 2880


@pytest.mark.parametrize("h", [2, 3])
def test_net_structure(h):
    F = Field(h)
    q = F.q
    E = ExtField(F, 3)
    ctx = make_net_context(E, find_lambda_point(E, "seeded", 1))
    net = build_net(F, ctx)
    assert len(net) == q * q + q + 1
    assert all(not is_degenerate(F, c) for c in net)
    assert sum(1 for c in net if c.a12 == 0 and c.a22 == 0) == 1


def test_net_lambda_linearity(F8):
    E = ExtField(F8, 3)
    ctx = make_net_context(E, find_lambda_point(E, "seeded", 2))
    rng = random.Random(4)
    for _ in range(20):
        lam = tuple(rng.randrange(8) for _ in range(3))
        mu = tuple(rng.randrange(8) for _ in range(3))
        if lam == E.zero or mu == E.zero or E.add(lam, mu) == E.zero:
            continue
        c1 = conic_from_lambda(ctx, lam)
        c2 = conic_from_lambda(ctx, mu)
        c3 = conic_from_lambda(ctx, E.add(lam, mu))
        assert c3 == tuple(a ^ b for a, b in zip(c1, c2))
        s = rng.randrange(1, 8)
        scaled = conic_from_lambda(ctx, E.mul(E.embed(s), lam))
        assert scaled == tuple(F8.mul(s, v) for v in c1)


def test_net_scaling_gives_same_class(F8):
    E = ExtField(F8, 3)
    ctx = make_net_context(E, find_lambda_point(E, "seeded", 3))
    lam = (1, 2, 3)
    base = make_conic(F8, conic_from_lambda(ctx, lam))
    for c in F8.nonzero_elements():
        assert make_conic(F8, conic_from_lambda(ctx, E.mul(E.embed(c), lam))) == base


def test_net_basis_spans_members(F8):
    E = ExtField(F8, 3)
    ctx = make_net_context(E, find_lambda_point(E, "seeded", 5))
    basis = net_basis(F8, ctx)
    rows = [list(p) for p in basis.polys]
    assert gf_rank(F8, rows) == 3


def test_build_net_matches_per_lambda_members(F8):
    # the members made by linearity over the basis are exactly the classes
    # of the per-lambda conics, over every nonzero lambda
    E = ExtField(F8, 3)
    ctx = make_net_context(E, find_lambda_point(E, "seeded", 5))
    net = build_net(F8, ctx)
    per_lambda = {make_conic(F8, conic_from_lambda(ctx, lam))
                  for lam in E.elements() if lam != E.zero}
    assert len(net) == 73
    assert set(net) == per_lambda


def test_construction1_q8(F8):
    rep = construction1_code(F8, find_lambda_point(ExtField(F8, 3), "seeded", 1))
    assert (rep["n"], rep["k"]) == (28, 3)
    assert rep["d"] in (21, 22)
    assert rep["dual_distance"] in (3, 4)
    assert rep["singleton_ok"]
    assert rep["max_point_count"] == 28 - rep["d"]


def test_construction1_samples_deterministic(F8):
    a = construction1_samples(F8, 3, seed=7)
    b = construction1_samples(F8, 3, seed=7)
    assert [r["point"] for r in a] == [r["point"] for r in b]
    assert [r["d"] for r in a] == [r["d"] for r in b]


def test_construction1_samples_rejects_more_than_the_orbit(F4):
    """The orbit at q = 4 has lambda_orbit_size(4) = 2880 points, so 2881
    distinct base points cannot be drawn."""
    assert lambda_orbit_size(4) == 2880
    with pytest.raises(ValueError):
        construction1_samples(F4, 2881)


def test_net_rejects_bad_point(F4):
    E = ExtField(F4, 3)
    with pytest.raises(ValueError):
        make_net_context(E, (E.one, E.zero, E.zero))
