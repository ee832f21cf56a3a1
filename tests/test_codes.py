import random
import tracemalloc
from collections import Counter
from itertools import product

import numpy as np
import pytest

from deltacodes import curves, verify
from deltacodes.field import Field
from deltacodes.geometry import Conic, DeltaSet, build_delta, count_on_delta
from deltacodes.codes import (
    BudgetError,
    ConicSystem,
    GeneratorMatrix,
    class_weight_distribution,
    dual_distance_upto,
    evaluate_system,
    gf_rank,
    min_distance,
    singleton_ok,
    weight_distribution_enumerate,
)
from deltacodes.constructions import (
    POLY_1,
    POLY_X,
    POLY_X2,
    POLY_XY,
    POLY_Y,
    POLY_Y2,
    construction2_code,
)

FULL = [POLY_X2, POLY_XY, POLY_Y2, POLY_X, POLY_Y, POLY_1]
LINES = [POLY_Y, POLY_X, POLY_1]


def test_constant_basis_row(F8):
    delta = build_delta(F8)
    g = evaluate_system(ConicSystem(F8, [POLY_1]), delta)
    assert g.rank == 1
    assert np.count_nonzero(g.entries[0]) == len(delta)


def test_ranks(F8, F4):
    delta8 = build_delta(F8)
    assert evaluate_system(ConicSystem(F8, LINES), delta8).rank == 3
    assert evaluate_system(ConicSystem(F8, FULL), delta8).rank == 6
    # at q = 4 the evaluation space is only 6-dimensional; the achieved rank
    # is reported as-is
    delta4 = build_delta(F4)
    g4 = evaluate_system(ConicSystem(F4, FULL), delta4)
    assert g4.n == 6 and g4.rank == gf_rank(F4, [list(r) for r in g4.entries])


def test_dependent_basis_rejected(F8):
    with pytest.raises(ValueError):
        ConicSystem(F8, [POLY_X, POLY_X])
    with pytest.raises(ValueError):
        ConicSystem(F8, [POLY_X, POLY_Y, (0, 0, 0, 1, 1, 0)])


def test_weight_distribution_line_code(F8):
    delta = build_delta(F8)
    g = evaluate_system(ConicSystem(F8, LINES), delta)
    dist = weight_distribution_enumerate(g)
    assert dist[0] == 1
    assert sum(dist.values()) == 8 ** 3
    assert sorted(w for w in dist if w) == [21, 24, 25, 28]
    assert all(c % 7 == 0 for w, c in dist.items() if w)
    assert min_distance(dist) == 21


def _sweep_distribution(F, g, support) -> Counter:
    """The weight distribution of the unit-monomial system on the
    coefficients `support`, from its classes (`projective_layout(6,
    support)`) counted on Delta by the walk."""
    masks = verify._line_masks(F, build_delta(F).points)

    def stats(bc):
        conic = curves.term_columns(bc, curves.CONIC_TERMS, 1)
        return {"every": True, "zeros": verify._root_mask_counts(F, conic, masks)}

    sweep = verify._Sweep(F, verify.projective_layout(6, support), stats,
                          count=(("every", "zeros"),)).run()
    return class_weight_distribution(F.q, g.n, sweep.histogram("every"))


def test_weight_distribution_methods_agree(F8):
    delta = build_delta(F8)
    for basis in ([POLY_1], [POLY_X, POLY_1], LINES, [POLY_X2, POLY_X, POLY_Y, POLY_1],
                  [POLY_X2, POLY_Y2, POLY_X, POLY_Y, POLY_1], FULL):
        g = evaluate_system(ConicSystem(F8, basis), delta)
        support = sorted(FULL.index(poly) for poly in basis)
        assert weight_distribution_enumerate(g) == _sweep_distribution(F8, g, support)


def _naive_distribution(g) -> Counter:
    """Every one of the q^k messages, its codeword by scalar field
    arithmetic, its weight counted directly."""
    F = g.field
    rows = [[int(v) for v in row] for row in g.entries]
    dist = Counter()
    for msg in product(range(F.q), repeat=g.k):
        word = [0] * g.n
        for c, row in zip(msg, rows):
            word = [w ^ F.mul(c, v) for w, v in zip(word, row)]
        dist[sum(1 for w in word if w)] += 1
    return dist


@pytest.mark.parametrize("k", range(1, 7))
def test_enumeration_matches_naive_messages(F4, k):
    # random generator matrices, with rank deficiency and zero columns
    # allowed; k >= 2 splits off a nonzero prefix of k - ceil(k/2) rows
    rng = np.random.default_rng(k)
    entries = rng.integers(0, 4, size=(k, 9)).astype(F4.np_dtype)
    entries[:, 0] = 0
    g = GeneratorMatrix(F4, entries, gf_rank(F4, entries.tolist()))
    assert weight_distribution_enumerate(g) == _naive_distribution(g)


def test_parabola_code_q64():
    # 64^4 messages; the stated minimum distance q(q-3)/2 holds at q = 64
    F64 = Field(6)
    g = evaluate_system(ConicSystem(F64, [POLY_X2, POLY_X, POLY_Y, POLY_1]), build_delta(F64))
    dist = weight_distribution_enumerate(g)
    assert dist == dict(construction2_code(F64)["weights"])
    assert min_distance(dist) == 1952 == 64 * 61 // 2


def test_weight_of_polynomial_matches_rows(F8):
    delta = build_delta(F8)
    g = evaluate_system(ConicSystem(F8, FULL), delta)
    rng = random.Random(3)
    for _ in range(50):
        msg = [rng.randrange(8) for _ in range(6)]
        if not any(msg):
            continue
        word = np.zeros(g.n, dtype=g.field.np_dtype)
        for c, row in zip(msg, g.entries):
            word ^= F8.mul_col(row, c)
        poly = tuple(
            int(np.bitwise_xor.reduce([F8.mul(mc, pc) for mc, pc in zip(msg, col)]))
            for col in zip(*FULL)
        )
        assert int(np.count_nonzero(word)) == len(delta) - count_on_delta(F8, Conic(*poly), delta)


def test_scalar_and_permutation_invariance(F8):
    delta = build_delta(F8)
    base = weight_distribution_enumerate(evaluate_system(ConicSystem(F8, LINES), delta))
    for s in F8.nonzero_elements():
        scaled = [tuple(F8.mul(s, c) for c in POLY_Y)] + LINES[1:]
        dist = weight_distribution_enumerate(evaluate_system(ConicSystem(F8, scaled), delta))
        assert dist == base
    rng = random.Random(9)
    pts = list(delta.points)
    rng.shuffle(pts)
    shuffled = DeltaSet(field=F8, points=pts)
    assert weight_distribution_enumerate(evaluate_system(ConicSystem(F8, LINES), shuffled)) == base


def test_enumeration_budget():
    # 1.08 G projective message classes at q = 64 exceed the 2^26 class
    # budget; the refusal comes before the suffix table is built
    F64 = Field(6)
    g = evaluate_system(ConicSystem(F64, FULL), build_delta(F64))
    tracemalloc.start()
    try:
        with pytest.raises(BudgetError, match="sweep budget"):
            weight_distribution_enumerate(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_dual_distance_basics(F8):
    delta = build_delta(F8)
    g = evaluate_system(ConicSystem(F8, LINES), delta)
    entries = g.entries.copy()
    entries[:, 0] = 0
    from deltacodes.codes import GeneratorMatrix
    assert dual_distance_upto(GeneratorMatrix(F8, entries, 3)) == 1
    entries = g.entries.copy()
    entries[:, 1] = F8.mul_col(entries[:, 0], 5)
    assert dual_distance_upto(GeneratorMatrix(F8, entries, 3)) == 2


def test_singleton_bound_helper():
    assert singleton_ok(28, 3, 21)
    assert not singleton_ok(6, 6, 2)
