from itertools import product

import pytest

from deltacodes.field import Field
from deltacodes.geometry import (
    EXC_PARABOLA,
    EXC_VERTICAL_PAIR,
    Conic,
    build_delta,
    classify_exceptional,
    count_on_delta,
    degenerate_by_singular_point,
    distinguished_points,
    in_sqrt_window,
    is_degenerate,
    line_counts,
    line_delta_count_closed_form,
    make_conic,
    parabola_count_closed_form,
    pi_map,
)
from deltacodes.verify import LINE_LAYOUT, _line_stats, _Sweep, projective_class_columns


def make_line(F, a, b, c):
    """The line a*X + b*Y + c = 0 as (a, b, c), scaled so its first nonzero
    coefficient is 1."""
    if a == 0 and b == 0:
        raise ValueError("a line needs (a, b) != (0, 0)")
    s = F.inv(a if a else b)
    return (F.mul(s, a), F.mul(s, b), F.mul(s, c))


@pytest.mark.parametrize("h,expected", [(2, 6), (3, 28), (4, 120), (5, 496), (6, 2016)])
def test_delta_sizes(h, expected):
    F = Field(h)
    delta = build_delta(F)
    assert len(delta) == expected
    assert len(build_delta(F, include_origin=True)) == expected + 1
    assert (1, 0) in set(delta.points)


def test_delta_canonical_order(F4):
    # origin (when included), then x ascending with the trace-zero scalar ascending
    assert build_delta(F4).points == [(1, 0), (1, 1), (2, 0), (2, 3), (3, 0), (3, 2)]
    dbar = build_delta(F4, include_origin=True)
    assert dbar.points[0] == (0, 0)


def test_delta_membership_rule(F8):
    for x, y in build_delta(F8).points:
        assert x != 0
        assert F8.trace(F8.div(y, F8.mul(x, x))) == 0


def test_pi_map_basic(F8):
    assert pi_map(F8, 0, 1) == (1, 0)
    for t in F8.elements():
        x, y = pi_map(F8, t, t)
        assert x == 0 and y == F8.mul(t, t)


@pytest.mark.parametrize("h", [2, 3, 4])
def test_pi_image_is_delta_two_to_one(h):
    F = Field(h)
    delta = set(build_delta(F).points)
    fibers = {}
    for x1, x2 in distinguished_points(F):
        fibers.setdefault(pi_map(F, x1, x2), set()).add((x1, x2))
    assert set(fibers) == delta
    for img, fib in fibers.items():
        assert len(fib) == 2
        (a, b) = next(iter(fib))
        assert fib == {(a, b), (b, a)}


def test_line_closed_form_literal_cases(F8):
    q = 8
    assert line_delta_count_closed_form(F8, make_line(F8, 0, 1, 0)) == q      # Y = 0
    assert line_delta_count_closed_form(F8, make_line(F8, 1, 0, 3)) == q // 2  # X = 3
    assert line_delta_count_closed_form(F8, make_line(F8, 1, 0, 0)) == 1       # X = 0
    assert line_delta_count_closed_form(F8, make_line(F8, 2, 1, 5)) == (q - 2) // 2


def _swept_lines(F):
    """Every line of the line sweep, in its order, as (coefficients, stated
    count, count on Delta, count on DeltaBar)."""
    sweep = _Sweep(F, LINE_LAYOUT, _line_stats(F), keep={"every": (None, "stated", "nd", "nb")})
    return sweep.run().kept["every"]


@pytest.mark.parametrize("h", [2, 3, 4, 5])
def test_line_counts_match_brute_force(h):
    # the verified closed form and the line sweep against the scalar count
    # on every line
    F = Field(h)
    delta = build_delta(F)
    dbar = build_delta(F, include_origin=True)
    swept = _swept_lines(F)
    assert len(swept) == F.q * F.q + F.q
    lines = list(zip(*(c.tolist() for c in projective_class_columns(F.q, 3))))
    for k, (coeffs, stated, sweep_nd, sweep_nb) in enumerate(swept):
        line = lines[k]
        nd = count_on_delta(F, Conic(0, 0, 0, *line), delta)
        nb = count_on_delta(F, Conic(0, 0, 0, *line), dbar)
        assert line_counts(F, line) == (nd, nb), line
        assert coeffs == (0, 0, 0, *line), line
        assert (sweep_nd, sweep_nb) == (nd, nb), line
        assert stated == line_delta_count_closed_form(F, line), line


@pytest.mark.parametrize("h", [2, 3, 4])
def test_lines_are_the_width3_layout(h):
    # every line a*X + b*Y + c = 0, normalized by make_line, is exactly one
    # of the q^2 + q classes the line sweep counts, and those classes come
    # in the order (1, b, c), then (0, 1, c)
    F = Field(h)
    q = F.q
    cols = [coeffs for coeffs, *_ in _swept_lines(F)]
    assert all(c[:3] == (0, 0, 0) for c in cols)
    layout = [c[3:] for c in cols]
    assert layout == ([(1, b, c) for b in range(q) for c in range(q)]
                      + [(0, 1, c) for c in range(q)])
    position = {line: k for k, line in enumerate(layout)}
    hits = [0] * (q * q + q)
    for a, b, c in product(range(q), repeat=3):
        if a or b:
            hits[position[make_line(F, a, b, c)]] += 1
    assert hits == [q - 1] * (q * q + q)


def test_squared_intercept_lines(F8):
    # Y = m*X + m^2 picks up q - 1 points, the image of a coordinate-line pair
    delta = build_delta(F8)
    for m in F8.nonzero_elements():
        line = make_line(F8, m, 1, F8.mul(m, m))
        assert count_on_delta(F8, Conic(0, 0, 0, *line), delta) == 7
        assert line_delta_count_closed_form(F8, line) == 3  # the stated value


def test_conic_normalization(F8):
    c = make_conic(F8, (0, 2, 3, 0, 1, 5))
    assert c.a12 == 1
    for s in F8.nonzero_elements():
        scaled = tuple(F8.mul(s, v) for v in (0, 2, 3, 0, 1, 5))
        assert make_conic(F8, scaled) == c
    assert make_conic(F8, c.coeffs()) == c
    with pytest.raises(ValueError):
        make_conic(F8, (0, 0, 0, 0, 0, 0))


def test_degeneracy_examples(F8):
    assert is_degenerate(F8, Conic(1, 0, 0, 0, 0, 1))       # (X + 1)^2
    assert not is_degenerate(F8, Conic(1, 0, 0, 0, 1, 0))   # Y = X^2


@pytest.mark.parametrize("h", [2])
def test_degeneracy_against_oracle_exhaustive(h):
    F = Field(h)
    from deltacodes.verify import projective_class_columns
    cols = projective_class_columns(F.q, 6, F.np_dtype)
    for i in range(len(cols[0])):
        c = Conic(*(int(col[i]) for col in cols))
        assert is_degenerate(F, c) == degenerate_by_singular_point(F, c), c


def test_count_on_delta_examples(F8):
    delta = build_delta(F8)
    g = next(a for a in F8.nonzero_elements() if F8.trace(a) == 0)
    c = next(a for a in F8.nonzero_elements() if F8.trace(a) == 1)
    assert count_on_delta(F8, Conic(g, 0, 0, 0, 1, 0), delta) == 7
    assert count_on_delta(F8, Conic(c, 0, 0, 0, 1, 0), delta) == 0


def dbar_count(F, c):
    """The closed form on the origin-included set: the origin joins when
    the constant term is zero."""
    return parabola_count_closed_form(F, c) + (c.a33 == 0)


def test_parabola_closed_form_cases(F8):
    q = 8
    tr1 = next(a for a in F8.nonzero_elements() if F8.trace(a) == 1)
    tr0 = next(a for a in F8.nonzero_elements() if F8.trace(a) == 0)
    # trace one, a33 = a13^2 != 0: empty intersection
    a13 = 3
    c = Conic(tr1, 0, 0, a13, 1, F8.mul(a13, a13))
    assert dbar_count(F8, c) == 0
    # trace zero, a33 = a13 = 0: the covering parabola itself
    c = Conic(tr0, 0, 0, 0, 1, 0)
    assert dbar_count(F8, c) == q
    # vertical pair with zero trace combination
    for a11 in F8.nonzero_elements():
        for a13 in F8.nonzero_elements():
            for a33 in F8.nonzero_elements():
                expected = q if F8.trace(
                    F8.div(F8.mul(a11, a33), F8.mul(a13, a13))) == 0 else 0
                got = parabola_count_closed_form(F8, Conic(a11, 0, 0, a13, 0, a33))
                assert got == expected


@pytest.mark.parametrize("h", [2, 3])
def test_parabola_closed_form_exhaustive(h):
    F = Field(h)
    delta = build_delta(F)
    dbar = build_delta(F, include_origin=True)
    for a11 in F.elements():
        for a13 in F.elements():
            for a23 in F.elements():
                for a33 in F.elements():
                    if not (a11 or a13 or a23 or a33):
                        continue
                    c = Conic(a11, 0, 0, a13, a23, a33)
                    assert parabola_count_closed_form(F, c) == count_on_delta(F, c, delta)
                    assert dbar_count(F, c) == count_on_delta(F, c, dbar)
    with pytest.raises(ValueError):
        parabola_count_closed_form(F, Conic(0, 1, 0, 0, 0, 0))


def test_window_arithmetic():
    # q = 8: (q - 2 sqrt q - 2)/2 ~ 0.17 and (q + 2 sqrt q - 1)/2 ~ 6.33
    assert not in_sqrt_window(2 * 0, 8)
    assert in_sqrt_window(2 * 1, 8)
    assert in_sqrt_window(2 * 6, 8)
    assert not in_sqrt_window(2 * 7, 8)
    # q = 4: lower bound is negative, so 0 is admissible
    assert in_sqrt_window(2 * 0, 4)
    assert in_sqrt_window(2 * 3, 4)
    assert not in_sqrt_window(2 * 4, 4)
    # q = 16: exact integer endpoints 3 and 11
    assert in_sqrt_window(2 * 3, 16) and in_sqrt_window(2 * 11, 16)
    assert not in_sqrt_window(2 * 2, 16) and not in_sqrt_window(2 * 12, 16)


def test_classify_exceptional(F8):
    a13 = 5
    assert classify_exceptional(F8, Conic(3, 0, 0, a13, 1, F8.mul(a13, a13))) == EXC_PARABOLA
    assert classify_exceptional(F8, Conic(3, 0, 0, 0, 1, 0)) == EXC_PARABOLA
    assert classify_exceptional(F8, Conic(1, 0, 0, 1, 0, 1)) == EXC_VERTICAL_PAIR
    assert classify_exceptional(F8, Conic(1, 1, 0, 0, 1, 0)) is None
