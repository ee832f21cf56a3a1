import functools
import random

import pytest
from hypothesis import given, strategies as st

from deltacodes.field import ExtField, Field
from deltacodes.geometry import Conic, in_sqrt_window, is_degenerate
from deltacodes.curves import (
    Poly2,
    build_family,
    count_affine_points,
    g_axis_root_count,
    has_linear_component,
    hasse_window_check,
    in_rational_affine_window,
    reducibility_details,
    solve_vbar,
    triples_ok_columns,
    verify_count_relations,
    verify_lemma_delta,
)


def all_classes(F, require_triples=True):
    from deltacodes.verify import projective_class_columns
    cols = projective_class_columns(F.q, 6, F.np_dtype)
    for i in range(len(cols[0])):
        c = Conic(*(int(col[i]) for col in cols))
        if require_triples and not triples_ok_columns(c):
            continue
        yield c


def test_family_example(F8):
    # Y + X^2 + 1 = 0 pulls back to X^2 + (T^2 + T) X^2 + 1
    fam = build_family(F8, Conic(1, 0, 0, 0, 1, 1))
    assert fam.s == 0
    assert fam.F.coeffs == {(2, 0): 1, (2, 2): 1, (2, 1): 1, (0, 0): 1}
    assert fam.F is fam.F_s


def test_split_exponent_and_exact_factor(F8):
    rng = random.Random(5)
    for _ in range(60):
        coeffs = tuple(rng.randrange(8) for _ in range(6))
        if not any(coeffs):
            continue
        c = Conic(*coeffs)
        if not triples_ok_columns(c):
            continue
        fam = build_family(F8, c)
        if c.a33:
            assert fam.s == 0
        elif c.a13:
            assert fam.s == 1
        else:
            assert fam.s == 2
        xs = Poly2(F8, {(fam.s, 0): 1}, ("X", "T"))
        assert xs.mul(fam.F_s) == fam.F


def test_triples_hypothesis_enforced(F8):
    assert not triples_ok_columns(Conic(0, 0, 0, 1, 1, 1))
    with pytest.raises(ValueError):
        build_family(F8, Conic(0, 0, 0, 1, 1, 1))


def test_h_top_form_and_infinite_points(F8):
    rng = random.Random(6)
    for _ in range(40):
        coeffs = tuple(rng.randrange(8) for _ in range(6))
        if not any(coeffs):
            continue
        c = Conic(*coeffs)
        if not triples_ok_columns(c) or (c.a12 == 0 and c.a22 == 0):
            continue
        fam = build_family(F8, c)
        K = fam.vfield
        emb = (lambda v: K.embed(v)) if isinstance(K, ExtField) else (lambda v: v)
        assert fam.H.degree() == 3
        # degree-3 part factors as X * V * (a22 X + a12 V)
        top = {(i, j): v for (i, j), v in fam.H.coeffs.items() if i + j == 3}
        expected = Poly2(K, {(2, 1): emb(c.a22), (1, 2): emb(c.a12)}, ("X", "V"))
        assert top == expected.coeffs


def test_vbar_choice_and_conjugate_invariance(F8):
    E = ExtField(F8, 2)
    rng = random.Random(7)
    checked_ext = 0
    for _ in range(200):
        coeffs = tuple(rng.randrange(8) for _ in range(6))
        if not any(coeffs):
            continue
        c = Conic(*coeffs)
        if (c.a12 == 0 and c.a22 == 0) or not triples_ok_columns(c):
            continue
        vbar, K = solve_vbar(F8, c)
        if isinstance(K, ExtField):
            checked_ext += 1
            conj = K.frobenius(vbar)
            assert conj != vbar
            fam = build_family(F8, c)
            from deltacodes.curves import _cubic_h
            h2 = _cubic_h(K, c, conj, ordering=0)
            assert count_affine_points(fam.H, F8) == count_affine_points(h2, F8)
        if checked_ext >= 10:
            break
    assert checked_ext > 0


def test_count_affine_points_basics(F8):
    q = 8
    assert count_affine_points(Poly2(F8, {(0, 0): 1}, ("X", "Y")), F8) == 0
    assert count_affine_points(Poly2(F8, {(1, 0): 1}, ("X", "Y")), F8) == q
    v1 = next(a for a in F8.elements() if F8.trace(a) == 1)
    v0 = next(a for a in F8.nonzero_elements() if F8.trace(a) == 0)
    assert count_affine_points(Poly2(F8, {(0, 2): 1, (0, 1): 1, (0, 0): v1}, ("X", "Y")), F8) == 0
    assert count_affine_points(Poly2(F8, {(0, 2): 1, (0, 1): 1, (0, 0): v0}, ("X", "Y")), F8) == 2 * q


@functools.lru_cache(maxsize=None)
def _coefficient_field(h, r):
    F = Field(h)
    return F, (F if r == 1 else ExtField(F, r))


def _per_point_count(poly, F):
    """The reference count: Poly2.eval at each of the q^2 grid points, with
    the point embedded when the coefficients lie in an extension."""
    K = poly.field
    embed = K.embed if isinstance(K, ExtField) else (lambda c: c)
    return sum(1 for x in F.elements() for y in F.elements()
               if poly.eval(embed(x), embed(y)) == K.zero)


@st.composite
def grid_polynomials(draw):
    """A random Poly2 over GF(q), GF(q^2) or GF(q^3), q in {4, 8, 16}, with
    exponents up to 4, and the base field it is counted over."""
    F, K = _coefficient_field(draw(st.sampled_from((2, 3, 4))), draw(st.sampled_from((1, 2, 3))))
    r = 1 if K is F else K.degree
    element = st.tuples(*[st.integers(0, F.q - 1)] * r)
    terms = draw(st.dictionaries(st.tuples(st.integers(0, 4), st.integers(0, 4)), element, max_size=6))
    return Poly2(K, {e: c if r > 1 else c[0] for e, c in terms.items()}), F


@given(grid_polynomials())
def test_grid_count_equals_per_point_count(case):
    poly, F = case
    assert count_affine_points(poly, F) == _per_point_count(poly, F)


@st.composite
def poly_triples(draw):
    """Three random Poly2 over GF(q) or GF(q^2), q in {4, 8, 16}, with
    exponents up to 3, and a point of K x K."""
    F, K = _coefficient_field(draw(st.sampled_from((2, 3, 4))), draw(st.sampled_from((1, 2))))
    r = 1 if K is F else K.degree
    element = st.tuples(*[st.integers(0, F.q - 1)] * r).map(lambda c: c if r > 1 else c[0])
    poly = st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 3)), element,
                           max_size=4).map(lambda terms: Poly2(K, terms))
    return K, draw(poly), draw(poly), draw(poly), draw(element), draw(element)


@given(poly_triples())
def test_poly2_algebra(case):
    K, f, g, h, x, y = case
    assert f.add(g) == g.add(f) and f.mul(g) == g.mul(f)
    assert f.add(g).add(h) == f.add(g.add(h)) and f.mul(g).mul(h) == f.mul(g.mul(h))
    assert f.mul(g.add(h)) == f.mul(g).add(f.mul(h))
    assert f.add(g).eval(x, y) == K.add(f.eval(x, y), g.eval(x, y))
    assert f.mul(g).eval(x, y) == K.mul(f.eval(x, y), g.eval(x, y))


@pytest.mark.parametrize("h,r", [(2, 1), (3, 2), (4, 3)])
def test_count_of_constants(h, r):
    F, K = _coefficient_field(h, r)
    assert count_affine_points(Poly2(K, {}), F) == F.q ** 2
    assert count_affine_points(Poly2(K, {(0, 0): K.one}), F) == 0


def test_count_rejects_other_fields_and_large_q(F8, F16):
    with pytest.raises(ValueError):
        count_affine_points(Poly2(F8, {(1, 0): 1}), F16)
    with pytest.raises(ValueError):
        count_affine_points(Poly2(ExtField(F8, 2), {(1, 0): (1, 0)}), F16)
    F512 = Field(9)
    with pytest.raises(ValueError):
        count_affine_points(Poly2(F512, {(1, 0): 1, (0, 1): 3}), F512)
    assert "mul_table" not in vars(F512)


def test_lemma_exhaustive_q4(F4):
    for c in all_classes(F4):
        r = verify_lemma_delta(F4, c)
        assert r["ok"], (c, r)


def test_lemma_cases(F8):
    r = verify_lemma_delta(F8, Conic(1, 0, 0, 0, 1, 1))
    assert r["case"] == 1 and r["lhs"] == r["n_f_s"] // 2
    r = verify_lemma_delta(F8, Conic(1, 1, 0, 1, 1, 0))
    assert r["case"] == 2 and r["lhs"] == 1 + r["n_f_s"] // 2


def test_relations_exhaustive_q4(F4):
    for c in all_classes(F4):
        r = verify_count_relations(F4, c)
        assert r["ok"] and r["axis_ok"] and r["g_axis_closed_form_ok"], (c, r)


def test_relations_specific_cases(F8):
    # s = 0 with exactly one of a22, a23 zero: difference -1
    fam_diffs = []
    for c in all_classes(F8):
        if c.a33 and ((c.a22 == 0) != (c.a23 == 0)):
            r = verify_count_relations(F8, c)
            assert r["predicted_diff"] == -1 and r["ok"]
            fam_diffs.append(r)
            if len(fam_diffs) > 10:
                break
    # s = 2 with a23 != 0, trace(a11/a23) = 0, a22 = 0: difference +1
    found = False
    for c in all_classes(F8):
        if c.a33 == 0 and c.a13 == 0 and c.a11 and c.a23 and c.a22 == 0 \
                and F8.trace(F8.div(c.a11, c.a23)) == 0:
            r = verify_count_relations(F8, c)
            assert r["predicted_diff"] == 1 and r["ok"]
            found = True
            break
    assert found


def test_g_axis_closed_form(F8):
    for c in all_classes(F8):
        fam = build_family(F8, c)
        direct = sum(1 for v in F8.elements() if fam.G_s.eval(0, v) == 0)
        assert direct == g_axis_root_count(F8, c, fam.s), c
        break  # the exhaustive version runs inside verify_count_relations


def test_reducibility_matches_degeneracy_q4(F4):
    for c in all_classes(F4):
        if c.a12 == 0 and c.a22 == 0:
            continue
        assert reducibility_details(F4, c)["reducible"] == is_degenerate(F4, c), c


def test_reducibility_identities_random(F16):
    rng = random.Random(12)
    checked = 0
    while checked < 40:
        coeffs = tuple(rng.randrange(16) for _ in range(6))
        if not any(coeffs):
            continue
        c = Conic(*coeffs)
        if (c.a12 == 0 and c.a22 == 0) or not triples_ok_columns(c):
            continue
        det = reducibility_details(F16, c)
        assert det["identity_q12"] and det["identity_q13"], c
        checked += 1


def test_stated_criteria_miss_third_pencil(F16):
    # non-degenerate conic whose cubic factors as (a22 X + a12 V + w) * conic
    c = Conic(1, 1, 1, 0, 1, 0)
    assert not is_degenerate(F16, c)
    assert reducibility_details(F16, c)["reducible"] is False  # the stated criteria
    has_line, lines = has_linear_component(F16, c)
    assert has_line and lines[0][0] == "w"
    # the line really divides: the affine point count exceeds any
    # line-free cubic bound
    fam = build_family(F16, c)
    assert count_affine_points(fam.H, F16) == 29


def test_hasse_window_check_and_corrected_transfer(F8):
    res = hasse_window_check(F8, Conic(1, 0, 1, 0, 1, 1))
    assert {"n_g", "n_h", "counts_equal", "in_window"} <= set(res)
    # the stated equality fails on a known class, and the reason is the
    # axis bookkeeping of the quadratic transformation
    res = hasse_window_check(F8, Conic(1, 1, 0, 0, 0, 1))
    assert res["vbar_rational"] and not res["counts_equal"]
    assert res["n_h"] == res["n_g"] + 1
    with pytest.raises(ValueError):
        hasse_window_check(F8, Conic(1, 0, 0, 0, 0, 1))


def test_poly_dump(F8):
    fam = build_family(F8, Conic(1, 0, 0, 0, 1, 1))
    dump = fam.F.dump()
    assert dump == [(0, 0, "0x1"), (2, 0, "0x1"), (2, 1, "0x1"), (2, 2, "0x1")]
    c = Conic(1, 1, 1, 2, 1, 3)
    fam = build_family(F8, c)  # quadratic vbar: extension coefficients
    assert all(":" in entry[2] for entry in fam.H.dump())


def test_window_predicates():
    assert in_sqrt_window(1, 8)
    assert not in_sqrt_window(0, 8)
    assert in_sqrt_window(12, 8) and not in_sqrt_window(13, 8)
    assert in_rational_affine_window(5, 8) and not in_rational_affine_window(4, 8)


def _run_optimized(script: str):
    """Run a Python script under -O against this tree's sources."""
    import os
    import subprocess
    import sys
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    return subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)


def test_invariants_survive_optimize():
    """Under python -O, dividing by a power of X that does not divide
    every term still raises, and a product grouping of H that disagrees with
    the coefficient formula still aborts build_family, and not as a
    ValueError."""
    script = "\n".join([
        "import sys",
        "from deltacodes import curves",
        "from deltacodes.field import Field",
        "from deltacodes.geometry import Conic",
        "assert False, 'asserts must be stripped'",
        "try:",
        "    curves.Poly2(Field(3), {(0, 0): 1}).shift_down_x(1)",
        "except AssertionError:",
        "    pass",
        "else:",
        "    sys.exit(4)",
        "orig = curves._cubic_h",
        "def broken(K, conic, vbar, ordering):",
        "    h = orig(K, conic, vbar, ordering)",
        "    return h.add(curves.Poly2(K, {(0, 0): K.one}, h.vars)) if ordering == 1 else h",
        "curves._cubic_h = broken",
        "try:",
        "    curves.build_family(Field(3), Conic(1, 1, 1, 2, 1, 3))",
        "except ValueError:",
        "    sys.exit(3)",
    ])
    proc = _run_optimized(script)
    assert proc.returncode == 1, proc.stderr
    assert "AssertionError: the two groupings of H differ" in proc.stderr


def test_cubic_h_walk_precondition_survives_optimize():
    """Under python -O, the root-mask kernel's preconditions still raise
    instead of giving a wrong count: the tables stop at q = 64 (64-bit
    masks), and a curve with the counted variable in a degree outside
    0, 1, 2 and 4 (here T^3) stops the walk with an AssertionError."""
    script = "\n".join([
        "import numpy as np",
        "from deltacodes.field import Field",
        "from deltacodes.verify import _root_mask_counts, _root_masks",
        "assert False, 'asserts must be stripped'",
        "try:",
        "    _root_masks(Field(7), 4)",
        "    raise SystemExit('root masks built at q = 128')",
        "except ValueError as exc:",
        "    print(exc)",
        "zero = np.zeros(3, dtype=np.uint8)",
        "_root_mask_counts(Field(2), {(0, 0): (zero, zero), (3, 0): (zero, zero)})",
    ])
    proc = _run_optimized(script)
    assert proc.returncode == 1, proc.stderr
    assert "root masks are 64-bit, so q <= 64; got q = 128" in proc.stdout
    assert ("AssertionError: the root-mask walk needs the counted variable in degrees "
            "0, 1, 2 and 4") in proc.stderr


def test_scalar_predicates_return_python_values(F8):
    """The one-class views of the column predicates give Python values,
    not numpy scalars."""
    from deltacodes.geometry import classify_exceptional
    c = Conic(3, 0, 0, 5, 1, F8.mul(5, 5))
    assert type(is_degenerate(F8, c)) is bool
    assert type(classify_exceptional(F8, c)) is str
    assert type(build_family(F8, c).s) is int
    ints = {int}
    for coeffs, rational in (((1, 0, 1, 0, 1, 1), True), ((1, 1, 1, 0, 1, 0), False)):
        c = Conic(*coeffs)
        vbar, _ = solve_vbar(F8, c)
        if rational:
            assert type(vbar) is int
        else:
            assert type(vbar) is tuple and {type(v) for v in vbar} == ints
        for value in build_family(F8, c).H.coeffs.values():
            parts = value if isinstance(value, tuple) else (value,)
            assert {type(v) for v in parts} == ints
        for value in reducibility_details(F8, c).values():
            if isinstance(value, tuple):
                assert {type(v) for v in value} == ints
            else:
                assert type(value) in (bool, str, int)
