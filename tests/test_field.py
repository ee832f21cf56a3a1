import functools
import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from deltacodes import field
from deltacodes.field import (
    ExtField,
    Field,
    default_modulus,
    is_irreducible_gf2,
    modulus_hex,
    parse_modulus,
)


def test_default_moduli_are_the_small_standards():
    assert default_modulus(2) == 0x7
    assert default_modulus(3) == 0xB
    assert default_modulus(4) == 0x13
    assert default_modulus(5) == 0x25
    assert default_modulus(6) == 0x43


@pytest.mark.parametrize("h", range(2, 11))
def test_default_modulus_is_least_irreducible(h):
    m = default_modulus(h)
    assert is_irreducible_gf2(m)
    for cand in range((1 << h) + 1, m, 2):
        assert not is_irreducible_gf2(cand)


def test_modulus_validation():
    with pytest.raises(ValueError):
        Field(3, modulus=0x9)  # x^3 + 1 = (x + 1)(x^2 + x + 1)
    with pytest.raises(ValueError):
        Field(3, modulus=0x13)  # degree 4, not 3
    with pytest.raises(ValueError):
        Field(1)
    assert parse_modulus("0xB") == 11
    assert modulus_hex(11) == "0xB"


def test_gf4_arithmetic(F4):
    omega, omega2 = 2, 3
    assert F4.add(omega, omega2) == 1
    assert F4.mul(omega, omega) == omega2
    assert F4.sqrt(omega) == omega2
    assert all(F4.add(x, x) == 0 for x in F4.elements())
    assert F4.add(0, 3) == 3


def test_gf8_generator_cube(F8):
    g = 2
    assert F8.pow(g, 3) == g ^ 1  # x^3 = x + 1 under the default modulus
    assert F8.trace(g) == 0
    assert F8.mul(F8.mul(g, g), g) == 3


@pytest.mark.parametrize("h", [2, 3, 4])
def test_field_axioms_exhaustive(h):
    F = Field(h)
    elems = list(F.elements())
    for a in elems:
        for b in elems:
            assert F.mul(a, b) == F.mul(b, a)
            assert F.mul(a, b ^ 1 ^ b) == F.mul(a, 1)
    for a in elems:
        for b in elems:
            for c in elems:
                assert F.mul(a, F.mul(b, c)) == F.mul(F.mul(a, b), c)
                assert F.mul(a, b ^ c) == F.mul(a, b) ^ F.mul(a, c)
    for a in range(1, F.q):
        assert F.mul(a, F.inv(a)) == 1


def test_inversion_of_zero_raises(F8):
    with pytest.raises(ZeroDivisionError):
        F8.inv(0)


def test_table_mul_matches_raw_mul(F16):
    for a in F16.elements():
        for b in F16.elements():
            assert F16.mul(a, b) == F16._mul_raw(a, b)


@pytest.mark.parametrize("h", [2, 3, 4, 5])
def test_trace_basics(h):
    F = Field(h)
    assert F.trace(0) == 0
    zeros = [x for x in F.elements() if F.trace(x) == 0]
    assert len(zeros) == F.q // 2
    for a in F.elements():
        for b in F.elements():
            assert F.trace(a ^ b) == F.trace(a) ^ F.trace(b)


@pytest.mark.parametrize("h", [2, 3, 4, 5, 6])
def test_artin_schreier(h):
    F = Field(h)
    assert F.solve_artin_schreier(0) == (0, 1)
    for v in F.elements():
        roots = F.solve_artin_schreier(v)
        if F.trace(v) == 0:
            t, t1 = roots
            assert t1 == t ^ 1
            assert F.mul(t, t) ^ t == v
        else:
            assert roots is None


def test_artin_schreier_gf4_omega(F4):
    assert F4.trace(2) == 1
    assert F4.solve_artin_schreier(2) is None


@pytest.mark.parametrize("h", [2, 3, 4, 5, 6])
def test_sqrt_is_inverse_of_squaring(h):
    F = Field(h)
    assert F.sqrt(0) == 0 and F.sqrt(1) == 1
    for x in F.elements():
        assert F.sqrt(F.mul(x, x)) == x
        s = F.sqrt(x)
        assert F.mul(s, s) == x


def test_extension_frobenius(F4):
    E = ExtField(F4, 3)
    for c in F4.elements():
        assert E.frobenius(E.embed(c)) == E.embed(c)
    moved = 0
    for x in E.elements():
        y = E.frobenius(E.frobenius(E.frobenius(x)))
        assert y == x
        if E.frobenius(x) != x:
            moved += 1
            assert not E.in_base(x)
        else:
            assert E.in_base(x)
    assert moved == 64 - 4


def test_extension_embedding_respects_ops(F8):
    E = ExtField(F8, 2)
    for a in F8.elements():
        for b in F8.elements():
            assert E.mul(E.embed(a), E.embed(b)) == E.embed(F8.mul(a, b))
            assert E.add(E.embed(a), E.embed(b)) == E.embed(a ^ b)


@pytest.mark.parametrize("r", [2, 3])
def test_extension_vmul_matches_mul(F8, r):
    import numpy as np
    E = ExtField(F8, r)
    elems = list(E.elements())
    pairs = [(a, b) for a in elems[::5] for b in elems[::7]]
    a_cols = [np.array([a[t] for a, _ in pairs], dtype=F8.np_dtype) for t in range(r)]
    b_cols = [np.array([b[t] for _, b in pairs], dtype=F8.np_dtype) for t in range(r)]
    prod = E.vmul(a_cols, b_cols)
    assert [tuple(int(c[k]) for c in prod) for k in range(len(pairs))] == \
        [E.mul(a, b) for a, b in pairs]


def test_extension_inverse_and_artin_schreier(F4):
    E = ExtField(F4, 2)
    for x in E.elements():
        if x == E.zero:
            with pytest.raises(ZeroDivisionError):
                E.inv(x)
            continue
        assert E.mul(x, E.inv(x)) == E.one
    solvable = sum(1 for v in E.elements() if E.solve_artin_schreier(v) is not None)
    assert solvable == 8  # half of the 16 elements
    for v in E.elements():
        roots = E.solve_artin_schreier(v)
        if roots:
            t, t1 = roots
            assert E.add(t, t1) == E.one
            assert E.add(E.mul(t, t), t) == v


def test_rejects_unsupported_sizes():
    with pytest.raises(ValueError):
        Field(21)
    with pytest.raises(ValueError):
        ExtField(Field(2), 4)


def test_table_free_arithmetic_above_table_limit():
    # q = 2^17 skips the log tables and multiplies carry-lessly
    F = Field(17)
    assert F._exp is None
    a, b = 0x1F3A7, 0x0BEEF
    assert F.mul(a, F.inv(a)) == 1
    assert F.mul(a, b) == F.mul(b, a)
    assert F.mul(F.sqrt(a), F.sqrt(a)) == a
    assert F.trace(0) == 0 and F.trace(a) in (0, 1)
    roots = F.solve_artin_schreier(F.mul(b, b) ^ b)
    assert roots is not None and b in roots


@pytest.mark.parametrize("h", range(2, 9))
def test_column_arithmetic_matches_scalar(h):
    """vmul, vdiv and mul_col against scalar mul and div on every pair, on
    columns and (vmul, vdiv) on plain ints; division by 0 gives 0."""
    F = Field(h)
    q = F.q
    elems = np.arange(q, dtype=F.np_dtype)
    a, b = np.repeat(elems, q), np.tile(elems, q)
    pairs = [(x, y) for x in range(q) for y in range(q)]
    prod = [F.mul(x, y) for x, y in pairs]
    quot = [F.div(x, y) if y else 0 for x, y in pairs]
    assert F.vmul(a, b).tolist() == prod
    assert F.vdiv(a, b).tolist() == quot
    assert np.concatenate([F.mul_col(elems, s) for s in range(q)]).tolist() == prod
    on_ints = [F.vmul(x, y) for x, y in pairs]
    assert on_ints == prod and all(isinstance(v, np.generic) for v in on_ints)
    assert [F.vdiv(x, y) for x, y in pairs] == quot


def test_column_arithmetic_stops_at_256():
    F = Field(9)
    with pytest.raises(ValueError):
        F.vmul(np.array([1, 2]), np.array([3, 4]))
    with pytest.raises(ValueError):
        F.mul_col(np.array([1, 2]), 3)
    assert "mul_table" not in vars(F)
    assert F.mul(3, F.inv(3)) == 1  # scalar arithmetic is unaffected


# ----------------------------------------------------------------------
# GF(q^r): log/antilog tables and the linear Frobenius against schoolbook
# ----------------------------------------------------------------------

def _raw_pow(E, a, e):
    """a^e by square and multiply on the schoolbook product, e >= 0."""
    r = E.one
    while e:
        if e & 1:
            r = E._mul_raw(r, a)
        a = E._mul_raw(a, a)
        e >>= 1
    return r


def _raw_frobenius(E, a):
    """a^q as h schoolbook squarings."""
    for _ in range(E.base.h):
        a = E._mul_raw(a, a)
    return a


def _check_table_arithmetic(E, pairs):
    assert E._tables is not None
    n = E.order - 1
    for a, b in pairs:
        assert E.mul(a, b) == E._mul_raw(a, b)
    for a, _ in pairs:
        for e in (0, 1, 2, 5, n - 1, n, n + 3):
            assert E.pow(a, e) == _raw_pow(E, a, e)
        if a != E.zero:
            inv = E.inv(a)
            assert E._mul_raw(a, inv) == E.one
            assert E.pow(a, -3) == _raw_pow(E, inv, 3)


@pytest.mark.parametrize("h, r", [(2, 2), (2, 3), (3, 2), (4, 2)])
def test_ext_tables_match_schoolbook_on_every_pair(h, r):
    """Orders 16, 64, 64 and 256: every product, and pow and inv of every
    element."""
    E = ExtField(Field(h), r)
    elems = list(E.elements())
    assert E.order <= 256
    for a in elems:
        for b in elems:
            assert E.mul(a, b) == E._mul_raw(a, b)
    _check_table_arithmetic(E, [(a, a) for a in elems])


@pytest.mark.parametrize("h, r", [(4, 3), (6, 2), (7, 2)])
def test_ext_tables_match_schoolbook_sampled(h, r):
    """Orders 4096 (both ways) and 2^14 = 16384, the table limit."""
    E = ExtField(Field(h), r)
    assert E.order <= field._EXT_TABLE_LIMIT
    rng = random.Random(E.order + r)
    draw = lambda: tuple(rng.randrange(E.base.q) for _ in range(r))
    _check_table_arithmetic(E, [(draw(), draw()) for _ in range(400)] + [(E.zero, draw())])


def test_ext_tables_stop_at_the_limit():
    E = ExtField(Field(5), 3)  # order 32768
    assert E.order > field._EXT_TABLE_LIMIT
    assert E._tables is None
    a, b = (3, 17, 29), (30, 0, 1)
    assert E.mul(a, b) == E._mul_raw(a, b)
    assert E._mul_raw(a, E.inv(a)) == E.one


@pytest.mark.parametrize("h", [2, 3, 4])
@pytest.mark.parametrize("r", [2, 3])
def test_frobenius_is_h_schoolbook_squarings(h, r):
    E = ExtField(Field(h), r)
    for a in E.elements():
        assert E.frobenius(a) == _raw_frobenius(E, a)


@pytest.mark.parametrize("h", [5, 6])
@pytest.mark.parametrize("r", [2, 3])
def test_frobenius_is_h_schoolbook_squarings_sampled(h, r):
    """q = 32 and 64, GF(64^3) (order 2^18) far above the table limit."""
    E = ExtField(Field(h), r)
    rng = random.Random(h * r)
    for _ in range(200):
        a = tuple(rng.randrange(E.base.q) for _ in range(r))
        assert E.frobenius(a) == _raw_frobenius(E, a)


def test_ext_tables_are_built_once_and_only_on_use():
    # other tests build GF(16^3) under every modulus, so start from empty caches
    field._ext_log_tables.cache_clear()
    field._ext_frobenius_table.cache_clear()
    F = Field(4, modulus=0x19)  # x^4 + x^3 + 1
    tables, frob = field._ext_log_tables.cache_info(), field._ext_frobenius_table.cache_info()
    E1, E2 = ExtField(F, 3), ExtField(Field(4, modulus=0x19), 3)
    assert field._ext_log_tables.cache_info() == tables
    assert field._ext_frobenius_table.cache_info() == frob
    assert "_tables" not in vars(E1) and "_frobenius_table" not in vars(E2)
    x = (1, 2, 3)
    assert E1.mul(x, x) == E2.mul(x, x) == E1._mul_raw(x, x)
    assert E2.inv(x) == E1.inv(x)
    assert E1.frobenius(x) == E2.frobenius(x)
    assert field._ext_log_tables.cache_info().misses == tables.misses + 1
    assert field._ext_frobenius_table.cache_info().misses == frob.misses + 1
    assert E1._tables is E2._tables


def test_field_tables_are_built_once_and_only_on_use():
    names = ("mul_table", "inv_table", "trace_table", "sqrt_table", "artin_schreier_table",
             "_theta_weights")
    F = Field(4)
    assert not set(names) & set(vars(F))
    F.vdiv(1, 1)
    assert set(names) & set(vars(F)) == {"mul_table", "inv_table"}
    assert F.mul_table is F.mul_table and F.inv_table is F.inv_table
    F = Field(9)
    for _ in range(2):
        with pytest.raises(ValueError, match="q <= 256"):
            F.mul_table
    assert not set(names) & set(vars(F))


def test_ext_table_builder_raises_on_a_non_primitive_generator(monkeypatch):
    """Without the cofactor test the builder takes x, which has order 3 in
    GF(8^2) over x^3 + x^2 + 1; the repeat is raised, not asserted, so it
    survives python -O.  The cached tables of an earlier test's GF(8^2)
    are dropped, so that the builder runs."""
    monkeypatch.setattr(field, "_prime_factors", lambda n: [])
    field._ext_log_tables.cache_clear()
    with pytest.raises(RuntimeError, match="repeat"):
        ExtField(Field(3, modulus=0xD), 2).mul((1, 1), (1, 1))


@functools.lru_cache(maxsize=None)
def _base(h):
    return Field(h)


@st.composite
def _base_triples(draw):
    F = _base(draw(st.integers(2, 20)))
    elem = st.integers(0, F.q - 1)
    return F, draw(elem), draw(elem), draw(elem)


@given(_base_triples())
def test_field_axioms_property(case):
    """GF(2^h), h = 2 .. 20: log tables up to order 2^16, reduction above."""
    F, a, b, c = case
    assert F.mul(a, F.mul(b, c)) == F.mul(F.mul(a, b), c)
    assert F.mul(a, b ^ c) == F.mul(a, b) ^ F.mul(a, c)
    assert F.mul(a, b) == F.mul(b, a) == F._mul_raw(a, b)
    if a:
        assert F.mul(a, F.inv(a)) == 1


@functools.lru_cache(maxsize=None)
def _ext(h, r):
    return ExtField(Field(h), r)


@st.composite
def _ext_triples(draw):
    E = _ext(draw(st.integers(2, 6)), draw(st.sampled_from([2, 3])))
    elem = st.tuples(*[st.integers(0, E.base.q - 1)] * E.degree)
    return E, draw(elem), draw(elem), draw(elem)


@given(_ext_triples())
def test_ext_field_axioms_property(case):
    """GF(q^r), q = 4 .. 64: the table path up to order 2^14, schoolbook above."""
    E, a, b, c = case
    assert E.mul(a, E.mul(b, c)) == E.mul(E.mul(a, b), c)
    assert E.mul(a, E.add(b, c)) == E.add(E.mul(a, b), E.mul(a, c))
    assert E.mul(a, b) == E.mul(b, a)
    if a != E.zero:
        assert E.mul(a, E.inv(a)) == E.one
