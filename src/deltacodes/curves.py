"""Derived plane curves controlling conic intersections with the point set.

A conic C with coefficients (a11, a12, a22, a13, a23, a33) pulls back under
(X, T) -> (X, (T^2 + T) X^2) to a quartic curve F(X, T); splitting off the
line X = 0 (with multiplicity s in {0, 1, 2}) leaves F^(s).  The shear
(X, T) -> (X, XT) turns these into G and G^(s), and a further quadratic
transformation built from a root vbar of a22*v^2 + a12*v + a11 turns G into
a cubic H.  Counting rational points of these curves recovers the size of
the conic's intersection with the point set, and reducibility of H tracks
degeneracy of C.

All point counting here is exhaustive evaluation; closed-form claims about
these curves are verified against such counts, never assumed.
count_affine_points evaluates a polynomial on the whole GF(q) x GF(q) grid
at once, as columns: every monomial value lies in GF(q), so a coefficient
of GF(q^r) scales it component by component with Field.mul_col and no
ExtField product is taken.  It shares no code with the root-mask walk of
verify, which counts the conic, F, G and H in its class sweeps.

Each formula is written once.  The conic, F and G come from one table of
terms per coefficient (CONIC_TERMS, QUARTIC_TERMS, SHEARED_TERMS), which
term_columns turns into the walk's coefficient columns.  The
coefficient-triple hypothesis, the split exponent s, vbar, the coefficients
of H, the tabulated N(F^(s)) - N(G^(s)) and the resultant-style quantities
of the reducibility criteria are functions over class columns
(triples_ok_columns, split_exponent_columns, vbar_columns, term_columns,
cubic_h_columns, f_minus_g_columns, lemma_case_columns, reducibility_columns),
which one class calls with its six coefficients.  The scalar API keeps the
views that add meaning: solve_vbar, build_family (the curves as Poly2) and
reducibility_details (a rational vbar enters as the pair (vbar, 0)).
has_linear_component decides reducibility of H on one class and returns
the lines it finds.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .field import ExtField, Field
from .geometry import Conic, build_delta, count_on_delta, in_sqrt_window, is_degenerate

AnyField = Union[Field, ExtField]


# ----------------------------------------------------------------------
# Sparse bivariate polynomials over a base or extension field
# ----------------------------------------------------------------------

class Poly2:
    """Sparse polynomial in two variables; coefficients live in one field
    (ints for the base field, tuples for an extension)."""

    __slots__ = ("field", "coeffs", "vars")

    def __init__(self, field: AnyField, coeffs: dict, variables: tuple[str, str] = ("X", "Y")):
        self.field = field
        self.coeffs = {e: c for e, c in coeffs.items() if c != field.zero}
        self.vars = variables

    def __repr__(self) -> str:
        if not self.coeffs:
            return "Poly2(0)"
        u, v = self.vars
        parts = [f"{c}*{u}^{i}{v}^{j}" for (i, j), c in sorted(self.coeffs.items())]
        return "Poly2(" + " + ".join(parts) + ")"

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly2) and self.field == other.field and self.coeffs == other.coeffs

    def degree(self) -> int:
        return max((i + j for i, j in self.coeffs), default=-1)

    def add(self, other: Poly2) -> Poly2:
        K = self.field
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = K.add(out.get(e, K.zero), c)
        return Poly2(K, out, self.vars)

    def mul(self, other: Poly2) -> Poly2:
        K = self.field
        out: dict = {}
        for (i1, j1), c1 in self.coeffs.items():
            for (i2, j2), c2 in other.coeffs.items():
                e = (i1 + i2, j1 + j2)
                out[e] = K.add(out.get(e, K.zero), K.mul(c1, c2))
        return Poly2(K, out, self.vars)

    def eval(self, x, y):
        K = self.field
        max_i = max((i for i, _ in self.coeffs), default=0)
        max_j = max((j for _, j in self.coeffs), default=0)
        xp = [K.one]
        for _ in range(max_i):
            xp.append(K.mul(xp[-1], x))
        yp = [K.one]
        for _ in range(max_j):
            yp.append(K.mul(yp[-1], y))
        acc = K.zero
        for (i, j), c in self.coeffs.items():
            acc = K.add(acc, K.mul(c, K.mul(xp[i], yp[j])))
        return acc

    def shift_down_x(self, s: int) -> Poly2:
        """Divide by X^s, assuming every term has X-exponent >= s."""
        if any(i < s for i, _ in self.coeffs):
            raise AssertionError(f"X^{s} does not divide every term of {self.dump()}")
        return Poly2(self.field, {(i - s, j): c for (i, j), c in self.coeffs.items()}, self.vars)

    def dump(self) -> list[tuple[int, int, str]]:
        """Sorted (i, j, hex coefficient) triples; extension coefficients
        are dumped as colon-joined component vectors."""
        out = []
        for (i, j), c in sorted(self.coeffs.items()):
            if isinstance(c, tuple):
                out.append((i, j, ":".join(format(v, "#x") for v in c)))
            else:
                out.append((i, j, format(c, "#x")))
        return out


def _grid_zeros(poly: Poly2, F: Field) -> np.ndarray:
    """Whether poly vanishes at (x, y), as a q x q boolean array indexed
    [x, y], over the whole GF(q) x GF(q) grid at once.

    Every monomial value x^i y^j lies in GF(q), so a coefficient
    (c0, ..., c_{r-1}) of GF(q^r) scales it component by component; a
    point is a zero when every component of the sum is.  GF(q)
    coefficients are the case r = 1.  Column arithmetic: q <= 256.
    """
    K, r = poly.field, 1
    if isinstance(K, ExtField):
        if K.base != F:
            raise ValueError("extension coefficients must sit over the counting field")
        r = K.degree
    elif K != F:
        raise ValueError("polynomial and grid live over different fields")
    F.mul_table  # raises ValueError above q = 256, before any column is built
    q = F.q
    x, y = (c.astype(F.np_dtype) for c in np.divmod(np.arange(q * q), q))
    powers = []
    for axis, var in enumerate((x, y)):
        cols = [np.ones_like(var)]
        for _ in range(max((e[axis] for e in poly.coeffs), default=0)):
            cols.append(F.vmul(cols[-1], var))
        powers.append(cols)
    acc = np.zeros((r, q * q), dtype=F.np_dtype)
    for (i, j), c in poly.coeffs.items():
        value = F.vmul(powers[0][i], powers[1][j])
        for k, ck in enumerate(c if isinstance(c, tuple) else (c,)):
            if ck:
                acc[k] ^= F.mul_col(value, ck)
    return ~acc.any(axis=0).reshape(q, q)


def count_affine_points(poly: Poly2, F: Field) -> int:
    """Number of (x, y) in GF(q) x GF(q) with poly(x, y) = 0.

    The polynomial may have coefficients in GF(q) or in an extension;
    counting is exhaustive over the q^2 base-field grid (_grid_zeros).
    """
    return int(np.count_nonzero(_grid_zeros(poly, F)))


# ----------------------------------------------------------------------
# Column formulas: vbar, H and the reducibility quantities per class
# ----------------------------------------------------------------------

# A column of GF(q^2) = GF(q)[rho] values, one per class, carried as the pair
# (c0, c1) of component columns of c0 + c1*rho; GF(q) values have c1 = 0.
# For one class the components are scalars.
Pair = tuple[np.ndarray, np.ndarray]


@functools.lru_cache(maxsize=None)
def _quadratic_extension(F: Field) -> tuple[ExtField, np.ndarray, np.ndarray]:
    """GF(q^2) over F, with the components of the least-encoded root of
    X^2 + X + w for every w in GF(q); all of them have a root there, since
    the trace over GF(q^2) of a GF(q) element is zero."""
    E = ExtField(F, 2)
    u0 = np.zeros(F.q, dtype=F.np_dtype)
    u1 = np.zeros(F.q, dtype=F.np_dtype)
    for w in F.elements():
        roots = E.solve_artin_schreier(E.embed(w))
        if roots is None:
            raise AssertionError(f"X^2 + X + {w} has no root in GF(q^2)")
        u0[w], u1[w] = roots[0]
    return E, u0, u1


def vanishes(p: Pair) -> np.ndarray:
    """Per class, whether a GF(q^2) column is zero."""
    return (p[0] == 0) & (p[1] == 0)


def _in_vbar(F: Field, powers: list[Pair], *coeffs) -> Pair:
    """coeffs[0] + coeffs[1]*vbar + coeffs[2]*vbar^2 + coeffs[3]*vbar^3 for
    base-field coefficient columns (None for zero), where powers holds
    vbar, vbar^2 and vbar^3.  The columns may be broadcastable axes of
    different shapes; each component takes the shape of its terms."""
    c0 = coeffs[0] if coeffs[0] is not None else np.zeros_like(powers[0][0])
    c1 = np.zeros_like(powers[0][1])
    for coeff, (p0, p1) in zip(coeffs[1:], powers):
        if coeff is not None:
            c0 = c0 ^ F.vmul(coeff, p0)
            c1 = c1 ^ F.vmul(coeff, p1)
    return c0, c1


def _vbar_powers(F: Field, vbar: Pair) -> list[Pair]:
    """vbar, vbar^2 and vbar^3."""
    E = _quadratic_extension(F)[0]
    v2 = E.vmul(vbar, vbar)
    return [vbar, v2, E.vmul(v2, vbar)]


def vbar_columns(F: Field, cols: Sequence[np.ndarray]) -> Pair:
    """Per class, a root vbar of a22*v^2 + a12*v + a11: in GF(q) when one
    exists there (then c1 = 0), otherwise in GF(q^2); zero where
    a12 = a22 = 0.  When a12*a22 != 0, vbar = (a12/a22)*t for the
    least-encoded root t of t^2 + t = a11*a22/a12^2."""
    a11, a12, a22 = cols[0], cols[1], cols[2]
    _, u0, u1 = _quadratic_extension(F)
    scale = F.vdiv(a12, a22)
    w = F.vdiv(F.vmul(a11, a22), F.vmul(a12, a12))
    v0 = np.where(a22 == 0, F.vdiv(a11, a12),
                  np.where(a12 == 0, F.sqrt_table[F.vdiv(a11, a22)], F.vmul(scale, u0[w])))
    return v0, F.vmul(scale, u1[w])


def cubic_h_columns(F: Field, cols: Sequence[np.ndarray], vbar: Pair) -> dict[tuple[int, int], Pair]:
    """The coefficients of H(X, V) per class, keyed by exponent (i, j) of
    X^i V^j:

      a22 X^2 V + a12 X^2 + a12 X V^2 + a23 X V + (vbar^2 a12 + vbar a23 + a13) X
      + (vbar a23 + a13) V^2 + a33 V + vbar^3 a23 + vbar^2 a13
    """
    a11, a12, a22, a13, a23, a33 = cols
    powers = _vbar_powers(F, vbar)
    zero = np.zeros_like(a11)
    return {
        (2, 1): (a22, zero),
        (2, 0): (a12, zero),
        (1, 2): (a12, zero),
        (1, 1): (a23, zero),
        (1, 0): _in_vbar(F, powers, a13, a23, a12),
        (0, 2): _in_vbar(F, powers, a13, a23),
        (0, 1): (a33, zero),
        (0, 0): _in_vbar(F, powers, None, None, a13, a23),
    }


def reducibility_columns(F: Field, cols: Sequence[np.ndarray], vbar: Pair,
                         h: dict[tuple[int, int], Pair]) -> dict[str, object]:
    """The stated linear-component criteria for H per class, with h the
    cubic_h_columns of the same classes and vbar.

    Returns the resultant-style quantities u12, r12, r13, q12, q13 and s12
    as cubics in vbar; `reducible`, the criterion matching each (a12, a22)
    pattern (u12 = 0 when both are nonzero, vbar*a23 + a13 = 0 when
    a12 = 0, s12 = 0 when a22 = 0); and the identities Q12 = a22*R12 and
    Q13 = a22^2*R13 + a12^2*R12 as boolean columns.
    """
    a11, a12, a22, a13, a23, a33 = cols
    mul = F.vmul
    powers = _vbar_powers(F, vbar)
    a12sq, a22sq, a23sq = mul(a12, a12), mul(a22, a22), mul(a23, a23)
    a12cu, a22cu = mul(a12sq, a12), mul(a22sq, a22)
    a22qu = mul(a22sq, a22sq)
    out: dict[str, object] = {
        "u12": _in_vbar(F, powers, mul(a12sq, a33) ^ mul(a12, mul(a13, a23)) ^ mul(a22, mul(a13, a13)),
                        mul(a12, a23sq), mul(a22, a23sq)),
        "r12": _in_vbar(F, powers, a12cu ^ mul(a12, mul(a22, a23)) ^ mul(a22sq, a13),
                        mul(a22sq, a23), mul(a12, a22sq)),
        "r13": _in_vbar(F, powers, mul(a12, mul(a22, a33)) ^ mul(a12sq, a13),
                        mul(a12sq, a23), mul(a22sq, a13), mul(a22sq, a23)),
        "q12": _in_vbar(F, powers, mul(a12cu, a22) ^ mul(a12, mul(a22sq, a23)) ^ mul(a22cu, a13),
                        mul(a22cu, a23), mul(a12, a22cu)),
        "q13": _in_vbar(F, powers, mul(a12cu, a12sq) ^ mul(a12cu, mul(a22, a23)) ^ mul(a12, mul(a22cu, a33)),
                        None, mul(a12cu, a22sq) ^ mul(a22qu, a13), mul(a22qu, a23)),
        "s12": _in_vbar(F, powers, mul(a12, a33) ^ mul(a13, a23), a23sq),
    }
    r12, r13 = out["r12"], out["r13"]
    out["reducible"] = np.where(a22 == 0, vanishes(out["s12"]),
                                np.where(a12 == 0, vanishes(h[(0, 2)]), vanishes(out["u12"])))
    out["identity_q12"] = vanishes(tuple(q ^ mul(a22, r) for q, r in zip(out["q12"], r12)))
    out["identity_q13"] = vanishes(tuple(
        q ^ mul(a22sq, r3) ^ mul(a12sq, r2) for q, r3, r2 in zip(out["q13"], r13, r12)))
    return out


# ----------------------------------------------------------------------
# The curve family of a conic
# ----------------------------------------------------------------------

def triples_ok_columns(coeffs):
    """The running hypothesis of the intersection analysis, for the six
    coefficients of one conic or for class columns: each of the triples
    (a11,a12,a22), (a11,a13,a33), (a11,a22,a23), (a12,a13,a23),
    (a22,a23,a33) contains a nonzero entry."""
    a11, a12, a22, a13, a23, a33 = (c != 0 for c in coeffs)
    return ((a11 | a12 | a22) & (a11 | a13 | a33) & (a11 | a22 | a23)
            & (a12 | a13 | a23) & (a22 | a23 | a33))


def split_exponent_columns(coeffs):
    """The multiplicity s of the line X = 0 in the pullback quartic, F =
    X^s * F^(s), for the six coefficients of one conic or for class
    columns: 0 when a33 != 0, 1 when a33 = 0 and a13 != 0, otherwise 2
    (a11 != 0 under the coefficient-triple hypothesis)."""
    a11, a12, a22, a13, a23, a33 = coeffs
    return (a33 == 0) * (np.uint8(1) + (a13 == 0))


@dataclass
class CurveFamily:
    s: int                      # multiplicity of the split-off line X = 0
    F: Poly2                    # quartic pullback, variables (X, T)
    F_s: Poly2                  # F with X^s removed
    G: Poly2                    # sheared curve, variables (X, V)
    G_s: Poly2
    vbar: Optional[object]      # root of a22 v^2 + a12 v + a11 (None when a12 = a22 = 0)
    vfield: Optional[AnyField]  # field containing vbar
    H: Optional[Poly2]          # cubic image of G, variables (X, V)

    @property
    def vbar_rational(self) -> bool:
        return self.vfield is not None and isinstance(self.vfield, Field)


# Each conic coefficient (a11, a12, a22, a13, a23, a33) multiplies the sum
# of these monomials: X^i Y^j in the conic, X^i T^j in the pullback quartic
# F, X^i V^j in G.
CONIC_TERMS = (((2, 0),), ((1, 1),), ((0, 2),), ((1, 0),), ((0, 1),), ((0, 0),))
QUARTIC_TERMS = (((2, 0),), ((3, 2), (3, 1)), ((4, 4), (4, 2)), ((1, 0),), ((2, 2), (2, 1)), ((0, 0),))
SHEARED_TERMS = (((2, 0),), ((1, 2), (2, 1)), ((0, 4), (2, 2)), ((1, 0),), ((1, 1), (0, 2)), ((0, 0),))


def _kept(s: int) -> list[bool]:
    """The coefficients left in F^(s) and G^(s): splitting X^s off F drops
    a13 (s = 2) and a33 (s >= 1), which vanish on such conics."""
    return [min(i for i, _ in terms) >= s for terms in QUARTIC_TERMS]


def _pullback_quartic(F: Field, conic: Conic) -> Poly2:
    return Poly2(F, {e: c for c, terms in zip(conic.coeffs(), QUARTIC_TERMS) for e in terms},
                 ("X", "T"))


def _sheared_curve(F: Field, conic: Conic, drop: int) -> Poly2:
    return Poly2(F, {e: c for c, terms, keep in zip(conic.coeffs(), SHEARED_TERMS, _kept(drop))
                     if keep for e in terms}, ("X", "V"))


def term_columns(cols: Sequence[np.ndarray], terms, counted: int) -> dict[tuple[int, int], tuple]:
    """A term table's curve per class, as verify's root-mask walk counts it
    in U on the lines V = v: keyed by exponent (i, j) of U^i V^j, where U
    is the variable at position `counted` of the table's exponent pairs,
    each coefficient as the one component column of a GF(q) value."""
    return {(e[counted], e[1 - counted]): (c,) for c, es in zip(cols, terms) for e in es}


def _from_pair(K: AnyField, p: Pair):
    """A one-class GF(q^2) value as an element of K: an int, or a tuple of
    two ints."""
    if isinstance(K, ExtField):
        return int(p[0]), int(p[1])
    return int(p[0])


def solve_vbar(F: Field, conic: Conic) -> tuple[object, AnyField]:
    """The one-class view of vbar_columns: a root of a22*v^2 + a12*v + a11
    and the field holding it, GF(q) when possible, otherwise GF(q^2)."""
    if conic.a12 == 0 and conic.a22 == 0:
        raise ValueError("vbar needs a12 != 0 or a22 != 0")
    vbar = vbar_columns(F, conic.coeffs())
    K = _quadratic_extension(F)[0] if vbar[1] else F
    return _from_pair(K, vbar), K


def _cubic_h(K: AnyField, conic: Conic, vbar, ordering: int) -> Poly2:
    """The cubic image of G, from either of the two displayed coefficient
    groupings; both must produce the same polynomial.  Ordering 0 is the
    one-class view of cubic_h_columns; ordering 1 groups by powers of V and
    is kept as the independent check of it."""
    if ordering == 0:
        F, pair = (K.base, vbar) if isinstance(K, ExtField) else (K, (vbar, 0))
        h = cubic_h_columns(F, conic.coeffs(), pair)
        return Poly2(K, {e: _from_pair(K, c) for e, c in h.items()}, ("X", "V"))
    if isinstance(K, ExtField):
        a11, a12, a22, a13, a23, a33 = (K.embed(c) for c in conic.coeffs())
    else:
        a11, a12, a22, a13, a23, a33 = conic.coeffs()
    v1 = vbar
    v2 = K.mul(v1, v1)
    mul, add = K.mul, K.add
    # grouping by powers of V: (a12 X + v a23 + a13) V^2 + (a22 X^2 + a23 X + a33) V
    #                          + (X + v^2)(a12 X + v a23 + a13)
    lin = Poly2(K, {(1, 0): a12, (0, 0): add(mul(v1, a23), a13)}, ("X", "V"))
    mid = Poly2(K, {(2, 1): a22, (1, 1): a23, (0, 1): a33}, ("X", "V"))
    sqr = Poly2(K, {(1, 0): K.one, (0, 0): v2}, ("X", "V"))
    v2_term = Poly2(K, {(0, 2): K.one}, ("X", "V"))
    return lin.mul(v2_term).add(mid).add(sqr.mul(lin))


def build_family(F: Field, conic: Conic) -> CurveFamily:
    """Construct F, F^(s), G, G^(s) (always) and vbar, H (when a12 or a22
    is nonzero) for a conic satisfying the coefficient-triple hypothesis."""
    if not triples_ok_columns(conic):
        raise ValueError(f"conic {conic.coeffs()} violates the coefficient-triple hypothesis")
    s = int(split_exponent_columns(conic))
    quartic = _pullback_quartic(F, conic)
    f_s = quartic if s == 0 else quartic.shift_down_x(s)
    g = _sheared_curve(F, conic, drop=0)
    g_s = _sheared_curve(F, conic, drop=s)

    vbar = vfield = h = None
    if conic.a12 or conic.a22:
        vbar, K = solve_vbar(F, conic)
        a11, a12, a22 = _embed_all(K, conic.coeffs()[:3])
        if K.add(K.mul(K.add(K.mul(a22, vbar), a12), vbar), a11) != K.zero:
            raise AssertionError(f"vbar = {vbar} is not a root of a22 v^2 + a12 v + a11 "
                                 f"for {conic.coeffs()}")
        h = _cubic_h(K, conic, vbar, ordering=0)
        if h != _cubic_h(K, conic, vbar, ordering=1):
            raise AssertionError(f"the two groupings of H differ for {conic.coeffs()}")
        vfield = K
    return CurveFamily(s=s, F=quartic, F_s=f_s, G=g, G_s=g_s,
                       vbar=vbar, vfield=vfield, H=h)


# ----------------------------------------------------------------------
# Point-count relations and the intersection lemma
# ----------------------------------------------------------------------

def g_axis_root_count(F: Field, conic: Conic, s: int) -> int:
    """Closed-form number of points of G^(s) on the line X = 0, i.e. roots
    of a22 V^4 + a23 V^2 (+ a33 for s = 0); squaring is a bijection, so the
    count equals the number of roots of the halved quadratic."""
    a22, a23, a33 = conic.a22, conic.a23, conic.a33
    if s > 0:
        a33 = 0
    if a22 == 0 and a23 == 0:
        return 0 if a33 != 0 else F.q  # the latter never occurs under the hypothesis
    if a22 == 0:
        return 1
    if a23 == 0:
        return 1
    if a33 == 0:
        return 2  # V^2 (a22 V^2 + a23): roots 0 and sqrt(a23/a22)
    b = F.div(F.mul(a22, a33), F.mul(a23, a23))
    return 2 if F.trace(b) == 0 else 0


def f_minus_g_columns(F: Field, cols: Sequence[np.ndarray], s: int) -> np.ndarray:
    """The tabulated value of N(F^(s)) - N(G^(s)) per class, as int8, per
    the three displayed relation tables."""
    a11, a12, a22, a13, a23, a33 = cols
    tr = F.trace_table
    one, two = np.int8(1), np.int8(2)
    if s == 0:
        b = F.vdiv(F.vmul(a22, a33), F.vmul(a23, a23))
        return np.where((a22 != 0) & (a23 != 0), np.where(tr[b] == 1, 0, -two),
                        np.where((a22 == 0) & (a23 == 0), 0, -one))
    if s == 1:
        return np.where((a23 == 0) | (a22 == 0), -one, -two)
    tz = tr[F.vdiv(a11, a23)] == 0
    return np.where(a23 == 0, -one, np.where(a22 == 0, np.where(tz, one, -one),
                                             np.where(tz, 0, -two)))


def verify_count_relations(F: Field, conic: Conic) -> dict:
    """Brute-force both sides of the applicable N(F^(s)) vs N(G^(s))
    relation and report whether the tabulated difference holds."""
    fam = build_family(F, conic)
    f_zeros, g_zeros = _grid_zeros(fam.F_s, F), _grid_zeros(fam.G_s, F)
    n_f, n_g = int(np.count_nonzero(f_zeros)), int(np.count_nonzero(g_zeros))
    predicted = int(f_minus_g_columns(F, conic, fam.s))
    # independent axis cross-check: the difference comes from points on X = 0
    f_axis, g_axis = int(np.count_nonzero(f_zeros[0])), int(np.count_nonzero(g_zeros[0]))
    return {
        "s": fam.s,
        "n_f": n_f,
        "n_g": n_g,
        "predicted_diff": predicted,
        "ok": n_f - n_g == predicted,
        "axis_ok": (f_axis - g_axis) == (n_f - n_g),
        "g_axis_closed_form_ok": g_axis == g_axis_root_count(F, conic, fam.s),
    }


def lemma_case_columns(F: Field, cols: Sequence[np.ndarray]) -> np.ndarray:
    """The case (1-4) of the intersection lemma per class, as uint8: case
    s + 1 for the split exponent s = 0 or 1, and for s = 2, 4 when
    a23 != 0 and trace(a11/a23) = 0, otherwise 3."""
    a11, a12, a22, a13, a23, a33 = cols
    s = split_exponent_columns(cols)
    open_case = (a23 != 0) & (F.trace_table[F.vdiv(a11, a23)] == 0)
    return np.where(s < 2, s + 1, np.where(open_case, np.uint8(4), 3))


def lemma_rhs(n_f_s, case):
    """The lemma's value of |DeltaBar ∩ C| from N(F^(s)): n/2, plus one in
    cases 2 and 3; for one class or a column of classes."""
    return n_f_s // 2 + ((case == 2) | (case == 3))


def verify_lemma_delta(F: Field, conic: Conic) -> dict:
    """Check |DeltaBar ∩ C| against its expression through N(F^(s))."""
    lhs = count_on_delta(F, conic, build_delta(F, include_origin=True))
    case = int(lemma_case_columns(F, conic))
    n = count_affine_points(build_family(F, conic).F_s, F)
    rhs = int(lemma_rhs(n, case))
    halves_ok = n % 2 == 0
    return {"case": case, "lhs": lhs, "rhs": rhs, "n_f_s": n, "ok": lhs == rhs and halves_ok}


# ----------------------------------------------------------------------
# Reducibility of the cubic H versus degeneracy of the conic
# ----------------------------------------------------------------------

def _embed_all(K: AnyField, values):
    if isinstance(K, ExtField):
        return [K.embed(v) for v in values]
    return list(values)


def reducibility_details(F: Field, conic: Conic) -> dict:
    """The one-class view of reducibility_columns, with the actual vbar.

    Returns the resultant-style quantities for the three line directions
    together with the applicable criterion value; `reducible` reflects the
    case split on (a12, a22).  These are the criteria as stated; they agree
    with the degeneracy test of the conic, but when a12 and a22 are both
    nonzero they miss line components through the infinite point
    (a22 : a12 : 0), so they do not decide actual reducibility of H.  See
    has_linear_component for the complete three-pencil test.
    """
    fam = build_family(F, conic)
    if fam.H is None:
        raise ValueError("H requires a12 != 0 or a22 != 0")
    K, coeffs = fam.vfield, conic.coeffs()
    vbar = fam.vbar if isinstance(K, ExtField) else (fam.vbar, 0)
    red = reducibility_columns(F, coeffs, vbar, cubic_h_columns(F, coeffs, vbar))
    if conic.a12 and conic.a22:
        criterion = "u12"
    elif conic.a22:  # a12 = 0
        criterion = "vbar*a23+a13"
    else:  # a22 = 0, a12 != 0
        criterion = "s12"
    out = {"criterion": criterion}
    out.update((key, bool(red[key])) for key in ("reducible", "identity_q12", "identity_q13"))
    out.update((key, _from_pair(K, red[key])) for key in ("u12", "r12", "r13", "q12", "q13", "s12"))
    return out


def _line_divides(h: Poly2, K: AnyField, a, b, c) -> bool:
    """Does the line a*X + b*V + c = 0 divide the cubic h?  A cubic either
    contains a line or meets it in at most three points, so vanishing at
    four distinct points of the line decides divisibility."""
    pts = []
    for t in K.elements():
        if b != K.zero:
            pts.append((t, K.mul(K.inv(b), K.add(K.mul(a, t), c))))
        else:
            pts.append((K.mul(K.inv(a), c), t))
        if len(pts) == 4:
            break
    return all(h.eval(x, v) == K.zero for x, v in pts)


def has_linear_component(F: Field, conic: Conic) -> tuple[bool, list]:
    """Complete test for linear components of H over the field of vbar.

    Any line component passes through one of the three infinite points of
    H, and each of those pencils admits at most one candidate line (its
    leading coefficient condition is linear), so three divisibility tests
    decide reducibility of H over the algebraic closure.
    """
    fam = build_family(F, conic)
    if fam.H is None:
        raise ValueError("H requires a12 != 0 or a22 != 0")
    K = fam.vfield
    h = fam.H
    a11, a12, a22, a13, a23, a33 = _embed_all(K, conic.coeffs())
    vb = fam.vbar
    lines = []
    s = K.add(K.mul(vb, a23), a13)  # vbar*a23 + a13, the recurring combination
    if conic.a12:
        # pencil through (0 : 0 : 1)-direction V-infinity: X = x*
        x_star = K.mul(K.inv(a12), s)
        if _line_divides(h, K, K.one, K.zero, x_star):
            lines.append(("x", x_star))
    elif s == K.zero:
        # a12 = 0: every vertical candidate shares the leading condition
        for x0 in K.elements():
            if _line_divides(h, K, K.one, K.zero, x0):
                lines.append(("x", x0))
    if conic.a22:
        v_star = K.mul(K.inv(a22), a12)
        if _line_divides(h, K, K.zero, K.one, v_star):
            lines.append(("v", v_star))
    if conic.a12 and conic.a22:
        # pencil through (a22 : a12 : 0): a22*X + a12*V = w*
        num = K.add(K.add(K.mul(a12, K.mul(a12, a12)), K.mul(a12, K.mul(a22, a23))),
                    K.mul(K.mul(a22, a22), s))
        w_star = K.mul(K.inv(K.mul(a12, a22)), num)
        if _line_divides(h, K, a22, a12, w_star):
            lines.append(("w", w_star))
    return bool(lines), lines


# ----------------------------------------------------------------------
# Window checks for the cubic
# ----------------------------------------------------------------------

def in_rational_affine_window(n: int, q: int) -> bool:
    return q - 3 <= n <= q


def hasse_window_check(F: Field, conic: Conic) -> dict:
    """Count N(G) and N(H) and test the claims that they agree and that
    N(H) falls in the union of the elliptic and rational affine windows.

    Violations are reported with the offending coefficient tuple, never
    silently absorbed.
    """
    fam = build_family(F, conic)
    if fam.H is None:
        raise ValueError("H requires a12 != 0 or a22 != 0")
    if is_degenerate(F, conic):
        raise ValueError("window check applies to non-degenerate conics")
    n_g = count_affine_points(fam.G, F)
    n_h = count_affine_points(fam.H, F)
    in_window = in_sqrt_window(n_h, F.q) or in_rational_affine_window(n_h, F.q)
    return {
        "conic": conic.coeffs(),
        "n_g": n_g,
        "n_h": n_h,
        "counts_equal": n_g == n_h,
        "in_window": in_window,
        "vbar_rational": fam.vbar_rational,
        "ok": n_g == n_h and in_window,
    }
