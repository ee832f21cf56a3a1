"""The affine plane over GF(q), the evaluation set, and conics.

The evaluation set Delta is the union of the parabolas Y = a*X^2 over the
trace-zero elements a, minus the origin; DeltaBar includes the origin.  It
equals the image of the points with distinct coordinates under the
symmetric-function map (x1, x2) -> (x1 + x2, x1 * x2).

A line a*X + b*Y + c = 0 is the conic (0, 0, 0, a, b, c).  Intersection
counts of lines and conics with Delta are provided both by closed-form case
analysis and by direct evaluation over the point set; the closed forms are
never trusted without the brute-force oracle.

The degeneracy criterion, the exceptional families and the closed form of
the parabola family a12 = a22 = 0 are written once, over the six
coefficients of one conic or over class columns (degeneracy_columns,
exceptional_columns, parabola_count_closed_form); is_degenerate,
classify_exceptional and line_counts are the one-class views that add
meaning.  The stated line case list, line_delta_count_closed_form, is
likewise written once over one (a, b, c) or over columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from .field import ExtField, Field

Coeffs6 = tuple[int, int, int, int, int, int]  # (a11, a12, a22, a13, a23, a33)

# exceptional-family identifiers for intersection sizes outside the generic window
EXC_PARABOLA = "parabola-orbit"       # a12=a22=0, a23!=0, a13^2 = a23*a33
EXC_VERTICAL_PAIR = "vertical-pair"   # a12=a22=a23=0, a11*a13*a33 != 0


# ----------------------------------------------------------------------
# Conics
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Conic:
    """a11*X^2 + a12*XY + a22*Y^2 + a13*X + a23*Y + a33 = 0, not all zero."""

    a11: int
    a12: int
    a22: int
    a13: int
    a23: int
    a33: int

    def coeffs(self) -> Coeffs6:
        return (self.a11, self.a12, self.a22, self.a13, self.a23, self.a33)

    def __iter__(self):
        return iter(self.coeffs())


def make_conic(F: Field, coeffs: Coeffs6) -> Conic:
    """Canonical class representative: first nonzero coefficient scaled to 1."""
    lead = next((c for c in coeffs if c), 0)
    if lead == 0:
        raise ValueError("a conic needs a nonzero coefficient")
    s = F.inv(lead)
    return Conic(*(F.mul(s, c) for c in coeffs))


def eval_conic(F: Field, conic: Conic, x: int, y: int) -> int:
    a11, a12, a22, a13, a23, a33 = conic.coeffs()
    return (
        F.mul(a11, F.mul(x, x))
        ^ F.mul(a12, F.mul(x, y))
        ^ F.mul(a22, F.mul(y, y))
        ^ F.mul(a13, x)
        ^ F.mul(a23, y)
        ^ a33
    )


def degeneracy_columns(F: Field, coeffs):
    """a11*a23^2 + a12*a23*a13 + a22*a13^2 + a33*a12^2 (zero iff degenerate),
    for the six coefficients of one conic or for class columns."""
    a11, a12, a22, a13, a23, a33 = coeffs
    mul = F.vmul
    return (mul(a11, mul(a23, a23)) ^ mul(a12, mul(a23, a13))
            ^ mul(a22, mul(a13, a13)) ^ mul(a33, mul(a12, a12)))


def is_degenerate(F: Field, conic: Conic) -> bool:
    """True when the conic splits into lines (possibly coincident or over
    GF(q^2)) or degenerates to a point.

    The coefficient patterns with vanishing quadratic part (a11=a12=a22=0:
    a line; a12=a13=a23=0: a double line) are zeros of the same criterion,
    so no special-casing is needed; the singular-point search over
    PG(2, GF(q^2)) is kept as an independent oracle.
    """
    return not degeneracy_columns(F, conic)


def projective_points(E: ExtField) -> Iterator[tuple]:
    """Canonical representatives of PG(2, K): (1:y:z), (0:1:z), (0:0:1)."""
    elems = list(E.elements())
    one, zero = E.one, E.zero
    for y in elems:
        for z in elems:
            yield (one, y, z)
    for z in elems:
        yield (zero, one, z)
    yield (zero, zero, one)


def degenerate_by_singular_point(F: Field, conic: Conic) -> bool:
    """Independent degeneracy oracle: search PG(2, GF(q^2)) for a point of the
    projective conic where all three partial derivatives vanish.

    Exhaustive (O(q^4) points), intended for q <= 8 cross-checks only.
    """
    E = ExtField(F, 2)
    a11, a12, a22, a13, a23, a33 = (E.embed(c) for c in conic.coeffs())
    for X, Y, Z in projective_points(E):
        value = E.add(
            E.add(E.mul(a11, E.mul(X, X)), E.mul(a12, E.mul(X, Y))),
            E.add(
                E.add(E.mul(a22, E.mul(Y, Y)), E.mul(a13, E.mul(X, Z))),
                E.add(E.mul(a23, E.mul(Y, Z)), E.mul(a33, E.mul(Z, Z))),
            ),
        )
        if value != E.zero:
            continue
        dx = E.add(E.mul(a12, Y), E.mul(a13, Z))
        dy = E.add(E.mul(a12, X), E.mul(a23, Z))
        dz = E.add(E.mul(a13, X), E.mul(a23, Y))
        if dx == E.zero and dy == E.zero and dz == E.zero:
            return True
    return False


# ----------------------------------------------------------------------
# The evaluation set
# ----------------------------------------------------------------------

@dataclass
class DeltaSet:
    """Ordered evaluation set: {(x, a*x^2) : x != 0, trace(a) = 0}, plus the
    origin for DeltaBar (build_delta with include_origin set).

    Points are ordered by (encoding of x, encoding of a), origin first, so
    generator matrices and weight tables reproduce across runs.
    """

    field: Field
    points: list[tuple[int, int]]

    def __len__(self) -> int:
        return len(self.points)

    def conic_monomials(self) -> list[tuple[int, ...]]:
        """Per point: (x^2, xy, y^2, x, y, 1) for conic evaluation sweeps."""
        F = self.field
        return [(F.mul(x, x), F.mul(x, y), F.mul(y, y), x, y, 1) for x, y in self.points]


def build_delta(F: Field, include_origin: bool = False) -> DeltaSet:
    points: list[tuple[int, int]] = [(0, 0)] if include_origin else []
    t0 = F.trace_zero_elements()
    for x in F.nonzero_elements():
        x2 = F.mul(x, x)
        points.extend((x, F.mul(a, x2)) for a in t0)
    expected = F.q * (F.q - 1) // 2 + (1 if include_origin else 0)
    if len(points) != expected:
        raise AssertionError(f"the set has {len(points)} points, expected {expected}")
    return DeltaSet(field=F, points=points)


def pi_map(F: Field, x1: int, x2: int) -> tuple[int, int]:
    """The symmetric-function map (x1, x2) -> (x1 + x2, x1 * x2)."""
    return (x1 ^ x2, F.mul(x1, x2))


def distinguished_points(F: Field) -> Iterator[tuple[int, int]]:
    """All q(q-1) points of the plane with distinct coordinates."""
    for x1 in F.elements():
        for x2 in F.elements():
            if x1 != x2:
                yield (x1, x2)


def count_on_delta(F: Field, zeroset: Conic, delta: DeltaSet) -> int:
    """Exact |delta ∩ Z(f)| by evaluating f at every point of the set; a
    line a*X + b*Y + c is the conic (0, 0, 0, a, b, c)."""
    return sum(1 for x, y in delta.points if eval_conic(F, zeroset, x, y) == 0)


# ----------------------------------------------------------------------
# Closed-form line counts
# ----------------------------------------------------------------------

def line_delta_count_closed_form(F: Field, coeffs):
    """The literal case-analysis value for the intersection of the line
    a*X + b*Y + c = 0 with the origin-included set, for one (a, b, c) or
    for columns:

      * Y = 0           -> q
      * Y = m*X + k, (m, k) != (0, 0)  -> (q - 2) / 2
      * X = c, c != 0   -> q / 2
      * X = 0           -> 1

    For b != 0 the slope m and intercept k are a/b and c/b, so Y = 0 is
    a = c = 0; for b = 0 the line is X = c/a with a != 0.

    This case list is reproduced as stated so that it can be checked; it
    is not everywhere correct.  For slanted lines through the origin
    (k = 0, m != 0) the stated chain is internally inconsistent, and for
    the family Y = m*X + m^2 with m != 0 the true count is q - 1.  See
    line_counts for the verified values of both set variants.
    """
    a, b, c = coeffs
    q = F.q
    return np.where(b != 0, np.where((a == 0) & (c == 0), q, (q - 2) // 2),
                    np.where(c != 0, q // 2, 1))


def line_counts(F: Field, line: tuple[int, int, int]) -> tuple[int, int]:
    """Verified closed-form pair (|line ∩ Delta|, |line ∩ DeltaBar|) for the
    line (a, b, c): the parabola-family closed form on (0, 0, 0, a, b, c),
    plus the origin when c = 0.

    One non-vertical family behaves unlike the generic slanted line: when
    the intercept is the square of the slope, Y = m*X + m^2 is the image of
    the coordinate-line pair {X1 = m} ∪ {X2 = m} under (x1, x2) ->
    (x1 + x2, x1*x2), so it meets the set in q - 1 points instead of
    (q - 2)/2.  The m = 0 member is the line Y = 0.  The generic preimage
    is a hyperbola with q - 1 points exactly one of which is diagonal,
    giving (q - 2)/2; a vertical line X = c != 0 lifts to a full line
    parallel to the diagonal, giving q/2.
    """
    a, b, c = line
    nd = int(parabola_count_closed_form(F, (0, 0, 0, a, b, c)))
    return nd, nd + (c == 0)


# ----------------------------------------------------------------------
# Closed-form parabola-family counts (a12 = a22 = 0)
# ----------------------------------------------------------------------

def parabola_count_closed_form(F: Field, coeffs):
    """|C ∩ Delta| for every conic with a12 = a22 = 0, for the six
    coefficients of one conic or for class columns.

      * a23 != 0, with t = trace(a11/a23): q - 1 (t = 0) or 0 on the
        parabola orbit a13^2 = a33*a23, and q/2 - 1 (t = 0) or q/2 off it;
        the lines (a11 = 0) are the t = 0 case.
      * a23 = 0, the vertical pair a11*a13*a33 != 0: q when
        trace(a11*a33/a13^2) = 0, else 0.
      * a23 = 0 otherwise: each nonzero root x0 of a11*X^2 + a13*X + a33
        is a vertical line X = x0 with q/2 points, and there is one such
        root exactly when at least two of a11, a13, a33 are nonzero.

    The origin-included set adds the origin when the constant term is
    zero: |C ∩ DeltaBar| = |C ∩ Delta| + [a33 = 0].
    """
    a11, a12, a22, a13, a23, a33 = coeffs
    if np.any(a12) or np.any(a22):
        raise ValueError("closed form requires a12 = a22 = 0")
    q, half = F.q, F.q // 2
    orbit, pair = exceptional_columns(F, coeffs)
    t0 = F.trace_table[F.vdiv(a11, a23)] == 0
    slanted = np.where(orbit, (q - 1) * t0, half - t0)
    pair_t0 = F.trace_table[F.vdiv(F.vmul(a11, a33), F.vmul(a13, a13))] == 0
    one_root = (a11 != 0) & ((a13 != 0) | (a33 != 0)) | (a13 != 0) & (a33 != 0)
    vertical = np.where(pair, q * pair_t0, half * one_root)
    return np.where(a23 != 0, slanted, vertical)


# ----------------------------------------------------------------------
# Generic window and exceptional families
# ----------------------------------------------------------------------

def in_sqrt_window(n: int, q: int) -> bool:
    """q - 2*sqrt(q) - 2 <= n <= q + 2*sqrt(q) - 1, exactly.

    This is the affine window of an elliptic cubic.  A count c on the
    evaluation set lies in the generic window
    [(q - 2*sqrt(q) - 2)/2, (q + 2*sqrt(q) - 1)/2] when n = 2c lies in it.
    Comparisons against 2*sqrt(q) are done on squared integers so that odd
    powers of two need no floating point.
    """
    below = q - 2 - n  # need below <= 2*sqrt(q)
    above = n - q + 1  # need above <= 2*sqrt(q)
    return all(gap <= 0 or gap * gap <= 4 * q for gap in (below, above))


def exceptional_columns(F: Field, coeffs):
    """Membership in the two enumerated families whose intersection sizes
    escape the generic window, (parabola-orbit, vertical-pair), for the six
    coefficients of one conic or for class columns."""
    a11, a12, a22, a13, a23, a33 = coeffs
    shape = (a12 == 0) & (a22 == 0)
    parabola = shape & (a23 != 0) & (F.vmul(a13, a13) == F.vmul(a33, a23))
    vertical = shape & (a23 == 0) & (a11 != 0) & (a13 != 0) & (a33 != 0)
    return parabola, vertical


def classify_exceptional(F: Field, conic: Conic) -> Optional[str]:
    """The one-class view of exceptional_columns: the family's name, or
    None for a generic conic."""
    parabola, vertical = exceptional_columns(F, conic)
    if parabola:
        return EXC_PARABOLA
    return EXC_VERTICAL_PAIR if vertical else None

