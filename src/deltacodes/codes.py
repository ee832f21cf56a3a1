"""Evaluation-code machinery over GF(q): generator matrices, exact weight
distributions, minimum distance, and small dual distances.

A linear system of degree-at-most-2 polynomials in two variables is a list
of coefficient 6-tuples (a11, a12, a22, a13, a23, a33); evaluating it on
the ordered point set produces the generator matrix.  A weight
distribution comes from the projective message classes counted by the
points where they vanish (`class_weight_distribution`), as the sweeps of
`verify` count them for the line, parabola and conic systems, or from all
q^k messages (a table of suffix codewords against one prefix per
projective prefix class), the net code's route and the tests' check of the
sweeps.  Enumeration does about (q^k - 1)/(q - 1) times n work, so the
class budget of `verify.check_class_budget` admits it.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import combinations, product
from math import comb
from typing import Optional

import numpy as np

from .field import Field
from .geometry import Coeffs6, DeltaSet
from .verify import BudgetError, check_class_budget


@dataclass
class ConicSystem:
    """An ordered basis of degree-<=2 polynomials, as coefficient 6-tuples."""

    field: Field
    polys: list[Coeffs6]

    def __post_init__(self) -> None:
        if not self.polys:
            raise ValueError("empty linear system")
        if gf_rank(self.field, [list(p) for p in self.polys]) != len(self.polys):
            raise ValueError("basis polynomials are linearly dependent")


def gf_rank(F: Field, rows: list[list[int]]) -> int:
    """Rank over GF(q) by Gaussian elimination on copies of the rows."""
    rows = [r[:] for r in rows]
    ncols = len(rows[0]) if rows else 0
    rank = 0
    col = 0
    while rank < len(rows) and col < ncols:
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            col += 1
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = F.inv(rows[rank][col])
        rows[rank] = [F.mul(inv, v) for v in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                f = rows[i][col]
                rows[i] = [a ^ F.mul(f, b) for a, b in zip(rows[i], rows[rank])]
        rank += 1
        col += 1
    return rank


@dataclass
class GeneratorMatrix:
    """k x n evaluation matrix; column j is the j-th point of the canonical
    point ordering.  `rank` is the achieved rank, reported as-is even when
    smaller than the number of basis polynomials."""

    field: Field
    entries: np.ndarray
    rank: int

    @property
    def k(self) -> int:
        return int(self.entries.shape[0])

    @property
    def n(self) -> int:
        return int(self.entries.shape[1])


def evaluate_system(system: ConicSystem, delta: DeltaSet) -> GeneratorMatrix:
    """Evaluate each basis polynomial on every point of the set: a row is
    the XOR of its nonzero coefficients times the monomial columns."""
    F = system.field
    if delta.field != F:
        raise ValueError("system and point set live over different fields")
    monos = np.array(delta.conic_monomials(), dtype=F.np_dtype).T
    entries = np.zeros((len(system.polys), len(delta)), dtype=F.np_dtype)
    for row, poly in zip(entries, system.polys):
        for c, col in zip(poly, monos):
            if c:
                row ^= F.mul_col(col, c)
    return GeneratorMatrix(field=F, entries=entries, rank=gf_rank(F, entries.tolist()))


# ----------------------------------------------------------------------
# Weight distributions
# ----------------------------------------------------------------------

def weight_distribution_enumerate(g: GeneratorMatrix) -> Counter:
    """Exact weight distribution by enumerating all q^k messages.

    Messages are split into a prefix and a suffix; all suffix combinations
    are tabulated once, and the zero prefix contributes the table's own
    weights.  Only the scaling symmetry of a linear code is used: as s runs
    over all suffixes, so does c·s, so every nonzero prefix c·p (c != 0)
    gives the histogram of p.  Each projective prefix class is visited
    once, through its representative with leading coefficient 1, and
    counts q - 1 times: (q^k1 - 1)/(q - 1) passes instead of q^k1.  A pass
    adds the representative's codeword to the whole table; the sum is
    nonzero exactly where the table differs from that codeword, so it is
    compared into one reused mask whose row sums are the weights.  No
    point is counted per class, so this stays independent of the sweeps
    behind `class_weight_distribution`.  Raises BudgetError, before building
    anything, when the code has more projective message classes than the
    class budget.
    """
    F = g.field
    q, k, n = F.q, g.k, g.n
    check_class_budget(q, k)
    scaled = [[F.mul_col(row, c) for c in range(q)] for row in g.entries]  # c * row_i
    k2 = min(k, max(1, int(np.ceil(k / 2))))
    k1 = k - k2
    suffix = np.zeros((1, n), dtype=F.np_dtype)
    for i in range(k1, k):
        suffix = np.vstack([suffix ^ scaled[i][c] for c in range(q)])
    unequal = np.empty(suffix.shape, dtype=bool)

    def weights(base) -> np.ndarray:
        # suffix ^ base is nonzero exactly where suffix != base
        np.not_equal(suffix, base, out=unequal)
        return np.bincount(unequal.sum(axis=1, dtype=np.int32), minlength=n + 1)

    hist = weights(0)
    for lead in range(k1):
        for tail in product(range(q), repeat=k1 - lead - 1):
            base = scaled[lead][1].copy()
            for row, c in zip(scaled[lead + 1:k1], tail):
                base ^= row[c]
            hist += (q - 1) * weights(base)
    return Counter({w: int(c) for w, c in enumerate(hist) if c})


def class_weight_distribution(q: int, n: int, zeros: dict[int, int]) -> Counter:
    """Exact weight distribution of a code on n points from its projective
    message classes, zeros[c] of which vanish on c points: each class gives
    q - 1 codewords of weight n - c, A_(n - c) = (q - 1) * zeros[c], plus
    the zero word."""
    return Counter({n - c: (q - 1) * count for c, count in zeros.items()}) + Counter([0])


def min_distance(distribution: Counter) -> int:
    nonzero = [w for w in distribution if w > 0]
    if not nonzero:
        raise ValueError("the code has no nonzero codeword")
    return min(nonzero)


# ----------------------------------------------------------------------
# Dual distance via dependent column sets
# ----------------------------------------------------------------------

def dual_distance_upto(g: GeneratorMatrix) -> Optional[int]:
    """Minimum size of a linearly dependent set of columns, when <= 4
    (this equals the dual code's minimum distance); None if every set of
    4 or fewer columns is independent."""
    F = g.field
    cols = [tuple(int(v) for v in g.entries[:, j]) for j in range(g.n)]
    if any(all(v == 0 for v in col) for col in cols):
        return 1
    # two columns are dependent when they agree once each is scaled to lead with 1
    if len({tuple(F.div(v, next(x for x in col if x)) for v in col) for col in cols}) < g.n:
        return 2
    for w in (3, 4):
        if w > g.rank:
            return w  # more columns than the rank are always dependent
        if comb(g.n, w) > 2_000_000:
            raise BudgetError(f"C({g.n}, {w}) column subsets exceed the search budget")
        for subset in combinations(range(g.n), w):
            rows = [[cols[j][i] for j in subset] for i in range(g.k)]
            if gf_rank(F, rows) < w:
                return w
    return None


def singleton_ok(n: int, k: int, d: int) -> bool:
    return k + d <= n + 1
