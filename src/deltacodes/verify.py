"""Exhaustive verification suites over the conic classes.

Every suite checks stated closed forms and identities against brute-force
ground truth, vectorized over projective coefficient classes.  A layout
is a list of specs, one per block, each fixing a coefficient or leaving it
free over GF(q) (`projective_layout`): all conics, the parabola system
{X^2, X, Y, 1} and the lines.  `class_chunks` puts a layout's free
coefficients on their own broadcast axes, so a value that depends on a few
of them, such as vbar on (a11, a12, a22), is computed once per value of
those.  Every sweep, of a conic suite, the census, the line and parabola
spectra or the geometry suite, is one reducer (`_Sweep`) over the chunks of
its layout: it takes a sweep's per-class statistics, given as one function
of a chunk, to tallies and to the classes a report names or a cross-check
draws.  The root scaling x -> a*x fixes Delta, DeltaBar's origin and the
axis X = 0, so from q = 16 on the conic sweeps compute the statistics of
the q - 1 slices a12 != 0 of the a11 = 1 block once (`_orbit_positions`).
Every per-class point count (the conic on Delta and DeltaBar, F, G and H)
comes from one root-mask walk over the lines of the plane
(`_root_mask_counts`).  Degeneracy and the exceptional families come from
the column formulas in `geometry`, degeneracy checked at q <= 8 against
singular points over GF(q^2) (`degeneracy_oracle_sweep`); the curves and
the reducibility quantities from those in `curves`; the code reports read
the spectra's histograms.  `zero_counts` remains the tests' independent
count of the walk.
On a deterministic draw of classes each sweep is cross-checked against the
per-conic brute force, so a bug in the fast path cannot silently pass.

A failing check is reported with counterexample data; nothing is patched
to make a stated claim come out true.
"""

from __future__ import annotations

import functools
import random
from collections import Counter
from dataclasses import dataclass, field as dataclass_field
from typing import Callable, Optional, Sequence

import numpy as np

from .field import ExtField, Field
from .geometry import (
    Conic,
    build_delta,
    degeneracy_columns,
    degenerate_by_singular_point,
    distinguished_points,
    exceptional_columns,
    in_sqrt_window,
    line_delta_count_closed_form,
    make_conic,
    parabola_count_closed_form,
    pi_map,
    projective_points,
)
from . import curves

SAMPLE_CHECKS = 40  # scalar cross-checks per vectorized sweep
# projective classes one sweep may take: a bound on run time, as the conic
# sweeps hold no per-class array (the layouts built in full do)
CLASS_BUDGET = 1 << 26
CLASS_BLOCK = 1 << 16  # classes per chunk of the per-class sweeps


class BudgetError(RuntimeError):
    """A sweep or enumeration would exceed its budget."""


@dataclass
class Check:
    name: str
    ok: bool
    expected: object = None
    actual: object = None
    note: str = ""

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "ok": self.ok,
            "expected": _jsonable(self.expected),
            "actual": _jsonable(self.actual),
            "note": self.note,
        }


@dataclass
class SuiteReport:
    suite: str
    q: int
    modulus: int
    checks: list[Check] = dataclass_field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.checks)

    def add(self, name: str, ok: bool, expected=None, actual=None, note: str = "") -> None:
        self.checks.append(Check(name, bool(ok), expected, actual, note))

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "q": self.q,
            "modulus": format(self.modulus, "#x"),
            "passed": self.passed,
            "checks": [c.to_dict() for c in self.checks],
        }


def _jsonable(v):
    if isinstance(v, (np.integer,)):
        return int(v)
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    if isinstance(v, dict):
        return {str(k): _jsonable(x) for k, x in v.items()}
    return v


# ----------------------------------------------------------------------
# Vectorized class enumeration and zero counting
# ----------------------------------------------------------------------

def check_class_budget(q: int, width: int, classes: Optional[int] = None) -> None:
    """Raise BudgetError when the layout of `projective_class_columns`, or
    `classes` classes of that width, would hold more than CLASS_BUDGET
    classes; callers may check before any work."""
    classes = layout_size(q, projective_layout(width)) if classes is None else classes
    if classes > CLASS_BUDGET:
        raise BudgetError(f"{classes} projective classes (q = {q}, width {width}) exceed "
                          f"the sweep budget of 2^{CLASS_BUDGET.bit_length() - 1}")


def projective_layout(width: int, support: Optional[Sequence[int]] = None) -> list[tuple]:
    """The projective classes of GF(q)^width that are 0 off `support` (all
    coordinates by default) as a layout, one spec per leading position in
    `support`: a spec fixes each coordinate, or leaves it free over GF(q)
    (None), with 0 before the lead, 1 at it and those of `support` free."""
    support = range(width) if support is None else support
    return [tuple(1 if i == lead else None if i > lead and i in support else 0
                  for i in range(width)) for lead in support]


CONIC_LAYOUT = projective_layout(6)  # every conic class (a11, a12, a22, a13, a23, a33)
PARABOLA_LAYOUT = projective_layout(6, (0, 3, 4, 5))  # the parabola system: a12 = a22 = 0
# the lines a13*X + a23*Y + a33 = 0: the classes (0, 0, 0, a13, a23, a33) but the constant 1
LINE_LAYOUT = projective_layout(6, (3, 4, 5))[:-1]


def layout_size(q: int, layout: Sequence[tuple]) -> int:
    """The number of classes of a layout."""
    return sum(q ** spec.count(None) for spec in layout)


def projective_class_columns(q: int, width: int, dtype=np.uint8) -> list[np.ndarray]:
    """Coefficient columns of all (q^width - 1)/(q - 1) projective classes,
    ordered with the leading 1 moving right and the tail in product order
    (last coordinate fastest): the chunks of `class_chunks` over
    `projective_layout(width)` flattened.  Raises BudgetError, before
    allocating, when there are more than CLASS_BUDGET classes."""
    check_class_budget(q, width)
    cols = [np.empty(layout_size(q, projective_layout(width)), dtype) for _ in range(width)]
    for blk, chunk in class_chunks(q, projective_layout(width), dtype):
        shape = np.broadcast_shapes(*(c.shape for c in chunk))
        for col, c in zip(cols, chunk):
            col[blk].reshape(shape)[...] = c
    return cols


def class_chunks(q: int, layout: Sequence[tuple], dtype=np.uint8):
    """The classes of a layout (`projective_layout`) as (slice, cols) chunks
    of at most CLASS_BLOCK classes, in layout order, each column on
    broadcastable axes instead of at full length.

    In a spec's block the t free coordinates run over GF(q), the last
    fastest.  The last k of them (q^k <= CLASS_BLOCK) each get their own
    axis of length q, and the first t - k, the prefix, share axis 0, at most
    CLASS_BLOCK // q^k prefix values per chunk.  A column formula built from
    broadcasting operations then computes a value that depends on the
    prefix once per prefix, and flattening a chunk's broadcast in C order
    gives exactly layout[slice]."""
    check_class_budget(q, len(layout[0]), layout_size(q, layout))
    lo = 0
    for spec in layout:
        free = [i for i, v in enumerate(spec) if v is None]
        t = k = len(free)
        while q ** k > CLASS_BLOCK:
            k -= 1
        ones = (1,) * (k + 1)
        cols = {i: np.full(ones, v, dtype=dtype) for i, v in enumerate(spec) if v is not None}
        for j, i in enumerate(free[t - k:]):
            cols[i] = np.arange(q, dtype=dtype).reshape(ones[:1 + j] + (q,) + ones[2 + j:])
        n_prefix, step = q ** (t - k), CLASS_BLOCK // q ** k
        for p0 in range(0, n_prefix, step):
            p = np.arange(p0, min(p0 + step, n_prefix))
            for j, i in enumerate(free[:t - k]):
                cols[i] = (p // q ** (t - k - 1 - j) % q).astype(dtype).reshape((-1,) + ones[1:])
            blk = slice(lo + p0 * q ** k, lo + (p0 + len(p)) * q ** k)
            yield blk, [cols[i] for i in range(len(spec))]
        lo += q ** t


def class_rank(q: int, width: int, cols: Sequence[np.ndarray]) -> np.ndarray:
    """Per class, its position in the layout of projective_class_columns(q,
    width): the inverse of that layout.  The classes must be normalized
    (leading coordinate 1, every digit below q).

    Read as a base-q number, a class whose leading 1 sits at `lead` is
    q^t plus its tail, t = width - 1 - lead, and the blocks before it hold
    (q^width - q^(t+1))/(q - 1) classes."""
    value = np.zeros(len(cols[0]), dtype=np.int64)
    for col in cols:
        if len(col) and int(col.max()) >= q:
            raise ValueError(f"class_rank needs digits below q = {q}")
        value = value * q + col
    lead_power = np.zeros_like(value)  # q^t
    for t in range(width):
        lead_power[value >= q ** t] = q ** t
    if not ((value > 0) & (value < 2 * lead_power)).all():
        raise ValueError("class_rank needs normalized classes (leading coordinate 1)")
    return (q ** width - q * lead_power) // (q - 1) + value - lead_power


def zero_counts(F: Field, width: int, point_monomials: Sequence[Sequence[int]]) -> np.ndarray:
    """For each class of the layout of projective_class_columns(F.q, width),
    the number of points whose monomial combination evaluates to zero, in
    the narrowest unsigned dtype that holds the number of points.
    Coordinate i of a class pairs with point_monomials[*][i].  Raises
    BudgetError, before allocating, when there are more than CLASS_BUDGET
    classes.

    In the block whose leading 1 sits at `lead`, with t tail coordinates, a
    class is a prefix index i over the first t//2 tail coordinates and a
    suffix index j over the rest, so its value at a point with monomials m
    is m[lead] ^ P[i] ^ S[j], where P and S are the XOR tables of the two
    halves.  Each point and block then costs one broadcast compare instead
    of a gather over the classes, and adds into that block of the result.
    """
    q = F.q
    check_class_budget(q, width)
    monos = [[int(m) for m in point] for point in point_monomials]
    elems = np.arange(q, dtype=F.np_dtype)
    counts = np.zeros(layout_size(q, projective_layout(width)), np.min_scalar_type(len(monos)))
    lo = 0
    for lead in range(width):
        half = lead + 1 + (width - lead - 1) // 2
        acc = counts[lo:lo + q ** (width - lead - 1)].reshape(
            q ** (half - lead - 1), q ** (width - half))
        for m in monos:
            prefix = _xor_table(F, elems, m[lead + 1:half]) ^ m[lead]
            acc += prefix[:, None] == _xor_table(F, elems, m[half:width])[None, :]
        lo += acc.size
    return counts


def _xor_table(F: Field, elems: np.ndarray, monos: Sequence[int]) -> np.ndarray:
    """sum_k d_k * monos[k] for every digit tuple d over GF(q), in product
    order (last digit fastest)."""
    table = np.zeros(1, dtype=F.np_dtype)
    for m in monos:
        table = (table[:, None] ^ F.mul_col(elems, m)[None, :]).ravel()
    return table


SLOT_EXPONENTS = (0, 1, 2, 4)  # slot k of a root-mask index holds the coefficient of T^this


@functools.lru_cache(maxsize=None)
def _root_masks(F: Field, slots: int = 3) -> np.ndarray:
    """Entry ((c4*q + c2)*q + c1)*q + c0 has bit t set exactly when
    c4*t^4 + c2*t^2 + c1*t + c0 = 0 in GF(q); fewer `slots` build the first
    q^slots entries (the higher coefficients 0).  Built by evaluating every
    t on a broadcast grid of the coefficients."""
    q = F.q
    if q > 64:
        raise ValueError(f"root masks are 64-bit, so q <= 64; got q = {q}")
    dtype = np.dtype(f"uint{max(8, q)}")
    elems = np.arange(q, dtype=F.np_dtype)
    masks = np.zeros((q,) * slots, dtype=dtype)
    for t in F.elements():
        value = functools.reduce(np.bitwise_xor, (  # slot k on axis -1 - k
            F.mul_col(elems, F.pow(t, SLOT_EXPONENTS[k])).reshape((q,) + (1,) * k)
            for k in range(slots)))
        np.bitwise_or(masks, dtype.type(1 << t), out=masks, where=value == 0)
    return masks.ravel()


def _root_counts(F: Field, poly: tuple) -> np.ndarray:
    """Per class, the number of t in GF(q) at which a polynomial vanishes,
    given by its coefficient columns (c2, c1, c0) or (c4, c2, c1, c0), 0 for
    a zero column: the popcount of its root mask, as uint8 (q <= 64)."""
    index_dtype = np.min_scalar_type(F.q ** len(poly) - 1)
    index = functools.reduce(np.bitwise_or, (np.asarray(c).astype(index_dtype) << k * F.h
                                             for k, c in enumerate(reversed(poly))))
    return np.bitwise_count(_root_masks(F, len(poly))[index])


def _on_line(F: Field, curve: dict[tuple[int, int], tuple], v) -> tuple:
    """A term-table curve (curves.term_columns) where its line variable is v,
    a GF(q) value or column, as _root_counts reads it: U^i has the XOR over j
    of c_ij * v^j, in three slots unless U^4 occurs (q^3 root masks, not q^4)."""
    powers, coeffs = {1: v}, dict.fromkeys(SLOT_EXPONENTS, 0)

    def power(j):  # v^j, each power built once
        if j not in powers:
            powers[j] = F.vmul(power(j // 2), power(j - j // 2))
        return powers[j]

    for (i, j), (c,) in curve.items():
        if not j or np.any(v):  # at v = 0 only the terms free of v remain
            coeffs[i] = coeffs[i] ^ (F.vmul(c, power(j)) if j else c)
    slots = 4 if any(i == 4 for i, _ in curve) else 3
    return tuple(coeffs[i] for i in reversed(SLOT_EXPONENTS[:slots]))


def _line_masks(F: Field, points) -> np.ndarray:
    """Per line V = v, the q-bit mask of a point set's points (v, t) on it,
    in the dtype of the root masks."""
    masks = np.zeros(F.q, dtype=_root_masks(F).dtype)
    for v, t in points:
        masks[v] |= 1 << t
    return masks


# bytes of row tables one walk may read; above it the walk gathers single
# masks (q = 64, where one conic row table is 16 MiB per line mask)
ROW_TABLE_BYTES = 1 << 25
_ROW_TABLES: dict[tuple, np.ndarray] = {}  # by (F, shift, line), for the most slots asked


def _row_table(F: Field, slots: int, shift: int, line: Optional[int]) -> np.ndarray:
    """Entry [b, c] is root mask b ^ (c << shift), or, given a line's point
    mask, the popcount of that root mask AND the line mask, as uint8.  Slot
    shift / h of the index runs over GF(q) along a row, so the q classes
    that differ only in a coefficient entering that slot alone read one
    row.  Built by q gathers of q-entry permutations, with no index array
    of the table's size.  As with the root masks, fewer slots take the head
    of the table of more, so one per (shift, line) is kept, the largest."""
    q, k, key = F.q, shift // F.h, (F, shift, line)
    if len(_ROW_TABLES.get(key, ())) < q ** slots:
        table = _root_masks(F, slots)
        if line is not None:
            table = np.bitwise_count(table & table.dtype.type(line))
        table = table.reshape(-1, q, q ** k)  # axis 1 is slot k
        rows = np.empty(table.shape + (q,), dtype=table.dtype)
        for c in range(q):
            rows[..., c] = table[:, np.arange(q) ^ c]
        _ROW_TABLES[key] = rows.reshape(-1, q)
    return _ROW_TABLES[key][:q ** slots]


def _row_term(terms: dict[tuple[int, int], np.ndarray], q: int) -> Optional[tuple[int, int]]:
    """The exponent of the term free of the line variable whose column is
    GF(q) in order, alone on the last axis (a33 in a factored chunk's
    tail), or None."""
    for key, c in terms.items():
        if (key[1] == 0 and c.shape[-1:] == (q,) and c.size == q
                and all(o.shape[-1:] in ((), (1,)) for k, o in terms.items() if k != key)
                and np.array_equal(c.ravel(), np.arange(q))):
            return key
    return None


def _root_mask_counts(F: Field, curve: dict[tuple[int, int], tuple],
                      points: Optional[np.ndarray] = None) -> np.ndarray:
    """Per class, the points of a curve on the GF(q)^2 grid, or on the point
    set with line masks `points` (_line_masks), as uint16: the one per-class
    point counter of the sweeps.  `curve` maps the exponent (i, j) of each
    T^i V^j to its coefficient's component columns, (c,) in GF(q) or
    (c0, c1) in GF(q^2); T occurs in degrees 0, 1, 2 and 4, and the mask
    index has a slot up to the highest of those with a nonzero column.

    On the line V = v the points are the common roots in T of the
    components: the popcount of the AND of their root masks and the line's
    point mask.  Where V occurs in degree 0 or a power of 2, v^j is
    additive, so that part of a mask index is its value at v = 0 XOR one
    step column per set bit of v: one XOR per line in Gray-code order.
    Other powers of v (F's X^3) are evaluated on each line.

    A component whose columns hold a row term (_row_term) leaves it out of
    the index and reads rows of q entries (_row_table): one gather per q
    classes.  A walk of one such component reads rows of popcounts, one
    table per line mask, so a line costs one XOR, one gather and one add;
    other walks AND the masks and popcount them, uint16 masks per byte.
    Rows are read only while the tables stay within ROW_TABLE_BYTES, and
    those still to build within the chunk's share of it, classes /
    CLASS_BLOCK: a few small chunks, as the 4160 lines at q = 64, gather
    single masks rather than build 16 MiB of tables.  The walk holds h + 2
    index columns per class and component, so callers pass chunks of at
    most CLASS_BLOCK classes."""
    if any(i not in SLOT_EXPONENTS for i, _ in curve):
        raise AssertionError("the root-mask walk needs the counted variable in degrees "
                             f"0, 1, 2 and 4; got {sorted(curve)}")
    q, bits = F.q, F.h
    # a conic with a22 = 0, as every line and parabola, takes q^2 root masks
    slots = 1 + max((SLOT_EXPONENTS.index(i) for (i, _), coeff in curve.items()
                     if any(np.any(c) for c in coeff)), default=0)
    masks = _root_masks(F, slots)
    if points is None:  # every point of every line
        points = np.full(q, (1 << q) - 1, dtype=masks.dtype)
    lines = {int(m) for m in points if m}
    index_dtype = np.min_scalar_type(q ** slots - 1)
    components = [{key: coeff[t] for key, coeff in curve.items()}
                  for t in range(len(next(iter(curve.values()))))]
    rows = [_row_term(terms, q) for terms in components]
    counted = len(components) == 1  # one table of popcounts per line mask
    table_bytes = q ** (slots + 1) * (1 if counted else masks.itemsize)
    tables = [(F, SLOT_EXPONENTS.index(row[0]) * bits, line) for row in rows if row is not None
              for line in (lines if counted else [None])]
    unbuilt = {key for key in tables if len(_ROW_TABLES.get(key, ())) < q ** slots}
    classes = np.prod(np.broadcast_shapes(*(c.shape for t in components for c in t.values())))
    if (len(tables) * table_bytes > ROW_TABLE_BYTES
            or len(unbuilt) * table_bytes * CLASS_BLOCK > ROW_TABLE_BYTES * classes):
        rows = [None] * len(rows)
    counted &= rows[0] is not None
    walks = []
    for terms, row in zip(components, rows):
        shape = np.broadcast_shapes(*(c.shape for key, c in terms.items() if key != row))
        index = np.zeros(shape, dtype=index_dtype)
        steps = np.zeros((bits,) + shape, dtype=index_dtype)
        per_line = []  # (column, j, shift) of the terms evaluated on each line
        for (i, j), c in terms.items():
            shift = SLOT_EXPONENTS.index(i) * bits
            if (i, j) == row or not c.any():
                continue
            if j == 0:
                index ^= c.astype(index_dtype) << shift
            elif j & (j - 1):
                per_line.append((c, j, shift))
            else:  # a V^(2^e) term that moves the index
                for b in range(bits):
                    steps[b] ^= F.mul_col(c, F.pow(1 << b, j)).astype(index_dtype) << shift
        if row is None:
            tables = dict.fromkeys(lines, masks[:, None])
        else:
            shift = SLOT_EXPONENTS.index(row[0]) * bits
            tables = {m: _row_table(F, slots, shift, m if counted else None) for m in lines}
        out = np.empty(shape + (1 if row is None else q,),
                       dtype=np.uint8 if counted else masks.dtype)
        walks.append((index, steps, per_line, tables, out))
    # each component's gathered rows, on the shape of its classes
    found = [out.reshape(out.shape[:-2] + (-1,)) for *_, out in walks]
    shape = np.broadcast_shapes(*(f.shape for f in found))
    lanes = 2 if masks.itemsize == 2 and not counted else 1  # uint16 masks count per byte
    lane = np.dtype(f"u{masks.itemsize // lanes}")
    counts = np.zeros(shape[:-1] + (shape[-1] * lanes,), dtype=np.uint16)
    for k in range(q):
        v = k ^ k >> 1  # the Gray code: line k flips bit (k & -k) of v
        for index, steps, *_ in walks:
            if k:
                index ^= steps[(k & -k).bit_length() - 1]
        if not points[v]:
            continue
        for index, _, per_line, tables, out in walks:
            if per_line:
                index = index ^ functools.reduce(np.bitwise_xor, (
                    F.mul_col(c, F.pow(v, j)).astype(index_dtype) << shift
                    for c, j, shift in per_line))
            np.take(tables[int(points[v])], index, axis=0, out=out)
        if counted:
            counts += found[0]
            continue
        hits = functools.reduce(np.bitwise_and, found)
        np.bitwise_and(hits, points[v], out=hits)
        counts += np.bitwise_count(hits.view(lane))
    counts = counts.reshape(shape + (lanes,))  # added as views: numpy sums a short axis slowly
    return functools.reduce(np.add, (counts[..., i] for i in range(lanes)))


def _quartic_counts(F: Field, cols: Sequence[np.ndarray], s) -> tuple[np.ndarray, np.ndarray]:
    """Per class, N(F^(s)) at its own split exponent s, and the part of it
    on the axis X = 0.  On a line X = x != 0, F^(s) = F / x^s has the roots
    of F in T, so one walk of F over those lines serves every s; on the
    axis F^(s) is the sum of F's X^s terms, one root-mask lookup."""
    quartic = curves.term_columns(cols, curves.QUARTIC_TERMS, 1)
    lines = np.full(F.q, (1 << F.q) - 1, dtype=_root_masks(F).dtype)  # every point of a line
    lines[0] = 0  # but those of the axis
    off_axis = _root_mask_counts(F, quartic, lines)
    on_axis = dict.fromkeys(SLOT_EXPONENTS, 0)
    for (j, i), (c,) in quartic.items():
        on_axis[j] = on_axis[j] ^ np.where(s == i, c, 0)
    axis = _root_counts(F, tuple(on_axis[j] for j in reversed(SLOT_EXPONENTS)))
    return off_axis + axis, axis


@functools.lru_cache(maxsize=None)
def _singular_point_tables(F: Field) -> np.ndarray:
    """Entry [k, p, c] is c times monomial k at point p of PG(2, GF(q^2)),
    c in GF(q), its two components in one uint16 (component 1 shifted by
    h); k runs over the conic's X^2, XY, Y^2, XZ, YZ, Z^2, then X, Y, Z.
    They depend only on the field, so are built once."""
    E2 = ExtField(F, 2)
    monomials = np.array([(E2.mul(X, X), E2.mul(X, Y), E2.mul(Y, Y), E2.mul(X, Z),
                           E2.mul(Y, Z), E2.mul(Z, Z), X, Y, Z)
                          for X, Y, Z in projective_points(E2)], dtype=np.uint16)
    products = F.vmul(monomials.T[..., None], np.arange(F.q, dtype=F.np_dtype)).astype(np.uint16)
    return products[0] | products[1] << F.h


def degeneracy_oracle_sweep(F: Field, cols: Sequence[np.ndarray]) -> np.ndarray:
    """Independent degeneracy test of one factored chunk, as a mask on its
    shape: scan every point of PG(2, GF(q^2)) and mark the classes whose
    conic vanishes there with all three partial derivatives.

    The conic value and the partials are GF(q)-linear in the coefficients,
    so at a point each term is a gather of one coefficient's axis from its
    products with the point's monomial (_singular_point_tables), and a value
    vanishes when both its packed components do.  Points go in steps on a
    leading axis, about 16 chunks' worth of class-point pairs per step."""
    a11, a12, a22, a13, a23, a33 = cols
    tables = _singular_point_tables(F)
    found = np.zeros(np.broadcast_shapes(*(c.shape for c in cols)), dtype=bool)
    step = max(1, (CLASS_BLOCK << 4) // found.size)
    for p in range(0, tables.shape[1], step):
        x2, xy, y2, xz, yz, z2, x, y, z = tables[:, p:p + step]
        # the partials in characteristic 2: a12 Y + a13 Z, a12 X + a23 Z, a13 X + a23 Y
        singular = (y[:, a12] == z[:, a13]) & (x[:, a12] == z[:, a23]) & (x[:, a13] == y[:, a23])
        value = x2[:, a11] ^ xy[:, a12] ^ y2[:, a22] ^ xz[:, a13] ^ yz[:, a23] ^ z2[:, a33]
        found |= (singular & (value == 0)).any(axis=0)
    return found


@functools.lru_cache(maxsize=None)
def _orbit_tables(F: Field, beta: int) -> tuple[np.ndarray, np.ndarray]:
    """The two halves of _orbit_positions at beta: the high digits
    (a22, a13) -> (a22 / beta^2, beta * a13) and the low digits
    (a23, a33) -> (a23, beta^2 * a33), each a q^2-entry table over the
    base-q pair."""
    elems = np.arange(F.q, dtype=F.np_dtype)
    b2 = F.mul(beta, beta)

    def pair(first, second):
        return (first.astype(np.int64)[:, None] << F.h | second[None, :]).ravel()
    return (pair(F.mul_col(elems, F.inv(b2)), F.mul_col(elems, beta)),
            pair(elems, F.mul_col(elems, b2)))


def _orbit_positions(F: Field, beta: int, pos: np.ndarray) -> np.ndarray:
    """Positions in the a12 = 1 slice of the a11 = 1 block of the classes
    that the positions `pos` of the a12 = beta slice map to under the root
    scaling x -> x / beta: (1, beta, a22, a13, a23, a33) goes to
    (1, 1, a22 / beta^2, beta * a13, a23, beta^2 * a33), which has every
    per-class statistic of the sweeps.  A slice position is the base-q
    number a22 a13 a23 a33; at 1 / beta the map goes back."""
    high, low = _orbit_tables(F, beta)
    pos = np.asarray(pos, dtype=np.int64)
    return high[pos >> 2 * F.h] << 2 * F.h | low[pos & (F.q * F.q - 1)]


def _slice_of(F: Field, cols) -> tuple[Optional[int], int]:
    """(beta, start) for a chunk that lies in the a12 = beta slice of a block
    with a11 = 1, read off its own columns: a11 is 1 and a12 one value on
    the chunk, and start is the slice position (the base-q number
    a22 a13 a23 a33) of its first class; (None, 0) for any other chunk."""
    a11, a12 = cols[:2]
    if (a11 != 1).any() or (a12 != a12.flat[0]).any():
        return None, 0
    return int(a12.flat[0]), functools.reduce(lambda n, c: n * F.q + int(c.flat[0]), cols[2:], 0)


class _Sweep:
    """One pass over the classes of a layout in factored chunks, in layout
    order (`class_chunks`), each reduced before the next.  `stats` maps a
    chunk's columns to its per-class statistics by name, each broadcast
    against the chunk; the pass reduces them as the spec says:

    - `count`: a mask's set classes are added to `tally[mask]`; a pair
      (mask, by) counts them by their value of `by`, in
      `tally[(mask, value)]` (`histogram`).
    - `keep`: {mask: (k, *values)} keeps the set classes until `kept[mask]`
      holds k of them, in layout order (all when k is None), each as its
      six coefficients followed by its values.
    - `draw`: {key: (k, seed, mask, *values)} takes k seeded uniform layout
      positions, and for each the first set class at or after it (with
      replacement) into `drawn[key]`, named like a kept class, so a draw
      does not depend on the chunking.

    The root scaling x -> a*x fixes Delta, DeltaBar's origin and the axis
    X = 0, so every statistic of a class is that of its image
    (_orbit_positions): the a12 = beta slice of the a11 = 1 block, for
    beta != 0, is the a12 = 1 slice permuted along a22, a13 and a33.  Where
    each chunk of that block lies in one slice (q >= 16 at the default
    block), `stats` runs only on the a12 = 0 and a12 = 1 slices and on the
    blocks with a11 = 0; a chunk's slice is read off its own a11 and a12
    (_slice_of), so the line and parabola layouts, whose a12 is 0, are
    walked in full.  Each later slice adds the a12 = 1 slice's tally once.
    A key that still needs classes there maps the classes it kept from the
    a12 = 1 slice, which were then all its set classes, and a pending draw
    reads the a12 = 1 slice's mask and values, both through the
    permutation; the coefficients come from the chunk's own columns.  Those
    arrays are the a12 = 1 chunk's own where the slice is one chunk
    (q = 16), and q^4-entry copies above."""

    def __init__(self, F: Field, layout: Sequence[tuple], stats: Callable[[list], dict],
                 count: Sequence = (), keep: Optional[dict] = None, draw: Optional[dict] = None):
        self.F, self.layout, self._stats, self._count = F, layout, stats, count
        self._keep, self._draw = keep or {}, draw or {}
        self.tally: Counter = Counter()
        self.kept: dict[str, list[tuple]] = {key: [] for key in self._keep}
        self.drawn: dict[str, list[tuple]] = {key: [] for key in self._draw}
        size = layout_size(F.q, layout)
        self._targets = {key: sorted(map(random.Random(seed).randrange, [size] * k))
                         for key, (k, seed, *_) in self._draw.items()}

    def histogram(self, mask: str) -> dict[int, int]:
        """The set classes of a (mask, by) count, by value, in value order."""
        return dict(sorted((key[1], n) for key, n in self.tally.items() if key[:1] == (mask,)))

    def run(self) -> "_Sweep":
        F, span = self.F, self.F.q ** 4  # classes of one a12 slice of the a11 = 1 block
        rep: dict[str, np.ndarray] = {}  # the a12 = 1 slice's arrays that pending draws read
        rep_kept: dict[str, list] = {}  # its kept classes: slice positions and values
        rep_tally, rep_filled = Counter(), 0
        for blk, cols in class_chunks(F.q, self.layout, F.np_dtype):
            shape = np.broadcast_shapes(*(c.shape for c in cols))
            size = blk.stop - blk.start
            beta, start = _slice_of(F, cols)
            if beta and beta > 1 and rep_filled == span:
                if not start:
                    self.tally.update(rep_tally)
                self._reduce(blk, cols, shape, self._image_reader(rep, rep_kept, beta, start, size))
                continue
            if beta != 1 and rep_filled:  # walked past the a12 = 1 slice: its arrays are done
                rep.clear()
                rep_kept.clear()
            st = self._stats(cols)
            tally = self._tallied(st, shape)
            self.tally.update(tally)
            kept = self._reduce(blk, cols, shape, self._chunk_reader(st, shape))
            if beta == 1:  # keep what the draws pending before the a11 = 1 block ends read
                end = blk.start - start + (F.q - 1) * span
                names = dict.fromkeys(v for key, (_, _, *values) in self._draw.items()
                                      if any(t < end for t in self._targets[key]) for v in values)
                for name in names if not start else list(rep):
                    flat = np.broadcast_to(st[name], shape).reshape(-1)
                    if size == span:  # the slice is one chunk: its arrays are read in place
                        rep[name] = flat
                    else:
                        rep.setdefault(name, np.empty(span, flat.dtype))[start:start + size] = flat
                for key, (idx, vals) in kept.items():
                    rep_kept.setdefault(key, []).append((start + idx, vals))
                rep_tally.update(tally)
                rep_filled += size
            del st, kept  # before the next chunk's statistics are computed
        return self

    def _tallied(self, st: dict, shape) -> Counter:
        tally = Counter()
        for name in self._count:
            if isinstance(name, str):
                tally[name] = int(np.count_nonzero(np.broadcast_to(st[name], shape)))
                continue
            mask, by = name
            values = np.broadcast_to(st[by], shape)[np.broadcast_to(st[mask], shape)]
            tally.update({(mask, c): int(n) for c, n in enumerate(np.bincount(values)) if n})
        return tally

    @staticmethod
    def _chunk_reader(st: dict, shape):
        """(at, found) on a chunk's own statistics: `at(name, idx)` the
        values at flat positions, `found(mask, values, limit)` the first
        `limit` set positions of a mask (all for None) and the values there,
        a limited search in windows (_set_positions), so that a dense mask
        does not list every set position."""
        def at(name, idx):
            return np.broadcast_to(st[name], shape)[np.unravel_index(idx, shape)]

        def found(mask, values, limit):
            flat = np.broadcast_to(st[mask], shape).reshape(-1)
            idx = np.flatnonzero(flat) if limit is None else np.array(
                _set_positions(lambda lo, hi: flat[lo:hi], 0, flat.size, limit), dtype=np.int64)
            return idx, [at(v, idx) for v in values]
        return at, found

    def _image_reader(self, rep: dict, rep_kept: dict, beta: int, start: int, size: int):
        """(at, found) on the `size` classes of the a12 = beta slice from
        slice position `start` on, read from the a12 = 1 slice: its arrays
        for draws, and its kept classes for a key that still needs classes,
        as the a12 = 1 slice then held fewer set classes than the key takes."""
        F = self.F

        def at(name, idx):
            return rep[name][_orbit_positions(F, beta, start + np.asarray(idx))]

        def found(mask, values, limit):
            parts = rep_kept.get(mask, [])
            if not parts:
                return [], []
            pos = _orbit_positions(F, F.inv(beta), np.concatenate([p for p, _ in parts])) - start
            inside = np.flatnonzero((pos >= 0) & (pos < size))
            order = inside[np.argsort(pos[inside])][:limit]
            return pos[order], [np.concatenate(v)[order] for v in zip(*(v for _, v in parts))]
        return at, found

    def _reduce(self, blk: slice, cols, shape, reader) -> dict:
        """Keep and draw from one chunk through its reader; returns, by key,
        the flat positions and values of the classes kept from it."""
        at, found = reader

        def named(idx, vals) -> list[tuple]:
            where = np.unravel_index(idx, shape)
            coeffs = [np.broadcast_to(c, shape)[where].tolist() for c in cols]
            return list(zip(zip(*coeffs), *(v.tolist() for v in vals)))

        taken = {}
        for key, (k, *values) in self._keep.items():
            kept = self.kept[key]
            if k is None or len(kept) < k:
                idx, vals = found(key, values, None if k is None else k - len(kept))
                if len(idx):  # naming costs tens of microseconds even when empty
                    kept += named(idx, vals)
                    taken[key] = idx, vals
        for key, (_, _, mask, *values) in self._draw.items():
            targets = self._targets[key]
            while targets and targets[0] < blk.stop:
                hit = _set_positions(lambda lo, hi: at(mask, np.arange(lo, hi)),
                                     max(targets[0] - blk.start, 0), blk.stop - blk.start, 1)
                if not hit:
                    break  # the pending positions wait for the next chunk
                self.drawn[key] += named(hit, [at(v, hit) for v in values])
                targets.pop(0)
        return taken


def _set_positions(read, i: int, size: int, limit: int) -> list[int]:
    """Up to `limit` flat positions from i on where a mask is set, in order,
    reading `read(lo, hi)`, the mask on [lo, hi), in windows that double
    from 64 classes."""
    hits, width = [], 64
    while i < size and len(hits) < limit:
        hi = min(i + width, size)
        hits += (i + np.flatnonzero(read(i, hi))[:limit - len(hits)]).tolist()
        i, width = hi, width * 2
    return hits


# ----------------------------------------------------------------------
# Field suite
# ----------------------------------------------------------------------

def verify_field(F: Field) -> SuiteReport:
    rep = SuiteReport("field", F.q, F.modulus)
    q = F.q
    exhaustive = q <= 16
    elems = list(F.elements())
    rng = random.Random(q)
    pick = (lambda: elems) if exhaustive else (lambda: rng.sample(elems, 16))
    picked = "" if exhaustive else " (sampled)"  # names the checks run on pick()

    ok = all(F.mul(a, F.mul(b, c)) == F.mul(F.mul(a, b), c)
             for a in pick() for b in pick() for c in pick())
    rep.add("multiplication associative" + picked, ok)
    ok = all(F.mul(a, b ^ c) == F.mul(a, b) ^ F.mul(a, c)
             for a in pick() for b in pick() for c in pick())
    rep.add("multiplication distributes over addition" + picked, ok)
    ok = all(F.mul(a, b) == F.mul(b, a) for a in elems for b in elems)
    rep.add("multiplication commutative", ok)
    rep.add("x * inv(x) = 1", all(F.mul(a, F.inv(a)) == 1 for a in range(1, q)))
    rep.add("x + x = 0", all(a ^ a == 0 for a in elems))
    rep.add("sqrt(x)^2 = x", all(F.mul(F.sqrt(a), F.sqrt(a)) == a for a in elems))

    rep.add("trace is GF(2)-linear",
            all(F.trace(a ^ b) == (F.trace(a) ^ F.trace(b)) for a in elems for b in elems))
    n0 = sum(1 for a in elems if F.trace(a) == 0)
    rep.add("exactly half the elements have trace zero", n0 == q // 2, q // 2, n0)

    as_ok = True
    for v in elems:
        roots = F.solve_artin_schreier(v)
        if F.trace(v) == 0:
            as_ok &= roots is not None and roots[0] ^ roots[1] == 1
            as_ok &= all(F.mul(t, t) ^ t == v for t in roots)
            as_ok &= int(F.artin_schreier_table[v]) == roots[0]
        else:
            as_ok &= roots is None and int(F.artin_schreier_table[v]) == -1
    rep.add("X^2+X+v solvable iff trace(v)=0; closed form matches table", as_ok)
    rep.add("x = t^2 + t has a solution iff trace(x) = 0",
            all((F.artin_schreier_table[x] >= 0) == (F.trace(x) == 0) for x in elems))

    for r in (2, 3):
        E = ExtField(F, r)
        emb_ok = all(
            E.mul(E.embed(a), E.embed(b)) == E.embed(F.mul(a, b))
            and E.add(E.embed(a), E.embed(b)) == E.embed(a ^ b)
            for a in pick() for b in pick()
        )
        rep.add(f"degree-{r} embedding respects operations{picked}", emb_ok)
        sampled = "" if q ** r <= 4096 else " (sampled)"
        xs = (list(E.elements()) if not sampled
              else [tuple(rng.randrange(q) for _ in range(r)) for _ in range(64)])
        rep.add(f"degree-{r} Frobenius fixes exactly the base field{sampled}",
                all((E.frobenius(x) == x) == E.in_base(x) for x in xs))
        rep.add(f"degree-{r} Frobenius has order dividing {r}{sampled}",
                all(_frob_iter(E, x, r) == x for x in xs))
    return rep


def _frob_iter(E: ExtField, x, times: int):
    for _ in range(times):
        x = E.frobenius(x)
    return x


# ----------------------------------------------------------------------
# Geometry suite
# ----------------------------------------------------------------------

def verify_geometry(F: Field) -> SuiteReport:
    q = F.q
    rep = SuiteReport("geometry", q, F.modulus)
    delta = build_delta(F, include_origin=False)
    dbar = build_delta(F, include_origin=True)

    rep.add("point-set size q(q-1)/2", len(delta) == q * (q - 1) // 2,
            q * (q - 1) // 2, len(delta))
    rep.add("origin-included size q(q-1)/2 + 1", len(dbar) == len(delta) + 1)
    rep.add("(1, 0) is in the set", (1, 0) in set(delta.points))
    rep.add("trace(y/x^2) = 0 at every point",
            all(F.trace(F.div(y, F.mul(x, x))) == 0 for x, y in delta.points))

    if q <= 16:
        image = Counter(pi_map(F, x1, x2) for x1, x2 in distinguished_points(F))
        rep.add("symmetric map image of distinguished points equals the set",
                set(image) == set(delta.points))
        rep.add("symmetric map is exactly 2-to-1 on distinguished points",
                all(v == 2 for v in image.values()))

    # line closed forms: the stated case list against brute force, by family
    sweep = _Sweep(F, LINE_LAYOUT, _line_stats(F),
                   count=("unexplained", "generic_wrong", "origin", "origin_wrong", "square",
                          "square_wrong", ("square", "nd")),
                   keep={"unexplained": (3, "td", "tb", "nd", "nb")}).run()
    tally, n_square = sweep.tally, sweep.tally["square"]
    first = [(coeffs[3:], *counts) for coeffs, *counts in sweep.kept["unexplained"]]
    rep.add("verified line closed form matches brute force on every line", not tally["unexplained"],
            0, tally["unexplained"], note=f"first: {first}" if first else "")
    rep.add("stated line case list matches brute force outside the two flagged families",
            not tally["generic_wrong"])
    rep.add("flagged family 1: slanted lines through the origin", not tally["origin_wrong"],
            note=f"{tally['origin']} lines: stated chain gives both (q-2)/2+1 and q/2-2 for the "
                 f"origin-included count; brute force gives q/2 = {q // 2} "
                 f"(origin-excluded {(q - 2) // 2})")
    rep.add("flagged family 2: squared-intercept lines meet the set in q-1 points",
            n_square and not tally["square_wrong"], q - 1, list(sweep.histogram("square")),
            note=f"{n_square} lines Y = m*X + m^2 (m != 0): these are images of the "
                 "coordinate-line pairs {X1 = m} ∪ {X2 = m}")
    rep.add("stated case list covers the squared-intercept family", not n_square, (q - 2) // 2,
            q - 1, note=f"stated value (q-2)/2 disagrees with brute force q-1 on {n_square} "
                        "lines; reported, not patched" if n_square else "")

    # parabola-family closed forms (a12 = a22 = 0), every class, both sets
    mismatches = parabola_spectrum(F)["closed_form_mismatches"]
    rep.add("parabola-family closed forms match brute force on every class",
            not mismatches, 0, len(mismatches),
            note=f"first: {mismatches[:3]}" if mismatches else "")

    # degeneracy criterion against the singular-point oracle
    if q <= 8:
        def oracle(bc):
            found = degeneracy_oracle_sweep(F, bc)
            return {"found": found, "every": True,
                    "disagree": found != (degeneracy_columns(F, bc) == 0)}

        sweep = _Sweep(F, CONIC_LAYOUT, oracle, count=("disagree",), keep={"disagree": (3,)},
                       draw={"spot": (12, q + 13, "every", "found")}).run()
        n_bad, bad = sweep.tally["disagree"], [coeffs for coeffs, in sweep.kept["disagree"]]
        rep.add("degeneracy criterion agrees with the singular-point oracle",
                not n_bad, 0, n_bad, note=f"first: {bad}" if bad else "")
        # scalar spot-check of the vectorized oracle
        spot = all(degenerate_by_singular_point(F, Conic(*coeffs)) == found
                   for coeffs, found in sweep.drawn["spot"])
        rep.add("vectorized oracle agrees with the per-conic oracle (sampled)", spot)

    # normalization properties
    rng = random.Random(q)
    norm_ok = True
    for _ in range(200):
        coeffs = tuple(rng.randrange(q) for _ in range(6))
        if not any(coeffs):
            continue
        c = make_conic(F, coeffs)
        norm_ok &= make_conic(F, c.coeffs()) == c
        s = rng.randrange(1, q)
        norm_ok &= make_conic(F, tuple(F.mul(s, v) for v in coeffs)) == c
    rep.add("conic normalization is idempotent and scale-invariant", norm_ok)
    return rep


# ----------------------------------------------------------------------
# Lemma suite: |DeltaBar ∩ C| from N(F^(s))
# ----------------------------------------------------------------------

def _lemma_stats(F: Field) -> Callable[[list], dict]:
    """The lemma sweep's per-class statistics of a chunk."""
    dbar_masks = _line_masks(F, build_delta(F, include_origin=True).points)

    def stats(bc):
        ok = curves.triples_ok_columns(bc)
        s = curves.split_exponent_columns(bc)
        count = _root_mask_counts(F, curves.term_columns(bc, curves.CONIC_TERMS, 1), dbar_masks)
        nf, _ = _quartic_counts(F, bc, s)
        odd = ok & (nf % 2 == 1)
        wrong = odd | (ok & (count != curves.lemma_rhs(nf, curves.lemma_case_columns(F, bc))))
        return {"checked": ok, "odd": odd, "wrong": wrong, "count": count}
    return stats


def verify_lemma(F: Field) -> SuiteReport:
    q = F.q
    rep = SuiteReport("lemma", q, F.modulus)
    sweep = _Sweep(F, CONIC_LAYOUT, _lemma_stats(F), count=("checked", "odd", "wrong"),
                   keep={"wrong": (3, "count")},
                   draw={"checked": (SAMPLE_CHECKS, q * 7 + 1, "checked", "count")}).run()
    n_bad, bad = sweep.tally["wrong"], sweep.kept["wrong"]
    rep.add("intersection count equals its curve-count expression on every class",
            not n_bad, 0, n_bad,
            note=f"checked {sweep.tally['checked']} classes" + (f"; first: {bad}" if bad else ""))
    rep.add("curve point counts are even where halved", not sweep.tally["odd"])

    # scalar cross-check of the vectorized pipeline
    sample_ok = True
    for coeffs, lhs in sweep.drawn["checked"]:
        r = curves.verify_lemma_delta(F, Conic(*coeffs))
        sample_ok &= r["ok"] and r["lhs"] == lhs
    rep.add("vectorized sweep agrees with the per-conic implementation (sampled)",
            sample_ok)
    return rep


# ----------------------------------------------------------------------
# Relations suite: N(F^(s)) versus N(G^(s))
# ----------------------------------------------------------------------

def _relations_stats(F: Field) -> Callable[[list], dict]:
    """The relations sweep's per-class statistics of a chunk."""
    def stats(bc):
        ok = curves.triples_ok_columns(bc)
        s = curves.split_exponent_columns(bc)
        nf, f_axis = _quartic_counts(F, bc, s)
        # N(G^(s)) = N(G): the coefficients G^(s) drops vanish at split exponent s
        ng = _root_mask_counts(F, curves.term_columns(bc, curves.SHEARED_TERMS, 0))
        g_axis = _root_counts(F, _on_line(F, curves.term_columns(bc, curves.SHEARED_TERMS, 1), 0))
        fmg = [curves.f_minus_g_columns(F, bc, k) for k in range(3)]
        predicted = np.where(s == 0, fmg[0], np.where(s == 1, fmg[1], fmg[2]))
        diff = nf.astype(np.int16) - ng.astype(np.int16)  # counts are at most q^2 <= 4096
        return {"checked": ok, "wrong": ok & (diff != predicted),
                "off_axis": ok & (f_axis.astype(np.int16) - g_axis != diff),
                "diff": diff, "predicted": predicted, "nf": nf, "ng": ng}
    return stats


def verify_relations(F: Field) -> SuiteReport:
    q = F.q
    rep = SuiteReport("relations", q, F.modulus)
    sweep = _Sweep(F, CONIC_LAYOUT, _relations_stats(F), count=("checked", "wrong", "off_axis"),
                   keep={"wrong": (3, "diff", "predicted")},
                   draw={"checked": (SAMPLE_CHECKS, q * 7 + 2, "checked", "nf", "ng")}).run()
    n_bad, bad = sweep.tally["wrong"], sweep.kept["wrong"]
    rep.add("tabulated count differences hold on every class", not n_bad, 0, n_bad,
            note=f"checked {sweep.tally['checked']} classes" + (f"; first: {bad}" if bad else ""))
    rep.add("count differences are explained by points on the axis X = 0",
            not sweep.tally["off_axis"])

    sample_ok = True
    for coeffs, nf, ng in sweep.drawn["checked"]:
        r = curves.verify_count_relations(F, Conic(*coeffs))
        sample_ok &= (r["ok"] and r["axis_ok"] and r["g_axis_closed_form_ok"]
                      and (r["n_f"], r["n_g"]) == (nf, ng))
    rep.add("vectorized sweep agrees with the per-conic implementation (sampled)",
            sample_ok)
    return rep


# ----------------------------------------------------------------------
# Reducibility suite: degeneracy of C versus linear components of H
# ----------------------------------------------------------------------

def _honest_linear_sweep(F: Field, cols: list[np.ndarray],
                         h: dict[tuple[int, int], curves.Pair], red: dict) -> np.ndarray:
    """Per-class divisibility of H by the unique candidate line of one of
    the three pencils through its infinite points; h and red are the
    curves.cubic_h_columns and curves.reducibility_columns of the classes."""
    a11, a12, a22, a13, a23, a33 = cols
    E2 = curves._quadratic_extension(F)[0]
    mul = F.vmul
    vanishes = curves.vanishes

    def over(p, d):
        return F.vdiv(p[0], d), F.vdiv(p[1], d)

    s = h[(0, 2)]  # vbar*a23 + a13, the recurring combination
    # pencil through V-infinity: X = (vbar*a23 + a13)/a12
    x = over(s, a12)
    xs = E2.vmul(x, x)
    ev = (mul(a22, xs[0]) ^ mul(a23, x[0]) ^ a33, mul(a22, xs[1]) ^ mul(a23, x[1]))
    cond_v = np.where(a12 != 0, vanishes(ev), vanishes(s))
    # pencil through X-infinity: V = a12/a22; cleared forms R12 and R13
    cond_x = (a22 != 0) & vanishes(red["r12"]) & vanishes(red["r13"])
    # pencil through (a22 : a12 : 0): a22*X + a12*V = w*
    both = (a12 != 0) & (a22 != 0)
    cond_q = np.zeros_like(both)
    if both.any():
        a12sq, a22sq = mul(a12, a12), mul(a22, a22)
        num = mul(a12sq, a12) ^ mul(a12, mul(a22, a23)) ^ mul(a22sq, s[0])
        w = over((num, mul(a22sq, s[1])), mul(a12, a22))
        ws = E2.vmul(w, w)
        sw = E2.vmul(s, ws)
        inner, tail = h[(1, 0)], h[(0, 0)]
        c1 = [mul(a12, ws[t]) ^ mul(mul(a12, a23), w[t]) ^ mul(a12sq, inner[t]) for t in (0, 1)]
        c1[0] = c1[0] ^ mul(a12, mul(a22, a33))
        c0 = [sw[t] ^ mul(mul(a12, a33), w[t]) ^ mul(a12sq, tail[t]) for t in (0, 1)]
        cond_q = both & vanishes(c1) & vanishes(c0)
    return cond_v | cond_x | cond_q


def _reducibility_stats(F: Field) -> Callable[[list], dict]:
    """The reducibility sweep's per-class statistics of a chunk."""
    def stats(bc):
        a11, a12, a22, a13, a23, a33 = bc
        app = curves.triples_ok_columns(bc) & ((a12 != 0) | (a22 != 0))
        vbar = curves.vbar_columns(F, bc)
        h = curves.cubic_h_columns(F, bc, vbar)
        red = curves.reducibility_columns(F, bc, vbar, h)
        degenerate, stated = degeneracy_columns(F, bc) == 0, red["reducible"]
        honest = _honest_linear_sweep(F, bc, h, red)
        both = app & (a12 != 0) & (a22 != 0)
        return {"checked": app, "disagree": app & (stated != degenerate),
                "mismatch": app & (honest != degenerate), "gap": app & honest & ~stated,
                "identity_q12": both & ~red["identity_q12"],
                "identity_q13": both & ~red["identity_q13"],
                "stated": stated, "degenerate": degenerate, "honest": honest}
    return stats


def verify_reducibility(F: Field) -> SuiteReport:
    q = F.q
    rep = SuiteReport("reducibility", q, F.modulus)
    # 40 applicable classes, and 8 more from the gap where there is one
    sweep = _Sweep(F, CONIC_LAYOUT, _reducibility_stats(F),
                   count=("checked", "disagree", "mismatch", "gap", "identity_q12",
                          "identity_q13"),
                   keep={"disagree": (5, "stated", "degenerate"),
                         "mismatch": (5, "honest", "degenerate"), "gap": (5,)},
                   draw={"checked": (SAMPLE_CHECKS, q * 7 + 3, "checked", "honest"),
                         "gap": (8, q * 7 + 5, "gap", "honest"),
                         "more": (8, q * 7 + 5, "checked", "honest")}).run()
    tally, bad = sweep.tally, sweep.kept["disagree"]
    rep.add("stated component criteria hold iff the conic is degenerate",
            not bad, 0, tally["disagree"],
            note=f"checked {tally['checked']} classes" + (f"; first: {bad}" if bad else ""))

    rep.add("resultant identity Q12 = a22 * R12", not tally["identity_q12"])
    rep.add("resultant identity Q13 = a22^2 * R13 + a12^2 * R12", not tally["identity_q13"])

    bad_h = sweep.kept["mismatch"]
    rep.add("H has a linear component iff the conic is degenerate",
            not bad_h, 0, tally["mismatch"],
            note=("stated equivalence fails: the criteria miss lines through "
                  "the third infinite point; first: " + str(bad_h)) if bad_h else "")
    rep.add("stated criteria capture every linear component",
            not tally["gap"], 0, tally["gap"],
            note=("classes with a line through (a22:a12:0) missed by the "
                  "stated criteria; first: "
                  + str([coeffs for coeffs, in sweep.kept["gap"]]))
            if tally["gap"] else "")

    picks = sweep.drawn["checked"] + (sweep.drawn["gap"] or sweep.drawn["more"])
    sample_ok = all(curves.has_linear_component(F, Conic(*coeffs))[0] == line
                    for coeffs, line in picks)
    rep.add("vectorized sweep agrees with the per-conic implementation (sampled)",
            sample_ok)
    return rep


# ----------------------------------------------------------------------
# Hasse suite: windows for the cubic, and the transfer between G and H
# ----------------------------------------------------------------------

def _hasse_stats(F: Field) -> Callable[[list], dict]:
    """The hasse sweep's per-class statistics of a chunk: applicability,
    vbar, G, H, both counts by the root-mask walk, the windows and the
    corrected transfer."""
    q = F.q
    in_win = np.array([in_sqrt_window(x, q) or curves.in_rational_affine_window(x, q)
                       for x in range(q * q + 1)])  # N(H) <= q^2

    def stats(bc):
        app = (curves.triples_ok_columns(bc) & (degeneracy_columns(F, bc) != 0)
               & ((bc[1] != 0) | (bc[2] != 0)))
        vbar = curves.vbar_columns(F, bc)
        h = curves.cubic_h_columns(F, bc, vbar)
        g = curves.term_columns(bc, curves.SHEARED_TERMS, 0)
        # H is counted in V on the lines X = x, where a33 is V's coefficient
        ng = _root_mask_counts(F, g)
        nh = _root_mask_counts(F, {(j, i): c for (i, j), c in h.items()})
        rat, win = app & (vbar[1] == 0), in_win[nh]
        transfer = rat
        if rat.any():
            # corrected transfer: the quadratic map sends the (up to) k points of
            # G on the line V = vbar to one point of H on the line V = 0, and H
            # picks up the other points of that line; bookkeeping those recovers
            # N(H) = N(G) - k + (points of H on V = 0) exactly.  On rational-vbar
            # classes every value lies in the first component.
            corrected = (ng.astype(np.int32) - _root_counts(F, _on_line(F, g, vbar[0]))
                         + _root_counts(F, _on_line(F, {key: p[:1] for key, p in h.items()}, 0)))
            transfer = rat & (corrected == nh)
        return {"applicable": app, "rational": rat, "unequal": app & (ng != nh),
                "outside": app & ~win, "violators": rat & ~win, "rational_in_window": rat & win,
                "quadratic": app & ~rat, "quadratic_in_window": app & ~rat & win,
                "transfer": transfer, "ng": ng, "nh": nh}
    return stats


def verify_hasse(F: Field) -> SuiteReport:
    q = F.q
    rep = SuiteReport("hasse", q, F.modulus)
    # reduced to tallies, the first violators and the coefficients of the
    # rational-vbar window violators
    sweep = _Sweep(F, CONIC_LAYOUT, _hasse_stats(F),
                   count=("applicable", "rational", "unequal", "outside", "rational_in_window",
                          "quadratic", "quadratic_in_window", "transfer"),
                   keep={"unequal": (3, "ng", "nh"), "outside": (5, "nh"), "violators": (None,)},
                   draw={"checked": (SAMPLE_CHECKS, q * 7 + 4, "applicable", "ng", "nh")}).run()
    tally = sweep.tally
    n_app, n_rational = tally["applicable"], tally["rational"]

    # claim 1: N(G) = N(H)
    n_eq = n_app - tally["unequal"]
    rep.add("stated transfer N(G) = N(H) holds on every applicable class",
            n_eq == n_app, n_app, n_eq,
            note=(f"violations {n_app - n_eq}; first: " + str(sweep.kept["unequal"])
                  if n_eq != n_app else ""))

    if n_rational:
        rep.add("corrected transfer (axis-point bookkeeping) holds for rational vbar",
                tally["transfer"] == n_rational, n_rational, tally["transfer"])

    # claim 2: N(H) in the union of the elliptic and rational affine windows
    rep.add("N(H) lies in the union of the affine windows on every applicable class",
            not tally["outside"], n_app, n_app - tally["outside"],
            note=("violations: " + str(sweep.kept["outside"])
                  if tally["outside"] else ""))
    if n_rational:
        n_win = tally["rational_in_window"]
        rep.add("N(H) lies in the union window on every rational-vbar class",
                n_win == n_rational, n_rational, n_win,
                note="" if n_win == n_rational else
                "window fails even where the cubic is defined over the base field")
    if tally["quadratic"]:
        rep.add("window status on quadratic-vbar classes (informational)",
                True, tally["quadratic"], tally["quadratic_in_window"],
                note="N(H) counts base-field points of a curve with extension "
                     "coefficients; the cubic-curve windows do not govern them")

    # the window can only fail where H is secretly reducible: an irreducible
    # cubic obeys the stated bounds, so every violator must carry a line
    viol_cols = list(np.array([c for c, in sweep.kept["violators"]], dtype=F.np_dtype)
                     .reshape(-1, 6).T)
    viol_vbar = curves.vbar_columns(F, viol_cols)
    viol_h = curves.cubic_h_columns(F, viol_cols, viol_vbar)
    has_line = _honest_linear_sweep(
        F, viol_cols, viol_h, curves.reducibility_columns(F, viol_cols, viol_vbar, viol_h))
    rep.add("every rational-vbar window violation comes from a reducible cubic",
            bool(has_line.all()), len(has_line), int(has_line.sum()),
            note="their conics are non-degenerate, so the stated reducibility "
                 "criteria do not see these lines")

    sample_ok = True
    for coeffs, ng, nh in sweep.drawn["checked"]:
        res = curves.hasse_window_check(F, Conic(*coeffs))
        sample_ok &= res["n_g"] == ng and res["n_h"] == nh
    rep.add("vectorized counts agree with the per-conic implementation (sampled)",
            sample_ok)
    return rep


# ----------------------------------------------------------------------
# Intersection spectrum sweeps (also backing the corollary check)
# ----------------------------------------------------------------------

def _census_stats(F: Field) -> Callable[[list], dict]:
    """The all-conics census's per-class statistics of a chunk: the count
    on Delta, and the classes outside both the window and the exceptional
    families."""
    delta = build_delta(F, include_origin=False)
    masks = _line_masks(F, delta.points)
    in_win = np.array([in_sqrt_window(2 * c, F.q) for c in range(len(delta) + 1)])

    def stats(bc):
        counts = _root_mask_counts(F, curves.term_columns(bc, curves.CONIC_TERMS, 1), masks)
        nondeg = degeneracy_columns(F, bc) != 0
        family_parabola, family_vertical = exceptional_columns(F, bc)
        return {"every": True, "counts": counts, "nondeg": nondeg,
                "parabola": nondeg & family_parabola,
                "violations": nondeg & ~(in_win[counts] | family_parabola | family_vertical)}
    return stats


def conic_spectrum(F: Field) -> dict:
    """Histograms of |Delta ∩ C| over the non-degenerate conic classes, with
    window and exceptional-family accounting, and over every class, reduced
    chunk by chunk; BudgetError before any table is built."""
    check_class_budget(F.q, 6)
    sweep = _Sweep(F, CONIC_LAYOUT, _census_stats(F),
                   count=("parabola", ("nondeg", "counts"), ("violations", "counts"),
                          ("every", "counts")),
                   keep={"violations": (8, "counts")}).run()
    hist, viol_hist = sweep.histogram("nondeg"), sweep.histogram("violations")
    return {
        "q": F.q,
        "nondegenerate_classes": sum(hist.values()),
        "histogram": hist,
        "histogram_every_class": sweep.histogram("every"),
        "window_violations": sum(viol_hist.values()),
        "violation_counts": viol_hist,
        "violation_examples": sweep.kept["violations"],
        "exceptional_parabola_classes": sweep.tally["parabola"],
    }


def _parabola_stats(F: Field) -> Callable[[list], dict]:
    """The per-class statistics of a chunk of PARABOLA_LAYOUT (or of
    LINE_LAYOUT, its classes with a11 = 0): the counts nd and nb on Delta
    and DeltaBar by the walk, the closed form for both, td and tb (plus the
    origin where a33 = 0), and the classes where they differ."""
    masks = [_line_masks(F, build_delta(F, include_origin=io).points) for io in (False, True)]

    def stats(bc):
        conic = curves.term_columns(bc, curves.CONIC_TERMS, 1)
        nd, nb = (_root_mask_counts(F, conic, m) for m in masks)
        td = parabola_count_closed_form(F, bc)
        tb = td + (bc[5] == 0)
        return {"every": True, "nd": nd, "nb": nb, "td": td, "tb": tb,
                "unexplained": (td != nd) | (tb != nb)}
    return stats


def _line_stats(F: Field) -> Callable[[list], dict]:
    """The per-class statistics of a chunk of LINE_LAYOUT: those of
    _parabola_stats, the stated case list and the lines it misses on both
    sets.  Each line falls in the first of: unexplained (the verified
    closed form misses brute force), squared intercept Y = m*X + m^2, m != 0
    (the parabola orbit, missing from the case list), slanted through the
    origin (stated chain inconsistent), generic; a "_wrong" mask holds the
    lines of a family that miss its stated counts."""
    q, closed = F.q, _parabola_stats(F)

    def stats(bc):
        st = closed(bc)
        a13, a23, a33 = bc[3:]
        nd, nb, unexplained = st["nd"], st["nb"], st["unexplained"]
        stated = line_delta_count_closed_form(F, bc[3:])
        square = ~unexplained & exceptional_columns(F, bc)[0] & (a13 != 0)
        origin = ~unexplained & ~square & (a13 != 0) & (a23 != 0) & (a33 == 0)
        generic = ~(unexplained | square | origin)
        chain = (nb == q // 2) & (nd == (q - 2) // 2) & (stated == (q - 2) // 2)
        return st | {"stated": stated, "flagged": (stated != nd) & (stated != nb),
                     "generic_wrong": generic & (stated != nb),
                     "origin": origin, "origin_wrong": origin & ~chain,
                     "square": square, "square_wrong": square & ((nd != q - 1) | (nb != q - 1))}
    return stats


def line_spectrum(F: Field) -> dict:
    """Brute-force counts on Delta over the q^2 + q lines, and the lines
    where the stated case list misses both sets."""
    sweep = _Sweep(F, LINE_LAYOUT, _line_stats(F), count=(("every", "nd"),),
                   keep={"flagged": (None, "stated", "nd", "nb")}).run()
    hist = sweep.histogram("every")
    return {"q": F.q, "lines": sum(hist.values()), "histogram_delta": hist,
            "stated_mismatches": [(c[3:], *counts) for c, *counts in sweep.kept["flagged"]]}


def parabola_spectrum(F: Field) -> dict:
    """Brute-force counts over every class with a12 = a22 = 0 (vectorized),
    compared against the closed form and its origin rule."""
    sweep = _Sweep(F, PARABOLA_LAYOUT, _parabola_stats(F), count=(("every", "nd"),),
                   keep={"unexplained": (None, "td", "nd", "tb", "nb")}).run()
    hist = sweep.histogram("every")
    mismatches = [(coeffs, io, pred, actual) for coeffs, *counts in sweep.kept["unexplained"]
                  for io, pred, actual in ((False, *counts[:2]), (True, *counts[2:]))
                  if pred != actual]
    return {"q": F.q, "classes": sum(hist.values()), "histogram_delta": hist,
            "closed_form_mismatches": mismatches}


SUITES: dict[str, Callable[[Field], SuiteReport]] = {
    "field": verify_field,
    "geometry": verify_geometry,
    "lemma": verify_lemma,
    "relations": verify_relations,
    "reducibility": verify_reducibility,
    "hasse": verify_hasse,
}


CONIC_SWEEP_SUITES = ("lemma", "relations", "reducibility", "hasse")  # all conic classes


def check_suite_budget(name: str, q: int) -> None:
    """Raise BudgetError before any suite of `name` starts when one of them
    would sweep more conic classes than CLASS_BUDGET."""
    if name == "all" or name in CONIC_SWEEP_SUITES:
        check_class_budget(q, 6)
