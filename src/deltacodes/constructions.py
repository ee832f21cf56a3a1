"""Named code families built on the evaluation set.

Four linear systems are assembled and evaluated on the point set: the
linear polynomials, the parabola system {X^2, X, Y, 1}, the full conic
system of all six monomials, and the triangle net: the 3-dimensional
system spanned over GF(q) by lambda*l1*l2 + lambda^q*l2*l3 +
lambda^(q^2)*l3*l1, where l1, l2, l3 are the sides of the triangle formed
by a point of PG(2, GF(q^3)) off every line of PG(2, GF(q)) together with
its two Frobenius images.  The net contains no degenerate conic, which is
what keeps its code's weights under control.
"""

from __future__ import annotations

import functools
import random
from collections import Counter
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .field import ExtElement, ExtField, Field
from .geometry import (
    Coeffs6,
    Conic,
    build_delta,
    degeneracy_columns,
    in_sqrt_window,
    projective_points,
)
from .codes import (
    ConicSystem,
    GeneratorMatrix,
    class_weight_distribution,
    dual_distance_upto,
    evaluate_system,
    min_distance,
    singleton_ok,
    weight_distribution_enumerate,
)
from .verify import (check_class_budget, conic_spectrum, line_spectrum, parabola_spectrum,
                     projective_class_columns)

# basis polynomials as coefficient 6-tuples (a11, a12, a22, a13, a23, a33)
POLY_X2: Coeffs6 = (1, 0, 0, 0, 0, 0)
POLY_XY: Coeffs6 = (0, 1, 0, 0, 0, 0)
POLY_Y2: Coeffs6 = (0, 0, 1, 0, 0, 0)
POLY_X: Coeffs6 = (0, 0, 0, 1, 0, 0)
POLY_Y: Coeffs6 = (0, 0, 0, 0, 1, 0)
POLY_1: Coeffs6 = (0, 0, 0, 0, 0, 1)


# ----------------------------------------------------------------------
# The orbit of points off every rational line, and the triangle net
# ----------------------------------------------------------------------

ProjPoint3 = tuple[ExtElement, ExtElement, ExtElement]


def normalize_projective(E: ExtField, p: ProjPoint3) -> ProjPoint3:
    lead = next((c for c in p if c != E.zero), None)
    if lead is None:
        raise ValueError("projective point needs a nonzero coordinate")
    inv = E.inv(lead)
    return tuple(E.mul(inv, c) for c in p)  # type: ignore[return-value]


def frobenius_point(E: ExtField, p: ProjPoint3) -> ProjPoint3:
    return tuple(E.frobenius(c) for c in p)  # type: ignore[return-value]


def _det3(E: ExtField, rows: tuple[ProjPoint3, ProjPoint3, ProjPoint3]) -> ExtElement:
    (a, b, c), (d, e, f), (g, h, i) = rows
    t1 = E.mul(a, E.add(E.mul(e, i), E.mul(f, h)))
    t2 = E.mul(b, E.add(E.mul(d, i), E.mul(f, g)))
    t3 = E.mul(c, E.add(E.mul(d, h), E.mul(e, g)))
    return E.add(E.add(t1, t2), t3)


def in_lambda_orbit(E: ExtField, p: ProjPoint3) -> bool:
    """True when p lies neither in PG(2, GF(q)) nor on any rational line:
    p and its two Frobenius images span, det(p, p^q, p^(q^2)) != 0.  A
    rational point, or a point on a rational line, has all three on that
    line (or equal), so no normalization is needed."""
    p1 = frobenius_point(E, p)
    return _det3(E, (p, p1, frobenius_point(E, p1))) != E.zero


def find_lambda_point(E: ExtField, mode: str = "seeded", seed: int = 0) -> ProjPoint3:
    """A point of the off-every-rational-line orbit.

    'scan' returns the first such point in canonical coordinate order;
    'seeded' draws uniformly at random and is deterministic per seed.
    The orbit is not empty (lambda_orbit_size), so both terminate.
    """
    if mode == "scan":
        for p in projective_points(E):
            if in_lambda_orbit(E, p):
                return normalize_projective(E, p)
        raise RuntimeError("empty orbit")  # unreachable for q >= 2
    if mode != "seeded":
        raise ValueError(f"unknown mode {mode!r}")
    rng = random.Random(seed)
    q = E.base.q
    while True:
        p = tuple(
            tuple(rng.randrange(q) for _ in range(E.degree)) for _ in range(3)
        )
        if all(c == E.zero for c in p):
            continue
        if in_lambda_orbit(E, p):  # type: ignore[arg-type]
            return normalize_projective(E, p)  # type: ignore[arg-type]


def lambda_orbit_size(q: int) -> int:
    """The number of points of PG(2, GF(q^3)) off every rational line."""
    return q ** 6 - q ** 5 - q ** 4 + q ** 3


def lambda_orbit_count(E: ExtField) -> int:
    """Exhaustive count of accepted points over all of PG(2, GF(q^3)).
    Raises BudgetError, before the scan, when its q^6 + q^3 + 1 points
    exceed the class budget (q >= 32)."""
    check_class_budget(E.order, 3)
    return sum(1 for p in projective_points(E) if in_lambda_orbit(E, p))


def _cross(E: ExtField, p: ProjPoint3, r: ProjPoint3) -> ProjPoint3:
    (a1, a2, a3), (b1, b2, b3) = p, r
    return (
        E.add(E.mul(a2, b3), E.mul(a3, b2)),
        E.add(E.mul(a3, b1), E.mul(a1, b3)),
        E.add(E.mul(a1, b2), E.mul(a2, b1)),
    )


def _line_product_coeffs(E: ExtField, l: ProjPoint3, m: ProjPoint3) -> tuple[ExtElement, ...]:
    """Homogeneous conic coefficients (a11, a12, a22, a13, a23, a33) of the
    product of two linear forms in (X, Y, Z)."""
    (l1, l2, l3), (m1, m2, m3) = l, m
    return (
        E.mul(l1, m1),
        E.add(E.mul(l1, m2), E.mul(l2, m1)),
        E.mul(l2, m2),
        E.add(E.mul(l1, m3), E.mul(l3, m1)),
        E.add(E.mul(l2, m3), E.mul(l3, m2)),
        E.mul(l3, m3),
    )


@dataclass
class NetContext:
    """The triangle behind the net: a point of the special orbit, and the
    products l1*l2, l2*l3 and l3*l1 of the sides through it and its two
    Frobenius images, as homogeneous conic coefficients over GF(q^3)."""

    ext: ExtField
    P: ProjPoint3
    quad12: tuple[ExtElement, ...]
    quad23: tuple[ExtElement, ...]
    quad31: tuple[ExtElement, ...]


def make_net_context(E: ExtField, p: ProjPoint3) -> NetContext:
    if E.degree != 3:
        raise ValueError("the net lives over a cubic extension")
    if not in_lambda_orbit(E, p):
        raise ValueError("the base point must avoid every rational line")
    p = normalize_projective(E, p)
    p1 = frobenius_point(E, p)
    p2 = frobenius_point(E, p1)
    l1 = _cross(E, p, p1)
    l2 = _cross(E, p1, p2)
    l3 = _cross(E, p2, p)
    # Frobenius must cycle the sides: the conjugate of l1 is l2 and so on
    for side, conjugate in ((l1, l2), (l2, l3)):
        if frobenius_point(E, side) != conjugate:
            raise AssertionError(f"Frobenius does not cycle the sides of the net at {p}")
    return NetContext(
        ext=E, P=p,
        quad12=_line_product_coeffs(E, l1, l2),
        quad23=_line_product_coeffs(E, l2, l3),
        quad31=_line_product_coeffs(E, l3, l1),
    )


def conic_from_lambda(ctx: NetContext, lam: ExtElement) -> Coeffs6:
    """Raw affine coefficients of lambda*l1*l2 + lambda^q*l2*l3 +
    lambda^(q^2)*l3*l1; every coefficient must be Frobenius-fixed.

    A non-rational coefficient indicates a construction bug and aborts.
    """
    E = ctx.ext
    if lam == E.zero:
        raise ValueError("lambda must be nonzero")
    lam_q = E.frobenius(lam)
    lam_q2 = E.frobenius(lam_q)
    out = []
    for u, v, w in zip(ctx.quad12, ctx.quad23, ctx.quad31):
        c = E.add(E.add(E.mul(lam, u), E.mul(lam_q, v)), E.mul(lam_q2, w))
        if not E.in_base(c):
            raise AssertionError(f"non-rational net coefficient {c} at lambda={lam}")
        out.append(E.to_base(c))
    if not any(out):
        raise AssertionError(f"vanishing net conic at lambda={lam}")
    return tuple(out)  # type: ignore[return-value]


def build_net(F: Field, ctx: NetContext) -> list[Conic]:
    """All q^2 + q + 1 net members as normalized conic classes.

    lambda -> C_lambda is GF(q)-linear, so the member of lambda = c0 + c1*beta
    + c2*beta^2 is c0*C_1 + c1*C_beta + c2*C_beta2 over the net basis, for
    one (c0, c1, c2) per class modulo GF(q)* scalars: highest nonzero
    coordinate 1, in canonical order.  Every member must be non-degenerate;
    exactly one member has zero XY and Y^2 coefficients (the shape tangent
    to the line at infinity at the vertical-axis point).
    """
    lams = projective_class_columns(F.q, 3, F.np_dtype)[::-1]  # (c0, c1, c2)
    cols = [F.mul_col(lams[0], u) ^ F.mul_col(lams[1], v) ^ F.mul_col(lams[2], w)
            for u, v, w in zip(*net_basis(F, ctx).polys)]
    lead = functools.reduce(lambda acc, c: np.where(acc != 0, acc, c), cols)
    cols = [F.vdiv(c, lead) for c in cols]
    degenerate = np.flatnonzero(degeneracy_columns(F, cols) == 0)
    if len(degenerate):
        i = degenerate[0]
        raise AssertionError(f"degenerate net member at lambda={tuple(int(c[i]) for c in lams)}: "
                             f"{tuple(int(c[i]) for c in cols)}")
    members = [Conic(*row) for row in np.stack(cols, axis=1).tolist()]
    expected = F.q * F.q + F.q + 1
    if len(set(members)) != expected:
        raise AssertionError("net members are not pairwise distinct")
    special = [m for m in members if m.a12 == 0 and m.a22 == 0]
    if len(special) != 1:
        raise AssertionError(f"expected exactly one axis-tangent member, got {len(special)}")
    return members


def net_basis(F: Field, ctx: NetContext) -> ConicSystem:
    """The conics of 1, beta, beta^2 for the generator beta of GF(q^3):
    they span the net over GF(q) since lambda -> C_lambda is GF(q)-linear."""
    E = ctx.ext
    lams = (E.one, E.gen, E.mul(E.gen, E.gen))
    return ConicSystem(field=F, polys=[conic_from_lambda(ctx, lam) for lam in lams])


# ----------------------------------------------------------------------
# Code reports
# ----------------------------------------------------------------------

def _report(F: Field, name: str, system: ConicSystem,
            expected: Optional[dict] = None) -> tuple[dict, GeneratorMatrix]:
    """The code's parameters and weight distribution on Delta, with its
    generator matrix.  The sweeps count the message classes of the line,
    parabola and conic systems by their points on Delta (the line layout
    lacks the constant class, which meets none); the net enumerates its
    messages.  Stated parameters, when given, are reported under
    `expected` and compared key by key into `matches_expected`."""
    g = evaluate_system(system, build_delta(F))
    zeros = {"lines": lambda: Counter(line_spectrum(F)["histogram_delta"]) + Counter([0]),
             "parabolas": lambda: parabola_spectrum(F)["histogram_delta"],
             "conics": lambda: conic_spectrum(F)["histogram_every_class"]}.get(name)
    dist = (weight_distribution_enumerate(g) if zeros is None
            else class_weight_distribution(F.q, g.n, zeros()))
    d = min_distance(dist)
    report = {
        "q": F.q,
        "modulus": F.modulus,
        "system": name,
        "n": g.n,
        "k": g.rank,
        "d": d,
        "weights": sorted((int(w), int(c)) for w, c in dist.items()),
        "weight_set": sorted(int(w) for w in dist if w > 0),
        "singleton_ok": singleton_ok(g.n, g.rank, d),
    }
    if expected is not None:
        report["expected"] = expected
        report["matches_expected"] = all(report[key] == value for key, value in expected.items())
    return report, g


def line_code(F: Field) -> dict:
    """Evaluation code of the linear system {Y, X, 1}."""
    q = F.q
    expected = {
        "n": q * (q - 1) // 2,
        "k": 3,
        "d": (q - 1) * (q - 2) // 2,
        "weight_set": sorted({
            (q - 1) * (q - 2) // 2,
            q * (q - 2) // 2,
            (q * q - 2 * q + 2) // 2,
            q * (q - 1) // 2,
        }),
    }
    system = ConicSystem(F, [POLY_Y, POLY_X, POLY_1])
    return _report(F, "lines", system, expected)[0]


def construction2_code(F: Field) -> dict:
    """Evaluation code of the parabola system {X^2, X, Y, 1}."""
    q = F.q
    expected = {
        "n": q * (q - 1) // 2,
        "k": 4,
        "d": q * (q - 3) // 2,
        "weight_set": sorted({
            q * (q - 3) // 2,
            (q * q - 3 * q + 2) // 2,
            q * q // 2 - q,
            q * q // 2 - q + 1,
            q * (q - 1) // 2,
        }),
    }
    system = ConicSystem(F, [POLY_X2, POLY_X, POLY_Y, POLY_1])
    return _report(F, "parabolas", system, expected)[0]


def full_conic_code(F: Field) -> dict:
    """Evaluation code of all six degree-<=2 monomials."""
    q = F.q
    expected = {"n": q * (q - 1) // 2, "k": 6, "d": q * (q - 3) // 2}
    system = ConicSystem(F, [POLY_X2, POLY_XY, POLY_Y2, POLY_X, POLY_Y, POLY_1])
    return _report(F, "conics", system, expected)[0]


def construction1_code(F: Field, point: ProjPoint3) -> dict:
    """Evaluation code of one triangle net, with the distance bound and
    weight-window statements probed and reported rather than assumed."""
    ctx = make_net_context(ExtField(F, 3), point)
    report, g = _report(F, "net", net_basis(F, ctx))
    report["point"] = [list(c) for c in ctx.P]
    report["dual_distance"] = dual_distance_upto(g)
    q, n, d = F.q, report["n"], report["d"]
    # claimed bound: 2d >= q^2 - 2q + 1 - 2*sqrt(q), compared exactly
    gap = q * q - 2 * q + 1 - 2 * d
    report["distance_bound_holds"] = gap <= 0 or gap * gap <= 4 * q
    report["max_point_count"] = n - d
    # claimed weight window, probed in its literal reading (on w) and in the
    # intersection reading (on n - w); both results are reported
    report["weights_in_window_literal"] = all(
        in_sqrt_window(2 * w, q) for w in report["weight_set"])
    report["weights_in_window_as_counts"] = all(
        in_sqrt_window(2 * (n - w), q) for w in report["weight_set"])
    return report


def construction1_samples(F: Field, samples: int, seed: int = 0) -> list[dict]:
    """Deterministic batch of net codes from distinct sampled base points.
    Raises ValueError when the orbit has fewer than `samples` points."""
    if samples > lambda_orbit_size(F.q):
        raise ValueError(f"{samples} distinct base points requested; the orbit has "
                         f"{lambda_orbit_size(F.q)} at q = {F.q}")
    E = ExtField(F, 3)
    rng = random.Random(seed)
    seen: set = set()
    out = []
    while len(out) < samples:
        sub_seed = rng.randrange(1 << 30)
        p = find_lambda_point(E, "seeded", sub_seed)
        if p in seen:
            continue
        seen.add(p)
        out.append(construction1_code(F, p))
    return out
