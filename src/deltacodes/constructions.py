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

import random
import time
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from .field import ExtElement, ExtField, Field
from .geometry import (
    Coeffs6,
    Conic,
    DeltaSet,
    build_delta,
    degeneracy_columns,
    in_sqrt_window,
    make_conic,
    projective_points,
)
from .codes import (
    ConicSystem,
    GeneratorMatrix,
    dual_distance_upto,
    evaluate_system,
    min_distance,
    singleton_ok,
    weight_distribution_enumerate,
)

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
    p differs from its Frobenius image and the three conjugates span."""
    p = normalize_projective(E, p)
    p1 = normalize_projective(E, frobenius_point(E, p))
    if p == p1:
        return False
    p2 = normalize_projective(E, frobenius_point(E, p1))
    return _det3(E, (p, p1, p2)) != E.zero


def find_lambda_point(E: ExtField, mode: str = "seeded", seed: int = 0) -> ProjPoint3:
    """A point of the off-every-rational-line orbit.

    'scan' returns the first such point in canonical coordinate order;
    'seeded' draws uniformly at random and is deterministic per seed.
    The orbit has q^6 - q^5 - q^4 + q^3 > 0 points, so both terminate.
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


def lambda_orbit_count(E: ExtField) -> int:
    """Exhaustive count of accepted points over all of PG(2, GF(q^3))."""
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
    """The triangle data behind the net: a point of the special orbit, its
    Frobenius images, the side lines, and a generator of GF(q^3) over GF(q)."""

    ext: ExtField
    P: ProjPoint3
    P1: ProjPoint3
    P2: ProjPoint3
    l1: ProjPoint3
    l2: ProjPoint3
    l3: ProjPoint3
    beta: ExtElement
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
        ext=E, P=p, P1=p1, P2=p2, l1=l1, l2=l2, l3=l3, beta=E.gen,
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


def lambda_class_representatives(E: ExtField) -> Iterator[ExtElement]:
    """One lambda per class modulo GF(q)* scalars: highest nonzero
    coordinate scaled to 1; q^2 + q + 1 classes in canonical order."""
    q = E.base.q
    for hi in range(E.degree - 1, -1, -1):
        for k in range(q ** hi):
            coords = [(k // q ** i) % q for i in range(hi)] + [1] + [0] * (E.degree - hi - 1)
            yield tuple(coords)


def build_net(F: Field, ctx: NetContext) -> list[Conic]:
    """All q^2 + q + 1 net members as normalized conic classes.

    Every member must be non-degenerate; exactly one member has zero XY
    and Y^2 coefficients (the shape tangent to the line at infinity at the
    vertical-axis point).
    """
    lams = list(lambda_class_representatives(ctx.ext))
    members = [make_conic(F, conic_from_lambda(ctx, lam)) for lam in lams]
    cols = [np.array(c, dtype=F.np_dtype) for c in zip(*members)]
    degenerate = np.flatnonzero(degeneracy_columns(F, cols) == 0)
    if len(degenerate):
        i = degenerate[0]
        raise AssertionError(f"degenerate net member at lambda={lams[i]}: {members[i].coeffs()}")
    expected = F.q * F.q + F.q + 1
    if len(set(m.coeffs() for m in members)) != expected:
        raise AssertionError("net members are not pairwise distinct")
    special = [m for m in members if m.a12 == 0 and m.a22 == 0]
    if len(special) != 1:
        raise AssertionError(f"expected exactly one axis-tangent member, got {len(special)}")
    return members


def net_basis(F: Field, ctx: NetContext) -> ConicSystem:
    """The conics of 1, beta, beta^2: they span the net over GF(q) since
    lambda -> C_lambda is GF(q)-linear."""
    E = ctx.ext
    b2 = E.mul(ctx.beta, ctx.beta)
    polys = [conic_from_lambda(ctx, lam) for lam in (E.one, ctx.beta, b2)]
    return ConicSystem(field=F, polys=list(polys), names=["C_1", "C_beta", "C_beta2"])


# ----------------------------------------------------------------------
# Code reports
# ----------------------------------------------------------------------

def _report(F: Field, name: str, system: ConicSystem,
            delta: DeltaSet) -> tuple[dict, GeneratorMatrix]:
    """The code's parameters and weight distribution, with its generator
    matrix."""
    t0 = time.perf_counter()
    g = evaluate_system(system, delta)
    dist = weight_distribution_enumerate(g)
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
        "elapsed": round(time.perf_counter() - t0, 6),
    }
    return report, g


def line_code(F: Field, delta: Optional[DeltaSet] = None) -> dict:
    """Evaluation code of the linear system {Y, X, 1}."""
    delta = delta or build_delta(F)
    system = ConicSystem(F, [POLY_Y, POLY_X, POLY_1], names=["Y", "X", "1"])
    report = _report(F, "lines", system, delta)[0]
    q = F.q
    report["expected"] = {
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
    report["matches_expected"] = _matches(report)
    return report


def construction2_code(F: Field, delta: Optional[DeltaSet] = None) -> dict:
    """Evaluation code of the parabola system {X^2, X, Y, 1}."""
    delta = delta or build_delta(F)
    system = ConicSystem(F, [POLY_X2, POLY_X, POLY_Y, POLY_1],
                         names=["X^2", "X", "Y", "1"])
    report = _report(F, "parabolas", system, delta)[0]
    q = F.q
    report["expected"] = {
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
    report["matches_expected"] = _matches(report)
    return report


def full_conic_code(F: Field, delta: Optional[DeltaSet] = None) -> dict:
    """Evaluation code of all six degree-<=2 monomials."""
    delta = delta or build_delta(F)
    system = ConicSystem(F, [POLY_X2, POLY_XY, POLY_Y2, POLY_X, POLY_Y, POLY_1],
                         names=["X^2", "XY", "Y^2", "X", "Y", "1"])
    report = _report(F, "conics", system, delta)[0]
    q = F.q
    report["expected"] = {
        "n": q * (q - 1) // 2,
        "k": 6,
        "d": q * (q - 3) // 2,
    }
    report["matches_expected"] = _matches(report)
    return report


def construction1_code(F: Field, point: Optional[ProjPoint3] = None,
                       seed: int = 0, ext: Optional[ExtField] = None,
                       delta: Optional[DeltaSet] = None) -> dict:
    """Evaluation code of one triangle net, with the distance bound and
    weight-window statements probed and reported rather than assumed."""
    delta = delta or build_delta(F)
    E = ext or ExtField(F, 3)
    p = point if point is not None else find_lambda_point(E, "seeded", seed)
    ctx = make_net_context(E, p)
    system = net_basis(F, ctx)
    report, g = _report(F, "net", system, delta)
    report["point"] = [list(c) for c in ctx.P]
    report["dual_distance"] = dual_distance_upto(g)
    q, n, d = F.q, report["n"], report["d"]
    # claimed bound: 2d >= q^2 - 2q + 1 - 2*sqrt(q), compared exactly
    gap = q * q - 2 * q + 1 - 2 * d
    report["distance_bound_holds"] = gap <= 0 or gap * gap <= 4 * q
    max_count = n - min(w for w, _ in report["weights"] if w > 0)
    report["max_point_count"] = max_count
    # claimed weight window, probed in its literal reading (on w) and in the
    # intersection reading (on n - w); both results are reported
    nonzero_weights = [w for w, _ in report["weights"] if w > 0]
    report["weights_in_window_literal"] = all(
        in_sqrt_window(2 * w, q) for w in nonzero_weights)
    report["weights_in_window_as_counts"] = all(
        in_sqrt_window(2 * (n - w), q) for w in nonzero_weights)
    return report


def _matches(report: dict) -> bool:
    exp = report["expected"]
    ok = report["n"] == exp["n"] and report["k"] == exp["k"] and report["d"] == exp["d"]
    if "weight_set" in exp:
        ok = ok and report["weight_set"] == exp["weight_set"]
    return ok


def construction1_samples(F: Field, samples: int, seed: int = 0) -> list[dict]:
    """Deterministic batch of net codes from distinct sampled base points."""
    E = ExtField(F, 3)
    delta = build_delta(F)
    rng = random.Random(seed)
    seen: set = set()
    out = []
    while len(out) < samples:
        sub_seed = rng.randrange(1 << 30)
        p = find_lambda_point(E, "seeded", sub_seed)
        if p in seen:
            continue
        seen.add(p)
        out.append(construction1_code(F, point=p, ext=E, delta=delta))
    return out
