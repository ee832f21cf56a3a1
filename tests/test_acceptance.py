"""Acceptance criteria, one test per criterion, each printing a single
PASS/FAIL line (run with `pytest -v -rA tests/test_acceptance.py` to see
them all).

Every criterion is implemented exactly as stated and checked against brute
force.  Four of them (03, 06, 09, 10) assert closed forms that the
exhaustive computations refute; README §"What the verification finds"
documents each refutation.  Those tests pin the refutation: the stated
value must hold everywhere except on the documented counterexample set,
that set must be exactly the documented one, and on it the documented true
value must hold.  A new mismatch, a vanished one or a changed true value
each fails the test.
"""

import time
from itertools import product

from deltacodes.field import ExtField, Field
from deltacodes.geometry import (
    Conic,
    all_lines,
    build_delta,
    check_corollary_bounds,
    count_on_delta,
    distinguished_points,
    is_degenerate,
    line_counts,
    line_delta_count_closed_form,
    pi_map,
)
from deltacodes.codes import (
    ConicSystem,
    evaluate_system,
    weight_distribution_classes,
    weight_distribution_enumerate,
    weight_of_polynomial,
)
from deltacodes.curves import (
    Poly2,
    build_family,
    coefficient_triples_ok,
    has_linear_component,
    hasse_window_check,
    reducibility_conditions,
)
from deltacodes.constructions import (
    POLY_1,
    POLY_X,
    POLY_Y,
    construction1_samples,
    construction2_code,
    full_conic_code,
    lambda_orbit_count,
    line_code,
)
from deltacodes.verify import (
    conic_spectrum,
    parabola_spectrum,
    verify_field,
    verify_geometry,
    verify_lemma,
    verify_reducibility,
    verify_relations,
    verify_hasse,
)

FIELDS: dict[int, Field] = {}


def field(q: int) -> Field:
    if q not in FIELDS:
        FIELDS[q] = Field(q.bit_length() - 1)
    return FIELDS[q]


def conic_classes(q: int):
    """Every projective conic class once, as the tuple whose first nonzero
    coefficient is 1 (independent of the vectorized class columns)."""
    for lead in range(6):
        for tail in product(range(q), repeat=5 - lead):
            yield Conic(*((0,) * lead + (1,) + tail))


def criterion(num: int, ok: bool, description: str, detail: str = "") -> None:
    line = f"criterion {num:2d} [{'PASS' if ok else 'FAIL'}] {description}"
    if detail:
        line += f" | {detail}"
    print(line)
    assert ok, line


def test_criterion_01_delta_sizes():
    t0 = time.perf_counter()
    ok = all(len(build_delta(field(q))) == q * (q - 1) // 2 for q in (4, 8, 16, 32, 64))
    criterion(1, ok, "point-set size q(q-1)/2 at q in {4,8,16,32,64}",
              f"{time.perf_counter() - t0:.2f}s")


def test_criterion_02_pi_image():
    t0 = time.perf_counter()
    ok = True
    for q in (4, 8, 16):
        F = field(q)
        image = {pi_map(F, x1, x2) for x1, x2 in distinguished_points(F)}
        ok &= image == set(build_delta(F).points)
    criterion(2, ok, "distinguished points map exactly onto the evaluation set, q in {4,8,16}",
              f"{time.perf_counter() - t0:.2f}s")


def test_criterion_03_line_spectra():
    t0 = time.perf_counter()
    # the two documented families where the stated list is wrong, per q:
    # slanted lines through the origin, whose stated origin-included value
    # (q-2)/2 is the origin-excluded count (the true origin-included count
    # is q/2), and the lines Y = m*X + m^2 (m != 0), images of the
    # coordinate-line pairs {X1 = m} ∪ {X2 = m}, which meet both sets in
    # q-1 points
    through_origin: dict[int, int] = {}
    square_intercept: dict[int, int] = {}
    unexpected = []
    for q in (4, 8, 16, 32):
        F = field(q)
        delta = build_delta(F)
        dbar = build_delta(F, include_origin=True)
        through_origin[q] = square_intercept[q] = 0
        for line in all_lines(F):
            stated = line_delta_count_closed_form(F, line)
            nb = count_on_delta(F, line, dbar)
            if stated == nb:
                continue
            nd = count_on_delta(F, line, delta)
            m = None if line.is_vertical else F.div(line.a, line.b)
            b = None if line.is_vertical else F.div(line.c, line.b)
            slanted = m is not None and m != 0
            if (slanted and b == 0 and stated == nd == (q - 2) // 2 and nb == q // 2
                    and line_counts(F, line) == (nd, nb)):
                through_origin[q] += 1
            elif (slanted and b == F.mul(m, m) and stated == (q - 2) // 2
                    and nd == nb == q - 1 and line_counts(F, line) == (q - 1, q - 1)):
                square_intercept[q] += 1
            else:
                unexpected.append((q, line.coeffs(), stated, nd, nb))
    ok = not unexpected and all(
        through_origin[q] == square_intercept[q] == q - 1 for q in through_origin)
    detail = (f"mismatching lines per q: through the origin {through_origin}, "
              f"Y = m*X + m^2 {square_intercept} (documented: q-1 each)")
    if unexpected:
        detail += (f"; {len(unexpected)} undocumented mismatches, e.g. "
                   f"{unexpected[:3]} as (q, line, stated, |∩Δ|, |∩Δ̄|)")
    criterion(3, ok,
              "stated line case list matches brute force except on the two documented "
              "families (through-origin lines: true |∩Δ̄| = q/2; Y = m*X + m^2: true "
              "|∩Δ| = |∩Δ̄| = q-1), q in {4,8,16,32}",
              detail + f"; {time.perf_counter() - t0:.2f}s")


def test_criterion_04_line_code():
    t0 = time.perf_counter()
    ok = True
    for q in (4, 8, 16, 32):
        rep = line_code(field(q))
        ok &= rep["matches_expected"]
    criterion(4, ok, "line code is [q(q-1)/2, 3, (q-1)(q-2)/2] with the stated weight set",
              f"q in {{4,8,16,32}}, {time.perf_counter() - t0:.2f}s")


def test_criterion_05_parabola_spectrum():
    t0 = time.perf_counter()
    bad = {}
    for q in (4, 8, 16, 32):
        spec = parabola_spectrum(field(q))
        if spec["closed_form_mismatches"]:
            bad[q] = spec["closed_form_mismatches"][:3]
    criterion(5, not bad,
              "parabola-family closed forms match brute force on every class, q in {4,8,16,32}",
              f"{time.perf_counter() - t0:.2f}s" + (f"; mismatches {bad}" if bad else ""))


# README §2: the counts of non-degenerate classes outside the enumerated
# families that escape the stated window, and their class totals where
# documented.  Why these classes escape is not documented; only the set is
# pinned.
WINDOW_ESCAPE_COUNTS = {4: {4}, 8: {0, 7}, 16: {0, 2, 12, 13, 15}}
WINDOW_ESCAPE_TOTALS = {4: 6, 8: 784}


def scalar_window_escapes(F: Field, delta) -> dict[int, int]:
    """Histogram of the out-of-window counts over every non-degenerate
    class, through the per-conic corollary check."""
    hist: dict[int, int] = {}
    for conic in conic_classes(F.q):
        if is_degenerate(F, conic):
            continue
        kind, _, count = check_corollary_bounds(F, conic, delta)
        if kind == "out-of-window":
            hist[count] = hist.get(count, 0) + 1
    return hist


def test_criterion_06_corollary_window():
    t0 = time.perf_counter()
    problems = {}
    found = {}
    for q in (4, 8, 16):
        F = field(q)
        delta = build_delta(F)
        spec = conic_spectrum(F, delta)
        hist = spec["violation_counts"]
        found[q] = hist
        if set(hist) != WINDOW_ESCAPE_COUNTS[q]:
            problems[q] = f"violating counts {sorted(hist)}"
        elif q in WINDOW_ESCAPE_TOTALS and spec["window_violations"] != WINDOW_ESCAPE_TOTALS[q]:
            problems[q] = f"{spec['window_violations']} violating classes"
        elif q <= 8 and (scalar := scalar_window_escapes(F, delta)) != hist:
            problems[q] = f"scalar recount {scalar}"
        else:
            for coeffs, count in spec["violation_examples"]:
                if check_corollary_bounds(F, Conic(*coeffs), delta) != (
                        "out-of-window", None, count):
                    problems[q] = f"example {coeffs} does not recount as {count}"
    criterion(
        6, not problems,
        "every non-degenerate class is in the stated window or an enumerated family, "
        "except the documented escapes: counts {4} on 6 classes at q=4, {0, 7} on "
        "784 classes at q=8, {0, 2, 12, 13, 15} at q=16",
        f"escape histograms {found}; {time.perf_counter() - t0:.2f}s"
        + (f"; undocumented {problems}" if problems else ""),
    )


def test_criterion_07_lemma_and_relations():
    t0 = time.perf_counter()
    ok = True
    detail = []
    for q in (4, 8):
        lem = verify_lemma(field(q))
        rel = verify_relations(field(q))
        ok &= lem.passed and rel.passed
        detail += [f"q={q}: lemma {'ok' if lem.passed else 'FAIL'}, "
                   f"relations {'ok' if rel.passed else 'FAIL'}"]
    criterion(7, ok, "intersection lemma and the three count-relation tables, "
                     "all classes at q in {4,8}",
              "; ".join(detail) + f"; {time.perf_counter() - t0:.2f}s")


def test_criterion_08_reducibility():
    t0 = time.perf_counter()
    ok = True
    for q in (4, 8, 16):
        rep = verify_reducibility(field(q))
        check = next(c for c in rep.checks
                     if c.name == "stated component criteria hold iff the conic is degenerate")
        ok &= check.ok
    criterion(8, ok, "degeneracy test equals the component criteria on every applicable "
                     "class, q in {4,8,16}", f"{time.perf_counter() - t0:.2f}s")


STATED_TRANSFER = "stated transfer N(G) = N(H) holds on every applicable class"
STATED_WINDOW = "N(H) lies in the union of the affine windows on every applicable class"
CORRECTED_TRANSFER = "corrected transfer (axis-point bookkeeping) holds for rational vbar"
RATIONAL_WINDOW = "N(H) lies in the union window on every rational-vbar class"
LINE_CAUSE = "every rational-vbar window violation comes from a reducible cubic"
QUADRATIC_WINDOW = "window status on quadratic-vbar classes (informational)"
# README §3: rational-vbar classes (all obey the corrected transfer) and the
# rational-vbar window violators (all carry a line in H), per q
RATIONAL_VBAR_CLASSES = {4: 660, 8: 19656, 16: 583440}
RATIONAL_WINDOW_VIOLATORS = {4: 0, 8: 196, 16: 1800}


def scalar_applicable_classes(F: Field) -> int:
    """Non-degenerate classes under the running hypothesis that have an H."""
    return sum(1 for c in conic_classes(F.q)
               if (c.a12 or c.a22) and coefficient_triples_ok(c) and not is_degenerate(F, c))


def test_criterion_09_hasse_window():
    t0 = time.perf_counter()
    problems = {}
    for q in (4, 8, 16):
        F = field(q)
        checks = {c.name: c for c in verify_hasse(F).checks}
        applicable = checks[CORRECTED_TRANSFER].expected + checks[QUADRATIC_WINDOW].expected
        bad = []
        # both stated claims are still evaluated on every applicable class
        if not (checks[STATED_TRANSFER].expected == checks[STATED_WINDOW].expected
                == applicable):
            bad.append(f"stated checks cover {checks[STATED_TRANSFER].expected} and "
                       f"{checks[STATED_WINDOW].expected} of {applicable} classes")
        if q <= 8 and (scalar := scalar_applicable_classes(F)) != applicable:
            bad.append(f"scalar pass finds {scalar} applicable classes")
        if checks[STATED_TRANSFER].ok:
            bad.append("the stated transfer no longer fails")
        # the corrected statements hold, on the documented number of classes
        corrected, cause = checks[CORRECTED_TRANSFER], checks[LINE_CAUSE]
        if not (corrected.actual == corrected.expected == RATIONAL_VBAR_CLASSES[q]):
            bad.append(f"corrected transfer {corrected.actual}/{corrected.expected}")
        if not (cause.actual == cause.expected == RATIONAL_WINDOW_VIOLATORS[q]):
            bad.append(f"line cause {cause.actual}/{cause.expected}")
        rational = checks[RATIONAL_WINDOW]
        if rational.expected - rational.actual != RATIONAL_WINDOW_VIOLATORS[q]:
            bad.append(f"rational-vbar window {rational.actual}/{rational.expected}")
        # quadratic-vbar classes: H is not a curve over GF(q) and nothing
        # documents how N(G) relates to N(H) there, so nothing more is asserted
        if bad:
            problems[q] = bad
    # README's example, through the per-conic path: a non-degenerate conic the
    # stated criteria call irreducible, whose H contains a line of the pencil
    # through (a22 : a12 : 0) and has 29 affine points, outside the window
    F = field(16)
    example = Conic(1, 1, 1, 0, 1, 0)
    fam = build_family(F, example)
    res = hasse_window_check(F, example, fam)
    found, lines = has_linear_component(F, example, fam)
    if not (coefficient_triples_ok(example) and not is_degenerate(F, example)
            and fam.vbar_rational and not reducibility_conditions(F, example, fam)
            and found and any(kind == "w" for kind, _ in lines)
            and res["n_h"] == 29 and not res["in_window"]):
        problems["example"] = (res, lines)
    criterion(9, not problems,
              "stated N(G) = N(H) stays refuted and its corrected transfer holds on "
              "every rational-vbar class; N(H) leaves the affine windows on 0, 196 "
              "and 1800 rational-vbar classes, each with a line in H, q in {4,8,16}",
              f"{time.perf_counter() - t0:.2f}s" + (f"; {problems}" if problems else ""))


def two_line_conic(F: Field, m1: int, m2: int) -> tuple[int, ...]:
    """(Y + m1*X + m1^2)(Y + m2*X + m2^2) as (a11, a12, a22, a13, a23, a33)."""
    def line(m):
        return Poly2(F, {(0, 1): 1, (1, 0): m, (0, 0): F.mul(m, m)})
    coeffs = line(m1).mul(line(m2)).coeffs
    return tuple(coeffs.get(e, 0) for e in ((2, 0), (1, 1), (0, 2), (1, 0), (0, 1), (0, 0)))


def test_criterion_10_full_conic_code():
    t0 = time.perf_counter()
    reports = {q: full_conic_code(field(q)) for q in (8, 16)}
    # the two weight-distribution routes must agree regardless: the report's
    # weights come from full message enumeration
    F = field(16)
    monomials = [(1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0), (0, 0, 1, 0, 0, 0),
                 (0, 0, 0, 1, 0, 0), (0, 0, 0, 0, 1, 0), (0, 0, 0, 0, 0, 1)]
    g = evaluate_system(ConicSystem(F, monomials), build_delta(F))
    assert dict(reports[16]["weights"]) == weight_distribution_classes(g)
    # the stated d = q(q-3)/2 stays on record but cannot hold: two crossing
    # lines of the family Y = m*X + m^2 meet at one point of Delta, so their
    # product vanishes on 2q-3 points and d = (q-2)(q-3)/2
    ok = True
    witness_weights = {}
    for q, rep in reports.items():
        F = field(q)
        true_d = (q - 2) * (q - 3) // 2
        witness_weights[q] = weight_of_polynomial(F, two_line_conic(F, 1, 2), build_delta(F))
        ok &= rep["n"] == q * (q - 1) // 2 and rep["k"] == 6
        ok &= rep["expected"]["d"] == q * (q - 3) // 2 and not rep["matches_expected"]
        ok &= rep["d"] == true_d == witness_weights[q]
    achieved = {q: (reports[q]["n"], reports[q]["k"], reports[q]["d"]) for q in (8, 16)}
    criterion(10, ok, "full conic code: stated [n, 6, q(q-3)/2] refuted; true "
                      "[28,6,15] at q=8 and [120,6,91] at q=16, d = (q-2)(q-3)/2 "
                      "attained by two crossing lines Y = m*X + m^2",
              f"achieved {achieved}; two-line witness weights {witness_weights}; "
              f"enumeration of 16^6 words done in {time.perf_counter() - t0:.2f}s; "
              f"both counting methods agree")


def test_criterion_11_construction2():
    t0 = time.perf_counter()
    ok = True
    for q in (8, 16, 32):
        rep = construction2_code(field(q))
        ok &= rep["matches_expected"]
    criterion(11, ok, "parabola-system code parameters and five-value weight set, "
                      "q in {8,16,32}", f"{time.perf_counter() - t0:.2f}s")


def test_criterion_12_construction1_q8():
    t0 = time.perf_counter()
    samples = construction1_samples(field(8), 100, seed=0)
    ok = all(rep["n"] == 28 and rep["k"] == 3 and rep["d"] in (21, 22) for rep in samples)
    ok &= any(rep["dual_distance"] == 3 for rep in samples)
    d_hist = {}
    for rep in samples:
        d_hist[rep["d"]] = d_hist.get(rep["d"], 0) + 1
    bound_holds = sum(rep["distance_bound_holds"] for rep in samples)
    lit = sum(rep["weights_in_window_literal"] for rep in samples)
    as_counts = sum(rep["weights_in_window_as_counts"] for rep in samples)
    criterion(
        12, ok,
        "100 sampled nets at q=8: all [28, 3, d] with d in {21, 22}, some dual distance 3",
        f"d histogram {d_hist}; stated distance bound (d >= 21.67) holds for "
        f"{bound_holds}/100 (d=21 contradicts it, as reported); stated weight window "
        f"holds literally for {lit}/100 and in the intersection-count reading for "
        f"{as_counts}/100; {time.perf_counter() - t0:.2f}s",
    )


def test_criterion_13_lambda_orbit():
    t0 = time.perf_counter()
    count = lambda_orbit_count(ExtField(field(4), 3))
    criterion(13, count == 2880, "orbit scan over PG(2, GF(64)) accepts exactly 2880 points",
              f"got {count}; {time.perf_counter() - t0:.2f}s")


def test_criterion_14_net_structure():
    from deltacodes.constructions import build_net, find_lambda_point, make_net_context
    t0 = time.perf_counter()
    ok = True
    for q in (4, 8, 16):
        F = field(q)
        E = ExtField(F, 3)
        ctx = make_net_context(E, find_lambda_point(E, "seeded", 1))
        members = build_net(F, ctx)  # aborts on any degenerate or non-rational member
        ok &= len(members) == q * q + q + 1
        ok &= sum(1 for m in members if m.a12 == 0 and m.a22 == 0) == 1
    criterion(14, ok, "net has q^2+q+1 rational non-degenerate members, exactly one "
                      "axis-tangent, q in {4,8,16}", f"{time.perf_counter() - t0:.2f}s")


def test_criterion_15_property_suites():
    t0 = time.perf_counter()
    ok = True
    for q in (4, 8, 16):
        ok &= verify_field(field(q)).passed
        geo = verify_geometry(field(q))
        wanted = (
            "conic normalization is idempotent and scale-invariant",
            "verified line closed form matches brute force on every line",
        )
        ok &= all(c.ok for c in geo.checks if c.name in wanted)
    # weight-distribution invariances: scaling a basis polynomial and
    # permuting the evaluation points leave the distribution unchanged
    import random
    from deltacodes.geometry import DeltaSet
    for q in (4, 8, 16):
        F = field(q)
        delta = build_delta(F)
        base = weight_distribution_enumerate(
            evaluate_system(ConicSystem(F, [POLY_Y, POLY_X, POLY_1]), delta))
        for s in F.nonzero_elements():
            scaled = [tuple(F.mul(s, c) for c in POLY_Y), POLY_X, POLY_1]
            ok &= weight_distribution_enumerate(
                evaluate_system(ConicSystem(F, scaled), delta)) == base
        pts = list(delta.points)
        random.Random(q).shuffle(pts)
        shuffled = DeltaSet(field=F, include_origin=False, points=pts)
        ok &= weight_distribution_enumerate(
            evaluate_system(ConicSystem(F, [POLY_Y, POLY_X, POLY_1]), shuffled)) == base
    criterion(15, ok, "field axioms, trace, solvability dichotomy, normalization, and "
                      "weight-distribution invariances, exhaustive at q <= 16",
              f"{time.perf_counter() - t0:.2f}s")
