"""End-to-end acceptance battery.

Eleven checks, one test each, in a fixed order.  Every test prints a single
summary line (shown by pytest on failure, or with -rA / -s) and pins its own
sample sizes, seeds, and tolerances; none of these may be weakened without a
matching note in the project ledger.  Check 09 compares two routes to "the
projection center lies in the span of W" over scheme degrees 1..n+2 and
asserts, per degree band, what is proved about them: they agree for
deg W <= n, part only on the measure-zero set where the product form loses
its u^n t term at deg W = n+1, and part exactly when the cusp multiplicity
is at most 1 at deg W = n+2.  It reports the agreement rate per band.
"""

import pathlib
import random
import time
from fractions import Fraction

import mpmath
import pytest

from cuspidal.apolarity import decompose, rank, residual_string, verify_decomposition
from cuspidal.binform import (
    POINT_A,
    BinaryForm,
    P1Point,
    ZeroScheme,
    random_form,
)
from cuspidal.classifier import (
    InstanceSpec,
    SpanCriterionDisagreement,
    crosscheck,
    classify,
    generate_instance,
    o_in_span,
    span_center_routes,
)
from cuspidal.oracle import SearchConfig, xrank_upper_search
from cuspidal.projection import ProjectionFrame, project, x_rank
from oracles import dichotomy_fuzz, multiplicity_at, reparametrized, secant_dimension_probe

MATCH_RADIUS = 1e-8
RESIDUAL_BOUND = mpmath.mpf(2) ** -96

# rank-regime grids: every admissible (n, cardinality) cell in 5 <= n <= 10
EXACT_CELLS = [
    (n, k) for n in range(5, 11) for k in range(2, n // 2 + 1)
]  # 2k <= n
BOUNDARY_CELLS = [(5, 3), (6, 4), (7, 4), (8, 5), (9, 5), (10, 6)]  # n+1 <= 2k <= n+2
GENERIC_NS = (5, 7, 9)  # odd n, cardinality (n+3)/2

GAP_CELLS = [
    ("e3_2", 7, 3),
    ("e3_2", 8, 4),
    ("e3_2", 10, 6),
    ("e3_3_wminus1", 7, 4),
    ("e3_3_wminus1", 9, 5),
    ("e3_3_wminus2", 7, 4),
    ("e3_3_wminus2", 9, 5),
    ("e3_3_cusp", 6, 2),
    ("e3_5", 8, 4),
    ("e3_5", 10, 5),
    ("e3_4_exact", 9, 4),
    ("e3_4_exact", 10, 4),
]
GAP_SEEDS = 30


SUMMARY_PATH = pathlib.Path(__file__).resolve().parent.parent / "acceptance_summary.txt"


def _rewrite_summary(idx: int, line: str | None) -> None:
    """Put line in place of check idx's summary line (drop it for None),
    keeping the lines of the other checks in check order."""
    tag = f"[acceptance {idx:02d}]"
    kept = []
    if SUMMARY_PATH.exists():
        kept = [
            ln for ln in SUMMARY_PATH.read_text().splitlines()
            if ln and not ln.startswith(tag)
        ]
    if line is not None:
        kept.append(line)
    SUMMARY_PATH.write_text("".join(ln + "\n" for ln in sorted(kept)))


_started_at = [0.0]  # when the running check's setup began


@pytest.fixture(autouse=True)
def _summary_slot(request):
    """A check that runs replaces its own summary line and no other, and
    its wall time counts from the start of its setup, so a check that
    builds a shared pool pays for it."""
    _started_at[0] = request.node.started_at
    _rewrite_summary(int(request.node.name[len("test_c"):][:2]), None)


def _verdict(idx: int, ok: bool, detail: str) -> None:
    wall = time.perf_counter() - _started_at[0]
    line = f"[acceptance {idx:02d}] {'PASS' if ok else 'FAIL'} | {detail} | wall {wall:.1f} s"
    print(line, flush=True)
    _rewrite_summary(idx, line)
    assert ok, f"acceptance {idx:02d}: {detail}"


@pytest.fixture(scope="module")
def fuzz_reports():
    t0 = time.time()
    reports = {d: dichotomy_fuzz(d, 1000, seed=d) for d in range(2, 12)}
    return reports, time.time() - t0


@pytest.fixture(scope="module")
def exact_pool():
    pool = []
    for n, k in EXACT_CELLS:
        for seed in range(50):
            pool.append(generate_instance(InstanceSpec("e4_i", n, k, seed=seed)))
    return pool


@pytest.fixture(scope="module")
def boundary_pool():
    pool = []
    for n, k in BOUNDARY_CELLS:
        for seed in range(30):
            pool.append(generate_instance(InstanceSpec("e4_ii", n, k, seed=seed)))
    return pool


@pytest.fixture(scope="module")
def generic_pool():
    pool = []
    for n in GENERIC_NS:
        k = (n + 3) // 2
        for seed in range(40):
            pool.append(generate_instance(InstanceSpec("e4_iii", n, k, seed=seed)))
    return pool


def test_c01_dichotomy_bulk(fuzz_reports):
    reports, elapsed = fuzz_reports
    total = sum(rep["samples"] for rep in reports.values())
    bad = sum(rep["violations"] for rep in reports.values())
    ok = total >= 10_000 and bad == 0 and elapsed < 300.0
    _verdict(
        1, ok, f"{total} forms over degrees 2..11, {bad} violations, {elapsed:.1f}s"
    )


def test_c02_monomial_rank_law():
    checked = 0
    for a in range(1, 11):
        for b in range(1, a + 1):
            d = a + b
            if d > 11:
                continue
            coeffs = [Fraction(0)] * (d + 1)
            coeffs[b] = Fraction(1)
            cert = rank(BinaryForm(d, tuple(coeffs)))
            assert cert.rank == max(a, b) + 1, (a, b, cert.rank)
            checked += 1
    _verdict(2, True, f"rank(u^a t^b) = max(a,b)+1 on all {checked} monomials")


def test_c03_generic_rank_fraction(fuzz_reports):
    reports, _ = fuzz_reports
    worst = 1.0
    for d, rep in reports.items():
        counts = rep["rank_counts"]
        total = sum(counts.values())
        generic = counts.get(str((d + 2) // 2), 0)
        worst = min(worst, generic / total)
    ok = worst >= 0.99
    _verdict(3, ok, f"generic-rank fraction >= {worst:.3f} on every degree 2..11")


def test_c04_secant_dimension_grid():
    checked = 0
    for n in range(3, 11):
        for s in range(1, (n + 2) // 2 + 1):
            want = min(n, 2 * s - 1)
            for seed in range(5):
                got = secant_dimension_probe(s, n, seed=seed)
                assert got == want, (n, s, seed, got, want)
                checked += 1
    _verdict(4, True, f"secant dimension = min(n, 2s-1) on all {checked} probes")


def test_c05_exact_cells_and_search(exact_pool):
    fiber_ok = 0
    recovered = 0
    for inst in exact_pool:
        k = inst.spec.level
        v = classify(inst.form)
        assert v.case_tag == "e4_i" and v.exact and v.lo == k, inst.spec
        P = project(inst.form)
        res = x_rank(P)
        assert res.value == k, (inst.spec, res.value)
        fiber_ok += 1
        true = sorted(float(p.tau) for p, _ in inst.scheme.rational_points())
        w = xrank_upper_search(P, SearchConfig(r=k, starts=24))
        if w is not None and all(
            abs(a - b) <= MATCH_RADIUS for a, b in zip(sorted(w.parameters), true)
        ):
            recovered += 1
    total = len(exact_pool)
    rate = recovered / total
    ok = fiber_ok == total and rate >= 0.90
    _verdict(
        5,
        ok,
        f"classifier+fiber exact on {fiber_ok}/{total}, "
        f"numeric recovery {recovered}/{total} ({rate:.1%}) at 192 bits",
    )


def test_c06_boundary_cells_interval(boundary_pool):
    freq = {"low": 0, "high": 0}
    for inst in boundary_pool:
        k = inst.spec.level
        v = classify(inst.form)
        assert v.case_tag == "e4_ii" and (v.lo, v.hi) == (k - 1, k), inst.spec
        value = x_rank(project(inst.form)).value
        assert value in (k - 1, k), (inst.spec, value)
        freq["low" if value == k - 1 else "high"] += 1
    total = len(boundary_pool)
    _verdict(
        6,
        True,
        f"fiber value inside the declared pair on {total}/{total}; "
        f"endpoint frequencies low={freq['low']} high={freq['high']}",
    )


def test_c07_generic_endpoint(generic_pool):
    per_n = {}
    for inst in generic_pool:
        n = inst.spec.n
        value = x_rank(project(inst.form)).value
        hit = value == (n + 1) // 2
        a, b = per_n.get(n, (0, 0))
        per_n[n] = (a + hit, b + 1)
    ok = all(hits / total >= 0.95 for hits, total in per_n.values())
    detail = ", ".join(
        f"n={n}: {hits}/{total}" for n, (hits, total) in sorted(per_n.items())
    )
    _verdict(7, ok, f"generic endpoint rate >= 95% per n ({detail})")


def test_c08_gap_cells_fiber_match():
    seen_split = set()
    count = 0
    for tag, n, w in GAP_CELLS:
        for seed in range(GAP_SEEDS):
            inst = generate_instance(InstanceSpec(tag, n, w, seed=seed))
            rep = crosscheck(inst.form)
            assert rep["case"] == tag, (tag, n, w, seed, rep["case"])
            assert rep["match"] is True, (tag, n, w, seed, rep)
            assert rep["o_span"]["agree"] is True, (tag, n, w, seed)
            if tag == "e3_3_cusp":
                assert rep["fiber_value"] == 1, (seed, rep["fiber_value"])
            if tag.startswith("e3_3_wminus"):
                seen_split.add(w - rep["fiber_value"])
            count += 1
    ok = seen_split == {1, 2}
    _verdict(
        8,
        ok,
        f"fiber matched the declaration on {count} gap instances over "
        f"{len(GAP_CELLS)} cells; split-case offsets seen: {sorted(seen_split)}",
    )


def _random_scheme(rng: random.Random, deg: int) -> ZeroScheme:
    factors = []
    remaining = deg
    used = set()
    if rng.random() < 0.35:
        m = rng.randint(1, min(3, remaining))
        factors.append((POINT_A.linear_form(), m))
        remaining -= m
    while remaining:
        if remaining >= 2 and rng.random() < 0.08:
            b = rng.randint(-2, 2)
            c = rng.randint(1, 6)
            if b * b < 4 * c:
                q = BinaryForm(2, (Fraction(1), Fraction(b), Fraction(c)))
                factors.append((q, 1))
                remaining -= 2
                continue
        t = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9))
        if t in used:
            continue
        used.add(t)
        m = min(remaining, rng.choice((1, 1, 1, 1, 2, 2, 3)))
        factors.append((P1Point(Fraction(1), t).linear_form(), m))
        remaining -= m
    return ZeroScheme(tuple(factors))


def _c09_band_holds(
    key: str, W: ZeroScheme, by_span: bool, by_mult: bool, frame: ProjectionFrame
) -> bool:
    """Whether the two center routes on W satisfy the statement for its band."""
    if key == "inside":
        return by_span == by_mult
    m = multiplicity_at(W, POINT_A)
    if key == "full":
        return by_span and (by_span == by_mult) == (m >= 2)
    # deg W = n+1: <W> is the hyperplane cut out by the product form, so it
    # contains the center iff the u^n t coefficient of that form vanishes
    if by_span != (W.product_form().coeffs[1] == 0):
        return False
    if by_span == by_mult:
        return True
    # a disagreement must be O in <W> with m = 0, which o_in_span refuses
    if by_mult or m != 0:
        return False
    try:
        o_in_span(W, frame)
    except SpanCriterionDisagreement:
        return True
    return False


def test_c09_center_span_vs_multiplicity():
    """Span membership of the center vs multiplicity at the cusp preimage.

    With d = n+1, A = (1:0) and m the multiplicity of W at A, the routes
    are O in <W> by linear algebra and m >= 2.  Asserted per band:

    * deg W <= n: the routes agree on every scheme (W + 2A has degree at
      most n+2, hence is independent, and <W> meets T_A C in <W cap 2A>).
    * deg W = n+1: m >= 2 implies O in <W>; O in <W> exactly when the
      u^n t coefficient of W.product_form() vanishes; every disagreement
      has m = 0 and makes o_in_span raise SpanCriterionDisagreement.
    * deg W = n+2: <W> is the whole space, so O in <W> always and the
      routes agree iff m >= 2.

    Both upper bands must also show at least one disagreement, so the check
    keeps exhibiting where the criterion stops being a theorem.  The summary
    line reports the agreement rate per band.
    """
    band = {"inside": [0, 0], "edge": [0, 0], "full": [0, 0]}
    broken = {"inside": 0, "edge": 0, "full": 0}
    for n in range(3, 11):
        frame = ProjectionFrame(n)
        for deg in range(1, n + 3):
            rng = random.Random(f"accept:c09:{n}:{deg}")
            key = "inside" if deg <= n else ("edge" if deg == n + 1 else "full")
            for _ in range(1000):
                W = _random_scheme(rng, deg)
                by_span, by_mult = span_center_routes(W, frame)
                band[key][0] += by_span == by_mult
                band[key][1] += 1
                broken[key] += not _c09_band_holds(key, W, by_span, by_mult, frame)
    rates = {k: hits / total for k, (hits, total) in band.items()}
    parted = all(band[k][0] < band[k][1] for k in ("edge", "full"))
    ok = parted and not any(broken.values())
    detail = (
        "route agreement: "
        f"deg<=n {rates['inside']:.2%} ({band['inside'][1]}), "
        f"deg=n+1 {rates['edge']:.2%} ({band['edge'][1]}), "
        f"deg=n+2 {rates['full']:.2%} ({band['full'][1]})"
    )
    if any(broken.values()):
        detail += f"; band statement violated on {broken}"
    if not parted:
        detail += "; an upper band showed no disagreement"
    _verdict(9, ok, detail)


def test_c10_decomposition_residuals(exact_pool, boundary_pool, generic_pool):
    forms = [inst.form for inst in exact_pool + boundary_pool + generic_pool]
    for d in range(2, 12):
        rng = random.Random(f"accept:c10:{d}")
        picked = 0
        while picked < 10:
            f = random_form(d, rng)
            if f.is_zero() or rank(f).witness_kind != "squarefree":
                continue
            forms.append(f)
            picked += 1
    worst = mpmath.mpf(0)
    for f in forms:
        resid = verify_decomposition(f, decompose(f, precision_bits=192))
        worst = max(worst, resid)
        assert resid < RESIDUAL_BOUND, (f.degree, float(resid))
    _verdict(
        10,
        True,
        f"{len(forms)} reduced-witness decompositions verified, "
        f"worst exact residual at most {residual_string(worst, 3)} < 2^-96 at 192 bits",
    )


def test_c11_reparametrization_invariance():
    cells = [
        ("e4_i", 6, 2),
        ("e4_i", 8, 3),
        ("e4_ii", 7, 4),
        ("e3_2", 7, 3),
        ("e3_5", 8, 4),
        ("e3_4_exact", 9, 4),
    ]
    points = []
    for tag, n, k in cells:
        for seed in range(10):
            inst = generate_instance(InstanceSpec(tag, n, k, seed=seed))
            points.append(project(inst.form))
    for d in (6, 7, 8, 9):
        rng = random.Random(f"accept:c11:{d}")
        for _ in range(10):
            points.append(project(random_form(d, rng)))
    assert len(points) == 100
    rng = random.Random("accept:c11:scales")
    checked = 0
    for P in points:
        base = x_rank(P).value
        for _ in range(10):
            s = Fraction(
                rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 4)
            )
            assert x_rank(reparametrized(P, s)).value == base, (P, s)
            checked += 1
    _verdict(
        11, True, f"fiber value invariant under {checked} parameter rescalings"
    )
