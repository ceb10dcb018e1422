"""The four workloads: inputs made from the seed, one record per call into
the program's public entry points with their default knobs, and the check
each record's output must pass.

Every workload is a list of rounds with the same make-up: a round holds one
record of each input cell, in a fixed order, and only the random draws
inside a cell depend on the seed.  Records are distinct within a run, so no
cache in the program serves a repeated record.  The program is reached
through module attributes (``apolarity.rank``, not a bound name) so that
the traced run's wrappers see every call.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from pathlib import Path
from typing import Callable

from cuspidal import apolarity, classifier, oracle, projection
from cuspidal.binform import BinaryForm, ZeroScheme

import checks

CORPUS = Path(__file__).resolve().parent / "fiber_corpus.json"


@dataclass(frozen=True)
class Workload:
    make: Callable[[random.Random, int], list[list[dict]]]
    run: Callable[[dict], object]
    check: Callable[[dict, object], list[str]]
    round_seconds: float  # nominal cost of one round on the reference machine


def _nonzero(rng: random.Random, bound: int = 9) -> int:
    return rng.choice((-1, 1)) * rng.randint(1, bound)


def _random_coeffs(rng: random.Random, d: int, bound: int = 100) -> list[Fraction]:
    while True:
        cs = [Fraction(rng.randint(-bound, bound), rng.randint(1, bound)) for _ in range(d + 1)]
        if any(cs):
            return cs


def _power_sum(d: int, taus, scalars) -> list[Fraction]:
    """Coefficients of sum s * (u + tau*t)^d."""
    out = [Fraction(0)] * (d + 1)
    for tau, s in zip(taus, scalars):
        for i in range(d + 1):
            out[i] += s * comb(d, i) * Fraction(tau) ** i
    return out


def _distinct_taus(rng: random.Random, k: int, draw) -> list:
    taus: set = set()
    while len(taus) < k:
        taus.add(draw())
    return sorted(taus)


# -- waring: rank, border rank, decomposition ---------------------------------

RANDOM_DEGREES = tuple(range(4, 15))
POWER_CELLS = tuple((d, k) for d in (8, 12, 16, 20, 24) for k in (2, d // 2))
MONOMIAL_BANDS = ((4, 11), (12, 15), (16, 19), (20, 24))
GL2_DEGREES = (7, 11, 15, 19, 23)


def make_waring(rng: random.Random, rounds: int) -> list[list[dict]]:
    # plain monomials are few per degree, so each band is drawn without
    # replacement across rounds
    pools = []
    for lo, hi in MONOMIAL_BANDS:
        pool = [(a, d - a) for d in range(lo, hi + 1) for a in range(1, d)]
        rng.shuffle(pool)
        if len(pool) < rounds:
            raise ValueError(f"{rounds} rounds exceed the {len(pool)} monomials of degree {lo}..{hi}")
        pools.append(pool)
    out = []
    for i in range(rounds):
        rnd = []
        for d in RANDOM_DEGREES:
            rnd.append({"kind": "random", "coeffs": _random_coeffs(rng, d), "expect": {}})
        for d, k in POWER_CELLS:
            taus = _distinct_taus(rng, k, lambda: Fraction(rng.randint(-20, 20), rng.randint(1, 5)))
            coeffs = _power_sum(d, taus, [_nonzero(rng) for _ in taus])
            rnd.append({"kind": "power_sum", "coeffs": coeffs, "expect": {"r": k, "w": k}})
        for pool in pools:
            a, b = pool[i]
            coeffs = [Fraction(0)] * (a + b + 1)
            coeffs[b] = Fraction(1)
            expect = {"r": max(a, b) + 1, "w": min(a, b) + 1}
            rnd.append({"kind": "monomial", "coeffs": coeffs, "expect": expect})
        for d in GL2_DEGREES:
            # (p u + q t)^a (r u + s t)^b with ps - qr != 0 and a > b >= 1:
            # a non-reduced witness, ranks as for u^a t^b
            b = rng.randint(1, (d - 1) // 2)
            a = d - b
            while True:
                p, q, r, s = (rng.randint(-4, 4) for _ in range(4))
                if p * s - q * r:
                    break
            coeffs = checks.product_coeffs([((p, q), a), ((r, s), b)])
            expect = {"r": a + 1, "w": b + 1}
            rnd.append({"kind": "gl2_monomial", "coeffs": coeffs, "expect": expect})
        for rec in rnd:
            rec["form"] = BinaryForm(len(rec["coeffs"]) - 1, tuple(rec["coeffs"]))
        out.append(rnd)
    return out


def run_waring(rec: dict):
    f = rec["form"]
    cert = apolarity.rank(f)
    w = apolarity.border_rank(f)
    dec = None
    if cert.witness_kind == "squarefree":
        dec = apolarity.decompose(f)
        apolarity.verify_decomposition(f, dec)
    return cert, w, dec


def check_waring(rec: dict, out) -> list[str]:
    cert, w, dec = out
    d = len(rec["coeffs"]) - 1
    problems = checks.rank_problems(d, w, cert.rank, rec["expect"])
    if cert.border_rank != w:
        problems.append(f"certificate border rank {cert.border_rank}, border_rank {w}")
    if dec is not None:
        problems += checks.decomposition_problems(rec["coeffs"], dec.terms, cert.rank)
    return problems


# -- fiber: classifier against the exact fiber scan ---------------------------

FIBER_RANDOM_DEGREES = tuple(range(7, 13))


def make_fiber(rng: random.Random, rounds: int) -> list[list[dict]]:
    with CORPUS.open(encoding="utf-8") as fh:
        corpus = json.load(fh)
    picks = []
    for cell in corpus["cells"]:
        if len(cell["instances"]) < rounds:
            raise ValueError(f"{rounds} rounds exceed the pinned instances of {cell['case']}")
        picks.append(rng.sample(cell["instances"], rounds))
    out = []
    for i in range(rounds):
        rnd = []
        for cell, chosen in zip(corpus["cells"], picks):
            tag = cell["case"]
            built = {"e4_i": cell["level"], "e3_3_cusp": 1}.get(tag)
            coeffs = [Fraction(c) for c in chosen[i]["coeffs"]]
            rnd.append({"tag": tag, "built": built, "coeffs": coeffs})
        for d in FIBER_RANDOM_DEGREES:
            # a random form has rank = border rank = ceil((d+1)/2), which puts
            # it in e4_ii for odd d and in the generic-only e4_iii for even d
            tag = "e4_ii" if d % 2 else "e4_iii"
            rnd.append({"tag": tag, "built": None, "coeffs": _random_coeffs(rng, d)})
        for rec in rnd:
            rec["form"] = BinaryForm(len(rec["coeffs"]) - 1, tuple(rec["coeffs"]))
        out.append(rnd)
    return out


def run_fiber(rec: dict):
    return classifier.crosscheck(rec["form"])


def check_fiber(rec: dict, report) -> list[str]:
    return checks.fiber_problems(report, rec["tag"], rec["built"])


# -- span: the two routes to "the center lies in the span of W" --------------

SPAN_CELLS = tuple((n, deg) for n in range(3, 11) for deg in range(1, n + 3))
T_FORM = (Fraction(0), Fraction(1))  # t, vanishing at A = (1:0)


def _random_scheme(rng: random.Random, deg: int):
    """Factors (coefficients, multiplicity) of a degree-deg scheme, and its
    multiplicity at A: A with probability 0.35, irreducible quadratics now
    and then, the rest distinct rational points (1:tau), tau != 0."""
    factors = []
    mult_a = 0
    remaining = deg
    if rng.random() < 0.35:
        mult_a = rng.randint(1, min(3, remaining))
        factors.append((T_FORM, mult_a))
        remaining -= mult_a
    used: set = set()
    while remaining:
        if remaining >= 2 and rng.random() < 0.08:
            b, c = rng.randint(-2, 2), rng.randint(1, 6)
            if b * b < 4 * c:
                factors.append(((Fraction(1), Fraction(b), Fraction(c)), 1))
                remaining -= 2
                continue
        tau = Fraction(_nonzero(rng, 30), rng.randint(1, 6))
        if tau in used:
            continue
        used.add(tau)
        m = min(remaining, rng.choice((1, 1, 1, 1, 2, 2, 3)))
        factors.append(((tau, Fraction(-1)), m))  # tau*u - t
        remaining -= m
    return factors, mult_a


def make_span(rng: random.Random, rounds: int) -> list[list[dict]]:
    seen: set = set()
    frames = {n: projection.ProjectionFrame(n) for n in range(3, 11)}
    out = []
    for _ in range(rounds):
        rnd = []
        for n, deg in SPAN_CELLS:
            while True:
                factors, mult_a = _random_scheme(rng, deg)
                key = (n, tuple(sorted(factors)))
                if key not in seen:
                    seen.add(key)
                    break
            W = ZeroScheme(tuple((BinaryForm(len(g) - 1, g), m) for g, m in factors))
            rnd.append({"n": n, "factors": factors, "mult_a": mult_a, "W": W, "frame": frames[n]})
        out.append(rnd)
    return out


def run_span(rec: dict):
    return classifier.span_center_routes(rec["W"], rec["frame"])


def check_span(rec: dict, out) -> list[str]:
    by_span, by_mult = out
    return checks.center_span_problems(rec["n"], rec["factors"], rec["mult_a"], by_span, by_mult)


# -- search: the numeric span search on e4_i points ---------------------------

# (10, 5) is left out: the search finds no witness for some of its points,
# such as sum s (u + tau t)^11 with tau = 5, 7, 8, 10, 11 and s = -9, -2, 3,
# 7, -2, under search seeds 0..3 and up to 96 starts, so whether a run
# failed would depend on the benchmark's seed.  The k = 3 cells come twice,
# which puts the median record inside the k = 3 band instead of on the edge
# between the fast k = 2 and the slower k = 3 searches, where it would jump
# from seed to seed.
SEARCH_CELLS = tuple(
    (n, k)
    for n in range(5, 11)
    for k in range(2, n // 2 + 1)
    for _ in range(2 if k == 3 else 1)
    if (n, k) != (10, 5)
)


def make_search(rng: random.Random, rounds: int) -> list[list[dict]]:
    seen: set = set()
    out = []
    for _ in range(rounds):
        rnd = []
        for n, k in SEARCH_CELLS:
            d = n + 1
            while True:
                # points (1:tau) with tau in the box the instance generator
                # uses, which the search's starts cover
                taus = _distinct_taus(rng, k, lambda: _nonzero(rng, 12))
                scalars = [_nonzero(rng) for _ in taus]
                key = (n, tuple(taus), tuple(scalars))
                if key not in seen:
                    seen.add(key)
                    break
            # apolar coordinates of sum s (u + tau t)^d are sum s tau^i;
            # projecting deletes slot 1
            a = [sum(s * Fraction(t) ** i for t, s in zip(taus, scalars)) for i in range(d + 1)]
            P = projection.ProjectedPoint(n, tuple([a[0]] + a[2:]))
            rnd.append({"taus": taus, "P": P, "cfg": oracle.SearchConfig(r=k)})
        out.append(rnd)
    return out


def run_search(rec: dict):
    return oracle.xrank_upper_search(rec["P"], rec["cfg"])


def check_search(rec: dict, witness) -> list[str]:
    return checks.search_problems(
        witness.parameters, witness.residual, rec["taus"], rec["cfg"].tolerance
    )


WORKLOADS = {
    "waring": Workload(make_waring, run_waring, check_waring, 1.25),
    "fiber": Workload(make_fiber, run_fiber, check_fiber, 5.2),
    "span": Workload(make_span, run_span, check_span, 0.19),
    "search": Workload(make_search, run_search, check_search, 1.4),
}
