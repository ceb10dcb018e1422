"""Output checks computed apart from the program under test.

Each check takes the answer the program gave and what the benchmark knows
about the input from its own construction, and returns a list of problems
(empty when the answer is right).  None of them calls into ``cuspidal``:
the expected values come from closed formulas (monomial and power-sum
ranks), from the construction (the tag an instance was built for, the
points of a power sum, the multiplicity placed at the cusp preimage), or
from an independent recomputation (the power-sum residual, the u^n t
coefficient of a scheme's product form).

Forms are coefficient lists c_0..c_d, c_i multiplying u^(d-i) t^i, as in
the program.  A scheme is a list of (coefficients, multiplicity) factors in
the same convention.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

import mpmath

RESIDUAL_BITS = 192
RESIDUAL_BOUND = mpmath.mpf(2) ** -96
MATCH_RADIUS = 1e-8


def _mp(x):
    if isinstance(x, (int, Fraction)):
        q = Fraction(x)
        return mpmath.mpf(q.numerator) / q.denominator
    return mpmath.mpc(x)


def rank_problems(d: int, w: int, r: int, expect: dict) -> list[str]:
    """Sylvester's dichotomy, plus the rank and border rank the input's
    construction fixes (``expect`` may hold "r" and "w")."""
    out = []
    if r not in (w, d + 2 - w):
        out.append(f"rank {r} is neither w = {w} nor d+2-w = {d + 2 - w}")
    for key, got in (("r", r), ("w", w)):
        if key in expect and got != expect[key]:
            out.append(f"{key} = {got}, construction gives {expect[key]}")
    return out


def power_sum_residual(coeffs, terms, bits: int = RESIDUAL_BITS):
    """Relative max-norm distance between the form and the power sum
    sum of s * (a*u + b*t)^d over ``terms`` = [(s, (a, b)), ...]."""
    d = len(coeffs) - 1
    with mpmath.workprec(bits + 32):
        total = [mpmath.mpc(0)] * (d + 1)
        for s, (a, b) in terms:
            s, a, b = _mp(s), _mp(a), _mp(b)
            for i in range(d + 1):
                total[i] += s * comb(d, i) * a ** (d - i) * b**i
        worst = max(abs(_mp(c) - t) for c, t in zip(coeffs, total))
        scale = max(abs(_mp(c)) for c in coeffs)
        return +(worst / scale)


def decomposition_problems(coeffs, terms, r: int) -> list[str]:
    """A minimal decomposition has r terms and reproduces the form to
    below 2^-96 at 192 bits."""
    out = []
    if len(terms) != r:
        out.append(f"decomposition has {len(terms)} terms, rank is {r}")
    resid = power_sum_residual(coeffs, terms)
    if not resid < RESIDUAL_BOUND:
        out.append(f"decomposition residual {mpmath.nstr(resid, 5)} not below 2^-96")
    return out


def fiber_problems(report: dict, tag: str, built_value: int | None) -> list[str]:
    """A crosscheck report against the case the instance was built for.

    The fiber value must lie in the classifier's interval, equal the value
    the construction fixes where it fixes one, come from a complete scan,
    and the two center-span routes must agree.
    """
    out = []
    if report.get("case") != tag:
        out.append(f"case {report.get('case')!r}, built for {tag!r}")
    value = report.get("fiber_value")
    pred = report.get("prediction")
    if isinstance(pred, int):
        lo = hi = pred
    elif isinstance(pred, list) and len(pred) == 2:
        lo, hi = pred
    else:
        lo = hi = None
    if lo is None or not isinstance(value, int) or not lo <= value <= hi:
        out.append(f"fiber value {value} outside the classifier's interval {pred}")
    if built_value is not None and value != built_value:
        out.append(f"fiber value {value}, construction gives {built_value}")
    if report.get("fiber_complete") is not True:
        out.append("fiber scan incomplete")
    if not (report.get("o_span") or {}).get("agree"):
        out.append("center-span routes disagree")
    return out


def _poly_mul(p, q):
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def product_coeffs(factors) -> list[Fraction]:
    """Coefficients of prod g^m over the scheme's factors."""
    out = [Fraction(1)]
    for g, m in factors:
        for _ in range(m):
            out = _poly_mul(out, [Fraction(c) for c in g])
    return out


def center_span_problems(
    n: int, factors, mult_a: int, by_span: bool, by_mult: bool
) -> list[str]:
    """Both answers to "the center O lies in the span of W", for a scheme W
    of degree at most n+2 with multiplicity ``mult_a`` at A = (1:0).

    deg W <= n: the span answer is m >= 2.  deg W = n+1: <W> is the
    hyperplane of the product form, so the answer is the vanishing of its
    u^n t coefficient.  deg W = n+2: <W> is everything.  The multiplicity
    answer is m >= 2 in every band.
    """
    deg = sum((len(g) - 1) * m for g, m in factors)
    if deg <= n:
        want = mult_a >= 2
    elif deg == n + 1:
        want = product_coeffs(factors)[1] == 0
    else:
        want = True
    out = []
    if by_span is not want:
        out.append(f"span answer {by_span}, expected {want} (deg W = {deg}, n = {n})")
    if by_mult is not (mult_a >= 2):
        out.append(f"multiplicity answer {by_mult} with m = {mult_a}")
    return out


def search_problems(parameters, residual, taus, tolerance) -> list[str]:
    """A span-search witness must return the construction's points and a
    residual below the search tolerance."""
    out = []
    got = sorted(parameters)
    want = sorted(float(t) for t in taus)
    if len(got) != len(want) or any(
        not abs(a - b) <= MATCH_RADIUS for a, b in zip(got, want)
    ):
        out.append(f"parameters {got} differ from the construction {want}")
    if not residual < tolerance:
        out.append(f"residual {residual} not below the tolerance {tolerance}")
    return out
