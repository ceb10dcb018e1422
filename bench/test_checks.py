"""Each output check accepts a right answer and rejects a planted wrong one.

    python3 -m pytest bench/test_checks.py
"""

from fractions import Fraction
from math import comb

import mpmath

import checks


def _power_sum(d, terms):
    return [sum(s * comb(d, i) * a ** (d - i) * b**i for s, (a, b) in terms) for i in range(d + 1)]


def test_rank_dichotomy_and_construction():
    assert checks.rank_problems(7, 3, 3, {"r": 3, "w": 3}) == []
    assert checks.rank_problems(7, 3, 6, {}) == []
    assert checks.rank_problems(7, 3, 5, {})  # neither w nor d+2-w
    # sum of 3 distinct powers with 2k <= d+1 has rank 3
    assert checks.rank_problems(7, 3, 6, {"r": 3, "w": 3})
    # u^5 t^2 has rank max(a,b)+1 = 6 and border rank 3
    assert checks.rank_problems(7, 3, 3, {"r": 6, "w": 3})
    assert checks.rank_problems(7, 2, 7, {"r": 6, "w": 3})


def test_decomposition_residual():
    terms = [(Fraction(2), (Fraction(1), Fraction(3))), (Fraction(-1), (Fraction(1), Fraction(-2)))]
    coeffs = _power_sum(6, terms)
    assert checks.decomposition_problems(coeffs, terms, 2) == []
    bent = terms[:1] + [(Fraction(-1), (Fraction(1), Fraction(-2) + Fraction(1, 10**20)))]
    assert checks.decomposition_problems(coeffs, bent, 2)
    assert checks.decomposition_problems(coeffs, terms, 3)  # not minimal
    with mpmath.workprec(224):
        def mp(q):
            return mpmath.mpc(mpmath.mpf(q.numerator) / q.denominator)

        numeric = [(mp(s), (mp(a), mp(b))) for s, (a, b) in terms]
    assert checks.decomposition_problems(coeffs, numeric, 2) == []


def _report(**kw):
    base = {
        "case": "e4_i",
        "prediction": 3,
        "fiber_value": 3,
        "fiber_complete": True,
        "o_span": {"agree": True},
    }
    base.update(kw)
    return base


def test_fiber_report():
    assert checks.fiber_problems(_report(), "e4_i", 3) == []
    assert checks.fiber_problems(_report(case="e4_ii"), "e4_i", 3)
    assert checks.fiber_problems(_report(fiber_value=2, prediction=2), "e4_i", 3)
    assert checks.fiber_problems(_report(fiber_value=4), "e4_i", 3)
    assert checks.fiber_problems(_report(fiber_complete=False), "e4_i", 3)
    assert checks.fiber_problems(_report(o_span={"agree": False}), "e4_i", 3)
    interval = _report(case="e4_ii", prediction=[3, 4])
    assert checks.fiber_problems(interval, "e4_ii", None) == []
    assert checks.fiber_problems(_report(case="e4_ii", prediction=[3, 4], fiber_value=5), "e4_ii", None)
    cusp = _report(case="e3_3_cusp", prediction=1, fiber_value=1)
    assert checks.fiber_problems(cusp, "e3_3_cusp", 1) == []
    assert checks.fiber_problems(_report(case="out_of_scope", prediction=None), "out_of_scope", None)


T = (Fraction(0), Fraction(1))


def _pt(tau):
    return (Fraction(tau), Fraction(-1))


def test_center_span_bands():
    n = 5
    # deg W <= n: the answer is m >= 2
    low = [(T, 2), (_pt(3), 1)]
    assert checks.center_span_problems(n, low, 2, True, True) == []
    assert checks.center_span_problems(n, low, 2, False, True)
    assert checks.center_span_problems(n, [(_pt(3), 2)], 0, True, False)
    # deg W = n+1 with m = 0: the u^n t coefficient of the product decides
    edge = [(_pt(1), 1), (_pt(-1), 1), (_pt(2), 1), (_pt(-2), 1), (_pt(3), 1), (_pt(-3), 1)]
    assert checks.product_coeffs(edge)[1] == 0
    assert checks.center_span_problems(n, edge, 0, True, False) == []
    assert checks.center_span_problems(n, edge, 0, False, False)
    skew = edge[:-1] + [(_pt(4), 1)]
    assert checks.center_span_problems(n, skew, 0, False, False) == []
    assert checks.center_span_problems(n, skew, 0, True, False)
    # deg W = n+2: always in the span
    full = [(T, 1)] + [(_pt(t), 1) for t in (1, 2, 3, 4, 5, 6)]
    assert checks.center_span_problems(n, full, 1, True, False) == []
    assert checks.center_span_problems(n, full, 1, False, False)
    # the multiplicity answer must be m >= 2
    assert checks.center_span_problems(n, full, 1, True, True)


def test_search_witness():
    taus = [-3, 2, 7]
    assert checks.search_problems((-3.0, 2.0, 7.0 + 1e-10), 1e-40, taus, 2.0**-96) == []
    assert checks.search_problems((-3.0, 2.0, 7.001), 1e-40, taus, 2.0**-96)
    assert checks.search_problems((-3.0, 2.0), 1e-40, taus, 2.0**-96)
    assert checks.search_problems((-3.0, 2.0, 7.0), 1e-20, taus, 2.0**-96)
