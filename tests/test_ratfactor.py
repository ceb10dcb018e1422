"""ratfactor's closed forms and modular certificates against sympy's
factorization, the oracle of ``oracles.sympy_factors``."""

import json
import math
import random
from fractions import Fraction as F
from pathlib import Path

import pytest

from hypothesis import given, settings, strategies as st
from oracles import is_irreducible, sympy_factors

from cuspidal import ratfactor, univar

BIG = 2**64


def _product(*factors):
    p = [1]
    for fac in factors:
        p = univar.mul(p, fac)
    return p


PINNED = [
    _product([-2, 3], [-2, 3]),          # rational double root 2/3
    [0, 3, 5],                           # zero constant term
    [0, 0, 7],                           # x^2: double root 0
    [0, 7],                              # x
    _product([-1, 2], [4, 3]),           # square discriminant 121
    [-2, 0, 1],                          # non-square discriminant 8
    [1, 0, 1],                           # discriminant -4: -(square)
    [1, 1, 1],                           # discriminant -3
    [F(-3, 4), F(1, 2), F(-5, 6)],       # fractions, negative leading coefficient
    [F(7, 3), F(-2, 9)],                 # a linear form with denominators
    _product([-3, BIG * 64], [BIG * 2, 1]),  # split, coefficients above 2^64
    [-((BIG + 1) ** 2), 0, 1],           # roots +-(2^64 + 1)
    [-(BIG**2 + 1), 0, 1],               # 4(2^128 + 1): a double rounds it to a square
    [BIG**2 + 1, 0, 1],                  # no real root, coefficients above 2^64
    _product([BIG + 3, BIG - 1], [BIG + 3, BIG - 1]),  # double root near -1
]


def _same(p):
    """ratfactor's answer equals sympy's, types included, with no split
    modulo a prime past ``PRIMES``."""
    misses = ratfactor._factor_cached.cache_info().misses
    got = ratfactor.irreducible_factors(p)
    assert ratfactor._factor_cached.cache_info().misses == misses
    want = sympy_factors(p)
    assert repr(got) == repr(want), p


def test_pinned_cases():
    for p in PINNED:
        assert univar.degree(p) in (1, 2)
        _same(p)


def test_seeded_random_quadratics_and_linears():
    rng = random.Random(2024)
    for _ in range(300):
        bound = rng.choice((9, 1000, 2**70))
        draw = lambda: rng.randint(-bound, bound)  # noqa: E731
        shape = rng.randrange(4)
        if shape == 0:  # two rational roots, possibly equal
            a = [draw(), rng.randint(1, bound)]
            b = a if rng.random() < 0.3 else [draw(), rng.randint(1, bound)]
            p = _product(a, b)
        elif shape == 1:  # any quadratic
            p = [draw(), draw(), rng.randint(1, bound) * rng.choice((-1, 1))]
        elif shape == 2:  # a root at 0
            p = [0, draw(), rng.randint(1, bound)]
        else:
            p = [F(draw(), rng.randint(1, 50)), F(rng.randint(1, bound), rng.randint(1, 50))]
        if univar.degree(p) >= 1:
            _same(p)


def test_rational_roots_and_irreducibility_follow():
    assert ratfactor.irreducible_factors(PINNED[0]) == [([F(-2, 3), F(1)], 2)]
    assert ratfactor.irreducible_factors(PINNED[11]) == [
        ([F(-(BIG + 1)), F(1)], 1),
        ([F(BIG + 1), F(1)], 1),
    ]
    assert is_irreducible(PINNED[12])
    assert not is_irreducible(PINNED[4])


coefficient = st.integers(-(2**80), 2**80)
linear = st.tuples(coefficient, coefficient.filter(bool))


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(
    st.one_of(
        st.lists(coefficient, min_size=2, max_size=3).filter(lambda p: p[-1] != 0),
        st.tuples(linear, linear).map(lambda ab: _product(list(ab[0]), list(ab[1]))),
        st.tuples(linear, st.integers(1, 10**6)).map(
            lambda lk: [F(c, lk[1]) for c in lk[0]]
        ),
    )
)
def test_closed_form_matches_sympy(p):
    _same(p)


# -- the modular path ---------------------------------------------------------


@pytest.fixture
def streamed_splits():
    """Count the splits ratfactor takes modulo a prime past ``PRIMES``, from
    an empty cache."""
    ratfactor._factor_cached.cache_clear()
    return lambda: ratfactor._factor_cached.cache_info().misses


def _matches_sympy(p):
    got = ratfactor.irreducible_factors(p)
    assert repr(got) == repr(sympy_factors(p)), p
    return got


N3 = math.prod(ratfactor.PRIMES[:3])

MODULAR = [
    _product([-2, 1], [1, 3], [-2, 0, 0, 1]),                # two roots and x^3 - 2
    _product([-1, -1, 0, 0, 1], [5, 7]),                     # x^4 - x - 1 and a root
    _product([0, 1], [0, 1], [-2, 1], [-2, 1], [1, 1, 1], [1, 1, 1], [1, 1, 1], [-2, 0, 0, 1]),
    _product([0, 0, 0, 1], [1, 0, 0, 0, 0, 1, 1]),           # x^3 times an irreducible sextic
    _product([-7907, 7919], [1, 1, 0, 1]),                   # root 7907/7919: |a| = |g0|, b = lc
    _product([7907, 7919], [1, 1, 0, 1]),                    # root -7907/7919
    _product([-(2**61 - 1), 2**64 + 13], [-1, 0, -1, 0, 1]),  # root at the bound, 64-bit
    _product([1, N3], [-1, 1], [-1 - N3, 1], [-2, 0, 0, 1]),  # N3 | lc and N3 | disc
    _product([-1, 1], [-1 - N3, 1], [-1 - 2 * N3, 1], [3, 0, 1, 1]),  # N3^2 | disc
    _product(*[[-k, 1] for k in range(-6, 7)]),              # 13 integer roots
    [-3, 0, 0, 0, 0, 1],                                     # x^5 - 3
    [1, -1, 0, 0, 0, 0, 0, 1],                               # x^7 - x + 1
]


def test_modular_factors_match_sympy_without_it(streamed_splits):
    for p in MODULAR:
        _matches_sympy(p)
    assert streamed_splits() == 0


def test_lc_and_discriminant_skip_the_first_primes():
    g = ratfactor._primitive(MODULAR[7])
    assert [ratfactor._serves(g, p) for p in ratfactor.PRIMES[:4]] == [False] * 3 + [True]


N12 = math.prod(ratfactor.PRIMES)


@pytest.mark.parametrize("p", [
    [1, 0, 0, 0, 1],                             # x^4 + 1: splits modulo every prime
    [1, 0, -10, 0, 1],                           # minimal polynomial of sqrt 2 + sqrt 3
    _product([-2, 0, 1], [-3, 0, 1]),            # two irreducible quadratics
    _product([1, 1, 1], [2, -1, 3], [-5, 1]),    # the same after a rational root
    _product([1, 1, 1, 1], [3, 0, 0, 1]),        # two irreducible cubics
    _product([1, 0, -10, 0, 1], [-2, 0, 0, 0, 1]),  # two quartics, one splitting mod every prime
    _product([5, -3, 0, 0, 7], [-2, 1, 1, 0, 1], [2, 0, 1], [1, -1, 1]),
    _product([BIG + 1, 3, 0, BIG], [-(BIG**3), 1, 0, 0, 2]),  # coefficients above 2^64
    _product([1, 0, 1], [2, 0, 1], [3, 0, 1], [5, 0, 1], [6, 0, 1], [7, 0, 1]),
])
def test_proper_degrees_split_without_sympy(p, streamed_splits):
    """Cofactors whose degree patterns leave a proper degree are split by
    Hensel lifting and recombination, with no streamed split."""
    _matches_sympy(p)
    assert streamed_splits() == 0


# Roots 1 and 1 + N12 put every prime of PRIMES into the discriminant.
UNSERVED = _product([-1, 1], [-1 - N12, 1], [1, 0, 1], [-2, 0, 0, 1])


@pytest.mark.parametrize("p, primes", [
    pytest.param(UNSERVED, [("_rational_roots", 163)], id="n12"),
    # Res(x^2 + 1, (x - N12)^2 + 1) = N12^2 (N12^2 + 4): the cofactor is
    # served by no listed prime, and Zassenhaus runs modulo a later one
    pytest.param(_product([1, 0, 1], [N12**2 + 1, -2 * N12, 1]),
                 [("_rational_roots", 163), ("_zassenhaus", 163)], id="n12-quartic-cofactor"),
    # not square-free: Yun first, then the stream for the part (x - 1)(x - 1 - N12)(x^2 + 1)
    pytest.param(_product(UNSERVED, UNSERVED, [-2, 0, 0, 1]),
                 [("_rational_roots", 163)], id="n12-squared"),
])
def test_unlisted_primes_serve(p, primes, streamed_splits, monkeypatch):
    """A polynomial that no prime of PRIMES serves is split modulo the
    first later prime that does, found by trial division, with one
    streamed split per square-free part that needs it."""
    assert not any(ratfactor._serves(ratfactor._primitive(p), q) for q in ratfactor.PRIMES)
    seen = []
    for name in ("_rational_roots", "_zassenhaus"):
        def spy(g, q, *rest, name=name, run=getattr(ratfactor, name)):
            seen.append((name, q))
            return run(g, q, *rest)

        monkeypatch.setattr(ratfactor, name, spy)
    _matches_sympy(p)
    assert streamed_splits() == 1
    assert [(name, q) for name, q in seen if q > ratfactor.PRIMES[-1]] == primes


def test_bench_factor_inputs():
    """A pinned sample of the polynomials that the fiber and waring
    benchmark workloads factor (seed 1).  A listed prime serves every one
    of them, so none takes a streamed split."""
    sample = json.loads((Path(__file__).parent / "factor_sample.json").read_text())
    ratfactor._factor_cached.cache_clear()
    for p in sample["fiber"] + sample["waring"]:
        _matches_sympy(p)
    assert ratfactor._factor_cached.cache_info().misses == 0


def test_seeded_products_match_sympy():
    """Products of seeded rational roots (numerators and denominators up to
    2^40), irreducible quadratics and other factors, with multiplicities."""
    rng = random.Random(16)
    for _ in range(120):
        p = [rng.randint(1, 9)]
        for _ in range(rng.randint(1, 4)):
            bound = rng.choice((5, 1000, 2**40))
            kind = rng.randrange(3)
            if kind == 0:
                fac = [rng.randint(-bound, bound), rng.randint(1, bound)]
            elif kind == 1:
                fac = [rng.randint(1, bound), rng.randint(-bound, bound), rng.randint(1, bound)]
            else:
                fac = [rng.randint(-bound, bound) for _ in range(rng.randint(3, 5))] + [1]
            for _ in range(rng.choice((1, 1, 1, 2, 3))):
                p = univar.mul(p, fac)
        if univar.degree(p) >= 1:
            _matches_sympy(p)


def test_seeded_unserved_products_match_sympy(streamed_splits):
    """Products in which two rational roots differ by a multiple of N12, so
    that no listed prime serves them, times seeded factors of degree 1-4
    with multiplicities 1-3: Yun's parts and the streamed splits give
    sympy's factors, and they multiply back to the input."""
    rng = random.Random(27)
    for _ in range(40):
        a, b = rng.randint(-50, 50), rng.randint(1, 9)
        p = _product([-a, b], [-a - rng.randint(1, 3) * N12 * b, b])
        for _ in range(rng.randint(1, 3)):
            fac = [rng.randint(-9, 9) for _ in range(rng.randint(1, 4))] + [rng.randint(1, 5)]
            for _ in range(rng.randint(1, 3)):
                p = univar.mul(p, fac)
        got = _matches_sympy(p)
        ratfactor._check(ratfactor._primitive(p), [(ratfactor._primitive(f), m) for f, m in got])
    # a pair left alone in its Yun part is split in closed form instead
    assert streamed_splits() >= 10


def _split_by_factors(p):
    """The rational roots, ascending, and the primitive cofactor of a
    square-free p, read off ``irreducible_factors``."""
    factors = ratfactor.irreducible_factors(p)
    roots = sorted(-c[0] for c, _ in factors if len(c) == 2)
    cofactor = [1]
    for c, _ in factors:
        if len(c) > 2:
            cofactor = univar.mul(cofactor, c)
    return roots, ratfactor._primitive(cofactor)


def test_rational_roots_are_the_linear_factors(request):
    """On the benchmark sample, the modular cases and seeded products, the
    square-free polynomials split into the roots of their linear factors
    and the product of the others, with the irreducibility proof of the
    cofactor refusing to run."""
    sample = json.loads((Path(__file__).parent / "factor_sample.json").read_text())
    rng = random.Random("rational-roots")
    seeded = []
    for _ in range(60):
        p = [rng.randint(1, 9)]
        for _ in range(rng.randint(1, 4)):
            if rng.random() < 0.5:
                fac = [rng.randint(-50, 50), rng.randint(1, 20)]
            else:
                fac = [rng.randint(-9, 9) for _ in range(rng.randint(2, 5))] + [1]
            p = univar.mul(p, fac)
        seeded.append(p)
    polys = [p for p in sample["fiber"] + sample["waring"] + MODULAR + seeded
             if all(m == 1 for _, m in ratfactor.irreducible_factors(p))]
    assert len(polys) >= 60
    want = [_split_by_factors(p) for p in polys]
    request.getfixturevalue("no_irreducibility_proof")
    for p, split in zip(polys, want):
        assert ratfactor.rational_roots(p) == split, p


def test_rational_roots_without_a_serving_prime(no_irreducibility_proof):
    """No prime of PRIMES serves ``UNSERVED``: its roots come from a prime
    past the list, with no proof about the cofactor, and a polynomial that
    is not square-free is refused."""
    assert ratfactor.rational_roots(UNSERVED) == ([F(1), F(1 + N12)], (-2, 0, -2, 1, 0, 1))
    assert ratfactor.rational_roots([F(3, 2)]) == ([], (1,))
    for bad in ([0, 0, 1], _product([-1, 1], [-1, 1], [-1 - N12, 1], [-1 - N12, 1])):
        with pytest.raises(ValueError, match="not square-free"):
            ratfactor.rational_roots(bad)
