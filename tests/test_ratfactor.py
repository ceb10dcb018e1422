"""ratfactor's closed forms and modular certificates against sympy's
factorization, the oracle of ``oracles.sympy_factors``."""

import itertools
import json
import math
import random
from fractions import Fraction as F
from pathlib import Path

import pytest

from hypothesis import given, settings, strategies as st
from oracles import is_irreducible, scan_rational_roots, scan_roots_mod_p, sympy_factors

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


@pytest.mark.parametrize("g, h, proved, coprime", [
    ([1, 1], [2, 1], True, True),                    # x + 1, x + 2
    ([5], [0, 0, 1], True, True),                    # a nonzero constant and x^2
    # resultant 101 * 103: x and x - 10403 meet modulo both first primes
    ([0, 1], [-101 * 103, 1], False, True),
    # lc(g) = 101 skips that prime, and the next two see no common root
    ([-101 * 103, 101], [0, 1], True, True),
    # lc(g) = 101 skips that prime, and 103 and 107 both see one
    ([-101 * 103 * 107, 101], [0, 1], False, True),
    (_product([-1, 1], [2, 1]), _product([-1, 1], [5, 1]), False, False),  # x - 1 shared
])
def test_proves_coprime_modulo_the_first_two_serving_primes(g, h, proved, coprime, monkeypatch):
    """A trivial gcd modulo either of the first two primes that do not
    divide lc(g) proves coprimality; a resultant both divide proves
    nothing, and the exact gcd decides; a shared factor is never proved
    away.  ``coprime`` takes the exact gcd only when no prime proves it."""
    assert ratfactor.proves_coprime(g, h) is proved
    assert (univar.degree(univar.gcd(g, h)) == 0) is coprime
    calls = []
    gcd = univar.gcd
    monkeypatch.setattr(univar, "gcd", lambda p, q: calls.append(p) or gcd(p, q))
    assert ratfactor.coprime(g, h) is coprime
    assert len(calls) == (not proved)


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


# -- roots modulo a prime -----------------------------------------------------


def _is_prime(n):
    return n > 1 and all(n % q for q in range(2, math.isqrt(n) + 1))


def _slot_edge(length):
    """The largest prime p with length (p - 1)^2 below 2^32, the bound of
    one slot of the packed evaluation, and the next prime, past it."""
    p = math.isqrt((2**32 - 1) // length) + 1
    while not _is_prime(p) or length * (p - 1) ** 2 >> 32:
        p -= 1
    q = p + 1
    while not _is_prime(q):
        q += 1
    return p, q


def test_roots_mod_p_match_the_scan():
    """The packed evaluation finds the roots that one Horner evaluation
    per residue finds, modulo every prime of ``PRIMES`` and the later 163,
    at every degree 0..128, on seeded coefficients of up to 100 bits; and
    at the slot-width edge, the primes on either side of
    (deg + 1)(p - 1)^2 = 2^32, where the first is packed and the second
    scanned, on seeded coefficients with a root at 1 and on coefficients
    that are all p - 1; and at the first prime past it where those fill a
    slot beyond 2^32."""
    rng = random.Random("roots-mod-p")
    found = 0
    for deg in range(129):
        for p in ratfactor.PRIMES + (163,):
            g = [rng.choice((-1, 1)) * rng.getrandbits(rng.randint(1, 100)) for _ in range(deg + 1)]
            want = scan_roots_mod_p(g, p)
            assert ratfactor._roots_mod_p(g, p) == want, (g, p)
            found += bool(want)
    assert found > 1000
    for deg in (1, 15, 128):
        packed, scanned = _slot_edge(deg + 1)
        assert not (deg + 1) * (packed - 1) ** 2 >> 32 and (deg + 1) * (scanned - 1) ** 2 >> 32
        for p in (packed, scanned):
            g = [rng.randrange(p) for _ in range(deg)] + [p - 1]
            g[0] = -sum(g[1:]) % p  # a root at 1
            for h in (g, [p - 1] * (deg + 1)):
                assert ratfactor._roots_mod_p(h, p) == scan_roots_mod_p(h, p), (deg, p)
    # all coefficients p - 1 fill the slot of r = p - 1 to (p - 1)(E + O (p - 1)),
    # E and O the even and odd k <= deg: past 2^32 at this prime, which is scanned
    deg = 128
    p = next(p for p in itertools.count(_slot_edge(deg + 1)[1]) if _is_prime(p)
             and (p - 1) * (deg // 2 + 1 + deg // 2 * (p - 1)) >> 32)
    assert ratfactor._roots_mod_p([p - 1] * (deg + 1), p) == scan_roots_mod_p([p - 1] * (deg + 1), p)
    ratfactor._packed_powers.cache_clear()


def test_planted_rational_roots_are_found():
    """Seeded products of distinct factors b x - a (|a| up to 2^40, b up
    to 2^20) and a random cofactor: every planted root is among the
    rational roots, and roots and cofactor are those of the scan that
    lifts every root modulo the serving prime."""
    rng = random.Random("planted-roots")
    checked = 0
    for _ in range(400):
        bound = rng.choice((20, 2**20))
        planted = {F(rng.randint(-bound * bound, bound * bound) or 1, rng.randint(1, bound))
                   for _ in range(rng.randint(1, 5))}
        p = [rng.randint(-9, 9) for _ in range(rng.randint(0, 8))] + [rng.randint(1, 9)]
        for r in planted:
            p = univar.mul(p, [-r.numerator, r.denominator])
        g = ratfactor._primitive(univar.trim(p))
        if not g[0] or univar.degree(g) < 3:
            continue
        q = next((q for q in ratfactor.PRIMES if ratfactor._serves(g, q)), None)
        if q is None:
            continue
        roots, h = ratfactor._rational_roots(g, q)
        assert planted <= set(roots), (p, planted)
        assert (roots, h) == scan_rational_roots(g, q), p
        checked += 1
    assert checked >= 300


def test_rational_roots_match_the_scan():
    """On seeded square-free polynomials of degree 3..20, most with no
    rational root, the sieve and the packed evaluation return the roots,
    in their order, and the cofactor of the scan that lifts every root
    modulo the serving prime."""
    rng = random.Random("sieve")
    rootless = compared = 0
    while compared < 600:
        deg = rng.randint(3, 20)
        g = [rng.randint(-10**6, 10**6) for _ in range(deg)] + [rng.randint(1, 10**6)]
        if rng.random() < 0.3:
            g = univar.mul(g, [rng.randint(-99, 99), rng.randint(1, 99)])
        g = ratfactor._primitive(g)
        q = next((q for q in ratfactor.PRIMES if ratfactor._serves(g, q)), None)
        if not g[0] or q is None:
            continue
        got = ratfactor._rational_roots(g, q)
        assert got == scan_rational_roots(g, q), g
        rootless += not got[0]
        compared += 1
    assert rootless > 300


@pytest.mark.parametrize("g, lifted", [
    ((-2, 0, 0, 1), False),   # x^3 - 2: a root mod 101, none mod 103
    ((-3, 2, 3, 1), True),    # a root mod 101, 103, 107 and 109, none rational
])
def test_the_sieve_lifts_only_past_it(g, lifted, monkeypatch):
    """A polynomial with no root modulo one of the ``SIEVE_PRIMES`` primes
    after the serving one has no rational root, and no root mod p is
    lifted; one with a root modulo each is lifted, and has none either."""
    lifts = []
    run = ratfactor._lift_root
    monkeypatch.setattr(ratfactor, "_lift_root", lambda *a: lifts.append(a) or run(*a))
    assert ratfactor._rational_roots(g, 101) == ([], g)
    assert bool(lifts) is lifted

