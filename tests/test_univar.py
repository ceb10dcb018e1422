import random
from fractions import Fraction

import pytest

from cuspidal import ratfactor, univar
from oracles import add, euclid_gcd, field_divmod, fraction_yun


def F(a, b=1):
    return Fraction(a, b)


def test_divmod_roundtrip():
    """The generic-field division of the oracles, which ``euclid_gcd`` and
    ``fraction_yun`` run on."""
    rng = random.Random(1)
    for _ in range(200):
        p = [F(rng.randint(-9, 9)) for _ in range(rng.randint(1, 8))]
        q = [F(rng.randint(-9, 9)) for _ in range(rng.randint(1, 6))]
        if not univar.trim(q):
            continue
        quot, rem = field_divmod(p, q)
        back = add(univar.mul(quot, q), rem)
        assert back == univar.trim(p)
        assert univar.degree(rem) < univar.degree(q) or not rem


def test_exact_division_in_integers():
    """``divide`` gives the integer quotient by a primitive divisor, () for
    the zero polynomial, and None when the divisor does not divide over Q;
    ``div_exact`` raises there instead."""
    rng = random.Random(2)
    for _ in range(200):
        d = univar.primitive([rng.randint(-9, 9) for _ in range(rng.randint(1, 5))] + [1])
        q = univar.trim([rng.randint(-9, 9) for _ in range(rng.randint(0, 6))])
        assert univar.divide(univar.mul(q, d), d) == tuple(q)
        if len(d) > 1:
            bad = add(univar.mul(q, d), [1])
            assert univar.divide(bad, d) is None
            with pytest.raises(ArithmeticError, match="inexact"):
                univar.div_exact(bad, d)
    assert univar.divide([2, 4], (1, 3)) is None  # (2 + 4x) / (1 + 3x) is no polynomial


def test_gcd_of_multiples():
    g = [F(-2), F(0), F(1)]  # x^2 - 2
    p = univar.mul(g, [F(1), F(3)])
    q = univar.mul(g, [F(-5), F(1), F(1)])
    assert univar.gcd(p, q) == (-2, 0, 1)
    assert univar.gcd([F(-6), F(0), F(3)], []) == (-2, 0, 1)
    assert univar.gcd([], []) == ()


def test_gcd_matches_euclid_oracle():
    """The primitive pseudo-remainder sequence in the integers gives the
    primitive part of the monic gcd that the Euclidean algorithm over
    Fraction gives, on seeded rational polynomials with a planted common
    factor or none."""
    rng = random.Random(5)

    def poly(deg):
        return [F(rng.randint(-40, 40), rng.randint(1, 9)) for _ in range(deg)] + [F(1)]

    for trial in range(200):
        common = poly(rng.randint(0, 4)) if trial % 2 else [F(1)]
        p = univar.mul(common, poly(rng.randint(0, 6)))
        q = univar.mul(common, poly(rng.randint(0, 6)))
        if trial % 7 == 0:
            q = []
        got = univar.gcd(p, q)
        assert got == univar.primitive(euclid_gcd(p, q))
        assert got[-1] > 0 and all(type(c) is int for c in got)


def test_yun_matches_the_fraction_oracle():
    """Integer Yun gives the primitive parts of the monic factors of Yun
    over Fraction, on planted multiplicities up to degree 20: square-free
    inputs, where z is 0 before the first step, gaps in the multiplicities,
    and a top multiplicity reached with z = 0 mid-loop."""
    rng = random.Random("yun")
    planted = [
        [([-1, 1], 1), ([1, 0, 1], 1)],                  # square-free: z = 0 at once
        [([-1, 1], 1), ([2, 1], 3)],                     # no factor of multiplicity 2
        [([0, 1], 2), ([-3, 2], 5)],                     # z = 0 at step 5
    ]
    for _ in range(200):
        parts = []
        deg = 0
        for m in rng.sample(range(1, 7), rng.randint(1, 3)):
            fac = [rng.randint(-9, 9) for _ in range(rng.randint(1, 2))] + [rng.randint(1, 4)]
            if deg + m * (len(fac) - 1) > 20:
                break
            deg += m * (len(fac) - 1)
            parts.append((fac, m))
        planted.append(parts)
    for parts in planted:
        p = [F(rng.randint(1, 9), rng.randint(1, 9))]
        for fac, m in parts:
            for _ in range(m):
                p = univar.mul(p, fac)
        got = univar.yun(p)
        assert got == [(univar.primitive(g), m) for g, m in fraction_yun(p)], p
        assert all(g[-1] > 0 for g, _ in got)
        back = [1]
        for g, m in got:
            for _ in range(m):
                back = univar.mul(back, g)
        assert univar.primitive(back) == univar.primitive(p)


def test_yun_recovers_multiplicities():
    # (x-1)^3 * (x+2)^2 * x
    p = [F(1)]
    for root, mult in [(F(1), 3), (F(-2), 2), (F(0), 1)]:
        for _ in range(mult):
            p = univar.mul(p, [-root, F(1)])
    fac = univar.yun(p)
    flat = {}
    for q, m in fac:
        factors = ratfactor.primitive_factors(q)
        assert all(len(lin) == 2 and e == 1 for lin, e in factors)
        for lin, _ in factors:
            flat[F(-lin[0], lin[1])] = m
    assert flat == {F(1): 3, F(-2): 2, F(0): 1}


def test_rational_roots_with_denominators():
    # (2x-3)(x+5)^2 -> roots 3/2 (simple), -5 (double)
    p = univar.mul([F(-3), F(2)], univar.mul([F(5), F(1)], [F(5), F(1)]))
    factors = ratfactor.primitive_factors(p)
    assert all(len(lin) == 2 for lin, _ in factors)
    assert {F(-lin[0], lin[1]): e for lin, e in factors} == {F(3, 2): 1, F(-5): 2}
