import random
from fractions import Fraction

from cuspidal import ratfactor, univar
from oracles import euclid_gcd


def F(a, b=1):
    return Fraction(a, b)


def test_divmod_roundtrip():
    rng = random.Random(1)
    for _ in range(200):
        p = [F(rng.randint(-9, 9)) for _ in range(rng.randint(1, 8))]
        q = [F(rng.randint(-9, 9)) for _ in range(rng.randint(1, 6))]
        if univar.is_zero(q):
            continue
        quot, rem = univar.divmod_(p, q)
        back = univar.add(univar.mul(quot, q), rem)
        assert back == univar.trim(p)
        assert univar.degree(rem) < univar.degree(q) or not rem


def test_gcd_of_multiples():
    g = [F(-2), F(0), F(1)]  # x^2 - 2
    p = univar.mul(g, [F(1), F(3)])
    q = univar.mul(g, [F(-5), F(1), F(1)])
    got = univar.gcd(p, q)
    assert got == univar.monic(g)


def test_gcd_matches_euclid_oracle():
    """The primitive pseudo-remainder sequence in the integers gives the
    monic gcd that the Euclidean algorithm over Fraction gives, on seeded
    rational polynomials with a planted common factor or none."""
    rng = random.Random(5)

    def poly(deg):
        return [F(rng.randint(-40, 40), rng.randint(1, 9)) for _ in range(deg)] + [F(1)]

    for trial in range(200):
        common = poly(rng.randint(0, 4)) if trial % 2 else [F(1)]
        p = univar.mul(common, poly(rng.randint(0, 6)))
        q = univar.mul(common, poly(rng.randint(0, 6)))
        if trial % 7 == 0:
            q = []
        assert univar.gcd(p, q) == euclid_gcd(p, q)


def test_yun_recovers_multiplicities():
    # (x-1)^3 * (x+2)^2 * x
    p = [F(1)]
    for root, mult in [(F(1), 3), (F(-2), 2), (F(0), 1)]:
        for _ in range(mult):
            p = univar.mul(p, [-root, F(1)])
    fac = univar.yun(p)
    flat = {}
    for q, m in fac:
        factors = ratfactor.irreducible_factors(q)
        assert all(len(lin) == 2 and e == 1 for lin, e in factors)
        for lin, _ in factors:
            flat[-lin[0]] = m
    assert flat == {F(1): 3, F(-2): 2, F(0): 1}


def test_rational_roots_with_denominators():
    # (2x-3)(x+5)^2 -> roots 3/2 (simple), -5 (double)
    p = univar.mul([F(-3), F(2)], univar.mul([F(5), F(1)], [F(5), F(1)]))
    factors = ratfactor.irreducible_factors(p)
    assert all(len(lin) == 2 for lin, _ in factors)
    assert {-lin[0]: e for lin, e in factors} == {F(3, 2): 1, F(-5): 2}
