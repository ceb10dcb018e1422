"""Closed-form factors of degree 1 and 2 against sympy's factorization."""

import random
from fractions import Fraction as F

from hypothesis import given, settings, strategies as st
from oracles import sympy_factors

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
    """ratfactor's answer equals sympy's, types included, without sympy."""
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
    assert ratfactor.is_irreducible(PINNED[12])
    assert not ratfactor.is_irreducible(PINNED[4])


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
