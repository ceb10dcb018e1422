"""Irreducible factorization of univariate rational polynomials.

Degrees 1 and 2 are factored in closed form: a quadratic splits over the
rationals exactly when its integer discriminant is a perfect square, which
``math.isqrt`` decides.  Only degree 3 and above go to sympy, which is
imported on first use, so a run that never meets such a factor never loads
it.  Inputs and outputs are plain low-to-high coefficient lists; the factors
come back monic with Fraction coefficients, sorted by (length,
coefficients), exactly as sympy's factorization would give them, so callers
never see sympy objects.  The sympy results are cached: scheme bookkeeping
tends to refactor the same small polynomials repeatedly.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import isqrt
from typing import Sequence

from . import linalg, univar

Factors = tuple[tuple[tuple[Fraction, ...], int], ...]


def _factor_low_degree(coeffs: tuple[int, ...]) -> Factors:
    """Factors of a primitive integer polynomial of degree 1 or 2 with a
    positive leading coefficient."""
    if len(coeffs) == 2:
        c0, c1 = coeffs
        return (((Fraction(c0, c1), Fraction(1)), 1),)
    c0, c1, c2 = coeffs
    disc = c1 * c1 - 4 * c0 * c2
    s = isqrt(disc) if disc >= 0 else -1
    if s * s != disc:
        return (((Fraction(c0, c2), Fraction(c1, c2), Fraction(1)), 1),)
    # roots (-c1 -+ s) / (2 c2); the factor x - root is stored as (-root, 1)
    lo, hi = Fraction(c1 - s, 2 * c2), Fraction(c1 + s, 2 * c2)
    if not s:
        return (((lo, Fraction(1)), 2),)
    return (((lo, Fraction(1)), 1), ((hi, Fraction(1)), 1))


@lru_cache(maxsize=4096)
def _factor_cached(coeffs: tuple[int, ...]) -> Factors:
    import sympy

    x = sympy.Symbol("x")
    poly = sympy.Poly(list(reversed(coeffs)), x, domain=sympy.QQ)
    _, factors = poly.factor_list()
    out = []
    for fac, mult in factors:
        cs = [Fraction(c.p, c.q) for c in reversed(fac.all_coeffs())]
        out.append((tuple(univar.monic(cs)), int(mult)))
    out.sort(key=lambda fm: (len(fm[0]), fm[0]))
    return tuple(out)


def irreducible_factors(p: Sequence[Fraction]) -> list[tuple[list[Fraction], int]]:
    """Monic irreducible factors with multiplicities; the constant is dropped.

    The zero polynomial is rejected; constants factor into nothing.
    """
    q = univar.trim(list(p))
    if not q:
        raise ValueError("factorization of the zero polynomial")
    if len(q) == 1:
        return []
    ints = linalg.canonical_vector(q)
    if ints[-1] < 0:
        ints = tuple(-c for c in ints)
    factors = _factor_low_degree(ints) if len(ints) <= 3 else _factor_cached(ints)
    return [(list(fac), m) for fac, m in factors]


def is_irreducible(p: Sequence[Fraction]) -> bool:
    facs = irreducible_factors(p)
    return len(facs) == 1 and facs[0][1] == 1 and len(facs[0][0]) == len(univar.trim(list(p)))
