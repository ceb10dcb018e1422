"""Square-free parts and rational roots of univariate rational polynomials.

Inputs are plain low-to-high coefficient lists.  A polynomial is read as
its primitive integer vector with a positive leading coefficient
(``univar.primitive``), the format of every factor that ``primitive_factors``
returns.  For each multiplicity m, ``primitive_factors`` gives the rational
linear factors of multiplicity m and one square-free cofactor with no
rational root: the product of the nonlinear irreducible factors of
multiplicity m, which it does not split further.  That is the zero scheme
over C, split into its parts by multiplicity and its rational points, and
it is canonical, so equal polynomials give equal factors.  The rational
roots are proved modulo primes (von zur Gathen and Gerhard, *Modern
Computer Algebra*, 3rd ed.):

* A root at 0 is split off first.  Degrees 1 and 2 are factored in closed
  form: a quadratic splits over the rationals exactly when its integer
  discriminant is a perfect square, which ``math.isqrt`` decides.
* A prime p *serves* g when it divides neither lc(g) nor disc(g), that is,
  g mod p keeps its degree and gcd(g, g') = 1 mod p.  Then g is square-free
  over Q.  Primes come from ``_primes``: ``PRIMES``, then every later prime.
  When no listed prime serves g, the exact gcd(g, g') decides: Yun's
  algorithm first splits a g that is not square-free, and a later prime
  serves each square-free g or part.  The stream fails only at primes that
  divide lc(g) disc(g), nonzero for a square-free g, and at most
  log|lc(g) disc(g)| / log 163 of those lie past the list.
* Rational roots (§5.10, §15.4).  A rational root a/b of a square-free
  primitive g has b | lc(g) and a | g(0), and reduces to a simple root mod a
  serving p, and to a root modulo every prime that does not divide lc(g).
  The roots of g modulo a prime are read off one evaluation of g at all
  residues at once, packed in the slots of one integer.  When g has none
  modulo p or one of the next ``SIEVE_PRIMES`` listed primes, it has no
  rational root.  Otherwise each root mod p is Hensel-lifted until
  p^k > 2 |g(0)| lc(g), where rational reconstruction returns the only
  candidate a/b within those bounds; it is kept when b x - a divides g
  exactly.  This finds every rational root, and the cofactor left after
  them has none: of degree 2 or 3 it is irreducible, above that it may
  split, and nothing here asks.

The factors are checked by explicit raises, which run under ``python -O``
too: every root read off a linear factor must vanish on the input, and the
factors with their multiplicities must multiply back to it.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from functools import lru_cache
from itertools import count, islice
from math import isqrt
from typing import Iterator, Sequence

from . import univar

Ints = univar.Ints

# Discriminants of structured inputs (binomial weights, small integer roots)
# tend to carry every small prime, so the list starts above 100.
PRIMES = (101, 103, 107, 109, 113, 127, 131, 137, 139, 149, 151, 157)

# Listed primes past the serving one that must each leave g a root before
# its roots mod the serving prime are lifted (``_rational_roots``).  About
# 1/e of polynomials have no root modulo a prime; each further prime costs
# one packed evaluation on every g with a rational root.
SIEVE_PRIMES = 3


class CertificateError(ArithmeticError):
    """An exact certificate failed its own check; raised explicitly so that
    the check also runs under ``python -O``."""


# -- polynomials over F_p: lists of residues, low to high, trimmed ----------


def _mod(g: Sequence[int], p: int) -> list[int]:
    return univar.trim([c % p for c in g])


def _eval_mod(g: Sequence[int], x: int, m: int) -> int:
    acc = 0
    for c in reversed(g):
        acc = (acc * x + c) % m
    return acc


def _gcd_degree_p(a: list[int], b: list[int], p: int) -> int:
    """The degree of gcd(a, b) over F_p, for a nonzero and both reduced mod
    p and trimmed.  Each divisor is made monic once, and each remainder is
    reduced mod p once, when its division ends."""
    while b:
        inv = pow(b[-1], -1, p)
        low = [c * inv % p for c in b[:-1]]  # the monic top only clears rem[k]
        rem, db = list(a), len(low)
        for k in range(len(rem) - 1, db - 1, -1):
            c = rem[k] % p
            if c:
                for j, bj in enumerate(low, k - db):
                    rem[j] -= c * bj
        a, b = b, univar.trim([c % p for c in rem[:db]])
    return len(a) - 1


def _serves(g: Ints, p: int) -> bool:
    """p divides neither the leading coefficient nor the discriminant of g."""
    if g[-1] % p == 0:
        return False
    gp = _mod(g, p)
    return _gcd_degree_p(gp, _mod([i * c for i, c in enumerate(gp)][1:], p), p) == 0


def proves_coprime(g: Ints, h: Ints, tries: int = 2) -> bool:
    """True when gcd(g, h) = 1 modulo one of the first ``tries`` primes of
    ``PRIMES`` that do not divide lc(g), which proves the integer
    polynomials g and h coprime over Q: a common factor keeps its degree
    modulo such a prime, and divides both there.  False proves nothing."""
    primes = [p for p in PRIMES if g[-1] % p][:tries]
    return any(_gcd_degree_p(_mod(g, p), _mod(h, p), p) == 0 for p in primes)


def coprime(g: Ints, h: Ints, tries: int = 2) -> bool:
    """Whether the integer polynomials g and h are coprime over Q: proved
    modulo a prime by ``proves_coprime`` with ``tries``, else decided by
    the degree of their exact gcd in the integers."""
    return proves_coprime(g, h, tries) or univar.degree(univar.gcd(g, h)) == 0


# -- rational roots and the cofactor ----------------------------------------


def _lift_root(g: Ints, r: int, p: int, bound: int) -> tuple[int, int]:
    """A root of g modulo m = p^(2^j) > bound lifted from the simple root r
    mod p, by Newton's iteration; returns (root, m)."""
    dg = [i * c for i, c in enumerate(g)][1:]
    m = p
    while m <= bound:
        m *= m
        r = (r - _eval_mod(g, r, m) * pow(_eval_mod(dg, r, m), -1, m)) % m
    return r, m


def _reconstruct(u: int, m: int, a_max: int, b_max: int) -> Fraction | None:
    """The fraction a/b with a = b u mod m, |a| <= a_max and 0 < b <= b_max,
    or None; unique when m > 2 a_max b_max (Modern Computer Algebra, Thm
    5.26), and read off the first remainder of the extended Euclidean
    algorithm on (m, u) that is at most a_max."""
    r0, r1, t0, t1 = m, u, 0, 1
    while r1 > a_max:
        q = r0 // r1
        r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
    return Fraction(r1, t1) if 0 < abs(t1) <= b_max else None


@lru_cache(maxsize=16)
def _packed_powers(p: int, n: int) -> tuple[int, ...]:
    """T_k for k < n: the residues r^k mod p, r = 0..p-1, in 32-bit slots
    of one integer, slot r at byte 4r of its ``sys.byteorder`` bytes."""
    row, table = [1] * p, []
    for _ in range(n):
        table.append(int.from_bytes(b"".join(v.to_bytes(4, sys.byteorder) for v in row),
                                    sys.byteorder))
        row = [v * r % p for r, v in enumerate(row)]
    return tuple(table)


def _roots_mod_p(g: Ints, p: int) -> list[int]:
    """The roots r = 0..p-1 of g mod p, ascending, read off one packed
    evaluation: slot r of sum_k (g_k mod p) T_k is g(r) mod p up to a
    multiple of p, and below (deg g + 1)(p - 1)^2, so no slot carries into
    the next while that bound is below 2^32.  Past it, g is evaluated by
    Horner at each residue.  The tables are kept for the last few (p, n),
    n the power of 2 above deg g, at least 16."""
    if len(g) * (p - 1) ** 2 >> 32:
        return [r for r in range(p) if not _eval_mod(g, r, p)]
    table = _packed_powers(p, 1 << max(4, (len(g) - 1).bit_length()))
    total = sum((c % p) * t for c, t in zip(g, table))
    slots = memoryview(total.to_bytes(4 * p, sys.byteorder)).cast("I")
    return [r for r, v in enumerate(slots) if not v % p]


def _rational_roots(g: Ints, p: int) -> tuple[list[Fraction], Ints]:
    """The rational roots of g, square-free, primitive, with g(0) != 0 and p
    serving it, and the cofactor left after dividing them out.  Each root
    a/b has b | lc(g), so it reduces to a root of g modulo every prime that
    does not divide lc(g).  So g has none when it has no root mod p, or
    none modulo one of the first ``SIEVE_PRIMES`` such primes of ``PRIMES``
    other than p, and then nothing is lifted.  Otherwise every root mod p,
    ascending, is lifted and reconstructed, and kept when it divides."""
    residues = _roots_mod_p(g, p)
    sieve = islice((q for q in PRIMES if q != p and g[-1] % q), SIEVE_PRIMES)
    if not residues or not all(_roots_mod_p(g, q) for q in sieve):
        return [], g
    bound = 2 * abs(g[0]) * g[-1]
    roots, h = [], g
    for r in residues:
        cand = _reconstruct(*_lift_root(g, r, p, bound), abs(g[0]), g[-1])
        if cand is not None:
            q = univar.divide(h, (-cand.numerator, cand.denominator))
            if q is not None:
                roots.append(cand)
                h = q
    return roots, h


# -- factorization ----------------------------------------------------------


def _factor_low_degree(coeffs: Ints) -> list[tuple[Ints, int]]:
    """Factors of a primitive integer polynomial of degree 1 or 2 with a
    positive leading coefficient."""
    if len(coeffs) == 2:
        return [(coeffs, 1)]
    c0, c1, c2 = coeffs
    disc = c1 * c1 - 4 * c0 * c2
    s = isqrt(disc) if disc >= 0 else -1
    if s * s != disc:
        return [(coeffs, 1)]
    # roots (-c1 -+ s) / (2 c2), each the factor b x - a of a root a/b
    lo, hi = (univar.primitive((c1 + e, 2 * c2)) for e in (-s, s))
    return [(lo, 2)] if not s else [(lo, 1), (hi, 1)]


def _primes() -> Iterator[int]:
    """``PRIMES``, then every later prime, found by trial division."""
    yield from PRIMES
    odd = count(PRIMES[-1] + 2, 2)
    yield from (p for p in odd if all(p % q for q in range(3, isqrt(p) + 1, 2)))


def _split(g: Ints) -> tuple[Sequence[Fraction], Ints] | None:
    """The rational roots of a primitive g with g(0) != 0 and the cofactor
    left after them, by ``_rational_roots`` modulo the first prime of
    ``_primes`` that serves g; None when g is not square-free, which the
    exact gcd(g, g') decides when no listed prime serves g."""
    p = next((p for p in PRIMES if _serves(g, p)), None)
    if p is not None:
        return _rational_roots(g, p)
    if univar.degree(univar.gcd(g, univar.derivative(g))) > 0:
        return None
    return _factor_cached(g)


@lru_cache(maxsize=4096)
def _factor_cached(g: Ints) -> tuple[tuple[Fraction, ...], Ints]:
    """``_split`` of a square-free g that no listed prime serves, modulo the
    first later prime that does."""
    p = next(p for p in islice(_primes(), len(PRIMES), None) if _serves(g, p))
    roots, h = _rational_roots(g, p)
    return tuple(roots), h


def _factor(g: Ints) -> list[tuple[Ints, int]]:
    """``primitive_factors`` of a primitive g with a positive leading
    coefficient and g(0) != 0: for each multiplicity, the rational linear
    factors and the cofactor left after them, from ``_split`` of g or, when
    g is not square-free, of each of Yun's parts."""
    if len(g) <= 3:
        return _factor_low_degree(g) if len(g) > 1 else []
    split = _split(g)
    if split is None:
        return [(fac, e * m) for q, m in univar.yun(g) for fac, e in _factor(q)]
    roots, h = split
    linear = [((-r.numerator, r.denominator), 1) for r in roots]
    return linear + ([(h, 1)] if len(h) > 1 else [])


def _check(g: Ints, factors: list[tuple[Ints, int]]) -> None:
    """Raise CertificateError unless every linear factor's root vanishes on
    g and the factors with multiplicities multiply back to g."""
    for fac, _ in factors:
        if len(fac) == 2 and univar.divide(g, fac) is None:
            raise CertificateError(f"{Fraction(-fac[0], fac[1])} is not a root")
    prod = [1]
    for fac, m in factors:
        for _ in range(m):
            prod = univar.mul(prod, fac)
    if tuple(prod) != g:
        raise CertificateError("the factors do not multiply back to the polynomial")


def primitive_factors(p: Sequence) -> list[tuple[Ints, int]]:
    """The square-free parts of p with their rational points: for each
    multiplicity m, the linear factors b x - a of the rational roots a/b of
    multiplicity m, and one square-free cofactor of degree 2 or more with
    no rational root, the product of the other factors of multiplicity m,
    when there is one.  Each is a primitive integer vector with a positive
    leading coefficient, and they are checked by ``_check``; a root at 0
    gives the factor (0, 1).  The constant is dropped.

    The zero polynomial is rejected; constants factor into nothing.
    """
    q = univar.trim(list(p))
    if not q:
        raise ValueError("factorization of the zero polynomial")
    g = univar.primitive(q)
    k = next(i for i, c in enumerate(g) if c)
    factors = ([((0, 1), k)] if k else []) + _factor(g[k:])
    _check(g, factors)
    return factors


def rational_roots(p: Sequence[Fraction]) -> tuple[list[Fraction], Ints]:
    """The rational roots of a square-free nonzero p, ascending, and the
    cofactor left after them, a primitive integer vector with a positive
    leading coefficient, read off ``primitive_factors``.  A p that is not
    square-free raises ValueError."""
    factors = primitive_factors(p)
    if any(m > 1 for _fac, m in factors):
        raise ValueError("rational roots of a polynomial that is not square-free")
    roots = sorted(Fraction(-fac[0], fac[1]) for fac, _m in factors if len(fac) == 2)
    return roots, next((fac for fac, _m in factors if len(fac) > 2), (1,))
