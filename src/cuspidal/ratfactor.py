"""Irreducible factorization of univariate rational polynomials.

Inputs are plain low-to-high coefficient lists.  A polynomial is read as
its primitive integer vector with a positive leading coefficient
(``univar.primitive``), the format of every factor that ``primitive_factors``
returns, and the factorization is proved modulo primes (von zur Gathen and
Gerhard, *Modern Computer Algebra*, 3rd ed.):

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
  exactly.  This finds every rational root.  ``rational_roots`` stops here
  and returns the roots with the cofactor left after them, for callers
  that need no more: a cofactor of degree 2 is then irreducible, and one of
  higher degree is left as it is, with no proof that it does not split
  further.
* Irreducibility (§14.2; Musser, "On the efficiency of a polynomial
  irreducibility test", J. ACM 25, 1978).  The cofactor h left after the
  roots has no factor of degree 1 or deg h - 1.  The degree of any factor of
  h over Q is a sum of degrees of its irreducible factors mod every serving
  prime, found by distinct-degree factorization.  When the sums common to
  the first ``len(PRIMES)`` serving primes leave no proper degree, h is
  irreducible; a cofactor of degree 3 or less needs no prime.
* When a proper degree remains, h is split by Zassenhaus's algorithm
  (§15.6): its factors mod the serving prime with the fewest of them are
  found by Cantor and Zassenhaus's equal-degree split, Hensel-lifted past
  twice the Mignotte bound, and recombined, products of fewer factors
  first, into the factors of h over Z that divide it exactly.

The irreducible factors are checked by explicit raises, which run under
``python -O`` too: every root read off a linear factor must vanish on the
input, and the factors with their multiplicities must multiply back to it.
"""

from __future__ import annotations

import random
import sys
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, count, islice
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


def _divmod_p(a: list[int], b: list[int], p: int) -> tuple[list[int], list[int]]:
    a = [c % p for c in a]
    db = len(b) - 1
    inv = pow(b[-1], -1, p)
    q = [0] * max(len(a) - db, 0)
    for k in range(len(a) - 1 - db, -1, -1):
        c = a[k + db] * inv % p
        q[k] = c
        if c:
            for j, bj in enumerate(b):
                a[k + j] = (a[k + j] - c * bj) % p
    return q, univar.trim(a[:db])


def _rem_p(a: list[int], b: list[int], p: int) -> list[int]:
    """a mod b over F_p, the remainder of ``_divmod_p`` with no quotient
    built."""
    a = [c % p for c in a]
    db = len(b) - 1
    inv = pow(b[-1], -1, p)
    low = b[:db]  # the top coefficient only clears a[k], which is dropped
    for k in range(len(a) - 1, db - 1, -1):
        c = a[k] * inv % p
        if c:
            for j, bj in enumerate(low, k - db):
                a[j] = (a[j] - c * bj) % p
    return univar.trim(a[:db])


def _monic_p(a: list[int], p: int) -> list[int]:
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


def _gcd_p(a: list[int], b: list[int], p: int) -> list[int]:
    """Monic gcd over F_p; a is nonzero."""
    while b:
        a, b = b, _rem_p(a, b, p)
    return _monic_p(a, p)


def _serves(g: Ints, p: int) -> bool:
    """p divides neither the leading coefficient nor the discriminant of g."""
    if g[-1] % p == 0:
        return False
    gp = _mod(g, p)
    return len(_gcd_p(gp, _mod([i * c for i, c in enumerate(gp)][1:], p), p)) == 1


def proves_coprime(g: Ints, h: Ints, tries: int = 2) -> bool:
    """True when gcd(g, h) = 1 modulo one of the first ``tries`` primes of
    ``PRIMES`` that do not divide lc(g), which proves the integer
    polynomials g and h coprime over Q: a common factor keeps its degree
    modulo such a prime, and divides both there.  False proves nothing."""
    primes = [p for p in PRIMES if g[-1] % p][:tries]
    return any(len(_gcd_p(_mod(g, p), _mod(h, p), p)) == 1 for p in primes)


def coprime(g: Ints, h: Ints, tries: int = 2) -> bool:
    """Whether the integer polynomials g and h are coprime over Q: proved
    modulo a prime by ``proves_coprime`` with ``tries``, else decided by
    the degree of their exact gcd in the integers."""
    return proves_coprime(g, h, tries) or univar.degree(univar.gcd(g, h)) == 0


def _powmod_p(a: list[int], e: int, f: list[int], p: int) -> list[int]:
    """a^e mod f over F_p, by square and multiply."""
    acc = [1]
    while e:
        if e & 1:
            acc = _rem_p(univar.mul(acc, a), f, p)
        a = _rem_p(univar.mul(a, a), f, p)
        e >>= 1
    return acc


def _xgcd_p(a: list[int], b: list[int], p: int) -> tuple[list[int], list[int]]:
    """s, t with s a + t b = 1 over F_p, for coprime a and b."""
    r0, r1, s0, s1, t0, t1 = a, b, [1], [], [], [1]
    while r1:
        q, r = _divmod_p(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _mod(univar.sub(s0, univar.mul(q, s1)), p)
        t0, t1 = t1, _mod(univar.sub(t0, univar.mul(q, t1)), p)
    inv = pow(r0[0], -1, p)
    return [c * inv % p for c in s0], [c * inv % p for c in t0]


def _distinct_degree(f: list[int], p: int) -> list[tuple[list[int], int]]:
    """Distinct-degree factorization (Modern Computer Algebra, Alg. 14.3) of
    a monic f, square-free mod p: pairs (g, i) where g is the monic product
    of the irreducible factors of degree i."""
    out, x, w, i = [], [0, 1], [0, 1], 0
    while len(f) - 1 >= 2 * (i + 1):
        i += 1
        w = _powmod_p(w, p, f, p)  # x^(p^i) mod f
        g = _gcd_p(f, _mod(univar.sub(w, x), p), p)
        if len(g) > 1:
            out.append((g, i))
            f = _divmod_p(f, g, p)[0]
            w = _rem_p(w, f, p)
    if len(f) > 1:
        out.append((f, len(f) - 1))
    return out


def _degree_sums(ddf: list[tuple[list[int], int]]) -> int:
    """Bitmask of the degrees of the products of irreducible factors mod p
    (bit k for degree k), read off a distinct-degree factorization."""
    sums = 1
    for g, i in ddf:
        for _ in range((len(g) - 1) // i):
            sums |= sums << i
    return sums


def _equal_degree(g: list[int], i: int, p: int, rng: random.Random) -> list[list[int]]:
    """The monic irreducible factors, all of degree i, of a monic g over
    F_p, p odd, by Cantor and Zassenhaus's split (Alg. 14.8)."""
    if len(g) - 1 == i:
        return [g]
    while True:
        a = _mod([rng.randrange(p) for _ in range(len(g) - 1)], p)
        if len(a) < 2:
            continue
        h = _gcd_p(g, _mod(univar.sub(_powmod_p(a, (p**i - 1) // 2, g, p), [1]), p), p)
        if 1 < len(h) < len(g):
            rest = _divmod_p(g, h, p)[0]
            return _equal_degree(h, i, p, rng) + _equal_degree(rest, i, p, rng)


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


def _lift_factor(h: Ints, u: list[int], p: int, bound: int) -> tuple[list[int], int]:
    """The monic factor of h modulo m = p^(2^j) > bound that reduces to u,
    a monic factor of h mod p coprime to its cofactor, by quadratic Hensel
    lifting (Alg. 15.10); returns (factor, m)."""
    g = _divmod_p(_mod(h, p), u, p)[0]
    s, t = _xgcd_p(g, u, p)
    m = p
    while m <= bound:
        # from h = g u and s g + t u = 1 mod m to the same mod m^2
        m *= m
        e = _mod(univar.sub(h, univar.mul(g, u)), m)
        q, r = _divmod_p(univar.mul(s, e), u, m)
        g = _mod(univar.add(univar.add(g, univar.mul(t, e)), univar.mul(q, g)), m)
        u = _mod(univar.add(u, r), m)
        b = _mod(univar.sub(univar.add(univar.mul(s, g), univar.mul(t, u)), [1]), m)
        c, d = _divmod_p(univar.mul(s, b), u, m)
        s = _mod(univar.sub(s, d), m)
        t = _mod(univar.sub(t, univar.add(univar.mul(t, b), univar.mul(c, g))), m)
    return u, m


def _zassenhaus(
    h: Ints, p: int, ddf: list[tuple[list[int], int]], sums: int
) -> list[tuple[Ints, int]]:
    """The irreducible factors of a square-free primitive h that p serves,
    from the distinct-degree factorization ddf of h mod p, by Zassenhaus's
    algorithm (Alg. 15.19).  A factor g of h over Z, scaled to the leading
    coefficient of h, has coefficients below lc(h) 2^n |h|_2 (Mignotte), so
    it is the symmetric residue of lc(h) times a product of the factors
    lifted mod m > twice that.  Products are tried by the number of their
    factors, and only at the degrees that the bitmask ``sums`` leaves."""
    rng = random.Random(p)
    mods = [u for g, i in ddf for u in _equal_degree(g, i, p, rng)]
    bound = 2 * h[-1] * (isqrt(sum(c * c for c in h)) + 1) << (len(h) - 1)
    lifted = [_lift_factor(h, u, p, bound) for u in mods]
    mods, m = [u for u, _ in lifted], lifted[0][1]
    out, k = [], 1
    while 2 * k <= len(mods):
        for subset in combinations(range(len(mods)), k):
            if not sums >> sum(len(mods[i]) - 1 for i in subset) & 1:
                continue
            g = [h[-1]]
            for i in subset:
                g = _mod(univar.mul(g, mods[i]), m)
            g = univar.primitive([c - m if 2 * c > m else c for c in g])
            q = univar.divide(h, g)
            if q is not None:
                out.append((g, 1))
                h = q
                mods = [u for i, u in enumerate(mods) if i not in subset]
                break
        else:
            k += 1
    return out + [(h, 1)]


def _cofactor_factors(h: Ints) -> list[tuple[Ints, int]]:
    """Factors of a square-free primitive h of degree 2 or more with no
    rational root: h itself when the degree patterns mod its first
    ``len(PRIMES)`` serving primes of ``_primes`` prove it irreducible, else
    Zassenhaus's split modulo the one of them with the fewest factors."""
    n = len(h) - 1
    full = 1 | 1 << n
    sums = ((1 << (n + 1)) - 1) & ~(2 | 1 << (n - 1))  # no factor of degree 1 or n-1
    serving = islice((p for p in _primes() if _serves(h, p)), len(PRIMES))
    best = None
    while sums != full:
        p = next(serving, None)
        if p is None:
            return _zassenhaus(h, *best[1:], sums)
        ddf = _distinct_degree(_monic_p(_mod(h, p), p), p)
        sums &= _degree_sums(ddf)
        nfactors = sum((len(g) - 1) // i for g, i in ddf)
        if best is None or nfactors < best[0]:
            best = (nfactors, p, ddf)
    return [(h, 1)]


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
    """Primitive factors with multiplicities of a primitive g with a positive
    leading coefficient and g(0) != 0."""
    if len(g) <= 3:
        return _factor_low_degree(g) if len(g) > 1 else []
    split = _split(g)
    if split is None:
        return [(fac, e * m) for q, m in univar.yun(g) for fac, e in _factor(q)]
    roots, h = split
    linear = [((-r.numerator, r.denominator), 1) for r in roots]
    return linear + (_cofactor_factors(h) if len(h) > 1 else [])


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
    """Irreducible factors with multiplicities, each a primitive integer
    vector with a positive leading coefficient, checked by ``_check``; a
    root at 0 gives the factor (0, 1).  The constant is dropped.

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
    leading coefficient.  Nothing is proved about the cofactor beyond its
    having no rational root: of degree 2 it is irreducible, above that it
    may split.  The roots come from the closed form in degrees 1 and 2 and
    from ``_split`` above them.  A p that is not square-free raises
    ValueError."""
    q = univar.trim(list(p))
    if not q:
        raise ValueError("rational roots of the zero polynomial")
    g = univar.primitive(q)
    k = next(i for i, c in enumerate(g) if c)
    h = g[k:]
    if len(h) > 3:
        split = _split(h)
    else:
        factors = _factor(h)
        roots = [Fraction(-fac[0], fac[1]) for fac, _ in factors if len(fac) == 2]
        split = (roots, (1,) if roots else h) if all(m == 1 for _, m in factors) else None
    if k > 1 or split is None:
        raise ValueError("rational roots of a polynomial that is not square-free")
    roots, h = split
    return sorted([*roots, *[Fraction(0)] * k]), h
