"""Dense univariate polynomials, kept in primitive integers.

Coefficient lists run from degree 0 upward and are kept trimmed (no trailing
zeros; the zero polynomial is the empty list).  ``sub``, ``mul`` and
``derivative`` take the entries of any ring, residues modulo a prime
included.  The exact routines work in one format, the primitive integer
vector with a positive leading coefficient that ``primitive`` gives: a
rational polynomial is read as its primitive part, and by Gauss's lemma the
quotient of an integer polynomial by a primitive divisor over Q is integral
(von zur Gathen and Gerhard, *Modern Computer Algebra*, §6.12), so
``divide``, ``gcd`` and ``yun`` never leave the integers.
"""

from __future__ import annotations

from typing import Sequence

from . import linalg

Ints = tuple[int, ...]


def trim(p: Sequence) -> list:
    q = list(p)
    while q and not q[-1]:
        q.pop()
    return q


def degree(p: Sequence) -> int:
    q = trim(p)
    return len(q) - 1


def sub(p: Sequence, q: Sequence) -> list:
    out = list(p) + [0] * (len(q) - len(p))
    for i, c in enumerate(q):
        out[i] = out[i] - c
    return trim(out)


def mul(p: Sequence, q: Sequence) -> list:
    p, q = trim(p), trim(q)
    if not p or not q:
        return []
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if not a:
            continue
        for j, b in enumerate(q):
            out[i + j] = out[i + j] + a * b
    return trim(out)


def derivative(p: Sequence) -> list:
    return trim([c * i for i, c in enumerate(p)][1:])


def primitive(p: Sequence) -> Ints:
    """The rational polynomial p scaled to a primitive integer vector with a
    positive leading coefficient; () for the zero polynomial."""
    q = trim(p)
    if not q:
        return ()
    ints = linalg.canonical_vector(q)
    return tuple(-c for c in ints) if ints[-1] < 0 else ints


def divide(g: Sequence[int], d: Sequence[int]) -> Ints | None:
    """g / d for integer polynomials g and d, d nonzero, or None when the
    quotient is not an integer polynomial; for a primitive d that is when d
    does not divide g over Q."""
    g, dd = trim(g), len(d) - 1
    q = [0] * max(len(g) - dd, 0)
    for k in range(len(q) - 1, -1, -1):
        q[k], rem = divmod(g[k + dd], d[-1])
        if rem:
            return None
        if q[k]:
            for j, c in enumerate(d):
                g[k + j] -= q[k] * c
    return tuple(q) if not any(g[:dd]) else None


def div_exact(g: Sequence[int], d: Sequence[int]) -> Ints:
    """``divide``, for a d known to divide g; raises ArithmeticError, also
    under ``python -O``, when it does not."""
    q = divide(g, d)
    if q is None:
        raise ArithmeticError("inexact polynomial division")
    return q


def gcd(p: Sequence, q: Sequence) -> Ints:
    """Primitive gcd of two rational polynomials, with a positive leading
    coefficient, by the primitive pseudo-remainder sequence in the
    integers; () when both are zero."""
    a, b = primitive(p), primitive(q)
    while b:
        while len(a) >= len(b):  # a <- lc(b)^k a mod b
            c, k = a[-1], len(a) - len(b)
            a = [x * b[-1] for x in a]
            for j, y in enumerate(b):
                a[k + j] -= c * y
            a = trim(a)
        a, b = b, primitive(a)
    return a


def yun(p: Sequence) -> list[tuple[Ints, int]]:
    """Square-free decomposition (Yun, characteristic 0) of a rational
    polynomial, in primitive integers.

    Returns [(g_i, m_i), ...] with p = const * prod g_i**m_i, the g_i
    primitive with positive leading coefficients, square-free, pairwise
    coprime, deg g_i >= 1.  Every quotient is by a primitive gcd, so it is
    integral, and ``div_exact`` raises if it is not.
    """
    p = primitive(p)
    if degree(p) <= 0:
        return []
    dp = derivative(p)
    g = gcd(p, dp)
    w = div_exact(p, g)
    z = sub(div_exact(dp, g), derivative(w))
    out: list[tuple[Ints, int]] = []
    i = 1
    while degree(w) > 0:
        gi = gcd(w, z)
        if degree(gi) > 0:
            out.append((gi, i))
        w = div_exact(w, gi)
        z = sub(div_exact(z, gi), derivative(w))
        i += 1
    return out
