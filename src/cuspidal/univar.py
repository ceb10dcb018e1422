"""Dense univariate polynomial arithmetic over exact fields.

Coefficient lists run from degree 0 upward and are kept trimmed (no trailing
zeros; the zero polynomial is the empty list).  Entries may be
``int``, ``fractions.Fraction`` or any exact field type implementing
``+ - * /``, equality and truthiness; the needed 0 and 1 elements are derived
from the inputs, so no field object is threaded through.  Every division goes
through :func:`quo`, so integer inputs stay exact.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from . import linalg


def quo(a, b):
    """Exact a / b.  Two ints give an int when b divides a and a Fraction
    otherwise; any other pair divides as its own type defines."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        return Fraction(a, b) if r else q
    return a / b


def trim(p: Sequence) -> list:
    q = list(p)
    while q and not q[-1]:
        q.pop()
    return q


def is_zero(p: Sequence) -> bool:
    return all(not c for c in p)


def degree(p: Sequence) -> int:
    q = trim(p)
    return len(q) - 1


def add(p: Sequence, q: Sequence) -> list:
    if len(p) < len(q):
        p, q = q, p
    out = list(p)
    for i, c in enumerate(q):
        out[i] = out[i] + c
    return trim(out)


def neg(p: Sequence) -> list:
    return [-c for c in p]


def sub(p: Sequence, q: Sequence) -> list:
    return add(p, neg(q))


def mul(p: Sequence, q: Sequence) -> list:
    p, q = trim(p), trim(q)
    if not p or not q:
        return []
    zero = p[0] - p[0]
    out = [zero] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if not a:
            continue
        for j, b in enumerate(q):
            out[i + j] = out[i + j] + a * b
    return trim(out)


def divmod_(p: Sequence, q: Sequence) -> tuple[list, list]:
    """Polynomial division with remainder; q must be nonzero."""
    p, q = trim(p), trim(q)
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    zero = q[-1] - q[-1]
    rem = list(p)
    if len(rem) < len(q):
        return [], trim(rem)
    quot = [zero] * (len(rem) - len(q) + 1)
    lead = q[-1]
    for k in range(len(rem) - len(q), -1, -1):
        c = rem[k + len(q) - 1]
        if not c:
            continue
        c = quo(c, lead)
        quot[k] = c
        for j, b in enumerate(q):
            rem[k + j] = rem[k + j] - c * b
    return trim(quot), trim(rem)


def div_exact(p: Sequence, q: Sequence) -> list:
    quot, rem = divmod_(p, q)
    if rem:
        raise ArithmeticError("inexact polynomial division")
    return quot


def monic(p: Sequence) -> list:
    p = trim(p)
    if not p:
        return []
    lead = p[-1]
    return [quo(c, lead) for c in p]


def _primitive(p: Sequence) -> list:
    return list(linalg.canonical_vector(p)) if p else []


def _integer_gcd(p: Sequence, q: Sequence) -> list:
    """Primitive gcd of two rational polynomials by the primitive
    pseudo-remainder sequence, in the integers (von zur Gathen and Gerhard,
    *Modern Computer Algebra*, §6.12)."""
    a, b = _primitive(trim(p)), _primitive(trim(q))
    while b:
        while len(a) >= len(b):  # a <- lc(b)^k a mod b
            c, k = a[-1], len(a) - len(b)
            a = [x * b[-1] for x in a]
            for j, y in enumerate(b):
                a[k + j] -= c * y
            a = trim(a)
        a, b = b, _primitive(a)
    return a


def gcd(p: Sequence, q: Sequence) -> list:
    """Monic gcd of two rational polynomials, taken in the integers."""
    return monic(_integer_gcd(p, q))


def derivative(p: Sequence) -> list:
    return trim([c * i for i, c in enumerate(p)][1:])


def yun(p: Sequence) -> list[tuple[list, int]]:
    """Square-free decomposition (Yun, characteristic 0) of a rational
    polynomial.

    Returns [(g_i, m_i), ...] with p = const * prod g_i**m_i, the g_i monic,
    square-free, pairwise coprime, deg g_i >= 1.  It runs on primitive
    integer polynomials, whose quotients by primitive divisors are integral
    (Gauss's lemma).
    """
    p = _primitive(trim(p))
    if degree(p) <= 0:
        return []
    dp = derivative(p)
    g = _integer_gcd(p, dp)
    w = div_exact(p, g)
    z = sub(div_exact(dp, g), derivative(w))
    out: list[tuple[list, int]] = []
    i = 1
    while degree(w) > 0:
        gi = _integer_gcd(w, z)
        if degree(gi) > 0:
            out.append((monic(gi), i))
        w = div_exact(w, gi)
        z = sub(div_exact(z, gi), derivative(w))
        i += 1
    return out
