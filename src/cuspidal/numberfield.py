"""Quadratic number fields in closed form, and certified algebraic numbers.

Every algebraic number the package meets is rational or quadratic: a special
lambda of the fiber pencil is a root of a polynomial of degree at most 2, and
a decomposition is exact over a number field only when one irreducible
quadratic factor of the witness remains.  So the arithmetic is that of
Q(gamma) with gamma^2 = -p gamma - q, and the roots have a closed form.

:class:`QuadraticNumber` is an element a + b gamma with ``fractions.Fraction``
coordinates.  Products use the rule for gamma^2, and the inverse is the
conjugate over the norm, so elements can be fed to the generic routines in
:mod:`cuspidal.univar` and to the residue formula of :mod:`cuspidal.apolarity`.

:class:`AlgebraicNumber` is a reporting vehicle: an irreducible integer
polynomial of degree 1 or 2 together with a certified isolating disk for one
of its roots.  The disk is proved by exact rational tests, and the root can
be evaluated to any precision after the fact by the quadratic formula.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil
from typing import Sequence

import mpmath

from . import linalg, ratfactor, univar
from .binform import PrecisionError, _exact_value


class NumberFieldError(ValueError):
    pass


def _field_op(op):
    """A binary operator of QuadraticNumber whose other operand is an
    element of the same field, or an int or Fraction lifted into it."""

    def method(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.lift(other)
        elif not isinstance(other, QuadraticNumber):
            return NotImplemented
        elif (other.p, other.q) != (self.p, self.q):
            raise NumberFieldError("elements of different fields")
        return op(self, other)

    return method


class QuadraticNumber:
    """a + b gamma in Q(gamma), where gamma is a root of the irreducible
    x^2 + p x + q."""

    __slots__ = ("a", "b", "p", "q")

    def __init__(self, a: Fraction, b: Fraction, p: Fraction, q: Fraction):
        self.a = a
        self.b = b
        self.p = p
        self.q = q

    @classmethod
    def generator(cls, modulus: Sequence) -> "QuadraticNumber":
        """gamma for the modulus given low to high; raises NumberFieldError
        unless it is an irreducible quadratic."""
        mod = univar.trim([Fraction(c) for c in modulus])
        if len(mod) != 3 or not ratfactor.is_irreducible(mod):
            raise NumberFieldError("modulus must be an irreducible quadratic")
        return cls(Fraction(0), Fraction(1), mod[1] / mod[2], mod[0] / mod[2])

    @property
    def modulus(self) -> tuple[Fraction, Fraction, Fraction]:
        """The monic minimal polynomial of gamma, low to high."""
        return (self.q, self.p, Fraction(1))

    def lift(self, value) -> "QuadraticNumber":
        """A rational as an element of this field."""
        return QuadraticNumber(Fraction(value), Fraction(0), self.p, self.q)

    def _product(self, other):
        # (a + b g)(c + e g) = ac - q be + (ae + bc - p be) g, as g^2 = -p g - q
        be = self.b * other.b
        return QuadraticNumber(
            self.a * other.a - self.q * be,
            self.a * other.b + self.b * other.a - self.p * be,
            self.p,
            self.q,
        )

    __add__ = __radd__ = _field_op(
        lambda x, y: QuadraticNumber(x.a + y.a, x.b + y.b, x.p, x.q)
    )
    __sub__ = _field_op(lambda x, y: QuadraticNumber(x.a - y.a, x.b - y.b, x.p, x.q))
    __rsub__ = _field_op(lambda x, y: y - x)
    __mul__ = __rmul__ = _field_op(_product)
    __truediv__ = _field_op(lambda x, y: x * y.inverse())
    __rtruediv__ = _field_op(lambda x, y: y * x.inverse())
    __eq__ = _field_op(lambda x, y: (x.a, x.b) == (y.a, y.b))

    def __neg__(self):
        return QuadraticNumber(-self.a, -self.b, self.p, self.q)

    def conjugate(self) -> "QuadraticNumber":
        """The image under gamma -> -p - gamma, the other root."""
        return QuadraticNumber(self.a - self.p * self.b, -self.b, self.p, self.q)

    def norm(self) -> Fraction:
        """The element times its conjugate, a rational: a^2 - p a b + q b^2."""
        return self.a * self.a - self.p * self.a * self.b + self.q * self.b * self.b

    def inverse(self) -> "QuadraticNumber":
        """The conjugate over the norm; the norm of a nonzero element is
        nonzero because the modulus is irreducible."""
        if not self:
            raise ZeroDivisionError("inverse of zero field element")
        n = self.norm()
        conj = self.conjugate()
        return QuadraticNumber(conj.a / n, conj.b / n, self.p, self.q)

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        base = self.inverse() if n < 0 else self
        out = self.lift(1)
        for _ in range(abs(n)):
            out = out * base
        return out

    def __bool__(self) -> bool:
        return bool(self.a) or bool(self.b)

    def __hash__(self) -> int:
        return hash((self.p, self.q, self.a, self.b))

    def is_rational(self) -> bool:
        return not self.b

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise NumberFieldError("element is not rational")
        return self.a

    def numeric(self, embedding):
        """Value of the element under one embedding (root of the modulus)."""
        b = mpmath.mpf(self.b.numerator) / self.b.denominator
        return mpmath.mpc(b) * embedding + mpmath.mpf(self.a.numerator) / self.a.denominator

    def __repr__(self) -> str:
        parts = [f"{c}{var}" for c, var in ((self.a, ""), (self.b, "*a")) if c]
        return " + ".join(parts) if parts else "0"


def _quadratic_root(ints: tuple[int, ...], upper: bool, bits: int):
    """One root of the irreducible c + b x + a x^2 (``ints`` = (c, b, a),
    a > 0) by the quadratic formula at 2 * bits bits, rounded to ``bits``:
    the larger real root, or the one with positive imaginary part, when
    ``upper``, and the other one otherwise.  Returns mpf or mpc."""
    c, b, a = ints
    disc = b * b - 4 * a * c
    with mpmath.workprec(2 * bits):
        if disc < 0:
            half = mpmath.sqrt(-disc) / (2 * a)
            z = mpmath.mpc(mpmath.mpf(-b) / (2 * a), half if upper else -half)
        else:
            # q = -(b + sign(b) sqrt(disc)) / 2 adds two terms of one sign,
            # so neither root q / a nor c / q suffers cancellation
            s = mpmath.sqrt(disc)
            q = -(b + s) / 2 if b >= 0 else (s - b) / 2
            lo, hi = sorted((q / a, c / q))
            z = hi if upper else lo
    with mpmath.workprec(bits):
        return +z


@dataclass(frozen=True)
class AlgebraicNumber:
    """One root of an irreducible integer polynomial of degree 1 or 2,
    certified by a disk.

    ``approx_re + i*approx_im`` lies within ``radius`` of the root, and the
    disk contains no other root of ``minpoly``.
    """

    minpoly: tuple[int, ...]
    approx_re: Fraction
    approx_im: Fraction
    radius: Fraction
    is_real: bool

    @property
    def degree(self) -> int:
        return len(self.minpoly) - 1

    def refine(self, precision_bits: int):
        """The root rounded to precision_bits + 48 bits, from the closed
        form; returns mpf or mpc.  The disk says which root of a quadratic
        it is: the side of the midpoint -b/2a for a real pair, the sign of
        the imaginary part for a conjugate pair."""
        bits = precision_bits + 48
        if self.degree == 1:
            c0, c1 = self.minpoly
            with mpmath.workprec(bits):
                return mpmath.mpf(-c0) / c1
        _, b, a = self.minpoly
        upper = self.approx_re > Fraction(-b, 2 * a) if self.is_real else self.approx_im > 0
        return _quadratic_root(self.minpoly, upper, bits)

    def to_json(self) -> dict:
        return {
            "minpoly": list(self.minpoly),
            "approx": [str(self.approx_re), str(self.approx_im)],
            "radius": str(self.radius),
            "real": self.is_real,
        }


def isolate_roots(poly: Sequence, precision_bits: int) -> list[AlgebraicNumber]:
    """Certified roots of an irreducible rational polynomial of degree 1 or 2.

    Returns one :class:`AlgebraicNumber` per complex root, the lower root
    first (the smaller real root, or the one with negative imaginary part).
    A quadratic's roots are real exactly when its discriminant is positive.
    Each approximation is the closed-form root rounded to work + 64 bits,
    with work = max(precision_bits, 64), and its radius is 2^(e - work) for
    the least e >= 0 with |re| + |im| <= 2^e.  Exact rational tests prove
    each disk: a sign change of the polynomial across a real disk, and for
    a conjugate pair |re + b/2a| + |im - y0| <= radius with y0^2 = -D/4a^2
    compared through squares.  The disks are disjoint with an eightfold
    margin: (8 (radius1 + radius2))^2 < |D| / a^2.  A failed test doubles
    work; PrecisionError is raised beyond eight times the request.
    NumberFieldError is raised for a constant, reducible or higher-degree
    input.
    """
    p = univar.trim([Fraction(c) for c in poly])
    if len(p) < 2:
        raise NumberFieldError("constant polynomial has no roots")
    if len(p) > 3:
        raise NumberFieldError("only polynomials of degree 1 or 2 are isolated")
    if not ratfactor.is_irreducible(p):
        raise NumberFieldError("polynomial is reducible; isolate factors separately")
    ints = linalg.canonical_vector(p)
    if ints[-1] < 0:
        ints = tuple(-c for c in ints)
    if len(ints) == 2:
        root = Fraction(-ints[0], ints[1])
        return [AlgebraicNumber(ints, root, Fraction(0), Fraction(0), True)]
    base = max(precision_bits, 64)
    for work in (base, 2 * base, 4 * base, 8 * base):
        got = _isolate_quadratic(ints, work)
        if got is not None:
            return got
    raise PrecisionError("precision insufficient to separate the roots; retry higher")


def _isolate_quadratic(ints: tuple[int, ...], work: int):
    """Both roots with proved disks at this work precision, or None when a
    test fails."""
    c, b, a = ints
    disc = b * b - 4 * a * c
    out = []
    for upper in (False, True):
        z = _quadratic_root(ints, upper, work + 64)
        re = _exact_value(z.real)
        im = Fraction(0) if disc > 0 else _exact_value(z.imag)
        scale = max(1, ceil(abs(re) + abs(im)))
        radius = Fraction(2) ** ((scale - 1).bit_length() - work)
        out.append(AlgebraicNumber(ints, re, im, radius, disc > 0))
    if (8 * (out[0].radius + out[1].radius)) ** 2 * a * a >= abs(disc):
        return None
    mid = Fraction(-b, 2 * a)
    for root in out:
        x, rho = root.approx_re, root.radius
        if disc > 0:
            # one sign change across [x - rho, x + rho]: exactly one root inside
            lo, hi = (c + b * t + a * t * t for t in (x - rho, x + rho))
            if not lo * hi < 0:
                return None
        else:
            # |x - mid| + |y - y0| <= rho, with the root's imaginary part
            # y0 = sqrt(-disc) / 2a compared through squares
            slack = rho - abs(x - mid)
            y, y0_sq = abs(root.approx_im), Fraction(-disc, 4 * a * a)
            if slack < 0 or (y + slack) ** 2 < y0_sq:
                return None
            if y > slack and (y - slack) ** 2 > y0_sq:
                return None
    return out
