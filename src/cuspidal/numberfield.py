"""Quadratic number fields in closed form, and quadratic algebraic numbers.

Every algebraic number the package meets is rational or quadratic: a special
lambda of the fiber pencil is a root of a polynomial of degree at most 2, and
a decomposition is exact over a number field only when one irreducible
quadratic factor of the witness remains.  So the arithmetic is that of
Q(gamma) with gamma^2 = -p gamma - q, and the roots have a closed form.

:class:`QuadraticNumber` is an element a + b gamma with ``fractions.Fraction``
coordinates.  Products use the rule for gamma^2, and the inverse is the
conjugate over the norm, so elements can be fed to the generic routines in
:mod:`cuspidal.univar` and to the residue formula of :mod:`cuspidal.apolarity`.

:class:`AlgebraicNumber` names a quadratic irrational exactly: its
primitive integer minimal polynomial and the branch of the quadratic
formula.  The root is evaluated to any precision by that closed form, on
demand; no disk and no precision choice stands between the name and the
number.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import mpmath

from . import linalg, ratfactor, univar


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
    """A root of an irreducible quadratic, named exactly by its minimal
    polynomial and a branch of the quadratic formula.

    ``minpoly`` is (c, b, a) for c + b x + a x^2, scaled on construction to
    primitive integers with a > 0.  ``upper`` names the larger real root, or
    the one with positive imaginary part; the other root otherwise.  An
    irreducible quadratic has a nonzero discriminant, so the two branches
    are distinct and the name needs no isolating disk.
    """

    minpoly: tuple[int, int, int]
    upper: bool

    def __post_init__(self) -> None:
        poly = univar.trim([Fraction(c) for c in self.minpoly])
        if len(poly) != 3:
            raise NumberFieldError("an algebraic number here is a root of a quadratic")
        ints = linalg.canonical_vector(poly)
        object.__setattr__(self, "minpoly", ints if ints[-1] > 0 else tuple(-c for c in ints))

    def value(self, bits: int):
        """The root rounded to bits + 48 bits, from the closed form; returns
        mpf or mpc."""
        return _quadratic_root(self.minpoly, self.upper, bits + 48)

    def to_json(self) -> dict:
        """The exact name, with the root to 20 significant digits for
        reading."""
        z = self.value(64)
        return {
            "minpoly": list(self.minpoly),
            "branch": "upper" if self.upper else "lower",
            "approx": [mpmath.nstr(z.real, 20), mpmath.nstr(z.imag, 20)],
        }
