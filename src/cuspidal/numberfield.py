"""Arithmetic in Q[x]/(m) for an irreducible modulus, and certified algebraic numbers.

A :class:`NumberField` is a simple extension of the rationals; its elements are
polynomial residues with ``fractions.Fraction`` coordinates.  Elements support
field arithmetic (division included, via the extended Euclidean algorithm), so
they can be fed to the generic routines in :mod:`cuspidal.linalg` and
:mod:`cuspidal.univar`.

:class:`AlgebraicNumber` is a reporting vehicle: an irreducible integer minimal
polynomial together with a certified isolating disk for one of its roots.  The
numeric data can be refined to any precision after the fact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd as int_gcd
from typing import Sequence

import mpmath

from . import ratfactor, univar
from .binform import PrecisionError, approximate_roots


class NumberFieldError(ValueError):
    pass


def _as_fraction_list(coeffs: Sequence) -> list[Fraction]:
    return univar.trim([Fraction(c) for c in coeffs])


class NumberField:
    """Q[x]/(m) with m monic irreducible of degree >= 2."""

    __slots__ = ("modulus",)

    def __init__(self, modulus: Sequence):
        mod = _as_fraction_list(modulus)
        if univar.degree(mod) < 2:
            raise NumberFieldError("modulus must have degree at least 2")
        mod = univar.monic(mod)
        if not ratfactor.is_irreducible(mod):
            raise NumberFieldError("modulus is reducible over the rationals")
        self.modulus = tuple(mod)

    @property
    def degree(self) -> int:
        return len(self.modulus) - 1

    def element(self, coeffs: Sequence) -> "NFElement":
        vec = _as_fraction_list(coeffs)
        if len(vec) >= len(self.modulus):
            _, vec = univar.divmod_(vec, list(self.modulus))
        vec = vec + [Fraction(0)] * (self.degree - len(vec))
        return NFElement(self, tuple(vec))

    def from_rational(self, value) -> "NFElement":
        return self.element([Fraction(value)])

    @property
    def zero(self) -> "NFElement":
        return self.element([])

    @property
    def one(self) -> "NFElement":
        return self.element([1])

    @property
    def gen(self) -> "NFElement":
        return self.element([0, 1])

    def embeddings(self, precision_bits: int) -> list:
        """Complex roots of the modulus, one per embedding into C."""
        nums = isolate_roots(self.modulus, precision_bits)
        out = []
        for root in nums:
            out.append(root.refine(precision_bits))
        return out

    def __eq__(self, other) -> bool:
        return isinstance(other, NumberField) and self.modulus == other.modulus

    def __hash__(self) -> int:
        return hash(("NumberField", self.modulus))

    def __repr__(self) -> str:
        return f"NumberField({list(self.modulus)!r})"


class NFElement:
    __slots__ = ("field", "coeffs")

    def __init__(self, field: NumberField, coeffs: tuple):
        self.field = field
        self.coeffs = coeffs

    def _coerce(self, other):
        if isinstance(other, NFElement):
            if other.field != self.field:
                raise NumberFieldError("elements of different fields")
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.from_rational(other)
        return None

    def __add__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return NFElement(
            self.field, tuple(a + b for a, b in zip(self.coeffs, rhs.coeffs))
        )

    __radd__ = __add__

    def __neg__(self):
        return NFElement(self.field, tuple(-a for a in self.coeffs))

    def __sub__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return NFElement(
            self.field, tuple(a - b for a, b in zip(self.coeffs, rhs.coeffs))
        )

    def __rsub__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return rhs - self

    def __mul__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        prod = univar.mul(list(self.coeffs), list(rhs.coeffs))
        return self.field.element(prod)

    __rmul__ = __mul__

    def inverse(self) -> "NFElement":
        if not self:
            raise ZeroDivisionError("inverse of zero field element")
        g, s, _ = univar.xgcd(list(self.coeffs), list(self.field.modulus))
        if univar.degree(g) != 0:
            raise NumberFieldError("modulus is not irreducible")
        return self.field.element(univar.scale(s, 1 / g[0]))

    def __truediv__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self * rhs.inverse()

    def __rtruediv__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return rhs * self.inverse()

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        base = self.inverse() if n < 0 else self
        out = self.field.one
        for _ in range(abs(n)):
            out = out * base
        return out

    def __eq__(self, other) -> bool:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self.coeffs == rhs.coeffs

    def __bool__(self) -> bool:
        return any(self.coeffs)

    def __hash__(self) -> int:
        return hash((self.field.modulus, self.coeffs))

    def is_rational(self) -> bool:
        return not any(self.coeffs[1:])

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise NumberFieldError("element is not rational")
        return self.coeffs[0]

    def numeric(self, embedding):
        """Value of the element under one embedding (root of the modulus)."""
        acc = mpmath.mpc(0)
        for c in reversed(self.coeffs):
            acc = acc * embedding + mpmath.mpf(c.numerator) / c.denominator
        return acc

    def __repr__(self) -> str:
        parts = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append(f"{c}*a")
            else:
                parts.append(f"{c}*a^{i}")
        return " + ".join(parts) if parts else "0"


def _mpf_to_fraction(x) -> Fraction:
    sign, man, exp, _ = mpmath.mpf(x)._mpf_
    if man == 0:
        return Fraction(0)
    value = Fraction(man) * Fraction(2) ** exp
    return -value if sign else value


def _primitive_int_coeffs(p: Sequence[Fraction]) -> tuple[int, ...]:
    q = _as_fraction_list(p)
    if not q:
        return ()
    den = 1
    for c in q:
        den = den * c.denominator // int_gcd(den, c.denominator)
    ints = [int(c * den) for c in q]
    g = 0
    for v in ints:
        g = int_gcd(g, abs(v))
    ints = [v // g for v in ints]
    if ints[-1] < 0:
        ints = [-v for v in ints]
    return tuple(ints)


@dataclass(frozen=True)
class AlgebraicNumber:
    """One root of an irreducible integer polynomial, certified by a disk.

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
        """Newton-polish the stored approximation; returns mpf or mpc."""
        poly = [Fraction(c) for c in self.minpoly]
        deriv = univar.derivative(poly)
        with mpmath.workprec(precision_bits + 48):
            if self.is_real:
                z = mpmath.mpf(self.approx_re.numerator) / self.approx_re.denominator
            else:
                z = mpmath.mpc(
                    mpmath.mpf(self.approx_re.numerator) / self.approx_re.denominator,
                    mpmath.mpf(self.approx_im.numerator) / self.approx_im.denominator,
                )
            target = mpmath.mpf(2) ** (-(precision_bits + 8))
            scale = max(mpmath.mpf(1), abs(z))
            for _ in range(precision_bits + 64):
                pv = _poly_eval(poly, z)
                dv = _poly_eval(deriv, z)
                if not dv:
                    raise PrecisionError("derivative vanished during refinement")
                step = pv / dv
                z = z - step
                if abs(step) < target * scale:
                    break
            else:
                raise PrecisionError("root refinement did not converge")
            if self.is_real:
                return +mpmath.mpf(z)
            return +mpmath.mpc(z)

    def to_json(self) -> dict:
        return {
            "minpoly": list(self.minpoly),
            "approx": [str(self.approx_re), str(self.approx_im)],
            "radius": str(self.radius),
            "real": self.is_real,
        }

    def __str__(self) -> str:
        with mpmath.workprec(53):
            z = self.refine(48)
        body = mpmath.nstr(z, 12)
        return f"{body} (root of {_poly_str(self.minpoly)})"


def _poly_eval(poly, z):
    acc = mpmath.mpc(0) if isinstance(z, mpmath.mpc) else mpmath.mpf(0)
    for c in reversed(poly):
        acc = acc * z + mpmath.mpf(c.numerator) / c.denominator
    return acc


def _poly_str(ints: tuple[int, ...]) -> str:
    parts = []
    for i, c in enumerate(ints):
        if not c:
            continue
        if i == 0:
            parts.append(str(c))
        else:
            mag = "" if abs(c) == 1 else f"{abs(c)}*"
            var = "x" if i == 1 else f"x^{i}"
            parts.append(("-" if c < 0 else "") + mag + var)
    out = ""
    for p in parts:
        if not out:
            out = p
        elif p.startswith("-"):
            out += " - " + p[1:]
        else:
            out += " + " + p
    return out or "0"


def isolate_roots(poly: Sequence, precision_bits: int) -> list[AlgebraicNumber]:
    """Certified roots of an irreducible rational polynomial of degree >= 1.

    Returns one :class:`AlgebraicNumber` per complex root.  Disks are pairwise
    disjoint with an eightfold margin, which makes the reality test (imaginary
    part within the disk radius) sound; a quadratic's roots are real exactly
    when its discriminant is positive.  Raises :class:`PrecisionError` when no
    working precision up to eight times the request separates the roots.
    """
    p = _as_fraction_list(poly)
    deg = univar.degree(p)
    if deg < 1:
        raise NumberFieldError("constant polynomial has no roots")
    if not ratfactor.is_irreducible(p):
        raise NumberFieldError("polynomial is reducible; isolate factors separately")
    ints = _primitive_int_coeffs(p)
    if deg == 1:
        root = Fraction(-ints[0], ints[1])
        return [
            AlgebraicNumber(ints, root, Fraction(0), Fraction(0), True)
        ]
    work = max(precision_bits, 64)
    while True:
        got = _try_isolate(ints, work)
        if got is not None:
            return got
        if work >= 8 * max(precision_bits, 64):
            raise PrecisionError(
                "precision insufficient to separate the roots; retry higher"
            )
        work *= 2


def _try_isolate(ints: tuple[int, ...], work: int):
    deg = len(ints) - 1
    poly = [Fraction(c) for c in ints]
    deriv = univar.derivative(poly)
    with mpmath.workprec(work + 64):
        # refined with work guard bits, which a cluster of roots may use up,
        # and rounded once: the stored approximations are the roots rounded
        # to work + 64 bits
        try:
            roots = [+z for z in approximate_roots(poly, 2 * work + 64)]
        except PrecisionError:
            return None
        radii = []
        for z in roots:
            dv = _poly_eval(deriv, mpmath.mpc(z))
            if not dv:
                return None
            radii.append(deg * abs(_poly_eval(poly, mpmath.mpc(z))) / abs(dv))
        for i in range(len(roots)):
            for j in range(i + 1, len(roots)):
                if abs(roots[i] - roots[j]) <= 8 * (radii[i] + radii[j]):
                    return None
        exact_real = ints[1] ** 2 - 4 * ints[0] * ints[2] > 0 if deg == 2 else None
        out = []
        for z, rad in zip(roots, radii):
            zc = mpmath.mpc(z)
            real = abs(zc.imag) <= rad if exact_real is None else exact_real
            re = _mpf_to_fraction(zc.real)
            im = Fraction(0) if real else _mpf_to_fraction(zc.imag)
            out.append(
                AlgebraicNumber(ints, re, im, _mpf_to_fraction(rad) * 2 + Fraction(1, 2**work), real)
            )
        out.sort(key=lambda a: (a.approx_re, a.approx_im))
        return out
