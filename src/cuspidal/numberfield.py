"""Quadratic algebraic numbers, named in closed form.

Every algebraic number the package meets is rational or quadratic: a special
lambda of the fiber pencil is a root of a polynomial of degree at most 2, and
a decomposition is exact over a number field only when one irreducible
quadratic factor of the witness remains, whose pair of roots
``apolarity._decompose_exact`` certifies in rationals.

:class:`AlgebraicNumber` names a quadratic irrational exactly: its
primitive integer minimal polynomial and the branch of the quadratic
formula.  The root is evaluated to any precision by that closed form, on
demand; no disk and no precision choice stands between the name and the
number.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import univar


class NumberFieldError(ValueError):
    pass


def _quadratic_root(ints: tuple[int, ...], upper: bool, bits: int):
    """One root of the irreducible c + b x + a x^2 (``ints`` = (c, b, a),
    a > 0) by the quadratic formula at 2 * bits bits, rounded to ``bits``:
    the larger real root, or the one with positive imaginary part, when
    ``upper``, and the other one otherwise.  Returns mpf or mpc."""
    import mpmath

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
        ints = univar.primitive(self.minpoly)
        if len(ints) != 3:
            raise NumberFieldError("an algebraic number here is a root of a quadratic")
        object.__setattr__(self, "minpoly", ints)

    def value(self, bits: int):
        """The root rounded to bits + 48 bits, from the closed form; returns
        mpf or mpc."""
        return _quadratic_root(self.minpoly, self.upper, bits + 48)

    def to_json(self) -> dict:
        """The exact name, with the root to 20 significant digits for
        reading."""
        import mpmath

        z = self.value(64)
        return {
            "minpoly": list(self.minpoly),
            "branch": "upper" if self.upper else "lower",
            "approx": [mpmath.nstr(z.real, 20), mpmath.nstr(z.imag, 20)],
        }
