"""Replaced routes, kept as independent oracles for the ones in the package.

* ``nullspace`` and ``_bareiss``: the exact kernel of a matrix by
  fraction-free (Bareiss) elimination and back-substitution in integers,
  once ``linalg.nullspace``.  Every kernel of the package came to be read
  off the structure the mathematics gives, the last being the moment rows
  of the span search, whose kernel ``oracle._moment_seeds`` reads off the
  apolar ideal of B''.  ``nullspace`` backs ``linalg.free_column_basis``,
  which gives its basis from kernel vectors known in advance, and every
  kernel built from them.
* ``nullspace_plain``: textbook Gauss-Jordan over Fraction, against the
  integer Bareiss kernel of ``nullspace``.  It also gives the unit
  vectors of an empty matrix with a given column count, which
  ``nullspace`` refuses.
* ``span_matrix`` and ``scheme_span_basis``: the instance generator once
  built the span of a scheme W by multiplying W out, writing the matrix of
  the contraction by the product form and taking its Bareiss kernel.  They
  back ``classifier._osculating``, whose osculating vectors of W's points
  give the same basis through ``linalg.free_column_basis``.
* ``in_span``: span membership by one Bareiss elimination of the spanning
  vectors, the target reduced against the echelon rows.  The classifier
  once decided every span test this way; it backs the contraction by the
  product form in ``classifier``.
* ``QuadraticNumber``: exact arithmetic in Q(gamma), where
  gamma^2 = -p gamma - q and the inverse is the conjugate over the norm.  Quadratic
  decompositions once ran the residue formula and their reconstruction
  check in this field.  It backs the closed form of the conjugate pair's
  scalar in ``apolarity._decompose_exact``, which is checked in rationals,
  and it is the field of ``rank_field``, ``nullspace_field`` and
  ``field_lift``.
* ``rank_field`` and ``nullspace_field``: Gaussian elimination over any
  exact field, the quadratic fields of ``QuadraticNumber`` included.
* ``field_divmod``, ``field_div_exact``, ``field_monic`` and ``is_zero``:
  the generic-field layer that ``univar`` kept for any exact field type
  (``divmod_``, ``div_exact``, ``monic``, ``is_zero``) before it worked in
  primitive integers alone.  ``euclid_gcd``, ``fraction_yun``,
  ``discriminant_field_certificate`` and the Bareiss helpers over
  Fraction of ``test_projection.py`` divide with it, in Fractions and in
  the quadratic fields of ``QuadraticNumber``.
* ``euclid_gcd``: the Euclidean algorithm over any exact field, which
  ``univar.gcd`` ran on Fractions before it moved to the primitive
  pseudo-remainder sequence in the integers.  Made primitive, it backs
  ``univar.gcd``.
* ``fraction_yun``: Yun's square-free decomposition with monic gcds and
  Fraction quotients, which ``univar.yun`` returned before it divided in
  integers by ``univar.div_exact``.  Made primitive, its factors back
  those of ``univar.yun``.
* ``scheme_parts``: the monic Fraction view of
  ``ratfactor.primitive_factors``, sorted by (length, coefficients), once
  public in ``ratfactor`` as ``irreducible_factors`` though the pencil's
  special values were its only caller in the package.  It gives
  ``sympy_factors``'s format to the comparisons of ``test_ratfactor.py``.
* ``special_lambdas`` and ``monic_special_values``: the special lambda of
  one level as a list, once public in ``projection`` only because the
  benchmark's tracer named it; and the special values as
  ``_Pencil.special_values`` once found them, from the monic gcd over
  Fraction and ``scheme_parts``.  The second backs
  ``_Pencil.special_values``, which reads the roots of the integer gcd or
  determinant off the closed form ``ratfactor._factor_low_degree``.
* ``field_rank_certificate``: before the fiber scan read every lift's
  kernel off the pencil, an algebraic lambda was certified by forming the
  lift over Q(gamma), gamma a root of its minimal polynomial
  (``field_lift``), and scanning its catalecticant levels upward by
  elimination over that field.  It shares no kernel code with the
  pencil's quadratic certificate.
* ``hankel``, ``catalecticant``, ``kernel_basis`` and
  ``first_kernel_scan``: the border rank and first kernel were once found
  by scanning the catalecticant levels upward, one kernel per level, until
  one was nontrivial.  They back ``apolarity._first_kernel``.
* ``border_kernel_two_eliminations``: the border rank was once the rank of
  the middle catalecticant, and the level-w kernel a second elimination at
  that level.
* ``border_kernel_middle_level``: later both were read off the one Bareiss
  kernel of the catalecticant at level floor(d/2)+1, by a parity case
  analysis of its dimension, and the fiber scan took g2 from a second
  kernel of a column-deleted Hankel block.  With the two eliminations it
  backs ``apolarity._ideal_generators``, which reads g1 and g2 off one
  remainder sequence, and ``apolarity._first_kernel``, which reads the
  level-w kernel off them.
* ``grid_generic_certificate``: the generic certificate of the fiber scan
  was once the whole zigzag grid of 4 w_gen + 2 integer lambda, each lift
  certified, the first square-free one kept, else the first.  Here every
  lift is certified afresh by ``apolarity.rank``.  It backs
  ``projection._generic_certificate``, which stops at the first point when
  that point's kernel is fixed for all lambda.
* ``nullspace_pencil`` and ``upward_x_rank``: the fiber scan once took the
  kernel K of the constant Hankel rows by ``nullspace`` at every
  level, scanning upward from level 1 to the first level generic for every
  lambda, with the pencil rows in Fractions and the witness images computed
  when the result was built.  They back ``projection._pencil``, which spans
  K by the shifts of the two generators of the apolar ideal of B'' and
  builds its rows in integers, and ``projection.x_rank``, which visits only
  the levels w'..w'+2 and leaves the witness images to the first read.
* ``isolate_roots``, ``_isolate_quadratic`` and ``DiskRoot``: a quadratic
  lambda was once published with an isolating disk around its
  approximation, proved by exact rational tests with precision doubling,
  and its branch was read off that disk.  They back
  ``numberfield.AlgebraicNumber``, which names the root by its minimal
  polynomial and the branch of the quadratic formula.
* ``probe_generic_value``: ``x_rank`` once certified two seeded random
  lifts with ``apolarity.rank`` after its generic grid and raised when they
  disagreed with it.  The proof in the ``x_rank`` docstring made them
  redundant there; here they check the generic certificate.
* ``power_cusp_curve_point``: the curve point once took each coordinate
  as a product of two Fraction powers.  It backs the running product of
  ``projection.cusp_curve_point``.
* ``det``, ``resultant_of_partials``, ``discriminant`` and
  ``discriminant_field_certificate``: an algebraic lambda was once
  certified by the discriminant of the pencil g0 + x g1 of kernel forms,
  interpolated from 2r-1 Bareiss determinants of the Sylvester matrix of
  the partials, and reduced modulo the minimal polynomial.  They back the
  norm form of ``projection._Pencil.field_certificate``, and the resultant
  backs ``binform.is_square_free``.
* ``sympy_factors``: sympy's factorization over the rationals, which
  ``ratfactor`` used for every degree before degrees 1 and 2 got their
  closed forms.  ``sympy_scheme_parts`` regroups it by
  ``group_scheme_parts`` as ``ratfactor.primitive_factors`` groups its
  factors, which stop at the rational roots and one cofactor for each
  multiplicity: the irreducible split of that cofactor (Musser's degree
  test and Zassenhaus's recombination) left the package, because no
  answer reads it and it takes time exponential in the degree on
  Swinnerton-Dyer polynomials.
* ``add``: the sum of two coefficient lists, which ``univar`` kept until
  that split, its last caller in the package, left.
* ``solve``, ``power_sum_scalars``, ``qr_power_sum_scalars`` and
  ``mp_polyroots``: the scalars of a power-sum decomposition were once the
  solution of the full (d+1) x r system in the powers of the points, by
  Gauss-Jordan over the rationals or a quadratic field (``linalg.solve``) and
  by an mpmath Householder QR solve on the complex path, and the complex
  roots of the witness came from ``mpmath.polyroots`` (Durand-Kerner).  They
  back the residue formula ``apolarity._residue_scalars`` and the Newton
  refinement ``binform.approximate_roots``.
* ``residue_scalars``, ``to_mpc`` and ``mpc_residue_scalars``: the residue
  formula once ran in the ring of its points, given by a ``lift`` of the
  rationals: over Q on the rational path, over Q(gamma) for one conjugate
  pair, and in ``mpc`` at precision_bits + 32 on the complex path, a point
  read in the chart u/t when ``outside`` said its rounded modulus was
  above 1, every step rounded.  They back ``apolarity._residue_scalars``,
  which evaluates the formula exactly in integers at the points as stored
  and rounds each part of a complex scalar once.
* ``fraction_reconstruct``: the power sum sum s (a u + b t)^d over the
  rationals was once built term by term in Fractions, the powers of a and b
  by repeated products.  It backs ``apolarity._reconstruct_in_integers``.
* ``reconstruct_by_columns``: the integer power sum was once formed term by
  term as the column C(d,k) a^(d-k) b^k of each point, times its scalar.
  It backs ``apolarity._reconstruct_in_integers``, which folds the scalar
  into the running power of b and multiplies by C(d,k) once per
  coefficient.
* ``per_root_aberth_roots``: ``binform.approximate_roots`` once took
  1/(z_i - z_j) afresh for each ordered pair in every Aberth sweep.  It
  backs the sweep of ``mp_aberth_roots``, which takes each pair's
  reciprocal once.
* ``mp_aberth_roots``: ``binform.approximate_roots`` once ran its sweeps in
  mpmath ``mpc`` at the working precision, from the coefficients rounded to
  it, and seeded them by ``numpy.roots``.  It backs the fixed-point sweeps
  in Python ints and their seeds on the Newton polygon.
* ``mp_decomposition_residual``: ``apolarity.verify_decomposition`` once
  formed the power sum of inexact terms in ``mpc`` at precision_bits + 32,
  an estimate at the noise level of that arithmetic.  ``fraction_power_sum``
  and ``fraction_residual_squared`` form it exactly, term by term in pairs
  of Fractions.  They back the exact residual in Gaussian integers.
* ``mp_residual`` and ``fd_jacobian``: the span search's full-precision
  polish once solved the variable-projection fit with ``mpmath.lu_solve``
  on the normal equations and differentiated it by forward differences,
  one refit per parameter.  They back the analytic fit ``oracle._fit``
  and use mpmath alone, no code of the package.
* ``mp_target``, ``mp_fit`` and ``mp_polish``: the polish once ran in mpmath
  at precision_bits, with ``mpmath.mp.LU_decomp`` on the Gram matrix and
  ``mpmath.lu_solve`` for each Gauss-Newton step.  They back the
  fixed-point integer polish ``oracle._polish``, which returns the same
  float parameters from the same float hand-over.
* ``classify_by_factoring``: the classifier once decided the shape of the
  scheme on ``cert.witness_scheme``, the irreducible factorization of the
  witness over Q: m by ``multiplicity_at``, W = 2A by scheme equality, the
  residual by ``remove_point`` and ``is_reduced``, the wminus1 witness as
  the factors of W each taken once, and every verdict carried its scheme
  and curve images from the start.  Here the sigma test is the elimination ``in_span`` over
  ``scheme_span_basis``.  It backs ``classifier._classify``, which reads
  the shape off the witness form and factors only on first read.
* ``sturm_real_root_count``: the real roots of a cluster were once counted
  by Sturm's theorem on a primitive remainder sequence, whose coefficients
  grow with the degree.  It backs ``binform._real_root_count``, Descartes'
  rule of signs with bisection.
* ``real_flags``: which float seeds stand for real roots was once decided
  by Carstensen's inclusion disks about them, with float radii and
  rounding bounds in logarithms, and counted exactly only where the disks
  were unsure.  Wherever the disks are sure, it backs ``binform._real_seeds``,
  which marks the exact count's seeds of least |Im z| / |z| real.
* ``is_irreducible``: irreducibility over the rationals as one factor of
  ``scheme_parts`` up to degree 3 and of ``sympy_factors`` above it, once
  public in ``ratfactor`` though only tests called it.  It checks the moduli of ``QuadraticNumber`` and the
  inputs of ``isolate_roots``.
* ``dense_contract``: the contraction by a product form once formed every
  product h_j vec[m+j].  It backs ``classifier._contract``, which sums over
  the nonzero entries of vec alone.
* ``product_form_center_routes`` and ``evaluation_multiplicity``: the two
  center routes once multiplied W out (``ZeroScheme.product_form``),
  contracted the center e_1 by the product form, and found m by evaluating
  every factor at A.  They back ``classifier.span_center_routes``, which
  reads h mod t² and m off the factors, and ``ZeroScheme.multiplicity_at``,
  which looks the point's linear form up among them.
* ``monic_route_factors``: ``ZeroScheme`` once took its pieces monic and
  irreducible from the package's factorizer and made them primitive
  again.  Now from ``sympy_factors``, regrouped by ``group_scheme_parts``,
  it backs the pieces ``ZeroScheme`` reads from one
  ``ratfactor.primitive_factors`` call.
* ``secant_dimension_probe`` and ``dichotomy_fuzz``: two classical inputs
  to the paper's argument, once run by the ``probe`` subcommand and the
  built-in battery of ``verify``.  The first measures the dimension of the
  s-th secant variety of the cuspidal curve, the second the rank dichotomy
  of Comas and Seiguer on random forms.  ``bareiss_rank`` and ``rank_mod``,
  the ranks the probe takes over Q and modulo ``PRIME``, left
  ``linalg`` with them.
* ``full_aberth_sweeps``: the fixed-point Aberth sweeps once updated all
  deg roots, each conjugate of a pair on its own.  It backs
  ``binform._aberth_sweeps``, which updates the real roots and one root
  of each exactly conjugate pair and mirrors the rest.
* ``scan_roots_mod_p`` and ``scan_rational_roots``: the rational roots of
  a square-free g were once found by evaluating g by Horner at every
  residue mod the serving prime and lifting each root found there.  They
  back the packed evaluation ``ratfactor._roots_mod_p`` and the prime
  sieve of ``ratfactor._rational_roots``.
* ``evaluate_form``, ``evaluate_poly``, ``render``, ``power``,
  ``multiplicity_at``, ``remove_point``, ``reparametrized`` and
  ``point_slots``: helpers that only tests call, once methods or functions
  of the package.
  ``reparametrized`` is the chart change t -> s*t, under which any point of
  the tangent line at A off A serves as the projection center.
"""

from __future__ import annotations

import cmath
import itertools
import json
import math
import operator
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import comb, exp, gcd, lcm, log
from typing import Sequence

import mpmath

from cuspidal import classifier, linalg, ratfactor, univar
from cuspidal.apolarity import (
    CertificateError,
    _gaussian,
    _ideal_generators,
    _residue_numerator,
    rank,
)
from cuspidal.binform import (
    POINT_A,
    BinaryForm,
    P1Point,
    PrecisionError,
    ZeroFormError,
    ZeroScheme,
    _check_degree,
    _convolve,
    _exact,
    apolar_coeffs,
    random_form,
)
from cuspidal.classifier import ClassifierError, ClassifierVerdict, SchemeDegreeError
from cuspidal.numberfield import AlgebraicNumber, NumberFieldError, _quadratic_root
from cuspidal.oracle import GUARD_BITS
from cuspidal.projection import (
    ALL_LAMBDA,
    FieldCertificate,
    ProjectedPoint,
    ProjectionError,
    ProjectionFrame,
    XRankResult,
    _certificate_sort_key,
    _generic_certificate,
    _Pencil,
    _pencil,
    cusp_curve_images,
    lift,
)


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
        if len(mod) != 3 or not is_irreducible(mod):
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


def _bareiss(rows: list[list[int]]) -> tuple[list[list[int]], list[int]]:
    """Fraction-free row echelon form.  Returns (echelon rows, pivot columns)."""
    m = [list(r) for r in rows]
    if not m:
        return m, []
    ncols = len(m[0])
    pivots: list[int] = []
    prev = 1
    prow = 0
    for col in range(ncols):
        if prow >= len(m):
            break
        sel = next((i for i in range(prow, len(m)) if m[i][col]), None)
        if sel is None:
            continue
        m[prow], m[sel] = m[sel], m[prow]
        piv = m[prow][col]
        for i in range(prow + 1, len(m)):
            for j in range(col + 1, ncols):
                m[i][j] = (m[i][j] * piv - m[i][col] * m[prow][j]) // prev
            m[i][col] = 0
        prev = piv
        pivots.append(col)
        prow += 1
    return m, pivots


def nullspace(rows) -> list[tuple[int, ...]]:
    """Basis of the right kernel of a matrix with at least one row,
    canonicalized, one vector per free column.

    Each vector is back-substituted in integers from the Bareiss echelon
    form: x starts as the unit vector of its free column, and at each pivot
    x is rescaled so that the pivot entry comes out integral.
    """
    if not rows:
        raise ValueError("an empty matrix has no column count")
    ncols = len(rows[0])
    ech, pivots = _bareiss(linalg._int_rows(rows))
    free = [j for j in range(ncols) if j not in pivots]
    basis = []
    for f in free:
        x = [0] * ncols
        x[f] = 1
        for k in range(len(pivots) - 1, -1, -1):
            pc = pivots[k]
            row = ech[k]
            acc = sum(row[j] * x[j] for j in range(pc + 1, ncols))
            if acc:
                g = gcd(acc, row[pc])
                scale = row[pc] // g
                if scale != 1:
                    x = [c * scale for c in x]
                x[pc] = -acc // g
        basis.append(linalg.canonical_vector(x))
    return basis


def nullspace_plain(rows, ncols=None) -> list[tuple[Fraction, ...]]:
    """Independent kernel oracle: textbook Gauss-Jordan over Fraction.  An
    empty matrix needs ncols, and its kernel has the unit vectors as basis."""
    rows = [[Fraction(c) for c in r] for r in rows]
    if rows:
        ncols = len(rows[0])
    elif ncols is None:
        raise ValueError("empty matrix needs an explicit column count")
    pivots: list[int] = []
    prow = 0
    for col in range(ncols):
        sel = next((i for i in range(prow, len(rows)) if rows[i][col]), None)
        if sel is None:
            continue
        rows[prow], rows[sel] = rows[sel], rows[prow]
        piv = rows[prow][col]
        rows[prow] = [c / piv for c in rows[prow]]
        for i in range(len(rows)):
            if i != prow and rows[i][col]:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[prow])]
        pivots.append(col)
        prow += 1
    free = [j for j in range(ncols) if j not in pivots]
    basis = []
    for f in free:
        x = [Fraction(0)] * ncols
        x[f] = Fraction(1)
        for k, pc in enumerate(pivots):
            x[pc] = -rows[k][f]
        basis.append(linalg.canonical_vector(x))
    return basis


def in_span(vectors, target) -> bool:
    """Exact membership of target in the row span of vectors.

    One Bareiss elimination brings the vectors to echelon form; the target,
    cleared of denominators, is then reduced against the echelon rows in
    integers and lies in the span iff nothing is left.
    """
    (t,) = linalg._int_rows([target])
    ech, pivots = _bareiss(linalg._int_rows(vectors))
    for row, pc in zip(ech, pivots):
        c = t[pc]
        if c:
            piv = row[pc]
            t = [a * piv - c * b for a, b in zip(t, row)]
    return not any(t)


def span_matrix(h: BinaryForm, ambient_degree: int) -> list[list[int | Fraction]]:
    """Contraction matrix whose kernel is the affine span of the divisor of h
    inside degree-ambient_degree forms, in apolar coordinates.

    Row m expresses coefficient m of the contraction of the ambient form by
    h; the kernel consists of the forms annihilated by h, which for
    deg h <= ambient_degree is exactly the span of the divisor.
    """
    w = h.degree
    d = ambient_degree
    if h.is_zero():
        raise ZeroFormError("span of the zero form")
    if w > d:
        raise SchemeDegreeError("divisor degree exceeds the ambient degree")
    rows = []
    for m in range(d - w + 1):
        row = [
            h.coeffs[i - m] if 0 <= i - m <= w else 0
            for i in range(d + 1)
        ]
        rows.append(row)
    return rows


def scheme_span_basis(
    W: ZeroScheme, ambient_degree: int
) -> list[tuple[int, ...]]:
    """Spanning set (apolar coordinates) of the affine span of W, as
    primitive integer vectors.

    Valid through degree ambient_degree + 1, the independence regime: a
    divisor of full degree ambient_degree + 1 spans everything.
    """
    d = ambient_degree
    w = W.degree
    if w > d + 1:
        raise SchemeDegreeError("divisor degree beyond the independence regime")
    if w == d + 1:
        return nullspace_plain([], ncols=d + 1)  # no equations: unit vectors
    return nullspace(span_matrix(W.product_form(), d))


def nullspace_field(rows, ncols=None) -> list[tuple]:
    """Kernel basis by Gauss-Jordan over any exact field (duck-typed entries)."""
    rows = [list(r) for r in rows]
    if not rows:
        if ncols is None:
            raise ValueError("empty matrix needs an explicit column count")
        return []
    ncols = len(rows[0])
    pivots: list[int] = []
    prow = 0
    for col in range(ncols):
        sel = next((i for i in range(prow, len(rows)) if rows[i][col]), None)
        if sel is None:
            continue
        rows[prow], rows[sel] = rows[sel], rows[prow]
        piv = rows[prow][col]
        rows[prow] = [c / piv for c in rows[prow]]
        for i in range(len(rows)):
            if i != prow and rows[i][col]:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[prow])]
        pivots.append(col)
        prow += 1
    if not pivots:
        raise ValueError("zero matrix over a field needs explicit handling")
    one = rows[0][pivots[0]]
    zero = one - one
    free = [j for j in range(ncols) if j not in pivots]
    basis = []
    for f in free:
        x = [zero] * ncols
        x[f] = one
        for k, pc in enumerate(pivots):
            x[pc] = zero - rows[k][f]
        basis.append(tuple(x))
    return basis


def rank_field(rows) -> int:
    """Rank by Gaussian elimination over any exact field."""
    rows = [list(r) for r in rows]
    if not rows:
        return 0
    ncols = len(rows[0])
    pivots = 0
    prow = 0
    for col in range(ncols):
        sel = next((i for i in range(prow, len(rows)) if rows[i][col]), None)
        if sel is None:
            continue
        rows[prow], rows[sel] = rows[sel], rows[prow]
        piv = rows[prow][col]
        for i in range(prow + 1, len(rows)):
            if rows[i][col]:
                f = rows[i][col] / piv
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[prow])]
        pivots += 1
        prow += 1
    return pivots


@dataclass(frozen=True)
class FieldForm:
    """A lift whose deleted coefficient is a quadratic irrational: apolar
    coordinate vector over Q(gamma), gamma a root of the minimal polynomial
    playing lambda."""

    gamma: QuadraticNumber
    degree: int
    a_coeffs: tuple[QuadraticNumber, ...]


def field_lift(P: ProjectedPoint, lam: AlgebraicNumber) -> FieldForm:
    d = P.n + 1
    gamma = QuadraticNumber.generator(lam.minpoly)
    a = P.apolar_with_slot(gamma / d)
    coeffs = tuple(c if isinstance(c, QuadraticNumber) else gamma.lift(c) for c in a)
    return FieldForm(gamma, d, coeffs)


def _field_quo(a, b):
    """Exact a / b over any exact field; two ints divide as Fractions."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        return Fraction(a, b) if r else q
    return a / b


def is_zero(p: Sequence) -> bool:
    return all(not c for c in p)


def field_divmod(p: Sequence, q: Sequence) -> tuple[list, list]:
    """Polynomial division with remainder over any exact field; q must be
    nonzero."""
    p, q = univar.trim(p), univar.trim(q)
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(p)
    if len(rem) < len(q):
        return [], rem
    quot = [q[-1] - q[-1]] * (len(rem) - len(q) + 1)
    for k in range(len(rem) - len(q), -1, -1):
        c = rem[k + len(q) - 1]
        if not c:
            continue
        c = _field_quo(c, q[-1])
        quot[k] = c
        for j, b in enumerate(q):
            rem[k + j] = rem[k + j] - c * b
    return univar.trim(quot), univar.trim(rem)


def add(p: Sequence, q: Sequence) -> list:
    """The sum of two coefficient lists over any ring, trimmed."""
    if len(p) < len(q):
        p, q = q, p
    out = list(p)
    for i, c in enumerate(q):
        out[i] = out[i] + c
    return univar.trim(out)


def field_div_exact(p: Sequence, q: Sequence) -> list:
    quot, rem = field_divmod(p, q)
    if rem:
        raise ArithmeticError("inexact polynomial division")
    return quot


def field_monic(p: Sequence) -> list:
    p = univar.trim(p)
    return [_field_quo(c, p[-1]) for c in p]


def euclid_gcd(p, q) -> list:
    """Monic gcd by the Euclidean algorithm over any exact field."""
    a, b = univar.trim(p), univar.trim(q)
    while b:
        a, b = b, field_divmod(a, b)[1]
    return field_monic(a)


def fraction_yun(p) -> list[tuple[list, int]]:
    """Yun's square-free decomposition over the rationals, every gcd monic
    by ``euclid_gcd`` and every quotient by ``field_div_exact``: pairs (g_i,
    m_i), the g_i monic."""
    p = univar.trim([Fraction(c) for c in p])
    if univar.degree(p) <= 0:
        return []
    dp = univar.derivative(p)
    g = euclid_gcd(p, dp)
    w = field_div_exact(p, g)
    z = univar.sub(field_div_exact(dp, g), univar.derivative(w))
    out, i = [], 1
    while univar.degree(w) > 0:
        gi = euclid_gcd(w, z)
        if univar.degree(gi) > 0:
            out.append((gi, i))
        w = field_div_exact(w, gi)
        z = univar.sub(field_div_exact(z, gi), univar.derivative(w))
        i += 1
    return out


def field_is_square_free(coeffs: list, degree: int) -> bool:
    """Square-freeness of a binary form given by coefficients over a field:
    u^k times the homogenized trimmed polynomial, square-free iff k <= 1
    and that polynomial has no repeated root."""
    p = univar.trim(list(coeffs))
    if not p:
        raise ZeroFormError("square-freeness of the zero form")
    if degree - univar.degree(p) > 1:
        return False
    if univar.degree(p) == 0:
        return True
    return univar.degree(euclid_gcd(p, univar.derivative(p))) == 0


def field_rank_certificate(ff: FieldForm) -> FieldCertificate:
    """Sylvester dichotomy for a lift over a number field, by a level scan."""
    d = ff.degree
    a = ff.a_coeffs
    modulus = ff.gamma.modulus
    for r in range(1, (d + 2) // 2 + 1):
        rows = [[a[j + k] for k in range(r + 1)] for j in range(d - r + 1)]
        dim = (r + 1) - rank_field(rows)
        if dim == 0:
            continue
        basis = nullspace_field(rows, ncols=r + 1)
        if dim == 1:
            if field_is_square_free(list(basis[0]), r):
                return FieldCertificate(r, r, "squarefree", modulus)
            return FieldCertificate(r, d + 2 - r, "nonreduced", modulus)
        # a two-dimensional first kernel always has a square-free member,
        # found on a rational grid wider than the discriminant degree
        grid = [Fraction(0)]
        step = 1
        while len(grid) < 2 * r + 2:
            grid.extend((Fraction(step), Fraction(-step)))
            step += 1
        for c0, c1 in itertools.product(grid, repeat=2):
            combo = [basis[0][i] * c0 + basis[1][i] * c1 for i in range(r + 1)]
            if any(combo) and field_is_square_free(combo, r):
                return FieldCertificate(r, r, "squarefree", modulus)
        raise CertificateError("two-dimensional kernel without square-free member")
    raise CertificateError("no kernel level found for a nonzero form")


@dataclass(frozen=True)
class CatalecticantMatrix:
    degree: int
    r: int
    rows: tuple[tuple[Fraction, ...], ...]


def hankel(a: tuple, r: int) -> tuple[tuple, ...]:
    """Level-r Hankel matrix of the vector a = (a_0, ..., a_d)."""
    d = len(a) - 1
    if not 0 <= r <= d:
        raise ValueError(f"catalecticant level {r} out of range for degree {d}")
    return tuple(a[j : j + r + 1] for j in range(d - r + 1))


def catalecticant(f: BinaryForm, r: int) -> CatalecticantMatrix:
    """Level-r Hankel matrix of the apolar coefficients of f."""
    return CatalecticantMatrix(f.degree, r, hankel(apolar_coeffs(f).entries, r))


def kernel_basis(m: CatalecticantMatrix) -> list[BinaryForm]:
    """Exact basis of the right kernel, as degree-r forms; empty iff injective."""
    vecs = nullspace(m.rows)
    return [BinaryForm(m.r, v) for v in vecs]


def first_kernel_scan(f):
    """(w, basis): the first catalecticant level with a nontrivial kernel,
    scanned upward from level 1, and that kernel's basis."""
    for r in range(1, (f.degree + 2) // 2 + 1):
        basis = kernel_basis(catalecticant(f, r))
        if basis:
            return r, basis
    raise CertificateError("no kernel up to the guaranteed level")


def border_kernel_two_eliminations(a) -> tuple[int, list[tuple[int, ...]]]:
    """(w, basis) for the integer apolar vector a: w the rank of the middle
    catalecticant, the basis the kernel at level w."""
    w = bareiss_rank(hankel(a, (len(a) - 1) // 2))
    return w, nullspace(hankel(a, w))


def _dot(x, y) -> int:
    return sum(p * q for p, q in zip(x, y))


def border_kernel_middle_level(a: tuple[int, ...]) -> tuple[int, list[tuple[int, ...]]]:
    """Border rank w and the level-w kernel basis of the nonzero form with
    integer apolar vector a, from one kernel K of the level-(m+1)
    catalecticant, m = floor(d/2).

    The apolar ideal is a complete intersection with generators g1, g2 of
    degrees w <= d+2-w (Iarrobino-Kanev, LNM 1721), so the level-r
    catalecticant has rank min(r+1, w, d-r+1), and ``_border_level`` reads
    w off dim K.  At w = m+1 the level-w kernel is K itself.  Below it,
    m+1 < d+2-w, so the kernel at level m+1 is g1 S_(m+1-w), the shifts of
    g1; they end at the consecutive columns e..e+m+1-w, e the last nonzero
    column of g1, and the basis vector of the first free column e is g1
    padded with zeros, which is the canonical level-w vector, so the basis
    is K[0] with those zeros dropped.  That K[0] lies in the level-w kernel
    is checked, not trusted: w <= m, its entries beyond w vanish, and it
    annihilates the bottom rows d-m..d-w of the level-w catalecticant,
    which are the ones the level-(m+1) catalecticant lacks.  For d = 0 the
    level 1 is out of range."""
    d = len(a) - 1
    m = d // 2
    kernel = nullspace(hankel(a, m + 1))
    w = _border_level(a, kernel)
    if w == m + 1:
        return w, kernel
    g1 = kernel[0][: w + 1]
    if not 0 <= w <= m or any(kernel[0][w + 1 :]) or any(
        _dot(row, g1) for row in hankel(a, w)[d - m :]
    ):
        raise CertificateError(f"the first kernel holds no level-{w} kernel vector")
    return w, [g1]


def _border_level(a: tuple[int, ...], kernel: list[tuple[int, ...]]) -> int:
    """Border rank w from the kernel K of the level-(m+1) catalecticant,
    m = floor(d/2), whose rank is min(m+2, w, d-m) with w <= m+1.  For odd
    d that is w, so w = m+2 - dim K.  For even d it is min(w, m): dim K = 2
    at w = m and at w = m+1, and m+2-w otherwise.  At w = m the basis
    vector K[0] is g1 padded with one zero (``border_kernel_middle_level``),
    so it ends in 0 and the last row (a_(d-m), ..., a_d) of the level-m
    catalecticant annihilates K[0][:m+1]; at w = m+1 no such vector exists,
    since with the rows K annihilates it would lie in the trivial level-m
    kernel."""
    d = len(a) - 1
    m = d // 2
    if d % 2 or len(kernel) != 2:
        return m + 2 - len(kernel)
    g = kernel[0]
    return m if not g[-1] and not _dot(a[d - m :], g) else m + 1


def special_lambdas(P: ProjectedPoint, r: int):
    """Exact lambda values where the level-r kernel of the pencil jumps, or
    ALL_LAMBDA: rationals first in increasing order, then algebraic numbers
    grouped by minimal polynomial; the public view of
    ``_Pencil.special_values`` that the package once kept."""
    got = _pencil(P, r, _ideal_generators(P.coords[1:])).special_values()
    return got if got is ALL_LAMBDA else [lam for _key, lam in got]


def monic_special_values(pencil: _Pencil):
    """``_Pencil.special_values`` before it read the integer polynomial's
    roots off ``ratfactor.primitive_factors``: the gcd or determinant made
    monic by ``euclid_gcd`` over Fraction, its roots from the monic factors
    of ``scheme_parts``."""
    if len(pencil.kernel) >= 3:
        return ALL_LAMBDA
    if not pencil.kernel:
        return []
    polys = [([Fraction(c) for c in univar.trim(p)], [Fraction(c) for c in univar.trim(q)])
             for p, q in pencil.rows]
    if len(polys) == 1:
        g = euclid_gcd(*polys[0])
    else:
        (p0, p1), (q0, q1) = polys
        g = univar.sub(univar.mul(p0, q1), univar.mul(p1, q0))
    if not g:
        return ALL_LAMBDA
    if univar.degree(g) == 0:
        return []
    factors = [fac for fac, _mult in scheme_parts(g)]
    if len(factors[0]) == 3:
        roots = [AlgebraicNumber(factors[0], upper) for upper in (False, True)]
        return [((z.minpoly, z.upper), z) for z in roots]
    return [(lam, lam) for lam in sorted(-fac[0] / fac[1] for fac in factors)]


def grid_generic_certificate(P: ProjectedPoint):
    """(w_gen, seen, certificate, lambda) of the generic lift of P by the
    whole grid.  The levels below w_gen are scanned with
    ``special_lambdas``; ``seen`` holds their rational special lambda, which
    the grid skips."""
    seen = set()
    for w_gen in range(1, (P.n + 3) // 2 + 1):
        got = special_lambdas(P, w_gen)
        if got is ALL_LAMBDA:
            break
        seen.update(lam for lam in got if isinstance(lam, Fraction))
    grid = (Fraction(z) for k in itertools.count() for z in ((k, -k) if k else (0,)))
    best = None
    for lam in itertools.islice((z for z in grid if z not in seen), 4 * w_gen + 2):
        cert = rank(lift(P, lam))
        if cert.border_rank != w_gen:
            raise CertificateError(f"grid lift at {lam} off the generic level {w_gen}")
        if best is None or cert.witness_kind == "squarefree":
            best = (cert, lam)
        if cert.witness_kind == "squarefree":
            break
    return w_gen, seen, best[0], best[1]


def nullspace_pencil(P: ProjectedPoint, r: int) -> _Pencil:
    """The level-r pencil with K taken as ``nullspace`` of the
    constant Hankel rows 2.. of the lifts."""
    d = P.n + 1
    if not 1 <= r <= (d + 2) // 2:
        raise ProjectionError(f"level must lie in 1..{(d + 2) // 2}")
    a = P.apolar_with_slot(None)
    constant = [[a[j + k] for k in range(r + 1)] for j in range(2, d - r + 1)]
    kernel = nullspace(constant) if constant else nullspace_plain([], r + 1)
    rows = [
        (
            (sum(a[k] * v[k] for k in range(r + 1) if k != 1), Fraction(v[1], d)),
            (sum(a[k + 1] * v[k] for k in range(1, r + 1)), Fraction(v[0], d)),
        )
        for v in kernel
    ]
    return _Pencil(d, r, kernel, rows)


def upward_x_rank(P: ProjectedPoint) -> XRankResult:
    """``projection.x_rank`` by the upward scan from level 1, one
    ``nullspace_pencil`` per level, with the same certificates, and the
    exact pruning the scan once did: a level r is skipped once the running
    minimum is at most r.
    The witness images are computed here, at once, by the rule the result
    once applied when it was built; ``XRankResult`` computes them on first
    read."""
    d = P.n + 1
    pencils, per_level, seen, w_gen = {}, {}, set(), None
    for r in range(1, (d + 2) // 2 + 1):
        pencils[r] = nullspace_pencil(P, r)
        got = pencils[r].special_values()
        if got is ALL_LAMBDA:
            w_gen = r
            break
        fresh = [lam for key, lam in got if key not in seen]
        seen.update(key for key, _lam in got)
        if fresh:
            per_level[r] = fresh
    if w_gen is None:
        raise CertificateError("no generic kernel level found below the cap")
    generic_cert, generic_lam = _generic_certificate(pencils[w_gen], seen)
    candidates = [(generic_cert.rank, generic_lam, generic_cert)]
    best = generic_cert.rank
    for r in sorted(per_level):
        if best <= r:
            break
        for lam in per_level[r]:
            if isinstance(lam, Fraction):
                cert = pencils[r].certificate(lam)
            else:
                cert = pencils[r].field_certificate(lam.minpoly)
            candidates.append((cert.rank, lam, cert))
            best = min(best, cert.rank)
    value, lam_star, cert_star = min(
        candidates, key=lambda c: _certificate_sort_key(c[0], c[2], c[1])
    )
    witness_points = None
    if isinstance(lam_star, Fraction) and cert_star.witness_kind == "squarefree":
        witness_points = cusp_curve_images(P.n, cert_star.witness_scheme)
    result = XRankResult(value, lam_star, cert_star, P.n)
    vars(result)["witness_set_on_X"] = witness_points  # fills the cached property
    return result


@dataclass(frozen=True)
class DiskRoot:
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


def exact_value(x) -> Fraction:
    """The rational value of a finite mpf."""
    return Fraction(*mpmath.libmp.to_rational(x._mpf_))


def isolate_roots(poly, precision_bits: int) -> list[DiskRoot]:
    """Certified roots of an irreducible rational polynomial of degree 1 or 2.

    Returns one :class:`DiskRoot` per complex root, the lower root first
    (the smaller real root, or the one with negative imaginary part).  A
    quadratic's roots are real exactly when its discriminant is positive.
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
    if not is_irreducible(p):
        raise NumberFieldError("polynomial is reducible; isolate factors separately")
    ints = linalg.canonical_vector(p)
    if ints[-1] < 0:
        ints = tuple(-c for c in ints)
    if len(ints) == 2:
        root = Fraction(-ints[0], ints[1])
        return [DiskRoot(ints, root, Fraction(0), Fraction(0), True)]
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
        re = exact_value(z.real)
        im = Fraction(0) if disc > 0 else exact_value(z.imag)
        scale = max(1, math.ceil(abs(re) + abs(im)))
        radius = Fraction(2) ** ((scale - 1).bit_length() - work)
        out.append(DiskRoot(ints, re, im, radius, disc > 0))
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


def probe_generic_value(P: ProjectedPoint, w_gen: int, seen: set, generic_rank: int) -> list:
    """The two seeded random lifts that ``projection.x_rank`` once certified
    after its generic grid: lambda uniform in [-10^6, 10^6] outside
    ``seen``, each lift certified afresh by ``apolarity.rank``.  A probe off
    the border rank w_gen or the rank of the generic certificate raises
    CertificateError.  Returns the probes."""
    rng = random.Random(0x57A7)
    probes = []
    for _ in range(2):
        while True:
            probe = Fraction(rng.randint(-(10**6), 10**6))
            if probe not in seen:
                break
        cert = rank(lift(P, probe))
        if cert.border_rank != w_gen:
            raise CertificateError("nonspecial lambda off the generic kernel level")
        if cert.rank != generic_rank:
            raise CertificateError("generic-fiber probe disagrees with the grid")
        probes.append(probe)
    return probes


def power_cusp_curve_point(n: int, t: P1Point) -> ProjectedPoint:
    """The curve point of t with each coordinate a^(d-i) b^i taken by two
    Fraction powers, d = n + 1."""
    d = n + 1
    vec = [t.a ** (d - i) * t.b**i for i in range(d + 1)]
    return ProjectedPoint(n, tuple([vec[0]] + vec[2:]))


def sympy_factors(p) -> list[tuple[list[Fraction], int]]:
    """Monic irreducible factors of a nonconstant rational polynomial (low
    to high) with multiplicities, sorted by (length, coefficients), by
    sympy's factor_list."""
    import sympy

    x = sympy.Symbol("x")
    poly = sympy.Poly([sympy.Rational(Fraction(c).numerator, Fraction(c).denominator)
                       for c in reversed(univar.trim(list(p)))], x, domain=sympy.QQ)
    out = []
    for fac, mult in poly.factor_list()[1]:
        cs = [Fraction(int(c.p), int(c.q)) for c in reversed(fac.monic().all_coeffs())]
        out.append((cs, int(mult)))
    out.sort(key=lambda fm: (len(fm[0]), fm[0]))
    return out


def group_scheme_parts(factors) -> list[tuple[list[Fraction], int]]:
    """Monic irreducible factors with multiplicities, distinct, as
    ``sympy_factors`` gives them, regrouped as ``ratfactor.primitive_factors``
    groups them: the linear factors stay as they are, and the nonlinear
    factors of each multiplicity are multiplied into one; sorted by
    (length, coefficients)."""
    out = [(fac, m) for fac, m in factors if len(fac) == 2]
    curved: dict[int, list] = {}
    for fac, m in factors:
        if len(fac) > 2:
            curved[m] = univar.mul(curved.get(m, [1]), fac)
    out += [([Fraction(c) for c in fac], m) for m, fac in curved.items()]
    out.sort(key=lambda fm: (len(fm[0]), fm[0]))
    return out


def sympy_scheme_parts(p) -> list[tuple[list[Fraction], int]]:
    """The parts of ``ratfactor.primitive_factors``, monic, from sympy's
    factorization: ``sympy_factors`` regrouped by ``group_scheme_parts``."""
    return group_scheme_parts(sympy_factors(p))


def mp_residual(taus, v, slots):
    """Residual of the least-squares fit of v by the normalized curve
    columns at taus, by the normal equations; None when degenerate.  Runs
    at the caller's mpmath precision."""
    r = len(taus)
    cols = [[t**k for k in slots] for t in taus]
    for i in range(r):
        norm = mpmath.sqrt(mpmath.fsum(x * x for x in cols[i]))
        if norm == 0:
            return None
        cols[i] = [x / norm for x in cols[i]]
    G = mpmath.matrix(r, r)
    rhs = mpmath.matrix(r, 1)
    for i in range(r):
        for j in range(r):
            G[i, j] = mpmath.fsum(cols[i][k] * cols[j][k] for k in range(len(v)))
        rhs[i] = mpmath.fsum(cols[i][k] * v[k] for k in range(len(v)))
    try:
        coef = mpmath.lu_solve(G, rhs)
    except (ZeroDivisionError, ValueError):
        return None
    return [v[k] - mpmath.fsum(coef[i] * cols[i][k] for i in range(r)) for k in range(len(v))]


def fd_jacobian(taus, v, slots, precision_bits):
    """Forward-difference Jacobian of ``mp_residual`` in the parameters, as
    a list of columns, with the relative step 2^-(precision_bits // 3)."""
    h = mpmath.mpf(2) ** (-(precision_bits // 3))
    res = mp_residual(taus, v, slots)
    cols = []
    for i in range(len(taus)):
        bumped = list(taus)
        step = h * max(mpmath.mpf(1), abs(taus[i]))
        bumped[i] += step
        bres = mp_residual(bumped, v, slots)
        cols.append([(b - a) / step for a, b in zip(res, bres)])
    return cols


def mp_target(P: ProjectedPoint):
    v = [
        mpmath.mpf(c.numerator) / mpmath.mpf(c.denominator) for c in P.coords
    ]
    norm = mpmath.sqrt(mpmath.fsum(x * x for x in v))
    return [x / norm for x in v]


def mp_fit(taus, v, slots):
    """Variable-projection fit of v by the normalized curve columns
    a_i = phi(tau_i)/|phi(tau_i)|, with the scalars c from the Gram normal
    equations: the residual (I - P_A) v, and a function that builds the
    Kaufman Jacobian columns -c_i (I - P_A) a_i', so that a fit the polish
    does not step from never pays for their r projections.  One LU of the
    Gram matrix serves the scalars and all r projections; a singular one
    raises ZeroDivisionError."""
    cols, ders = [], []
    for t in taus:
        phi = [t**k for k in slots]
        norm = mpmath.sqrt(mpmath.fdot(phi, phi))  # >= 1: slot 0 is t^0
        cols.append([x / norm for x in phi])
        # a_i' = (phi' - a_i (a_i . phi')) / |phi|, and the projection
        # removes the a_i part, so phi' / |phi| stands in for it
        ders.append([k * t ** (k - 1) / norm if k else 0 for k in slots])
    gram = mpmath.matrix([[mpmath.fdot(a, b) for b in cols] for a in cols])
    lu, perm = mpmath.mp.LU_decomp(gram)
    rows = list(zip(*cols))

    def perp(b):
        """G^-1 A^T b and b - A G^-1 A^T b."""
        x = mpmath.mp.L_solve(lu, [mpmath.fdot(a, b) for a in cols], perm)
        x = mpmath.mp.U_solve(lu, x)
        return x, [bk - mpmath.fdot(x, row) for bk, row in zip(b, rows)]

    coef, res = perp(v)
    return res, lambda: [[-c * y for y in perp(d)[1]] for c, d in zip(coef, ders)]


def _mp_norm(x):
    return mpmath.sqrt(mpmath.fdot(x, x))


def mp_polish(P: ProjectedPoint, taus0, precision_bits: int, tolerance: float):
    """Gauss-Newton on the variable-projection residual (I - P_A(tau)) v at
    precision_bits + GUARD_BITS, the working precision of the fixed-point
    polish it checks, with the analytic Jacobian of mp_fit; returns (taus,
    residual), or None when the starting columns are degenerate.

    Each iteration tries the undamped step first, which converges
    quadratically from the float hand-over, and falls back to
    Levenberg-Marquardt damping only when that step does not lower the
    residual.  A step is taken only when it lowers the residual, and the
    Jacobian is built only where the next step starts.
    """
    with mpmath.workprec(precision_bits + GUARD_BITS):
        v = mp_target(P)
        slots = P.slots
        taus = [mpmath.mpf(t) for t in taus0]
        try:
            res, jacobian = mp_fit(taus, v, slots)
        except ZeroDivisionError:
            return None
        best = _mp_norm(res)
        target = mpmath.mpf(tolerance) / 4
        mu = mpmath.mpf(10) ** (-12)
        mu_floor = mpmath.mpf(2) ** (-precision_bits)
        for _ in range(72):
            jac = jacobian()
            H = mpmath.matrix([[mpmath.fdot(a, b) for b in jac] for a in jac])
            g = mpmath.matrix([-mpmath.fdot(a, res) for a in jac])
            for damped in (False,) + (True,) * 10:
                shift = (mu if damped else 0) * mpmath.eye(len(taus))
                try:
                    cand = [t + d for t, d in zip(taus, mpmath.lu_solve(H + shift, g))]
                    fit = mp_fit(cand, v, slots)
                    cval = _mp_norm(fit[0])
                except (ZeroDivisionError, ValueError):
                    cval = None
                if cval is not None and cval < best:
                    taus, (res, jacobian), best = cand, fit, cval
                    if damped:
                        mu = max(mu / 10, mu_floor)
                    break
                if damped:
                    mu *= 100
            else:
                break
            if best < target:
                break
        return [float(t) for t in taus], float(best)


def solve(rows, rhs) -> list | None:
    """One exact solution of rows * x = rhs, or None if inconsistent, by
    Gauss-Jordan over Fraction or any exact field type (duck-typed).  Free
    variables are set to zero."""
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    if not aug:
        return []
    ncols = len(rows[0])
    pivots: list[int] = []
    prow = 0
    for col in range(ncols):
        sel = next((i for i in range(prow, len(aug)) if aug[i][col]), None)
        if sel is None:
            continue
        aug[prow], aug[sel] = aug[sel], aug[prow]
        piv = aug[prow][col]
        aug[prow] = [c / piv for c in aug[prow]]
        for i in range(len(aug)):
            if i != prow and aug[i][col]:
                f = aug[i][col]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[prow])]
        pivots.append(col)
        prow += 1
    if any(aug[i][ncols] for i in range(prow, len(aug))):
        return None
    zero = rhs[0] - rhs[0]
    x = [zero] * ncols
    for k, pc in enumerate(pivots):
        x[pc] = aug[k][ncols]
    return x


def _power_rows(f, points, one):
    """The (d+1) x r system: column i holds the monomial coefficients
    binom(d, j) a^(d-j) b^j of (a u + b t)^d for the i-th point (a, b)."""
    d = f.degree
    return [[comb(d, j) * (one * a) ** (d - j) * (one * b) ** j for a, b in points]
            for j in range(d + 1)]


def power_sum_scalars(f, points, one) -> list | None:
    """Exact scalars s with f = sum s (a u + b t)^d over the points, in the
    ring of ``one``, by ``solve`` on the full system; None if inconsistent."""
    return solve(_power_rows(f, points, one), [one * c for c in f.coeffs])


def qr_power_sum_scalars(f, points, bits: int) -> list:
    """Least-squares scalars of the full system by mpmath's Householder QR
    at ``bits`` bits, for complex points."""
    with mpmath.workprec(bits):
        one = mpmath.mpc(1)
        rows = _power_rows(f, [(mpmath.mpc(a), mpmath.mpc(b)) for a, b in points], one)
        rhs = [mpmath.mpf(Fraction(c).numerator) / Fraction(c).denominator for c in f.coeffs]
        sol, _ = mpmath.qr_solve(mpmath.matrix(rows), mpmath.matrix(rhs))
        return [sol[i] for i in range(len(points))]


def to_mpc(x):
    if isinstance(x, (int, Fraction)):
        q = Fraction(x)
        return mpmath.mpc(mpmath.mpf(q.numerator) / q.denominator)
    return mpmath.mpc(x)


def residue_scalars(f: BinaryForm, g: BinaryForm, points, lift, outside=None) -> list:
    """Scalar s of each point (a:b), a in {0, 1}, of the square-free witness
    g in f = sum s (a u + b t)^d, with no linear solve.

    A point (1:b) is read in the chart t/u, from the apolar coefficients
    a_0, a_1, ... and the roots of g(1, x).  The point (0:1), and any point
    for which ``outside(b)`` holds, is read in the chart u/t, from a_d,
    a_(d-1), ... and the roots of g(x, 1); there (1:b) sits at x = 1/b
    with scalar s b^d.  ``lift`` carries rationals into the ring of the
    points.  Nothing here is checked: callers reconstruct f from the terms.
    """
    a = apolar_coeffs(f).entries
    d = f.degree
    charts: dict[bool, tuple[list, list]] = {}
    out = []
    for alpha, beta in points:
        flip = not alpha or (outside is not None and outside(beta))
        if flip not in charts:
            poly = univar.trim(list(g.coeffs[::-1] if flip else g.coeffs))
            seq = a[::-1] if flip else a
            charts[flip] = (
                [lift(c) for c in _residue_numerator(seq, poly)],
                [lift(c) for c in univar.derivative(poly)],
            )
        num, der = charts[flip]
        x = (1 / beta if alpha else lift(0)) if flip else beta
        s = evaluate_poly(num, x) / evaluate_poly(der, x)
        out.append(s * x**d if flip and alpha else s)
    return out


def mpc_residue_scalars(f: BinaryForm, g: BinaryForm, points, bits: int) -> list:
    """The scalars of the points of a complex decomposition as
    ``apolarity._decompose_numeric`` once took them: ``residue_scalars`` in
    ``mpc`` at bits + 32, a point read in the chart u/t when its modulus
    rounds above 1, each scalar rounded to that precision."""
    with mpmath.workprec(bits + 32):
        mp_pts = [(to_mpc(a), to_mpc(b)) for a, b in points]
        try:
            scalars = residue_scalars(f, g, mp_pts, to_mpc, outside=lambda b: abs(b) > 1)
        except ZeroDivisionError:
            raise PrecisionError("the witness's derivative rounds to 0 at a root") from None
        return [+s for s in scalars]


def mp_polyroots(p, bits: int) -> list:
    """All complex roots of the rational polynomial p (low to high) by
    mpmath's Durand-Kerner iteration at ``bits`` bits, with as many extra."""
    with mpmath.workprec(bits):
        coeffs = [mpmath.mpf(Fraction(c).numerator) / Fraction(c).denominator
                  for c in reversed(p)]
        return [mpmath.mpc(z) for z in
                mpmath.polyroots(coeffs, maxsteps=400, extraprec=bits)]


def reconstruct_by_columns(terms, d: int) -> tuple[int, list[int], list[int]]:
    """(den, real, imag) of sum s (a u + b t)^d over terms whose parts are
    rationals or mpmath numbers: each term's integer column over
    s_q (a_q b_q)^d, times its scalar, summed over the lcm of those
    denominators."""
    den, columns = 1, []
    for s, (a, b) in terms:
        (sr, si, sq), (ar, ai, aq), (br, bi, bq) = _gaussian(s), _gaussian(a), _gaussian(b)
        q = sq * (aq * bq) ** d
        columns.append((sr, si, q, _gaussian_column((ar * bq, ai * bq), (br * aq, bi * aq), d)))
        den = lcm(den, q)
    real, imag = [0] * (d + 1), [0] * (d + 1)
    for sr, si, q, column in columns:
        sr, si = sr * (den // q), si * (den // q)
        for k, (x, y) in enumerate(column):
            if si:  # three products (Gauss), not four
                p = x * (sr + si)
                real[k] += p - si * (x + y)
                imag[k] += p + sr * (y - x)
            else:
                real[k] += sr * x
                imag[k] += sr * y
    return den, real, imag


def _gaussian_column(a: tuple[int, int], b: tuple[int, int], d: int) -> list[tuple[int, int]]:
    """Monomial coefficients of (a u + b t)^d for Gaussian integers a, b,
    a power of 2 for a applied by shifts."""
    bpow = [(1, 0)]
    for _ in range(d):
        u, v = bpow[-1]
        bpow.append((u * b[0] - v * b[1], u * b[1] + v * b[0]))
    x, y = a
    if not y and x > 0 and not x & (x - 1):
        m = x.bit_length() - 1
        return [(comb(d, k) * u << m * (d - k), comb(d, k) * v << m * (d - k))
                for k, (u, v) in enumerate(bpow)]
    apow = [(1, 0)]
    for _ in range(d):
        u, v = apow[-1]
        apow.append((u * x - v * y, u * y + v * x))
    out = []
    for k in range(d + 1):
        (u, v), (x, y), c = apow[d - k], bpow[k], comb(d, k)
        out.append((c * (u * x - v * y), c * (u * y + v * x)))
    return out


def fraction_reconstruct(terms, d: int) -> list[Fraction]:
    """Monomial coefficients of sum s (a u + b t)^d over the terms
    (s, (a, b)), every product a Fraction operation."""
    one = Fraction(1)
    total = [one - one] * (d + 1)
    for s, (a, b) in terms:
        apow = [one]
        bpow = [one]
        for _ in range(d):
            apow.append(apow[-1] * a)
            bpow.append(bpow[-1] * b)
        column = [comb(d, k) * (apow[d - k] * bpow[k]) for k in range(d + 1)]
        total = [t + s * c for t, c in zip(total, column)]
    return total


def per_root_aberth_roots(p, bits: int) -> list:
    """``mp_aberth_roots`` with the reciprocals of the Aberth
    correction taken once per ordered pair: the same seeds, precision
    ladder, Jacobi update, ``fsum`` order and stopping rule."""
    deg = univar.degree(p)
    top = max(abs(c) for c in p)
    fl = [float(c / top) for c in p]
    if deg == 2 and fl[2]:
        disc = cmath.sqrt(fl[1] ** 2 - 4 * fl[0] * fl[2])
        seeds = [(-fl[1] + disc) / (2 * fl[2]), (-fl[1] - disc) / (2 * fl[2])]
    else:
        import numpy

        seeds = [complex(z) for z in numpy.roots(fl[::-1])]
    zs = [z for z in seeds if cmath.isfinite(z)]
    zs += [(0.4 + 0.9j) ** k for k in range(len(zs), deg)]
    zs = [
        z * (1 + 2**-20 * cmath.exp(1j * k))
        if any(abs(z - w) <= 2**-20 * max(1, abs(z)) for w in zs[:k] + zs[k + 1:])
        else z
        for k, z in enumerate(zs)
    ]
    dp = univar.derivative(p)
    prec = min(106, bits)
    while True:
        with mpmath.workprec(prec):
            cs = [mpmath.mpf(c.numerator) / c.denominator for c in p]
            ds = [mpmath.mpf(c.numerator) / c.denominator for c in dp]
            zs = [mpmath.mpc(z) for z in zs]
            tol = mpmath.mpf(2) ** (8 - prec // 2)
            for _ in range(100):
                steps = []
                try:
                    for i, z in enumerate(zs):
                        ratio = evaluate_poly(cs, z) / evaluate_poly(ds, z)
                        near = mpmath.fsum(1 / (z - w) for j, w in enumerate(zs) if j != i)
                        steps.append(ratio / (1 - ratio * near))
                except ZeroDivisionError:
                    raise PrecisionError("root refinement met a zero denominator") from None
                zs = [z - h for z, h in zip(zs, steps)]
                if all(abs(h) <= tol * max(1, abs(z)) for z, h in zip(zs, steps)):
                    break
        if prec >= bits:
            return zs
        prec = min(2 * prec, bits)


def mp_aberth_roots(p, bits: int) -> list:
    """``binform.approximate_roots`` before its sweeps moved to fixed-point
    integers and its seeds to the Newton polygon: seeds from
    ``numpy.roots``, the same precision ladder, stopping rule and 100-sweep
    cap, with every sweep in mpmath ``mpc`` arithmetic at the working
    precision and p, p' evaluated from the rational coefficients rounded
    to it.  Each sweep takes 1/(z_i - z_j) once per pair and its negative
    for (j, i), which is the same number: rounding to nearest commutes
    with negation."""
    deg = univar.degree(p)
    top = max(abs(c) for c in p)
    fl = [float(c / top) for c in p]
    if deg == 2 and fl[2]:
        disc = cmath.sqrt(fl[1] ** 2 - 4 * fl[0] * fl[2])
        seeds = [(-fl[1] + disc) / (2 * fl[2]), (-fl[1] - disc) / (2 * fl[2])]
    else:
        import numpy

        seeds = [complex(z) for z in numpy.roots(fl[::-1])]
    zs = [z for z in seeds if cmath.isfinite(z)]
    zs += [(0.4 + 0.9j) ** k for k in range(len(zs), deg)]
    # seeds too close for floats to tell two real roots from a conjugate
    # pair would stay trapped in that symmetry: they start off it
    zs = [
        z * (1 + 2**-20 * cmath.exp(1j * k))
        if any(abs(z - w) <= 2**-20 * max(1, abs(z)) for w in zs[:k] + zs[k + 1:])
        else z
        for k, z in enumerate(zs)
    ]
    dp = univar.derivative(p)
    prec = min(106, bits)
    while True:
        with mpmath.workprec(prec):
            cs = [mpmath.mpf(c.numerator) / c.denominator for c in p]
            ds = [mpmath.mpf(c.numerator) / c.denominator for c in dp]
            zs = [mpmath.mpc(z) for z in zs]
            tol = mpmath.mpf(2) ** (8 - prec // 2)
            for _ in range(100):
                steps = []
                inv = [[None] * deg for _ in range(deg)]
                try:
                    for i in range(deg):
                        for j in range(i + 1, deg):
                            inv[i][j] = 1 / (zs[i] - zs[j])
                            inv[j][i] = -inv[i][j]
                    for i, z in enumerate(zs):
                        ratio = evaluate_poly(cs, z) / evaluate_poly(ds, z)
                        near = mpmath.fsum(x for j, x in enumerate(inv[i]) if j != i)
                        steps.append(ratio / (1 - ratio * near))
                except ZeroDivisionError:
                    raise PrecisionError("root refinement met a zero denominator") from None
                zs = [z - h for z, h in zip(zs, steps)]
                if all(abs(h) <= tol * max(1, abs(z)) for z, h in zip(zs, steps)):
                    break
        if prec >= bits:
            return zs
        prec = min(2 * prec, bits)


def mp_decomposition_residual(f: BinaryForm, dec) -> mpmath.mpf:
    """``apolarity.verify_decomposition`` before its residual became exact:
    exact in Fractions when every part of every term is rational, else the
    power sum formed term by term in mpmath ``mpc`` at precision_bits + 32
    bits (at least 96), the rational parts rounded to it, and the max-norm
    of f minus it taken relative to that of f.  That number is an estimate
    at the noise level of its own arithmetic, neither a lower nor an upper
    bound on the residual of the terms as stored."""
    scale = max(abs(c) for c in f.coeffs)
    d = f.degree
    if all(isinstance(x, (int, Fraction)) for s, (a, b) in dec.terms for x in (s, a, b)):
        total = fraction_reconstruct(dec.terms, d)
        rel = Fraction(max(abs(c - t) for c, t in zip(f.coeffs, total)), scale)
        return mpmath.mpf(rel.numerator) / int(rel.denominator)

    def mpc_of(x):
        if isinstance(x, (int, Fraction)):
            q = Fraction(x)
            return mpmath.mpc(mpmath.mpf(q.numerator) / q.denominator)
        return mpmath.mpc(x)

    with mpmath.workprec(max(dec.precision_bits, 64) + 32):
        one = mpmath.mpf(1)
        total = [one - one] * (d + 1)
        for s, (a, b) in dec.terms:
            s, a, b = mpc_of(s), mpc_of(a), mpc_of(b)
            bpow = [one]
            for _ in range(d):
                bpow.append(bpow[-1] * b)
            if a == one:
                column = [comb(d, k) * bpow[k] for k in range(d + 1)]
            else:
                apow = [one]
                for _ in range(d):
                    apow.append(apow[-1] * a)
                column = [comb(d, k) * (apow[d - k] * bpow[k]) for k in range(d + 1)]
            total = [t + s * c for t, c in zip(total, column)]
        worst = max(
            abs(mpmath.mpf(c.numerator) / c.denominator - t) for c, t in zip(f.coeffs, total)
        )
        return +(worst / (mpmath.mpf(scale.numerator) / scale.denominator))


def exact_parts(x) -> tuple[Fraction, Fraction]:
    """The real and imaginary parts of a rational or a finite mpmath
    number, exactly."""
    if isinstance(x, (int, Fraction)):
        return Fraction(x), Fraction(0)
    if isinstance(x, mpmath.mpc):
        return exact_value(x.real), exact_value(x.imag)
    return exact_value(x), Fraction(0)


def fraction_power_sum(terms, d: int) -> list[tuple[Fraction, Fraction]]:
    """The real and imaginary parts of the monomial coefficients of
    sum s (a u + b t)^d, every part read by ``exact_parts`` and the power
    sum formed in pairs of Fractions, term by term."""

    def mul(x, y):
        return x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]

    total = [(Fraction(0), Fraction(0))] * (d + 1)
    for s, (a, b) in terms:
        s, a, b = exact_parts(s), exact_parts(a), exact_parts(b)
        apow, bpow = [(Fraction(1), Fraction(0))], [(Fraction(1), Fraction(0))]
        for _ in range(d):
            apow.append(mul(apow[-1], a))
            bpow.append(mul(bpow[-1], b))
        for k in range(d + 1):
            x, y = mul(s, mul(apow[d - k], bpow[k]))
            total[k] = (total[k][0] + comb(d, k) * x, total[k][1] + comb(d, k) * y)
    return total


def fraction_residual_squared(f: BinaryForm, terms) -> Fraction:
    """The exact square of the max-norm of f minus ``fraction_power_sum``
    of the terms, relative to the max-norm of f."""
    total = fraction_power_sum(terms, f.degree)
    worst = max((c - x) ** 2 + y**2 for c, (x, y) in zip(f.coeffs, total))
    return worst / max(abs(c) for c in f.coeffs) ** 2


def det(rows) -> int:
    """Determinant of a square integer matrix, by Bareiss elimination."""
    m = [list(r) for r in rows]
    sign, prev = 1, 1
    for k in range(len(m)):
        sel = next((i for i in range(k, len(m)) if m[i][k]), None)
        if sel is None:
            return 0
        if sel != k:
            m[k], m[sel] = m[sel], m[k]
            sign = -sign
        for i in range(k + 1, len(m)):
            for j in range(k + 1, len(m)):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * prev


def resultant_of_partials(coeffs) -> int:
    """Sylvester resultant of the two partials of the integer form g with
    coefficient vector ``coeffs`` (c_i at u^(r-i) t^i), each taken at its
    formal degree r-1, so that a root at (0:1) counts too.

    It vanishes exactly when the partials share a root on P^1.  By Euler's
    identity r*g = u*g_u + t*g_t, for r >= 1 that is a repeated root of g,
    or g = 0.  For r <= 1 the matrix is empty and the resultant is 1.
    """
    r = len(coeffs) - 1
    fu = [(r - i) * coeffs[i] for i in range(r)]
    ft = [(i + 1) * coeffs[i + 1] for i in range(r)]
    return det([[0] * i + p + [0] * (r - 2 - i) for p in (fu, ft) for i in range(r - 1)])


def discriminant(v0, v1) -> list:
    """Res(g_u, g_t) of the binary form g = g0 + x g1 as a polynomial in x,
    up to a constant factor.  The Sylvester matrix is affine in x, so the
    determinant has degree at most 2r-2 and is interpolated from its
    integer values at x = 0..2r-2 on one integer scaling of g0 and g1."""
    r = len(v0) - 1
    den = math.lcm(*(Fraction(c).denominator for c in (*v0, *v1)))
    g0 = [int(c * den) for c in v0]
    g1 = [int(c * den) for c in v1]
    npts = 2 * r - 1
    diffs = [
        Fraction(resultant_of_partials([a + x * b for a, b in zip(g0, g1)])) for x in range(npts)
    ]
    # Newton divided differences at the nodes 0..npts-1, then back to coefficients
    for k in range(1, npts):
        for i in range(npts - 1, k - 1, -1):
            diffs[i] = (diffs[i] - diffs[i - 1]) / k
    poly: list = []
    for i in range(npts - 1, -1, -1):
        poly = add(univar.mul(poly, [Fraction(-i), Fraction(1)]), [diffs[i]])
    return poly


def discriminant_field_certificate(pencil: _Pencil, minpoly) -> FieldCertificate:
    """``_Pencil.field_certificate`` by the discriminant: the kernel form
    v0 + lambda v1 is square-free at the roots of minpoly iff minpoly does
    not divide the discriminant of v0 + x v1."""
    if len(pencil.kernel) != 2:
        raise CertificateError(f"algebraic lambda with dim K = {len(pencil.kernel)}")
    x, y = next(
        (row for row in zip(*pencil.rows) if any(row[0]) or any(row[1])),
        ((0, 0), (0, 0)),
    )
    k0, k1 = pencil.kernel
    v0 = [y[0] * a - x[0] * b for a, b in zip(k0, k1)]
    v1 = [y[1] * a - x[1] * b for a, b in zip(k0, k1)]
    if not any(v0) and not any(v1):
        raise CertificateError("the kernel vector vanishes at an algebraic lambda")
    modulus = tuple(field_monic([Fraction(c) for c in minpoly]))
    _, rem = field_divmod(discriminant(v0, v1), modulus)
    if rem:
        return FieldCertificate(pencil.r, pencil.r, "squarefree", modulus)
    return FieldCertificate(pencil.r, pencil.d + 2 - pencil.r, "nonreduced", modulus)


_TWO_A = ZeroScheme(((POINT_A.linear_form(), 2),))
_ONE_A = ZeroScheme(((POINT_A.linear_form(), 1),))


def _scheme_verdict(n: int, level: int, inputs: dict, tags, W: ZeroScheme | None = None):
    """``classifier._verdict`` for a witness given as a scheme: a witnessed
    verdict holds the scheme and curve images computed here."""
    v = classifier._verdict(n, level, inputs, tags, None if W is None else W.product_form())
    if v.witness_form is not None:
        vars(v)["witness_scheme"] = W  # fills the cached properties
        vars(v)["witness_points"] = cusp_curve_images(n, W)
    return v


def classify_by_factoring(f: BinaryForm) -> ClassifierVerdict:
    """``classifier.classify`` with the shape of the scheme read off the
    factored witness scheme."""
    _a, frame = classifier._guard_form(f)
    n = frame.n
    cert = rank(f)
    if cert.rank == cert.border_rank:
        if cert.witness_kind != "squarefree":
            raise ClassifierError(
                "rank must equal border rank with a reduced computing set; "
                "the border-gap classification applies otherwise"
            )
        rho = cert.rank
        E = cert.witness_scheme
        m = multiplicity_at(E, POINT_A)
        inputs = {"n": n, "rho": rho, "r": rho, "mult_A": m, "witness_reduced": True}
        verdict = _scheme_verdict(n, rho, inputs, ("e4_i", "e4_ii", "e4_iii"), E)
        if verdict.case_tag == "out_of_scope":
            raise ClassifierError(f"computing-set size {rho} outside 2..{(n + 3) // 2}")
        return verdict
    w = cert.border_rank
    if cert.kernel_dimension != 1 or 2 * w > n + 2:
        raise CertificateError(
            f"border-gap certificate with kernel dimension "
            f"{cert.kernel_dimension} and border rank {w} at n = {n}"
        )
    W = cert.witness_scheme
    m = multiplicity_at(W, POINT_A)
    inputs = {"n": n, "w": w, "r": cert.rank, "mult_A": m, "witness_reduced": False}
    if W == _TWO_A:
        return _scheme_verdict(n, w, inputs, ("e3_3_cusp",), _ONE_A)
    s2 = remove_point(W, POINT_A, 2) if m == 2 else None
    if m >= 3 or (m == 2 and not s2.is_reduced()):
        return _scheme_verdict(n, w, inputs, ("e3_2",))
    if m == 2:
        center = [int(i == 1) for i in range(n + 2)]
        vectors = scheme_span_basis(s2, n + 1) + [center]
        inputs["sigma_member"] = in_span(vectors, apolar_coeffs(f).entries)
        if inputs["sigma_member"]:
            return _scheme_verdict(n, w, inputs, ("e3_3_wminus2",), s2)
        reduced = ZeroScheme(tuple((g, 1) for g, _ in W.factors))
        return _scheme_verdict(n, w, inputs, ("e3_3_wminus1",), reduced)
    if m == 0:
        return _scheme_verdict(n, w, inputs, ("e3_4_exact", "e3_4_interval"))
    return _scheme_verdict(n, w, inputs, ("e3_5",))


def sturm_real_root_count(cs: tuple[int, ...]) -> int:
    """``binform._real_root_count`` before Descartes' rule: the number of
    real roots of the square-free integer polynomial cs (low to high), by
    Sturm's theorem: the sign changes of the leading coefficients of its
    Sturm sequence at -infinity less those at +infinity.  Each remainder is
    formed in integers with positive multipliers and divided by its
    content, which keeps its sign."""
    p, q = list(cs), univar.derivative(cs)
    signs = [(len(p) - 1, p[-1] > 0)]
    while q:
        signs.append((len(q) - 1, q[-1] > 0))
        r, m, s = p, abs(q[-1]), 1 if q[-1] > 0 else -1
        while len(r) >= len(q):
            f, shift = s * r[-1], len(r) - len(q)
            r = univar.trim([c * m - (f * q[i - shift] if i >= shift else 0)
                             for i, c in enumerate(r[:-1])])
        g = gcd(*r)
        p, q = q, [-c // g for c in r]
    at_minus = [sign == (deg % 2 == 0) for deg, sign in signs]
    plus = [sign for _, sign in signs]
    return sum(map(operator.ne, at_minus, at_minus[1:])) - sum(map(operator.ne, plus, plus[1:]))


def real_flags(cs: tuple[int, ...], zs: list[complex]) -> list[bool] | None:
    """``binform._real_flags``, which once decided which float seeds stand
    for real roots before the exact count alone did: for each float root z
    in zs of the integer polynomial cs, whether the root it stands for is
    real, or None when floats cannot tell.

    Every connected union of m of the disks about z_i of radius
    deg |W_i|, W_i = p(z_i) / (c_deg prod_(j != i) (z_i - z_j)), holds
    exactly m roots (Carstensen, Numer. Math. 59, 1991).  The radii here
    are twice that, with |p(z_i)| enlarged by a bound on its rounding
    error, formed in logarithms.  A disk off the real axis holds no real
    root.  A disk that meets it, and meets no other disk nor the mirror
    image of one, holds one root, which its own conjugate must be, so
    that root is real.  Any other disk that meets the axis, or two equal
    seeds, gives None."""
    deg = len(cs) - 1
    top = max(abs(c) for c in cs)
    fl = [c / top for c in cs]
    radii = []
    for i, z in enumerate(zs):
        gaps = [abs(z - v) for j, v in enumerate(zs) if j != i]
        if not all(gaps):
            return None
        a, _, s, far = _chart_with_sum(fl, z)
        bound = abs(a) + 4 * deg * 2**-53 * s
        if not bound:
            radii.append(0.0)
            continue
        radii.append(exp(min(700, log(2 * deg * bound) + log(top) - log(abs(cs[-1]))
                             + far * deg * log(abs(z)) - sum(map(log, gaps)))))
    real = [abs(z.imag) <= r for z, r in zip(zs, radii)]
    for i, (z, r) in enumerate(zip(zs, radii)):
        if real[i] and any(min(abs(z - v), abs(z.conjugate() - v)) <= r + q
                           for j, (v, q) in enumerate(zip(zs, radii)) if j != i):
            return None
    return real


def _chart_with_sum(fl: list[float], z: complex) -> tuple[complex, complex, float, bool]:
    """``binform._chart`` with the sum that ``real_flags`` reads: p(z), p'(z)
    and the sum of |c_k| |z|^k from the float coefficients fl (low to high)
    when |z| <= 1, and when |z| > 1 (far) the same for the reversed
    polynomial at 1/z, so that nothing overflows."""
    far = abs(z) > 1
    w = 1 / z if far else z
    a = b = 0j
    s, size = 0.0, abs(w)
    for c in fl if far else reversed(fl):
        a, b, s = a * w + c, b * w + a, s * size + abs(c)
    return a, b, s, far


def scheme_parts(p: Sequence[Fraction]) -> list[tuple[list[Fraction], int]]:
    """The monic view of ``ratfactor.primitive_factors``, in Fractions and in
    the format of ``sympy_factors``: for each multiplicity, the monic linear
    factors of the rational roots and the monic cofactor with no rational
    root, sorted by (length, coefficients); the constant is dropped."""
    out = [([Fraction(c, fac[-1]) for c in fac], m) for fac, m in ratfactor.primitive_factors(p)]
    out.sort(key=lambda fm: (len(fm[0]), fm[0]))
    return out


def is_irreducible(p: Sequence[Fraction]) -> bool:
    """``ratfactor.is_irreducible``, which only tests called: whether p is
    irreducible over the rationals, as one factor of multiplicity 1 and the
    degree of p.  Up to degree 3 the factors are read off ``scheme_parts``,
    whose cofactor with no rational root is irreducible there, and above it
    off ``sympy_factors``."""
    q = univar.trim(list(p))
    facs = scheme_parts(q) if len(q) <= 4 else sympy_factors(q)
    return len(facs) == 1 and facs[0][1] == 1 and len(facs[0][0]) == len(q)


def dense_contract(h: BinaryForm, vec) -> list:
    """``classifier._contract`` before it summed over the nonzero entries of
    vec alone: every row of span_matrix(h, len(vec) - 1) times vec, formed
    as sum_j h_j vec[m+j] over every j."""
    return [
        sum(c * vec[m + j] for j, c in enumerate(h.coeffs))
        for m in range(len(vec) - h.degree)
    ]


def evaluation_multiplicity(W: ZeroScheme, p: P1Point) -> int:
    """``multiplicity_at`` before it looked p.linear_form() up among the
    factors: the exponents of the factors that vanish at p, each
    factor evaluated there."""
    return sum(m for g, m in W.factors if evaluate_form(g, p.a, p.b) == 0)


def product_form_center_routes(W: ZeroScheme, frame: ProjectionFrame) -> tuple[bool, bool]:
    """``classifier.span_center_routes`` before it read h mod t² off the
    factors: the center e_1 contracted by every row of the product form of
    W, and m >= 2 with m by ``evaluation_multiplicity`` at A."""
    h = W.product_form()
    if h.degree > frame.n + 2:
        raise SchemeDegreeError("degree beyond the independence regime")
    center = [int(i == 1) for i in range(frame.d + 1)]
    return not any(dense_contract(h, center)), evaluation_multiplicity(W, POINT_A) >= 2


def monic_route_factors(factors) -> tuple:
    """The factors of ``ZeroScheme(factors)`` by the monic route: each
    factor split into its monic irreducible factors by ``sympy_factors``,
    the multiplicities of equal ones added up, the nonlinear ones of each
    multiplicity multiplied into one by ``group_scheme_parts``, and each
    piece made primitive by ``linalg.canonical_vector``."""
    acc: dict[BinaryForm, int] = {}
    monic: dict[tuple, int] = {}
    for g, m in factors:
        k, p = g.tau_poly()
        if k:
            ufac = BinaryForm(1, (1, 0))
            acc[ufac] = acc.get(ufac, 0) + k * m
        for q, e in sympy_factors(p) if len(p) > 1 else []:
            monic[tuple(q)] = monic.get(tuple(q), 0) + e * m
    for q, e in group_scheme_parts([(list(q), e) for q, e in monic.items()]):
        piece = BinaryForm(len(q) - 1, linalg.canonical_vector(q))
        acc[piece] = acc.get(piece, 0) + e
    return tuple(sorted(acc.items(), key=lambda fm: (fm[0].degree, fm[0].coeffs)))


# -- helpers only tests call ----------------------------------------------------


def evaluate_form(f: BinaryForm, a, b) -> int | Fraction:
    """f(a, b), by Horner in both variables."""
    # after step i, acc = sum over j <= i of c_j a^(i-j) b^j
    a, b = _exact(a), _exact(b)
    acc, b_pow = 0, 1
    for c in f.coeffs:
        acc = acc * a + c * b_pow
        b_pow *= b
    return acc


def evaluate_poly(p: Sequence, x):
    """p(x) for low-to-high coefficients p, by Horner."""
    acc = None
    for c in reversed(univar.trim(p)):
        acc = c if acc is None else acc * x + c
    return acc


def render(f: BinaryForm) -> str:
    """f in the text grammar ``d=<int>; [q0,q1,...]``."""
    return f"d={f.degree}; [{','.join(str(c) for c in f.coeffs)}]"


def power(f: BinaryForm, k: int) -> BinaryForm:
    cs = [1]
    for _ in range(k):
        cs = _convolve(cs, f.coeffs)
    return BinaryForm(f.degree * k, tuple(cs))


def multiplicity_at(W: ZeroScheme, p: P1Point) -> int:
    """The exponent of p.linear_form() among the factors of W, by the
    invariant; nothing is evaluated."""
    return dict(W.factors).get(p.linear_form(), 0)


def remove_point(W: ZeroScheme, p: P1Point, k: int) -> ZeroScheme:
    """Scheme difference: drop k from the multiplicity at the rational point p."""
    lin = p.linear_form()
    m = dict(W.factors).get(lin, 0)
    if k > 0 and not m:
        raise ValueError(f"{p} does not lie on the scheme")
    if m < k:
        raise ValueError(f"multiplicity at {p} is {m} < {k}")
    return ZeroScheme(
        tuple((g, e - k if g == lin else e) for g, e in W.factors if g != lin or e > k)
    )


def reparametrized(P: ProjectedPoint, s) -> ProjectedPoint:
    """Image under the chart change t -> s*t of the parameter line, which
    fixes the cusp and slides the center along the tangent line: the
    coordinate of original slot i picks up a factor s^i."""
    s = Fraction(s)
    if not s:
        raise ProjectionError("reparametrization needs s != 0")
    return ProjectedPoint(P.n, tuple(c * s**i for c, i in zip(P.coords, P.slots)))


def point_slots(n: int) -> tuple[int, ...]:
    """``ProjectedPoint.slots`` of a point of P^n."""
    return (0,) + tuple(range(2, n + 2))


# -- classical inputs: secant dimensions and the rank dichotomy -----------------

PRIME = 2**61 - 1  # the modulus of rank_mod


def bareiss_rank(rows) -> int:
    """Rank over Q: the number of pivots of the echelon form of ``_bareiss``."""
    if not rows:
        return 0
    _, pivots = _bareiss(linalg._int_rows(rows))
    return len(pivots)


def rank_mod(rows) -> int:
    """Rank modulo ``PRIME`` of the rows with their denominators cleared:
    at most the rational rank, and below it only when the prime divides
    every nonzero minor of maximal size."""
    m, r = [[c % PRIME for c in row] for row in linalg._int_rows(rows)], 0
    for col in range(len(m[0]) if m else 0):
        sel = next((i for i in range(r, len(m)) if m[i][col]), None)
        if sel is not None:
            m[r], m[sel], inv = m[sel], m[r], pow(m[sel][col], -1, PRIME)
            for row in m[r + 1:]:
                f = row[col] * inv % PRIME
                row[col:] = [(a - f * b) % PRIME for a, b in zip(row[col:], m[r][col:])]
            r += 1
    return r


def secant_dimension_probe(s: int, n: int, seed=0) -> int:
    """Observed projective dimension of the s-th secant variety of the curve.

    Exact rank, minus one, of the Jacobian of (parameters, scalars) -> sum
    of scaled curve points at one seeded random sample: ``rank_mod``, when
    it reaches the bound min(2s, n+1) of the rational rank, else
    ``bareiss_rank``.
    """
    if not 1 <= s <= n:
        raise ValueError("cardinality outside 1..n")
    _check_degree(n + 1)
    slots = point_slots(n)
    rng = random.Random(f"secant-probe:{seed}:0")
    taus = set()
    while len(taus) < s:
        t = Fraction(rng.randint(1, 60), rng.randint(1, 7)) * (1 if rng.random() < 0.5 else -1)
        taus.add(t)
    alphas = [Fraction(rng.randint(1, 9)) for _ in range(s)]
    cols = []
    for t, a in zip(sorted(taus), alphas):
        cols.append([t**k for k in slots])
        cols.append([a * k * t ** (k - 1) if k else Fraction(0) for k in slots])
    bound = min(2 * s, n + 1)
    return (bound if rank_mod(cols) == bound else bareiss_rank(cols)) - 1


def dichotomy_fuzz(degree: int, samples: int, seed=0) -> dict:
    """Hammer the rank dichotomy on random forms; violations abort."""
    if degree < 2:
        raise ValueError("fuzzing needs degree at least 2")
    if samples < 1:
        raise ValueError(f"fuzzing needs at least 1 sample, got {samples}")
    _check_degree(degree)
    rng = random.Random(f"dichotomy-fuzz:{degree}:{seed}")
    counts: Counter[int] = Counter()
    done = 0
    while done < samples:
        f = random_form(degree, rng, bound=120)
        if f.is_zero():
            continue
        cert = rank(f)
        w, r = cert.border_rank, cert.rank
        if r not in (w, degree + 2 - w) or w > r:
            raise AssertionError(
                "dichotomy violated: "
                + json.dumps({"degree": degree, "coeffs": [str(c) for c in f.coeffs],
                              "border": w, "rank": r})
            )
        counts[r] += 1
        done += 1
    return {
        "degree": degree,
        "samples": samples,
        "violations": 0,
        "rank_counts": {str(k): counts[k] for k in sorted(counts)},
    }


def full_aberth_sweeps(cs: tuple[int, ...], zs: list, scale: int, prec: int) -> list:
    """``binform._aberth_sweeps`` on all deg roots, whatever their layout:
    Aberth sweeps on the roots zs, pairs of ints over 2^scale, of the
    integer polynomial cs, until the stopping rule at precision ``prec``
    holds or 100 sweeps have run; see ``approximate_roots``.  Each sweep
    takes 1/(z_i - z_j) once per pair and its negative for (j, i).  Every
    product and quotient is rounded to nearest, which commutes with
    negation away from ties, so that a real root stays real and a
    conjugate pair stays conjugate, as in exact arithmetic."""
    deg = len(cs) - 1
    one, half = 1 << scale, 1 << (scale - 1)
    top = cs[-1] << scale
    # a z + c_k rounded in one shift: c_k 2^(2 scale) + half
    shifted = [(c << 2 * scale) + half for c in cs[-2::-1]]
    tol = 2 * (prec // 2) - 16  # |h|^2 2^tol <= max(1, |z|^2), all over 2^(2 scale)

    def quotient(x, y, n2):  # (x + i y) 2^scale / n2, rounded
        return ((x << scale + 1) + n2) // (2 * n2), ((y << scale + 1) + n2) // (2 * n2)

    for _ in range(100):
        near = [[0, 0] for _ in zs]
        for i, (xi, yi) in enumerate(zs):
            for j in range(i + 1, deg):
                dx, dy = xi - zs[j][0], yi - zs[j][1]
                n2 = dx * dx + dy * dy
                if not n2:
                    raise PrecisionError("root refinement met a zero denominator")
                ix, iy = quotient(dx << scale, -dy << scale, n2)
                near[i][0] += ix
                near[i][1] += iy
                near[j][0] -= ix
                near[j][1] -= iy
        out, done = [], True
        for (x, y), (nx, ny) in zip(zs, near):
            # Horner for p (a) and p' (b) together
            ax, ay, bx, by = top, 0, 0, 0
            for c in shifted:
                bx, by = (((bx * x - by * y + half) >> scale) + ax,
                          ((bx * y + by * x + half) >> scale) + ay)
                ax, ay = (ax * x - ay * y + c) >> scale, (ax * y + ay * x + half) >> scale
            n2 = bx * bx + by * by
            if not n2:
                raise PrecisionError("root refinement met a zero denominator")
            rx, ry = quotient(ax * bx + ay * by, ay * bx - ax * by, n2)
            ex = one - ((rx * nx - ry * ny + half) >> scale)
            ey = -((rx * ny + ry * nx + half) >> scale)
            n2 = ex * ex + ey * ey
            if not n2:
                raise PrecisionError("root refinement met a zero denominator")
            hx, hy = quotient(rx * ex + ry * ey, ry * ex - rx * ey, n2)
            x, y = x - hx, y - hy
            out.append((x, y))
            h2, z2 = hx * hx + hy * hy, max(one * one, x * x + y * y)
            if h2 << max(tol, 0) > z2 << max(-tol, 0):
                done = False
        zs = out
        if done:
            break
    return zs


def scan_roots_mod_p(g: Sequence[int], p: int) -> list[int]:
    """The roots of the integer polynomial g (low to high) mod p, ascending,
    one Horner evaluation per residue."""
    return [r for r in range(p) if not ratfactor._eval_mod(g, r, p)]


def scan_rational_roots(g: tuple[int, ...], p: int) -> tuple[list[Fraction], tuple[int, ...]]:
    """``ratfactor._rational_roots`` with no sieve: every root of g mod p
    found by ``scan_roots_mod_p`` is lifted and reconstructed."""
    bound = 2 * abs(g[0]) * g[-1]
    roots, h = [], g
    for r in scan_roots_mod_p(g, p):
        cand = ratfactor._reconstruct(*ratfactor._lift_root(g, r, p, bound), abs(g[0]), g[-1])
        if cand is not None:
            q = univar.divide(h, (-cand.numerator, cand.denominator))
            if q is not None:
                roots.append(cand)
                h = q
    return roots, h
