"""Catalecticant kernels, the rank dichotomy, and power-sum decompositions.

For a nonzero binary form f of degree d, the level-r catalecticant is the
Hankel matrix of apolar coefficients with d-r+1 rows and r+1 columns.  Its
right kernel, read back as degree-r forms, is the degree-r slice of the
apolar ideal.  The first level w with a nontrivial kernel is the border rank;
the rank is w when that kernel contains a square-free form and d+2-w when it
does not.  The roots of a square-free kernel form are the linear forms of a
minimal power-sum decomposition: a root (a:b) contributes the summand
s*(a*u + b*t)^d, which is the convention every residual check here validates.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import comb

import mpmath

from . import linalg, ratfactor, univar
from .binform import (
    BinaryForm,
    CertificateError,
    PrecisionError,
    ZeroFormError,
    ZeroScheme,
    apolar_coeffs,
    is_square_free,
    numeric_roots,
    squarefree_decompose,
)
from .numberfield import NumberField, isolate_roots


class AmbiguousScheme(ValueError):
    """Border scheme requested where the kernel has dimension above one."""


class NonReducedRank(ValueError):
    """Decomposition requested for a form whose rank witness is non-reduced."""


@dataclass(frozen=True)
class CatalecticantMatrix:
    degree: int
    r: int
    rows: tuple[tuple[Fraction, ...], ...]

    def entry(self, j: int, k: int) -> Fraction:
        return self.rows[j][k]

    @property
    def nrows(self) -> int:
        return self.degree - self.r + 1

    @property
    def ncols(self) -> int:
        return self.r + 1


def catalecticant(f: BinaryForm, r: int) -> CatalecticantMatrix:
    """Level-r Hankel matrix of the apolar coefficients of f."""
    if not 0 <= r <= f.degree:
        raise ValueError(f"catalecticant level {r} out of range for degree {f.degree}")
    a = apolar_coeffs(f).entries
    rows = tuple(
        tuple(a[j + k] for k in range(r + 1)) for j in range(f.degree - r + 1)
    )
    return CatalecticantMatrix(f.degree, r, rows)


def kernel_basis(m: CatalecticantMatrix) -> list[BinaryForm]:
    """Exact basis of the right kernel, as degree-r forms; empty iff injective."""
    vecs = linalg.nullspace([list(row) for row in m.rows], ncols=m.ncols)
    return [BinaryForm(m.r, v) for v in vecs]


def _first_kernel(f: BinaryForm) -> tuple[int, list[BinaryForm]]:
    if f.is_zero():
        raise ZeroFormError("rank of the zero form")
    cap = (f.degree + 2) // 2
    for r in range(1, cap + 1):
        basis = kernel_basis(catalecticant(f, r))
        if basis:
            return r, basis
    raise CertificateError("no kernel up to the guaranteed level")


def border_rank(f: BinaryForm) -> int:
    """Smallest r >= 1 whose catalecticant has a nontrivial kernel."""
    return _first_kernel(f)[0]


def border_scheme(f: BinaryForm) -> tuple[ZeroScheme, bool]:
    """Zero scheme of the kernel generator at the first level, with a flag
    telling whether that scheme is the unique minimal one (2w <= d+1)."""
    w, basis = _first_kernel(f)
    if len(basis) > 1:
        raise AmbiguousScheme(
            f"kernel at level {w} has dimension {len(basis)}; no canonical scheme"
        )
    return squarefree_decompose(basis[0]), 2 * w <= f.degree + 1


def find_squarefree_in_kernel(basis: list[BinaryForm]) -> BinaryForm | None:
    """A square-free rational element of the span of ``basis``, or None.

    Deterministically complete: the square-free locus of the span is the
    nonvanishing set of the combination's discriminant, whose degree in each
    coordinate is at most 2r-2, so a full grid with 2r-1 values per
    coordinate cannot miss it.  A seeded random pre-pass usually exits early.
    The grid is exponential in the basis size; callers here never pass more
    than a handful of forms.
    """
    if not basis:
        raise ValueError("empty basis")
    r = basis[0].degree
    if any(g.degree != r for g in basis):
        raise ValueError("mixed degrees in kernel basis")
    live = [g for g in basis if not g.is_zero()]
    if not live:
        return None
    if r <= 1:
        return live[0]
    if len(live) == 1:
        return live[0] if is_square_free(live[0]) else None

    def combo(coeffs) -> BinaryForm:
        out = BinaryForm(r, (Fraction(0),) * (r + 1))
        for c, g in zip(coeffs, live):
            if c:
                out = out + g.scaled(Fraction(c))
        return out

    rng = random.Random(0x5F1E)
    for _ in range(32):
        cand = combo([rng.randint(-r - 1, r + 1) for _ in live])
        if not cand.is_zero() and is_square_free(cand):
            return cand
    grid = [Fraction(0)]
    step = 1
    while len(grid) < 2 * r - 1:
        grid.extend((Fraction(step), Fraction(-step)))
        step += 1
    for coeffs in itertools.product(grid[: 2 * r - 1], repeat=len(live)):
        cand = combo(coeffs)
        if not cand.is_zero() and is_square_free(cand):
            return cand
    return None


@dataclass(frozen=True)
class RankCertificate:
    """Outcome of the rank dichotomy for one form.

    ``witness_kind`` is "squarefree" (rank equals border rank, ``witness_form``
    is a square-free kernel element whose roots give a minimal decomposition)
    or "nonreduced" (rank is d+2-w, ``witness_form`` is the kernel generator
    and its scheme is the non-reduced border scheme).  ``kernel_dimension``
    is the kernel dimension at level w.

    ``witness_scheme``, the zero scheme of ``witness_form``, is factored on
    first read and then cached: the rank itself never needs it, and a fiber
    scan reads it for the winning lift only.
    """

    border_rank: int
    rank: int
    witness_kind: str
    witness_form: BinaryForm
    kernel_dimension: int

    @cached_property
    def witness_scheme(self) -> ZeroScheme:
        return squarefree_decompose(self.witness_form)

    def to_json(self) -> dict:
        return {
            "w": self.border_rank,
            "r": self.rank,
            "witness": {
                "type": self.witness_kind,
                "factors": [[g.pretty(), m] for g, m in self.witness_scheme.factors],
            },
        }


def rank(f: BinaryForm) -> RankCertificate:
    """Sylvester dichotomy with an explicit witness."""
    w, basis = _first_kernel(f)
    return _certify(f.degree, w, basis)


def _certify(degree: int, w: int, basis: list[BinaryForm]) -> RankCertificate:
    """The dichotomy for a degree-``degree`` form whose first kernel level is
    w, from that kernel's basis in the order ``linalg.nullspace`` gives it."""
    if not basis:
        raise CertificateError(f"trivial kernel at the claimed level {w}")
    g = find_squarefree_in_kernel(basis)
    if g is not None:
        return RankCertificate(w, w, "squarefree", g.normalized(), len(basis))
    return RankCertificate(
        w, degree + 2 - w, "nonreduced", basis[0].normalized(), len(basis)
    )


@dataclass(frozen=True)
class Decomposition:
    """Power-sum presentation f = sum of scalar * (alpha*u + beta*t)^degree.

    Scalars and linear-form pairs are exact Fractions on the rational path and
    mpmath numbers otherwise; ``field_tag`` records which path produced them.
    """

    degree: int
    terms: tuple[tuple[object, tuple[object, object]], ...]
    residual: object
    field_tag: str
    precision_bits: int

    def to_json(self) -> dict:
        def num(x) -> object:
            if isinstance(x, (int, Fraction)):
                return str(Fraction(x))
            with mpmath.workprec(self.precision_bits + 16):
                z = mpmath.mpc(x)
                dps = int(self.precision_bits / 3.32) + 4
                return [mpmath.nstr(z.real, dps), mpmath.nstr(z.imag, dps)]

        return {
            "degree": self.degree,
            "field": self.field_tag,
            "precision_bits": self.precision_bits,
            "terms": [
                {"scalar": num(s), "linear_form": [num(a), num(b)]}
                for s, (a, b) in self.terms
            ],
            "residual": mpmath.nstr(mpmath.mpf(self.residual), 8),
        }

    @classmethod
    def from_json(cls, blob: dict) -> "Decomposition":
        bits = int(blob.get("precision_bits", 192))

        def num(x):
            if isinstance(x, str):
                return Fraction(x)
            re_s, im_s = x
            with mpmath.workprec(bits + 16):
                return +mpmath.mpc(mpmath.mpf(re_s), mpmath.mpf(im_s))

        terms = tuple(
            (num(t["scalar"]), (num(t["linear_form"][0]), num(t["linear_form"][1])))
            for t in blob["terms"]
        )
        with mpmath.workprec(bits + 16):
            residual = mpmath.mpf(blob.get("residual", "0"))
        return cls(int(blob["degree"]), terms, residual, blob.get("field", "complex"), bits)


def _power_column(alpha, beta, d: int, one) -> list:
    """Monomial coefficients of (alpha*u + beta*t)^d over any ring with
    the given multiplicative identity."""
    apow = [one]
    bpow = [one]
    for _ in range(d):
        apow.append(apow[-1] * alpha)
        bpow.append(bpow[-1] * beta)
    return [comb(d, k) * (apow[d - k] * bpow[k]) for k in range(d + 1)]


def _exact_reconstruction(terms, d: int) -> BinaryForm:
    total = [Fraction(0)] * (d + 1)
    for s, (a, b) in terms:
        col = _power_column(Fraction(a), Fraction(b), d, Fraction(1))
        for k in range(d + 1):
            total[k] += Fraction(s) * col[k]
    return BinaryForm(d, tuple(total))


def _is_exact(x) -> bool:
    return isinstance(x, (int, Fraction))


def verify_decomposition(f: BinaryForm, dec: Decomposition):
    """Max-norm of f minus the reconstruction, relative to the max-norm of f.

    Exact inputs give an exact (possibly zero) answer; otherwise the residual
    is evaluated at the decomposition's stated precision.
    """
    if f.degree != dec.degree:
        raise ValueError("degree mismatch between form and decomposition")
    if f.is_zero():
        raise ZeroFormError("verification against the zero form")
    scale = max(abs(c) for c in f.coeffs)
    all_exact = all(
        _is_exact(s) and _is_exact(a) and _is_exact(b) for s, (a, b) in dec.terms
    )
    if all_exact:
        diff = f - _exact_reconstruction(dec.terms, f.degree)
        rel = Fraction(max(abs(c) for c in diff.coeffs), scale)
        return mpmath.mpf(rel.numerator) / int(rel.denominator)
    bits = max(dec.precision_bits, 64)
    with mpmath.workprec(bits + 32):
        total = [mpmath.mpc(0)] * (f.degree + 1)
        for s, (a, b) in dec.terms:
            col = _power_column(_to_mpc(a), _to_mpc(b), f.degree, mpmath.mpf(1))
            sz = _to_mpc(s)
            for k in range(f.degree + 1):
                total[k] += sz * col[k]
        worst = mpmath.mpf(0)
        for k, c in enumerate(f.coeffs):
            fc = mpmath.mpf(c.numerator) / c.denominator
            worst = max(worst, abs(fc - total[k]))
        return +(worst / (mpmath.mpf(scale.numerator) / scale.denominator))


def _to_mpc(x):
    if isinstance(x, (int, Fraction)):
        q = Fraction(x)
        return mpmath.mpc(mpmath.mpf(q.numerator) / q.denominator)
    return mpmath.mpc(x)


def decompose(f: BinaryForm, precision_bits: int = 192) -> Decomposition:
    """Minimal power-sum decomposition for forms with a square-free witness.

    The scalar solve is exact over the rationals when every root of the
    witness is rational, exact over a quadratic number field when exactly one
    irreducible quadratic factor remains, and big-float complex otherwise.
    Raises NonReducedRank when the rank witness is a non-reduced scheme.
    """
    cert = rank(f)
    if cert.witness_kind != "squarefree":
        raise NonReducedRank(
            "rank witness is non-reduced; no length-r power sum is produced"
        )
    g = cert.witness_form
    k, tau = g.tau_poly()
    factors = ratfactor.irreducible_factors(tau)
    points: list[tuple[Fraction, Fraction]] = []
    if k:
        points.append((Fraction(0), Fraction(1)))
    quads = []
    hard = False
    for coeffs, mult in factors:
        deg = len(coeffs) - 1
        if deg == 1:
            points.append((Fraction(1), -coeffs[0]))
        elif deg == 2:
            quads.append(coeffs)
        else:
            hard = True
    if not quads and not hard:
        return _decompose_rational(f, cert, points, precision_bits)
    if len(quads) == 1 and not hard:
        return _decompose_quadratic(f, cert, points, quads[0], precision_bits)
    return _decompose_numeric(f, cert, precision_bits)


def _solve_terms(f: BinaryForm, points: list[tuple], one, lift) -> list:
    """Solve for scalars in ring elements: columns are powers of the points,
    right side the monomial coefficients of f."""
    d = f.degree
    cols = [_power_column(a, b, d, one) for a, b in points]
    rows = [[col[j] for col in cols] for j in range(d + 1)]
    rhs = [lift(c) for c in f.coeffs]
    sol = linalg.solve(rows, rhs)
    if sol is None:
        raise CertificateError("power-sum system is inconsistent")
    return list(sol)


def _decompose_rational(
    f: BinaryForm, cert, points: list[tuple[Fraction, Fraction]], bits: int
) -> Decomposition:
    scalars = _solve_terms(f, points, Fraction(1), Fraction)
    terms = tuple((s, p) for s, p in zip(scalars, points))
    diff = f - _exact_reconstruction(terms, f.degree)
    if not diff.is_zero():
        raise CertificateError("rational decomposition does not reconstruct the form")
    return Decomposition(f.degree, terms, mpmath.mpf(0), "rational", bits)


def _decompose_quadratic(
    f: BinaryForm,
    cert,
    rational_points: list[tuple[Fraction, Fraction]],
    quad,
    bits: int,
) -> Decomposition:
    field = NumberField(quad)
    gamma = field.gen
    other = field.from_rational(-quad[1] / quad[2]) - gamma
    pts = [(field.from_rational(a), field.from_rational(b)) for a, b in rational_points]
    pts.append((field.one, gamma))
    pts.append((field.one, other))
    scalars = _solve_terms(f, pts, field.one, field.from_rational)
    total = [field.zero for _ in range(f.degree + 1)]
    for s, (a, b) in zip(scalars, pts):
        col = _power_column(a, b, f.degree, field.one)
        for j in range(f.degree + 1):
            total[j] = total[j] + s * col[j]
    if any(total[j] != field.from_rational(c) for j, c in enumerate(f.coeffs)):
        raise CertificateError("quadratic decomposition does not reconstruct the form")
    emb = sorted(
        isolate_roots(field.modulus, bits), key=lambda r: (r.is_real, r.approx_re, r.approx_im)
    )[-1].refine(bits)
    with mpmath.workprec(bits + 32):
        terms = []
        for s, (a, b) in zip(scalars, pts):
            if s.is_rational() and a.is_rational() and b.is_rational():
                terms.append((s.rational_value(), (a.rational_value(), b.rational_value())))
            else:
                terms.append((s.numeric(emb), (a.numeric(emb), b.numeric(emb))))
    dec = Decomposition(f.degree, tuple(terms), mpmath.mpf(0), "algebraic", bits)
    residual = verify_decomposition(f, dec)
    return Decomposition(f.degree, dec.terms, residual, "algebraic", bits)


def _decompose_numeric(f: BinaryForm, cert, bits: int) -> Decomposition:
    roots = numeric_roots(cert.witness_form, bits)
    with mpmath.workprec(bits + 32):
        pts = []
        for root in roots:
            if root.exact:
                pts.append((Fraction(root.a), Fraction(root.b)))
            else:
                pts.append((mpmath.mpc(root.a), mpmath.mpc(root.b)))
        d = f.degree
        cols = [_power_column(_to_mpc(a), _to_mpc(b), d, mpmath.mpf(1)) for a, b in pts]
        mat = mpmath.matrix(d + 1, len(pts))
        rhs = mpmath.matrix(d + 1, 1)
        for j in range(d + 1):
            for i in range(len(pts)):
                mat[j, i] = cols[i][j]
            c = f.coeffs[j]
            rhs[j] = mpmath.mpf(c.numerator) / c.denominator
        sol, _ = mpmath.qr_solve(mat, rhs)
        terms = tuple((+sol[i], pts[i]) for i in range(len(pts)))
    dec = Decomposition(f.degree, terms, mpmath.mpf(0), "complex", bits)
    residual = verify_decomposition(f, dec)
    if not residual < mpmath.mpf(2) ** (-bits // 2):
        raise PrecisionError("decomposition residual above the precision target")
    return Decomposition(f.degree, dec.terms, residual, "complex", bits)
