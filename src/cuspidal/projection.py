"""Tangential projection from a point on the tangent line at (1:0).

Points of the ambient projective space carry the coordinates dual to the
power curve: a degree-d form corresponds to the vector of its apolar
coordinates a_i = c_i / binom(d, i), so the curve itself is the set of
vectors (alpha^{d-i} beta^i)_i.  The projection center is the slot-1
coordinate point, which lies on the tangent line of the curve at A = (1:0);
deleting that slot is the projection, and the image of the power curve is a
degree-d rational curve with an ordinary cusp at the image of A.

The fiber over a projected point P is the pencil of lifts B(lambda) indexed
by the deleted monomial coefficient c_1 = lambda.  The rank of P with
respect to the cuspidal curve is the minimum of the classical rank of
B(lambda) over the pencil, and :func:`x_rank` computes that minimum exactly
from B'', the form with apolar vector (a_2, ..., a_d): d^2 B/dt^2 up to a
factor, P projected once more, from the tangent line at A.

* lambda enters the level-r Hankel matrix only in the two cells with
  j + k = 1; rows 2.. are the catalecticant of B'', so the kernel K of the
  constant rows is Ann(B'')_r for every lambda.  Rows 0 and 1 times a basis
  of K leave a 2 x dim K block affine in lambda, and the kernel of B(lambda)
  is K c for c in the block's kernel.  The lambda where it jumps are the
  roots of the block's gcd (dim K = 1) or determinant (dim K = 2), of
  degree at most 2; dim K >= 3 leaves a kernel at every lambda.
* Ann(B'') is a complete intersection (g1, g2) of degrees w' <= d - w',
  w' the border rank of B'' (Comas-Seiguer, arXiv:math/0112311), whose
  first syzygy has degree d.  ``apolarity._ideal_generators`` gives both,
  and at every level below d, the cap included, K is spanned by the shifts
  u^i t^j g of the generators: r - w' + 1 of g1 from level w' on, none
  below, and those of g2 from level d - w' on.
* Hence no level below w' has a special lambda.  At w' with dim K = 1 the
  block is 2 x 1, with at most one special lambda, rational.  At w' + 1
  the block is 2 x 2 (or dim K >= 3), with at most two.  At w' + 2, and
  at the cap, where columns outnumber rows, dim K >= 3 and every lambda has
  a kernel.  So the scan visits only w'..w'+2 up to the cap, stops at the
  first generic level w_gen, and reports each lambda at its first kernel
  level, the first level where it appears.
* At a rational lambda the block is a 2 x dim K integer matrix, and its
  kernel is read off its 2 x 2 minors (``_block_kernel``): no elimination.
* A special lambda that is not rational is a root gamma of an irreducible
  quadratic, where the block has rank one and its kernel form is g = v0 +
  gamma v1 with v0, v1 rational.  With h = gcd(v0, v1), the norm N = g g~
  over h is a rational form, square-free exactly when g is (the proof is at
  ``_Pencil.field_certificate``).  N square-free modulo a listed prime
  proves h = 1 and g square-free, so the rank at gamma and at its conjugate
  comes from N mod p; only when no listed prime proves it does
  ``binform.is_square_free`` of N / h decide, as at every rational lambda.
* B'' = 0 exactly when P is the cusp, the image of A: the lift at
  lambda = 0 is a power of u, of rank 1.

Off the cusp :func:`fiber_scan` keeps the scan as a :class:`FiberScan`.  A
form B is the lift of its own image at lambda = d a_1(B), so
``FiberScan.certificate`` certifies B with no first kernel of its own.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction

from . import linalg, ratfactor, univar
from .apolarity import CertificateError, RankCertificate, _certify, _dot, _ideal_generators
from .apolarity import rank as sylvester_rank
from .binform import (
    BinaryForm,
    GrammarError,
    P1Point,
    ZeroFormError,
    ZeroScheme,
    _check_degree,
    _coefficient,
    apolar_coeffs,
    form_from_apolar,
    is_integer_literal,
    is_square_free,
)
from .numberfield import AlgebraicNumber


class ProjectionError(ValueError):
    pass


class _AllLambda:
    """Marker: the requested kernel level is nontrivial for every lambda."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "AllLambda"


ALL_LAMBDA = _AllLambda()


@dataclass(frozen=True)
class ProjectionFrame:
    """Ambient data: curve degree d = n+1, cusp preimage A = (1:0), and the
    projection center fixed as the slot-1 coordinate point of the tangent
    line at A.  Any other point of that tangent line off A is equivalent:
    the chart change t -> s*t of the parameter line fixes the cusp, slides
    the center along the tangent line, and scales the coordinate of slot i
    by s^i."""

    n: int

    def __post_init__(self) -> None:
        if self.n < 3:
            raise ProjectionError("projection frame needs n >= 3")

    @property
    def d(self) -> int:
        return self.n + 1


@dataclass(frozen=True, eq=False)
class ProjectedPoint:
    """Image of a degree-(n+1) form: apolar coordinate vector, slot 1 deleted.

    coords[0] is a_0 and coords[j] for j >= 1 is a_{j+1}.  The stored vector
    keeps the scale it was given, so lifting with the original deleted
    coefficient reproduces the original form on the nose; equality and
    hashing quotient out the global scale.
    """

    n: int
    coords: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if self.n < 3:
            raise ProjectionError("projected point needs n >= 3")
        vec = tuple(c if type(c) is Fraction else Fraction(c) for c in self.coords)
        if len(vec) != self.n + 1:
            raise ProjectionError(f"expected {self.n + 1} coordinates, got {len(vec)}")
        if not any(vec):
            raise ProjectionError("a projective point has a nonzero coordinate")
        object.__setattr__(self, "coords", vec)

    @cached_property
    def canonical(self) -> tuple[int, ...]:
        """The primitive integer vector of coords, read by ``==`` and ``hash``."""
        return linalg.canonical_vector(self.coords)

    @cached_property
    def _cleared(self) -> tuple[int, tuple[int, ...]]:
        """D, the lcm of the denominators of coords, and D times the apolar
        vector with slot 1 at 0: the integers of every level's pencil."""
        D = math.lcm(*(c.denominator for c in self.coords))
        return D, tuple(c.numerator * (D // c.denominator) for c in self.apolar_with_slot(0))

    def __eq__(self, other) -> bool:
        if not isinstance(other, ProjectedPoint):
            return NotImplemented
        return self.n == other.n and self.canonical == other.canonical

    def __hash__(self) -> int:
        return hash((self.n, self.canonical))

    @property
    def slots(self) -> tuple[int, ...]:
        """Original apolar slot index of each stored coordinate."""
        return (0,) + tuple(range(2, self.n + 2))

    def apolar_with_slot(self, slot1_value) -> list:
        """Full length-(n+2) apolar vector with the given slot-1 value."""
        full = [slot1_value] * (self.n + 2)
        full[0] = self.coords[0]
        for j in range(1, self.n + 1):
            full[j + 1] = self.coords[j]
        full[1] = slot1_value
        return full

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "coords": [str(c) for c in self.coords],
            "deleted_slot": 1,
        }

    @classmethod
    def from_json(cls, blob: dict) -> "ProjectedPoint":
        """Read {"n", "coords"}, within the limits of forms: a degree n + 1
        above ``MAX_DEGREE``, or a coordinate whose numerator or denominator
        has more than ``MAX_COEFFICIENT_BITS`` bits, is a ProjectionError."""
        if not isinstance(blob, dict) or "n" not in blob or "coords" not in blob:
            raise ProjectionError('a projected point is an object with "n" and "coords"')
        if not isinstance(blob["coords"], list):
            raise ProjectionError('"coords" must be a list')
        if blob.get("deleted_slot", 1) != 1:
            raise ProjectionError("only slot-1 projections are supported")
        if not is_integer_literal(blob["n"]):
            raise ProjectionError(f'"n" must be an integer, got {blob["n"]!r}')
        try:
            _check_degree(int(blob["n"]) + 1)
            coords = tuple(_coefficient(str(c)) for c in blob["coords"])
        except GrammarError as exc:
            raise ProjectionError(f"malformed projected point: {exc}") from None
        return cls(int(blob["n"]), coords)

    def __str__(self) -> str:
        return "(" + ":".join(str(c) for c in self.coords) + ")"


def project(f: BinaryForm) -> ProjectedPoint:
    """Delete the slot-1 apolar coordinate; undefined on the center itself."""
    if f.is_zero():
        raise ZeroFormError("projection of the zero form")
    if f.degree < 4:
        raise ProjectionError("projection needs degree n+1 with n >= 3")
    a = apolar_coeffs(f).entries
    rest = (a[0],) + a[2:]
    if not any(rest):
        raise ProjectionError("the form is the center of projection")
    return ProjectedPoint(f.degree - 1, rest)


def lift(P: ProjectedPoint, lam) -> BinaryForm:
    """The lift of P whose deleted monomial coefficient c_1 equals lam.

    Only rational lam has a lift here; the fiber scan certifies algebraic
    lambda from the pencil without forming the lift.
    """
    if isinstance(lam, AlgebraicNumber):
        raise ProjectionError("lifts are formed at rational lambda only")
    return form_from_apolar(P.apolar_with_slot(Fraction(lam) / (P.n + 1)))


def cusp_curve_point(n: int, t: P1Point) -> ProjectedPoint:
    """Image on the cuspidal curve of the parameter point t, in dimension n:
    (1, tau, ..., tau^d) at t = (1:tau), slot 1 deleted."""
    d = n + 1
    if t.tau is None:
        vec = [0] * d + [1]
    else:
        vec = list(itertools.accumulate([t.tau] * d, Fraction.__mul__, initial=Fraction(1)))
    return ProjectedPoint(n, tuple([vec[0]] + vec[2:]))


def cusp_curve_images(n: int, scheme: ZeroScheme):
    """Images on the cuspidal curve of the points of scheme, when all are
    rational; None otherwise."""
    pts = scheme.rational_points()
    if pts is None:
        return None
    return tuple(cusp_curve_point(n, p) for p, _mult in pts)


# -- the pencil of one level -------------------------------------------------


def _block_kernel(x: list, y: list) -> list[list]:
    """A basis of the kernel of the 2 x k matrix with rows x and y, read off
    its 2 x 2 minors: the unit vectors at rank 0; at rank 1, with z the
    first nonzero row and p its first nonzero column, z_p e_j - z_j e_p for
    j != p; at rank 2, with m = x_p y_q - x_q y_p the first nonzero minor,
    the Cramer vectors m e_j - [j, q] e_p - [p, j] e_q for j != p, q, [i, j]
    the minor of columns i and j."""
    k = len(x)

    def vector(*terms):  # sum of c e_i over the (c, i) given
        vec = [0] * k
        for c, i in terms:
            vec[i] = c
        return vec

    def minor(i, j):
        return x[i] * y[j] - x[j] * y[i]

    minors = ((p, q, minor(p, q)) for p, q in itertools.combinations(range(k), 2))
    p, q, m = next((pqm for pqm in minors if pqm[2]), (0, 0, 0))
    if m:
        return [vector((m, j), (-minor(j, q), p), (-minor(p, j), q))
                for j in range(k) if j not in (p, q)]
    z = x if any(x) else y
    p = next((i for i, c in enumerate(z) if c), None)
    if p is None:
        return [vector((1, j)) for j in range(k)]
    return [vector((z[p], j), (-z[j], p)) for j in range(k) if j != p]


@dataclass(frozen=True)
class _Pencil:
    """Level-r structure of the lift pencil of a degree-d point: a basis K of
    the kernel of the constant Hankel rows 2.., and for each basis vector v
    the pair (row 0 . v, row 1 . v), each as (constant, slope) in lambda,
    all up to one common scale."""

    d: int
    r: int
    kernel: list[tuple[Fraction, ...]]
    rows: list[tuple[tuple, tuple]]

    def special_values(self):
        """(key, lambda) for every lambda where the level-r kernel jumps, or
        ALL_LAMBDA.  The key is lambda itself when rational, and (minimal
        polynomial, branch) when algebraic, the lower branch first."""
        if len(self.kernel) >= 3:
            return ALL_LAMBDA
        if not self.kernel:
            return []
        polys = [(univar.trim(p), univar.trim(q)) for p, q in self.rows]
        if len(polys) == 1:
            g = univar.gcd(*polys[0])
        else:
            (p0, p1), (q0, q1) = polys
            g = univar.sub(univar.mul(p0, q1), univar.mul(p1, q0))
        if not g:
            return ALL_LAMBDA
        if univar.degree(g) == 0:
            return []
        # g has degree 1 or 2: rational roots, or one conjugate pair
        factors = [fac for fac, _mult in ratfactor._factor_low_degree(univar.primitive(g))]
        if len(factors[0]) == 3:
            roots = [AlgebraicNumber(factors[0], upper) for upper in (False, True)]
            return [((z.minpoly, z.upper), z) for z in roots]
        return [(lam, lam) for lam in sorted(Fraction(-fac[0], fac[1]) for fac in factors)]

    def kernel_at(self, lam: Fraction) -> list[tuple[Fraction, ...]]:
        """Level-r kernel of the lift at rational lam in its free-column
        basis (``linalg.free_column_basis``): K c for c in ``_block_kernel``
        of the 2 x dim K block at lam, put in that basis, which depends only
        on their span."""
        if not self.kernel:
            return []
        x, y = ([lam.denominator * c + lam.numerator * s for c, s in row]
                for row in zip(*self.rows))
        vecs = [[_dot(cs, col) for col in zip(*self.kernel)] for cs in _block_kernel(x, y)]
        if len(vecs) == 1:
            return [linalg.canonical_vector(vecs[0])]
        return linalg.free_column_basis(vecs)

    def certificate(self, lam: Fraction) -> RankCertificate:
        """Rank certificate of the lift at a rational lam whose first kernel
        level is r, equal field for field to ``apolarity.rank`` of the lift."""
        return _certify(self.d, self.r, [BinaryForm(self.r, v) for v in self.kernel_at(lam)])

    def field_certificate(self, minpoly: tuple[int, ...]) -> "FieldCertificate":
        """Rank certificate of the lifts at the roots of a quadratic minpoly.

        The block has rank one there, so its kernel is spanned by c(lambda)
        = (y, -x) for a row (x, y) of the block that is not identically
        zero; c, and with it v = K c = v0 + lambda v1, is affine in lambda.
        At a root gamma of mu = x^2 + p x + q the kernel form is g = v0 +
        gamma v1, and its product with the conjugate g~ is the norm N = v0^2
        - p v0 v1 + q v1^2, a rational form (Trager, SYMSAC 1976).  Read v0,
        v1 and h = gcd(v0, v1) as binary forms, so that a root at (0:1)
        counts.  A common factor of g and g~ divides g - g~ = (gamma -
        gamma~) v1 and then v0, so gcd(g, g~) = h.  Hence N / h = h (g/h)
        (g~/h), where g/h and g~/h are conjugate and coprime and h is
        rational: it is square-free iff h and g/h are square-free and
        coprime, that is iff g is.

        Scaled to integers, N is first tested modulo the primes of
        ``ratfactor.PRIMES`` (``_norm_square_free_mod``).  Square-free mod p
        proves N square-free over Q: a factor G^2 | N with G primitive in
        Z[u, t] gives N = G^2 H with H integral (Gauss), so N mod p = G~^2 H~
        with G~ a nonzero form of the degree of G, which has a double root
        on P^1 over the closure of F_p.  Then h = 1, as h^2 | N, and g is
        square-free.  When no listed prime proves it, the exact gcd h and
        ``is_square_free`` of N / h decide.
        """
        if len(self.kernel) != 2:
            raise CertificateError(f"algebraic lambda with dim K = {len(self.kernel)}")
        x, y = next(
            (row for row in zip(*self.rows) if any(row[0]) or any(row[1])),
            ((0, 0), (0, 0)),
        )
        k0, k1 = self.kernel
        v0 = [y[0] * a - x[0] * b for a, b in zip(k0, k1)]
        v1 = [y[1] * a - x[1] * b for a, b in zip(k0, k1)]
        if not any(v0) and not any(v1):
            raise CertificateError("the kernel vector vanishes at an algebraic lambda")
        # one integer scale for v0 and v1, and the norm times lc(minpoly)
        ints = linalg.canonical_vector(v0 + v1)
        modulus = tuple(Fraction(c, minpoly[2]) for c in minpoly)
        if any(_norm_square_free_mod(ints, minpoly, p) for p in ratfactor.PRIMES):
            return FieldCertificate(self.r, self.r, "squarefree", modulus)
        g0, g1 = BinaryForm(self.r, ints[: self.r + 1]), BinaryForm(self.r, ints[self.r + 1 :])
        c0, c1, c2 = minpoly
        norm = (g0 * g0).scaled(c2) - (g0 * g1).scaled(c1) + (g1 * g1).scaled(c0)
        h = univar.gcd(g0.coeffs, g1.coeffs)
        # h is u^k h(1, t) with k = r - max deg, so N / h has degree 2r - k - deg h(1, t)
        deg = self.r + max(univar.degree(g0.coeffs), univar.degree(g1.coeffs)) - univar.degree(h)
        quot = univar.div_exact(norm.coeffs, h)
        if is_square_free(BinaryForm(deg, quot + (0,) * (deg + 1 - len(quot)))):
            return FieldCertificate(self.r, self.r, "squarefree", modulus)
        return FieldCertificate(self.r, self.d + 2 - self.r, "nonreduced", modulus)


def _norm_square_free_mod(ints: tuple[int, ...], minpoly: tuple[int, ...], p: int) -> bool:
    """Whether N = c2 v0^2 - c1 v0 v1 + c0 v1^2 mod p, for ints = (v0, v1)
    two level-r vectors and minpoly = (c0, c1, c2), is square-free as a
    binary form of degree 2r: neither t^2 nor u^2 divides it (N = 0
    included), and N(1, t) has no multiple root (``ratfactor._serves``)."""
    half = len(ints) // 2
    v0, v1 = [c % p for c in ints[:half]], [c % p for c in ints[half:]]
    c0, c1, c2 = minpoly
    norm = [0] * (2 * half - 1)
    for c, f, g in ((c2 % p, v0, v0), (-c1 % p, v0, v1), (c0 % p, v1, v1)):
        for i, a in enumerate(f):
            if a:
                for j, b in enumerate(g, i):
                    norm[j] += c * a * b
    norm = [c % p for c in norm]
    if not any(norm[:2]) or not any(norm[-2:]):
        return False
    return ratfactor._serves(univar.trim(norm), p)


def _pencil(P: ProjectedPoint, r: int, gens: list[tuple[int, ...]]) -> _Pencil:
    """The level-r pencil of P, for gens = ``_ideal_generators`` of B''.  Rows
    0 and 1, where only a_1 = lambda/d moves, are scaled into integers by
    d * lcm(denominators of P), formed once per point; canonical kernels and
    primitive parts hide it."""
    d = P.n + 1
    if not 1 <= r <= (d + 2) // 2:
        raise ProjectionError(f"level must lie in 1..{(d + 2) // 2}")
    D, a = P._cleared
    kernel = _shifts(gens, r)
    # row j = 0, 1 of Hankel times v is sum_k a_(j+k) v_k, as a_1 = 0
    rows = [((d * _dot(a, v), D * v[1]), (d * _dot(a[1:], v), D * v[0])) for v in kernel]
    return _Pencil(d, r, kernel, rows)


def _shifts(gens: list[tuple[int, ...]], r: int) -> list[tuple[int, ...]]:
    """The level-r shifts u^(r-i-deg g) t^i g of the generators gens of an
    apolar ideal, those of g1 first, each i ascending: a basis of the
    ideal's level-r slice at every level below the degree of its first
    syzygy (module docstring), and every unit vector for gens = [(1,)]."""
    return [(0,) * i + g + (0,) * (r + 1 - len(g) - i)
            for g in gens for i in range(r + 2 - len(g))]


@dataclass(frozen=True)
class FieldCertificate:
    """Rank certificate for a lift with algebraic deleted coefficient.

    The witness form lives over Q[x]/(minpoly) and is not materialized as a
    rational object; the numbers and the witness kind are what the fiber
    minimization needs, and they are shared by all conjugate lambda.
    """

    border_rank: int
    rank: int
    witness_kind: str
    minpoly: tuple[Fraction, ...]

    def to_json(self) -> dict:
        return {
            "w": self.border_rank,
            "r": self.rank,
            "witness": {
                "type": self.witness_kind,
                "field": [str(c) for c in self.minpoly],
            },
        }


# -- the fiber minimization ---------------------------------------------------


@dataclass(frozen=True)
class XRankResult:
    """Minimum rank over the fiber pencil, with the minimizing lift."""

    value: int
    witness_lambda: object
    witness_certificate: object
    n: int

    @cached_property
    def witness_set_on_X(self) -> tuple[ProjectedPoint, ...] | None:
        """Curve images of the witness points when lambda is rational and the
        witness square-free with rational roots, else None; read lazily."""
        cert = self.witness_certificate
        if isinstance(self.witness_lambda, Fraction) and cert.witness_kind == "squarefree":
            return cusp_curve_images(self.n, cert.witness_scheme)
        return None

    def to_json(self) -> dict:
        lam, points = self.witness_lambda, self.witness_set_on_X
        return {
            "value": self.value,
            "witness_lambda": lam.to_json() if isinstance(lam, AlgebraicNumber) else str(lam),
            "witness_certificate": self.witness_certificate.to_json(),
            "witness_set_on_X": None if points is None else [p.to_json() for p in points],
        }


def _certificate_sort_key(value: int, cert, lam) -> tuple:
    rational = isinstance(lam, Fraction)
    size = abs(lam) if rational else 0
    return (value, 0 if cert.witness_kind == "squarefree" else 1, 0 if rational else 1, size)


def _generic_certificate(pencil: _Pencil, seen: set) -> tuple[RankCertificate, Fraction]:
    """Certificate and lambda of the generic lift at level pencil.r = w_gen:
    the first square-free point of a zigzag grid of integer lambda outside
    ``seen``, else its first point; the grid outnumbers the lambda-degree
    of the failure locus of square-freeness (the proof is at ``x_rank``).
    It stops at its first point if the kernel there is one form g with
    t^2 | g: lambda moves only a_1, which meets g_0 = g_1 = 0 alone, so g
    spans the one-dimensional kernel of every nonspecial lift.  The rest of
    the grid runs only for a nonreduced first point whose kernel moves with
    lambda."""
    zigzag = (Fraction(z) for k in itertools.count() for z in ((k, -k) if k else (0,)))
    best = best_lam = None
    for lam in itertools.islice((z for z in zigzag if z not in seen), 4 * pencil.r + 2):
        cert = pencil.certificate(lam)
        if best is None or cert.witness_kind == "squarefree":
            best, best_lam = cert, lam
        if cert.witness_kind == "squarefree" or _fixed(cert):
            break
    return best, best_lam


def _fixed(cert: RankCertificate) -> bool:
    """One kernel form g with t^2 | g: the same at every nonspecial lambda."""
    return cert.kernel_dimension == 1 and not any(cert.witness_form.coeffs[:2])


@dataclass(frozen=True)
class FiberScan:
    """The scan of a point off the cusp: levels below w_gen as (pencil, fresh
    special lambda), their keys ``seen``, the w_gen pencil, the generic
    certificate and lambda, every certificate kept, by (level, lambda), and
    the minimum ``x_rank`` returns."""

    levels: list[tuple[_Pencil, list]]
    seen: set
    generic: _Pencil
    generic_certificate: RankCertificate
    generic_lambda: Fraction
    certificates: dict[tuple[int, object], object]
    result: XRankResult

    def certificate(self, lam) -> RankCertificate:
        """``apolarity.rank`` of the lift at a rational lam, from its first
        kernel level: the one kept at every special lam, else the generic one
        if ``_fixed``, else a new one from the w_gen pencil."""
        pencil = next((pen for pen, fresh in self.levels if lam in fresh), self.generic)
        if (pencil.r, lam) not in self.certificates:
            if _fixed(self.generic_certificate):
                return self.generic_certificate
            self.certificates[pencil.r, lam] = pencil.certificate(lam)
        return self.certificates[pencil.r, lam]


def fiber_scan(P: ProjectedPoint) -> FiberScan:
    """The scan of the module docstring off the cusp (B'' != 0): each lift
    certified at its first kernel level, the generic value proved.

    Off ``seen``, the special lambda below w_gen, a lift has no kernel below
    w_gen, so its rank is w_gen or d+2-w_gen; a two-dimensional kernel at
    w_gen holds both generators of its apolar ideal, and then the two agree.
    Otherwise its kernel is one form K c(lambda), c made of minors of order
    <= 2 of the block, so its discriminant vanishes at no more than
    2 (2 w_gen - 2) lambda, or at all, and the 4 w_gen + 2 grid points of
    ``_generic_certificate`` outside ``seen`` find the least rank there.

    The least rank is r_X(P), at most n - dim X + 1 = n for the
    nondegenerate curve X in P^n (Landsberg and Teitler, Found. Comput.
    Math. 10, 2010, Prop. 5.1); a larger one raises CertificateError.
    """
    if not any(P.coords[1:]):
        raise ProjectionError("the cusp has no pencil to scan; its lift at 0 has rank 1")
    cap = (P.n + 3) // 2
    gens = _ideal_generators(P._cleared[1][2:])  # B'' in integers
    w = len(gens[0]) - 1
    levels, seen = [], set()  # (pencil, new special lambda) per level below w_gen
    for r in range(w, min(w + 2, cap) + 1):
        pencil = _pencil(P, r, gens)
        got = pencil.special_values()
        if got is ALL_LAMBDA:
            break
        levels.append((pencil, [lam for key, lam in got if key not in seen]))
        seen.update(key for key, _lam in got)
    else:
        raise CertificateError(f"no generic kernel level among {w}..{w + 2}")

    generic_cert, generic_lam = _generic_certificate(pencil, seen)
    certificates = {(pencil.r, generic_lam): generic_cert}  # min keeps the first of ties

    for level, fresh in levels:
        minpolys = {lam.minpoly for lam in fresh if not isinstance(lam, Fraction)}
        fields = {m: level.field_certificate(m) for m in minpolys}  # one per conjugate pair
        for lam in fresh:
            cert = level.certificate(lam) if isinstance(lam, Fraction) else fields[lam.minpoly]
            certificates[level.r, lam] = cert

    (_r, lam_star), cert_star = min(
        certificates.items(), key=lambda kc: _certificate_sort_key(kc[1].rank, kc[1], kc[0][1])
    )
    if cert_star.rank > P.n:
        raise CertificateError(f"X-rank {cert_star.rank} above the bound n = {P.n}")
    return FiberScan(levels, seen, pencil, generic_cert, generic_lam, certificates,
                     XRankResult(cert_star.rank, lam_star, cert_star, P.n))


def x_rank(P: ProjectedPoint) -> XRankResult:
    """Exact minimum of the rank of B(lambda) over the fiber pencil: the
    rank 1 of the lift at 0 at the cusp, else that of ``fiber_scan``."""
    if not any(P.coords[1:]):  # B'' = 0: the cusp
        cert = sylvester_rank(lift(P, 0))
        return XRankResult(cert.rank, Fraction(0), cert, P.n)
    return fiber_scan(P).result
