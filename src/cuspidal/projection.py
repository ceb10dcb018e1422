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
B(lambda) over the pencil, and :func:`x_rank` computes that minimum exactly:

* lambda enters the level-r Hankel matrix only in the two cells with
  j + k = 1, so rows 2.. are constant.  Multiplying rows 0 and 1 by a basis
  of the kernel K of the constant rows leaves a 2 x dim K matrix affine in
  lambda; the lambda where the level-r kernel jumps are the roots of its
  gcd (dim K = 1) or determinant (dim K = 2), a polynomial of degree at
  most 2, hence rational or quadratic irrationals.
* Levels are scanned upward.  The first level whose kernel is nontrivial
  for every lambda is the generic first-kernel level of the pencil; a lift
  first acquiring a kernel at level r has rank at least r, so whole levels
  are pruned exactly once the running minimum is that small.
* At the generic level the square-free-witness dichotomy is decided on a
  rational grid wider than the lambda-degree of the relevant discriminant,
  making the generic certificate deterministic; a pair of seeded random
  probes cross-checks it.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb

from . import linalg, ratfactor, univar
from .apolarity import CertificateError, RankCertificate, rank as sylvester_rank
from .binform import BinaryForm, NumericRoot, P1Point, ZeroFormError, is_integer_literal
from .numberfield import AlgebraicNumber, NFElement, NumberField, isolate_roots


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
    line at A (any other point of that tangent line off A is equivalent
    under reparametrization; see ProjectedPoint.reparametrized)."""

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
        vec = tuple(Fraction(c) for c in self.coords)
        if len(vec) != self.n + 1:
            raise ProjectionError(f"expected {self.n + 1} coordinates, got {len(vec)}")
        if not any(vec):
            raise ProjectionError("a projective point has a nonzero coordinate")
        object.__setattr__(self, "coords", vec)
        den = 1
        for c in vec:
            den = den * c.denominator // math.gcd(den, c.denominator)
        ints = [c * den for c in vec]
        g = 0
        for c in ints:
            g = math.gcd(g, abs(c.numerator))
        ints = [c / g for c in ints]
        lead = next(c for c in ints if c)
        if lead < 0:
            ints = [-c for c in ints]
        object.__setattr__(self, "canonical", tuple(ints))

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

    def reparametrized(self, s) -> "ProjectedPoint":
        """Image under the chart change t -> s*t of the parameter line, which
        fixes the cusp and slides the center along the tangent line: the
        coordinate of original slot i picks up a factor s^i."""
        s = Fraction(s)
        if not s:
            raise ProjectionError("reparametrization needs s != 0")
        return ProjectedPoint(
            self.n, tuple(c * s**i for c, i in zip(self.coords, self.slots))
        )

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "coords": [str(c) for c in self.coords],
            "deleted_slot": 1,
        }

    @classmethod
    def from_json(cls, blob: dict) -> "ProjectedPoint":
        if not isinstance(blob, dict) or "n" not in blob or "coords" not in blob:
            raise ProjectionError('a projected point is an object with "n" and "coords"')
        if not isinstance(blob["coords"], list):
            raise ProjectionError('"coords" must be a list')
        if blob.get("deleted_slot", 1) != 1:
            raise ProjectionError("only slot-1 projections are supported")
        if not is_integer_literal(blob["n"]):
            raise ProjectionError(f'"n" must be an integer, got {blob["n"]!r}')
        try:
            n, coords = int(blob["n"]), tuple(Fraction(c) for c in blob["coords"])
        except TypeError as exc:
            raise ProjectionError(f"malformed projected point: {exc}") from None
        return cls(n, coords)

    def __str__(self) -> str:
        return "(" + ":".join(str(c) for c in self.coords) + ")"


def project(f: BinaryForm) -> ProjectedPoint:
    """Delete the slot-1 apolar coordinate; undefined on the center itself."""
    if f.is_zero():
        raise ZeroFormError("projection of the zero form")
    d = f.degree
    if d < 4:
        raise ProjectionError("projection needs degree n+1 with n >= 3")
    a = [f.coeffs[i] / comb(d, i) for i in range(d + 1)]
    rest = [a[0]] + a[2:]
    if not any(rest):
        raise ProjectionError("the form is the center of projection")
    return ProjectedPoint(d - 1, tuple(rest))


@dataclass(frozen=True)
class FieldForm:
    """A lift whose deleted coefficient is an algebraic number: apolar
    coordinate vector over Q[x]/(minpoly), the generator playing lambda."""

    field: NumberField
    degree: int
    a_coeffs: tuple[NFElement, ...]


def lift(P: ProjectedPoint, lam):
    """The lift of P whose deleted monomial coefficient c_1 equals lam.

    Rational lam gives an exact BinaryForm; an AlgebraicNumber gives a
    FieldForm, since its coefficients leave the rationals.
    """
    d = P.n + 1
    if isinstance(lam, AlgebraicNumber):
        field = NumberField([Fraction(c) for c in lam.minpoly])
        a = P.apolar_with_slot(field.gen / d)
        coeffs = tuple(
            field.from_rational(c) if not isinstance(c, NFElement) else c for c in a
        )
        return FieldForm(field, d, coeffs)
    lam = Fraction(lam)
    a = P.apolar_with_slot(lam / d)
    return BinaryForm(d, tuple(a[i] * comb(d, i) for i in range(d + 1)))


def cusp_curve_point(n, t) -> ProjectedPoint:
    """Image on the cuspidal curve of the parameter point t, in dimension n.

    Accepts a ProjectionFrame or a plain n.  Exact points only; for numeric
    roots carrying an exact value the exact point is used.
    """
    if isinstance(n, ProjectionFrame):
        n = n.n
    if isinstance(t, NumericRoot):
        if not t.exact:
            raise ProjectionError("cusp-curve images need an exact parameter point")
        t = t.point()
    if not isinstance(t, P1Point):
        raise TypeError("expected a P1Point or an exact NumericRoot")
    d = n + 1
    vec = [t.a ** (d - i) * t.b**i for i in range(d + 1)]
    return ProjectedPoint(n, tuple([vec[0]] + vec[2:]))


# -- the special values of the pencil ---------------------------------------


def special_lambdas(P: ProjectedPoint, r: int, precision_bits: int = 192):
    """Exact lambda values where the level-r kernel of the pencil jumps.

    Rows 2.. of the level-r Hankel matrix are constant; let K be their
    kernel.  The full kernel at lambda is the set of v in K killed by rows 0
    and 1, whose products with a basis of K form a 2 x dim K matrix affine
    in lambda.  dim K = 0 gives no special lambda and dim K >= 3 gives
    ALL_LAMBDA; otherwise the special values are the roots of the gcd of
    the two entries (dim K = 1) or of the 2 x 2 determinant (dim K = 2), a
    polynomial of degree at most 2, and ALL_LAMBDA when it vanishes
    identically.  Returned as rationals first in increasing order, then
    algebraic numbers grouped by minimal polynomial.
    """
    d = P.n + 1
    if not 1 <= r <= (d + 2) // 2:
        raise ProjectionError(f"level must lie in 1..{(d + 2) // 2}")
    a = P.apolar_with_slot(None)
    kernel = linalg.nullspace(
        [[a[j + k] for k in range(r + 1)] for j in range(2, d - r + 1)], ncols=r + 1
    )
    if len(kernel) >= 3:
        return ALL_LAMBDA
    if not kernel:
        return []
    # (row 0 . v, row 1 . v) as polynomials in lambda; a_1 = lambda/d
    pencil = [
        (
            univar.trim([sum(a[k] * v[k] for k in range(r + 1) if k != 1), v[1] / d]),
            univar.trim([sum(a[k + 1] * v[k] for k in range(1, r + 1)), v[0] / d]),
        )
        for v in kernel
    ]
    if len(pencil) == 1:
        g = univar.gcd(*pencil[0])
    else:
        (p0, p1), (q0, q1) = pencil
        g = univar.sub(univar.mul(p0, q1), univar.mul(p1, q0))
    if not g:
        return ALL_LAMBDA
    if univar.degree(g) == 0:
        return []
    rats: list[Fraction] = []
    algs: list[AlgebraicNumber] = []
    for fac, _mult in ratfactor.irreducible_factors(g):
        if len(fac) == 2:
            rats.append(-fac[0] / fac[1])
        else:
            algs.extend(isolate_roots(fac, precision_bits))
    rats.sort()
    algs.sort(key=lambda z: (z.minpoly, z.approx_re, z.approx_im))
    return rats + algs


# -- rank of a lift over a number field --------------------------------------


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


def _field_is_square_free(coeffs: list, degree: int) -> bool:
    """Square-freeness of a binary form given by coefficients over a field.

    coeffs[i] multiplies u^{degree-i} t^i.  The form factors as u^k times
    the homogenization of the trimmed dehomogenized polynomial; it is
    square-free iff k <= 1 and that polynomial has no repeated root.
    """
    p = univar.trim(list(coeffs))
    if not p:
        raise ZeroFormError("square-freeness of the zero form")
    k = degree - univar.degree(p)
    if k > 1:
        return False
    if univar.degree(p) == 0:
        return True
    g = univar.gcd(p, univar.derivative(p))
    return univar.degree(g) == 0


def field_rank_certificate(ff: FieldForm) -> FieldCertificate:
    """Sylvester dichotomy for a lift over a number field, run exactly."""
    d = ff.degree
    a = ff.a_coeffs
    field = ff.field
    for r in range(1, (d + 2) // 2 + 1):
        rows = [[a[j + k] for k in range(r + 1)] for j in range(d - r + 1)]
        rk = linalg.rank_field(rows)
        dim = (r + 1) - rk
        if dim == 0:
            continue
        basis = linalg.nullspace_field(rows, ncols=r + 1)
        if dim == 1:
            gen = list(basis[0])
            if _field_is_square_free(gen, r):
                return FieldCertificate(r, r, "squarefree", tuple(field.modulus))
            return FieldCertificate(r, d + 2 - r, "nonreduced", tuple(field.modulus))
        # two-dimensional first kernel: a square-free member always exists,
        # found on a rational grid wider than the discriminant degree
        grid: list[Fraction] = [Fraction(0)]
        step = 1
        while len(grid) < 2 * r + 2:
            grid.extend((Fraction(step), Fraction(-step)))
            step += 1
        for c0, c1 in itertools.product(grid, repeat=2):
            combo = [
                basis[0][i] * c0 + basis[1][i] * c1 for i in range(r + 1)
            ]
            if all(not x for x in combo):
                continue
            if _field_is_square_free(combo, r):
                return FieldCertificate(r, r, "squarefree", tuple(field.modulus))
        raise CertificateError("two-dimensional kernel without square-free member")
    raise CertificateError("no kernel level found for a nonzero form")


# -- the fiber minimization ---------------------------------------------------


@dataclass(frozen=True)
class XRankResult:
    """Minimum rank over the fiber pencil, with the minimizing lift.

    complete is False exactly when some class of algebraic special lambda
    exceeded the number-field degree bound and could not be ruled out;
    unexplored then lists the offending minimal polynomials and flag holds
    "AlgebraicDegreeExceeded".
    """

    value: int
    witness_lambda: object
    witness_certificate: object
    witness_set_on_X: tuple[ProjectedPoint, ...] | None
    complete: bool = True
    unexplored: tuple[tuple[Fraction, ...], ...] = ()
    flag: str | None = None

    def to_json(self) -> dict:
        lam = self.witness_lambda
        if isinstance(lam, AlgebraicNumber):
            lam_blob = lam.to_json()
        else:
            lam_blob = str(lam)
        return {
            "value": self.value,
            "witness_lambda": lam_blob,
            "witness_certificate": self.witness_certificate.to_json(),
            "witness_set_on_X": (
                None
                if self.witness_set_on_X is None
                else [p.to_json() for p in self.witness_set_on_X]
            ),
            "complete": self.complete,
            "unexplored": [[str(c) for c in m] for m in self.unexplored],
            "flag": self.flag,
        }


def _witness_points(P: ProjectedPoint, cert: RankCertificate):
    """Images on the cuspidal curve of the computing set, when rational."""
    if cert.witness_kind != "squarefree" or cert.witness_scheme is None:
        return None
    pts = cert.witness_scheme.rational_points()
    if pts is None:
        return None
    return tuple(cusp_curve_point(P.n, pt) for pt, _mult in pts)


def _certificate_sort_key(value: int, cert, lam) -> tuple:
    kind = getattr(cert, "witness_kind", "nonreduced")
    rational = isinstance(lam, Fraction)
    size = abs(lam) if rational else Fraction(10**9)
    return (value, 0 if kind == "squarefree" else 1, 0 if rational else 1, size)


def x_rank(
    P: ProjectedPoint,
    *,
    nf_degree_bound: int = 4,
    precision_bits: int = 192,
    rng: random.Random | None = None,
) -> XRankResult:
    """Exact minimum of the rank of B(lambda) over the fiber pencil.

    The scan visits every special lambda at every level below the generic
    first-kernel level, evaluates rank exactly (over Q at rational lambda,
    over Q[lambda]/(minpoly) at algebraic lambda of degree within
    nf_degree_bound), adds a deterministic generic certificate, and returns
    the minimum.  Levels at or above the running minimum are pruned, which
    is exact: a lift first acquiring a kernel at level r has rank >= r.
    Special lambda are at most quadratic (see special_lambdas), so any
    nf_degree_bound >= 2 leaves the scan complete.
    """
    if rng is None:
        rng = random.Random(0x57A7)
    d = P.n + 1
    cap = (d + 2) // 2

    # first pass: locate the generic first-kernel level and collect the
    # special lambda of each lower level (each lambda reported at the level
    # where its kernel first appears, which is its border rank)
    per_level: dict[int, list] = {}
    seen_rat: set[Fraction] = set()
    seen_alg: set[tuple] = set()
    w_gen = None
    for r in range(1, cap + 1):
        got = special_lambdas(P, r, precision_bits)
        if got is ALL_LAMBDA:
            w_gen = r
            break
        fresh = []
        for lam in got:
            if isinstance(lam, Fraction):
                if lam in seen_rat:
                    continue
                seen_rat.add(lam)
            else:
                key = (lam.minpoly, lam.approx_re, lam.approx_im)
                if key in seen_alg:
                    continue
                seen_alg.add(key)
            fresh.append(lam)
        if fresh:
            per_level[r] = fresh
    if w_gen is None:
        # columns outnumber rows at the cap, so the cap level is AllLambda
        raise CertificateError("no generic kernel level found below the cap")

    # generic certificate: rational lambda away from every special value.
    # Square-freeness of the generic witness is an open condition whose
    # failure locus has lambda-degree at most 2*(2*w_gen - 1), so a clean
    # grid of that many misses ties the dichotomy down deterministically.
    candidates: list[tuple] = []
    grid_needed = 4 * w_gen + 2
    generic_cert = None
    generic_lam = None
    step = 0
    tried = 0
    while tried < grid_needed:
        lam = Fraction(step)
        step = -step if step > 0 else -step + 1
        if lam in seen_rat:
            continue
        tried += 1
        cert = sylvester_rank(lift(P, lam))
        if cert.border_rank != w_gen:
            raise CertificateError("nonspecial lambda off the generic kernel level")
        if generic_cert is None:
            generic_cert, generic_lam = cert, lam
        if cert.witness_kind == "squarefree":
            generic_cert, generic_lam = cert, lam
            break
    # seeded random cross-check of the generic value
    for _ in range(2):
        while True:
            probe = Fraction(rng.randint(-(10**6), 10**6))
            if probe not in seen_rat:
                break
        if sylvester_rank(lift(P, probe)).rank != generic_cert.rank:
            raise CertificateError("generic-fiber probe disagrees with the grid")
    candidates.append((generic_cert.rank, generic_lam, generic_cert))

    # special lambda, by level, with exact pruning
    unexplored: dict[tuple, int] = {}
    best = min(c[0] for c in candidates)
    for r in sorted(per_level):
        if best <= r:
            break
        handled_fields: dict[tuple, FieldCertificate] = {}
        for lam in per_level[r]:
            if isinstance(lam, Fraction):
                cert = sylvester_rank(lift(P, lam))
                if cert.border_rank != r:
                    raise CertificateError("special lambda at the wrong first level")
                candidates.append((cert.rank, lam, cert))
                best = min(best, cert.rank)
            else:
                key = tuple(lam.minpoly)
                if lam.degree > nf_degree_bound:
                    unexplored.setdefault(key, r)
                    continue
                if key not in handled_fields:
                    handled_fields[key] = field_rank_certificate(lift(P, lam))
                fcert = handled_fields[key]
                candidates.append((fcert.rank, lam, fcert))
                best = min(best, fcert.rank)

    value, lam_star, cert_star = min(
        candidates, key=lambda c: _certificate_sort_key(c[0], c[2], c[1])
    )
    witness_points = (
        _witness_points(P, cert_star)
        if isinstance(cert_star, RankCertificate) and isinstance(lam_star, Fraction)
        else None
    )
    # a skipped class whose first kernel level is at or above the final value
    # cannot beat it (rank >= that level), so only lower levels are real gaps
    unexplored_final = tuple(m for m, lv in unexplored.items() if lv < value)
    complete = not unexplored_final
    return XRankResult(
        value=value,
        witness_lambda=lam_star,
        witness_certificate=cert_star,
        witness_set_on_X=witness_points,
        complete=complete,
        unexplored=unexplored_final,
        flag=None if complete else "AlgebraicDegreeExceeded",
    )
