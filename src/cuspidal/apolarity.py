"""Catalecticant kernels, the rank dichotomy, and power-sum decompositions.

For a nonzero binary form f of degree d, the level-r catalecticant is the
Hankel matrix of apolar coefficients with d-r+1 rows and r+1 columns.  Its
right kernel, read back as degree-r forms, is the degree-r slice of the
apolar ideal.  The first level w with a nontrivial kernel is the border rank;
the apolar ideal is a complete intersection (g1, g2) of degrees w <= d+2-w,
and one remainder sequence of x^(d+1) and S(x) = sum a_k x^k gives both
(Helmke 1992; von zur Gathen-Gerhard §5.9), so it fixes w and the level-w
kernel.  The rank is w when the level-w kernel contains a square-free form
and d+2-w when it does not.  The roots of a square-free kernel form are the
linear forms of a minimal power-sum decomposition: a root (a:b) contributes
the summand s*(a*u + b*t)^d, which is the convention every residual check
here validates.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import InitVar, dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import comb, gcd, isqrt, lcm

from . import linalg, ratfactor, univar
from .binform import (
    BinaryForm,
    CertificateError,
    GrammarError,
    PrecisionError,
    ZeroFormError,
    ZeroScheme,
    _as_fraction,
    apolar_coeffs,
    approximate_roots,
    is_integer_literal,
    is_square_free,
)
from .numberfield import AlgebraicNumber


class AmbiguousScheme(ValueError):
    """Border scheme requested where the kernel has dimension above one."""


class NonReducedRank(ValueError):
    """Decomposition requested for a form whose rank witness is non-reduced."""


def _dot(x, y) -> int:
    return sum(p * q for p, q in zip(x, y))


@lru_cache(maxsize=64)
def _integer_apolar(f: BinaryForm) -> tuple[tuple[int, ...], int]:
    """(ints, den) with ints / den the apolar vector of f, den the lcm of
    its denominators.  Kept for the last 64 forms, as ``rank`` keeps their
    certificates, so that the rank and the scalars of a decomposition of
    one form build it once."""
    a = apolar_coeffs(f).entries
    den = lcm(*(c.denominator for c in a))
    return tuple(c.numerator * (den // c.denominator) for c in a), den


def _first_kernel(f: BinaryForm) -> tuple[int, list[BinaryForm]]:
    """Border rank w and the level-w kernel basis of f, in the order
    ``linalg.nullspace`` gives it: g1 alone when w < d+2-w, else the span of
    g1 and g2, the generators that ``_ideal_generators`` reads off one
    remainder sequence (Helmke 1992; von zur Gathen-Gerhard §5.9)."""
    if f.is_zero():
        raise ZeroFormError("rank of the zero form")
    g1, g2 = _ideal_generators(_integer_apolar(f)[0])
    w = len(g1) - 1
    basis = [g1] if 2 * w < f.degree + 2 else linalg.free_column_basis([g1, g2])
    return w, [BinaryForm(w, v) for v in basis]


def _remainder_generators(a: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """g1 and g2, unchecked, for a nonzero integer vector a of degree m >= 1.
    The pairs (r_i, t_i), r_i = t_i S mod x^(m+1), start at (x^(m+1), 0) and
    (S, 1), and each next one is the lc(r_i)^k pseudo-remainder with its
    cofactor.  Below degree m+1, r_i is t_i S, so only t_i is kept: a step
    reads the coefficient of r_i it needs as a dot product with a, and t_i
    is made primitive.  At the first i with deg r_i < deg t_i, t_i has level
    deg t_i and t_(i-1) level m+2 - deg t_i, as deg t_i = m+1 - deg r_(i-1);
    each is reversed at its level, the lower level first."""
    m = len(a) - 1
    t0, t1 = [], [1]
    d1 = max(j for j, x in enumerate(a) if x)  # r1 = S, of degree d1
    top, c, lc = m + 1, 1, a[d1]  # r0 = x^(m+1): degree top, leading c
    while True:
        while top >= d1:  # (r0, t0) <- lc (r0, t0) - c x^k (r1, t1)
            k = top - d1
            t0 = [x * lc for x in t0] + [0] * (k + len(t1) - len(t0))
            for j, y in enumerate(t1):
                t0[k + j] -= c * y
            top -= 1
            while top >= min(d1, len(t0) - 1) and not (c := _dot(t0, a[top::-1])):
                top -= 1
        if top < len(t0) - 1:
            break
        g = gcd(*t0)
        t0, t1, d1, top, c, lc = t1, [x // g for x in t0], top, d1, lc, c // g
    pair = t0[::-1], [0] * (m + 4 - len(t0) - len(t1)) + t1[::-1]
    return tuple(sorted(map(linalg.canonical_vector, pair), key=len))


def _ideal_generators(a) -> list[tuple[int, ...]]:
    """Generators of the apolar ideal of the degree-m form with apolar
    vector a: (1,) when a = 0, else g1 and g2 of degrees w <= m+2-w.  A
    level-L vector q is in the kernel iff q*(x) = sum q_j x^(L-j) has
    q* S = R mod x^(m+1) with deg R < L, S(x) = sum a_k x^k, a Pade problem
    that one remainder sequence of x^(m+1) and S solves at every level, g1
    and g2 being consecutive cofactors (``_remainder_generators``; Helmke,
    "Waring's problem for binary forms", JPAA 80, 1992; von zur Gathen and
    Gerhard, *Modern Computer Algebra*, §5.9).  They are checked, not
    trusted: both annihilate a, their degrees sum to m+2, and they are not
    both divisible by u and are coprime (modulo one of the listed primes,
    else by the exact gcd).  Then they generate the ideal, whatever computed
    them: the quotient by (g1, g2) is Gorenstein of socle degree m, and a
    larger ideal would contain its socle and annihilate every form."""
    if not any(a):
        return [(1,)]
    a = linalg.canonical_vector(a)
    m = len(a) - 1
    if not m:
        raise ValueError("catalecticant level 1 out of range for degree 0")
    g1, g2 = _remainder_generators(a)
    w, s = len(g1) - 1, len(g2) - 1
    if w + s != m + 2 or w > s:
        raise CertificateError(f"generators of degrees {w} and {s} for a form of degree {m}")
    for g in g1, g2:
        if any(_dot(a[i:], g) for i in range(m + 2 - len(g))):
            raise CertificateError(f"the level-{len(g) - 1} generator does not annihilate")
    g, h = (g1, g2) if g1[-1] else (g2, g1)
    # every listed prime: the generators of a large form can share factors
    # modulo several of them, and a gcd mod p costs far less than the exact one
    tries = len(ratfactor.PRIMES)
    if not g[-1] or not ratfactor.coprime(g, h, tries):
        raise CertificateError(f"the generators of degrees {w} and {s} share a factor")
    return [g1, g2]


def border_rank(f: BinaryForm) -> int:
    """Smallest r >= 1 whose catalecticant has a nontrivial kernel, read
    off the certificate of ``rank``."""
    return rank(f).border_rank


def border_scheme(f: BinaryForm) -> tuple[ZeroScheme, bool]:
    """Zero scheme of the kernel generator at the first level, with a flag
    telling whether that scheme is the unique minimal one (2w <= d+1), read
    off the certificate of ``rank``: with a one-dimensional first kernel
    the witness is that generator."""
    cert = rank(f)
    w, dim = cert.border_rank, cert.kernel_dimension
    if dim > 1:
        raise AmbiguousScheme(f"kernel at level {w} has dimension {dim}; no canonical scheme")
    return cert.witness_scheme, 2 * w <= f.degree + 1


def find_squarefree_in_kernel(basis: list[BinaryForm]) -> BinaryForm | None:
    """A square-free member of the span of one or two degree-r forms, or None.

    One form is tested by itself.  For a pencil s*g0 + t*g1 the members with
    a repeated root are the zeros of its discriminant, a binary form of
    degree 2r-2 in (s:t).  When the pencil has no base point, as a
    two-dimensional first kernel never has, its general member is
    square-free (Bertini), so that form is nonzero and 2r-1 distinct points
    of P^1 cannot all be its roots.  A seeded random pre-pass of up to 32
    draws comes first, each drawn when it is tried, and usually exits early.
    """
    if len(basis) not in (1, 2):
        raise ValueError(f"expected one or two forms, got {len(basis)}")
    r = basis[0].degree
    if any(g.degree != r for g in basis):
        raise ValueError("mixed degrees in kernel basis")
    if len(basis) == 1:
        return basis[0] if is_square_free(basis[0]) else None
    g0, g1 = basis
    rng = random.Random(0x5F1E)
    draws = ((rng.randint(-r - 1, r + 1), rng.randint(-r - 1, r + 1)) for _ in range(32))
    for s, t in itertools.chain(draws, [(1, 0)], ((x, 1) for x in range(2 * r - 2))):
        cand = g0.scaled(s) + g1.scaled(t)
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
        return ZeroScheme(((self.witness_form, 1),))

    def to_json(self) -> dict:
        return {
            "w": self.border_rank,
            "r": self.rank,
            "witness": {
                "type": self.witness_kind,
                "factors": [[g.pretty(), m] for g, m in self.witness_scheme.factors],
            },
        }


@lru_cache(maxsize=64)
def rank(f: BinaryForm) -> RankCertificate:
    """Sylvester dichotomy with an explicit witness.

    The certificates of the last 64 forms are kept, so the rank, the border
    rank and a decomposition of one form cost one first kernel and one
    certificate.  A certificate is frozen and its witness scheme is a
    function of the witness, so every caller may share it.
    """
    w, basis = _first_kernel(f)
    return _certify(f.degree, w, basis)


def _certify(degree: int, w: int, basis: list[BinaryForm]) -> RankCertificate:
    """The dichotomy for a degree-``degree`` form whose first kernel level is
    w, from that kernel's basis in the order ``linalg.nullspace`` gives it.

    The apolar ideal of a binary form is a complete intersection
    (Comas-Seiguer, arXiv:math/0112311), so the first kernel has dimension 1
    or 2.  In dimension 1 one square-free test decides the rank.  In
    dimension 2 the two generators are coprime, the pencil has no base
    point, and the rank is w; only the witness is searched for.  Any other
    basis, or a pencil with no square-free member, raises CertificateError.
    """
    if not basis:
        raise CertificateError(f"trivial kernel at the claimed level {w}")
    if len(basis) > 2:
        raise CertificateError(f"first kernel of dimension {len(basis)} at level {w}")
    g = find_squarefree_in_kernel(basis)
    if g is not None:
        return RankCertificate(w, w, "squarefree", g.normalized(), len(basis))
    if len(basis) == 2:
        raise CertificateError(f"two-dimensional kernel at level {w} with no square-free member")
    return RankCertificate(w, degree + 2 - w, "nonreduced", basis[0].normalized(), 1)


@dataclass(frozen=True)
class Decomposition:
    """Power-sum presentation f = sum of scalar * (alpha*u + beta*t)^degree.

    Scalars and linear-form pairs are exact Fractions on the rational path and
    mpmath numbers otherwise; ``field_tag`` records which path produced them.
    ``residual`` is the exact relative residual of the terms as stored,
    rounded up (``verify_decomposition``), so it is a proved upper bound, and
    ``to_json`` prints it rounded up again, to 8 significant digits.
    ``exact_terms``, their ``_exact_terms`` triples, is formed on first read
    or passed as ``exact`` by ``decompose``, which certified them.
    """

    degree: int
    terms: tuple[tuple[object, tuple[object, object]], ...]
    residual: object
    field_tag: str
    precision_bits: int
    exact: InitVar[tuple | None] = None

    def __post_init__(self, exact) -> None:
        if exact is not None:
            self.__dict__["exact_terms"] = exact

    @cached_property
    def exact_terms(self) -> tuple:
        return _exact_terms(self.terms)

    def to_json(self) -> dict:
        import mpmath

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
            "residual": residual_string(self.residual, 8),
        }

    @classmethod
    def from_json(cls, blob: dict) -> "Decomposition":
        """Raises GrammarError for a "degree" or "precision_bits" that is not
        an integer, or a precision below 64 bits, instead of truncating."""
        for key in ("degree", "precision_bits"):
            if key in blob and not is_integer_literal(blob[key]):
                raise GrammarError(f'"{key}" must be an integer, got {blob[key]!r}')
        bits = int(blob.get("precision_bits", 192))
        if bits < 64:
            raise GrammarError(f'"precision_bits" must be at least 64, got {bits}')
        import mpmath

        def num(x):
            if isinstance(x, str):
                return _as_fraction(x)
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


def _gaussian(x) -> tuple[int, int, int]:
    """The exact value of x as (re, im, q), x = (re + i im) / q with q > 0:
    a rational by its numerator and denominator, an mpmath number by the
    signed mantissas and exponents of its parts, over one power of 2."""
    if isinstance(x, (int, Fraction)):
        return x.numerator, 0, x.denominator
    (s1, m1, e1, _), (s2, m2, e2, _) = getattr(x, "_mpc_", None) or (x._mpf_, (0, 0, 0, 0))
    if not m1 and e1 or not m2 and e2:  # mantissa 0, exponent not: an inf or a nan
        raise ValueError(f"a decomposition term is not finite: {x}")
    e = min(e1 if m1 else 0, e2 if m2 else 0, 0)
    return (-m1 if s1 else m1) << (e1 - e), (-m2 if s2 else m2) << (e2 - e), 1 << -e


def _exact_terms(terms) -> tuple:
    """The terms s, (a, b) as the ``_gaussian`` triples of s, a and b: their
    exact values, on which equality is equality of values.  The terms
    themselves are no such key, since mpmath compares an mpf with a Fraction
    after rounding the Fraction."""
    return tuple((_gaussian(s), _gaussian(a), _gaussian(b)) for s, (a, b) in terms)


def _reconstruct_in_integers(terms, d: int) -> tuple[int, list[int], list[int]]:
    """sum s (a u + b t)^d over the ``_exact_terms`` triples, exactly, as a
    common denominator and the real and imaginary integer numerators of its
    monomial coefficients.

    A point (a, b) is the Gaussian integer pair A = a_n b_q, B = b_n a_q
    over a_q b_q, so a term's coefficient at t^k is C(d,k) s_n A^(d-k) B^k
    over q = s_q (a_q b_q)^d.  Over the lcm ``den`` of those q, each term
    folds its scalar s_n den / q into the running power s_n (den / q) B^k,
    one Gaussian product per k; a power of 2 for A, as at every point (1:b)
    that ``decompose`` builds in mpmath, is applied by shifts; and C(d,k)
    multiplies each coefficient once, after the sum over the terms.  A
    term and its exact conjugate, every part conjugated, add up to twice
    the real part of either, so such a pair is formed once."""
    qs = [sq * (aq * bq) ** d for (_, _, sq), (_, _, aq), (_, _, bq) in terms]
    den = lcm(*qs)
    real, imag = [0] * (d + 1), [0] * (d + 1)
    pending: dict[tuple, int] = {}
    for term in terms:
        pending[term] = pending.get(term, 0) + 1
    for term, q in zip(terms, qs):
        if not pending[term]:
            continue  # formed with its conjugate
        pending[term] -= 1
        twin = tuple((re, -im, q_) for re, im, q_ in term)
        pair = twin != term and pending.get(twin, 0) > 0
        if pair:
            pending[twin] -= 1
        (sr, si, _), (ar, ai, aq), (br, bi, bq) = term
        sbk = _gaussian_powers(sr * (den // q), si * (den // q), br * aq, bi * aq, d)
        ar, ai = ar * bq, ai * bq
        if not ai and ar > 0 and not ar & (ar - 1):
            e = ar.bit_length() - 1
            for k, (x, y) in enumerate(sbk):
                real[k] += x << e * (d - k) + pair
                if not pair:
                    imag[k] += y << e * (d - k)
            continue
        apow = _gaussian_powers(1, 0, ar, ai, d)
        for k, (x, y) in enumerate(sbk):
            u, v = apow[d - k]
            real[k] += x * u - y * v << pair
            if not pair:
                imag[k] += x * v + y * u
    return (den, [comb(d, k) * x for k, x in enumerate(real)],
            [comb(d, k) * y for k, y in enumerate(imag)])


def _gaussian_powers(x: int, y: int, zr: int, zi: int, d: int) -> list[tuple[int, int]]:
    """(x + i y) z^k for k = 0..d, z = zr + i zi, as pairs of parts."""
    out = [(x, y)]
    for _ in range(d):
        x, y = x * zr - y * zi, x * zi + y * zr
        out.append((x, y))
    return out


@lru_cache(maxsize=64)
def _residual_squared(f: BinaryForm, terms: tuple) -> tuple[int, int]:
    """(num, den) with num / den the exact square of the max-norm of f
    minus the power sum of the ``_exact_terms`` triples, relative to the
    max-norm of f.

    The last 64 are kept, so that ``verify_decomposition`` on a
    decomposition just built reads the residual ``decompose`` formed.  It
    is a function of the exact values of f and of every term, and those
    are the key, so a term that is forged or moved is measured afresh."""
    d = f.degree
    den, real, imag = _reconstruct_in_integers(terms, d)
    fden = lcm(*(c.denominator for c in f.coeffs))
    ints = [c.numerator * (fden // c.denominator) for c in f.coeffs]
    worst = max((c * den - x * fden) ** 2 + (y * fden) ** 2 for c, x, y in zip(ints, real, imag))
    return worst, (den * max(abs(c) for c in ints)) ** 2


RESIDUAL_BITS = 64


def verify_decomposition(f: BinaryForm, dec: Decomposition):
    """Max-norm of f minus the reconstruction, relative to the max-norm of f.

    Every term is read exactly as stored, a rational as a Fraction and an
    mpmath part as a dyadic rational, and the power sum is formed in
    integers, so the residual is exact; it is returned as an mpf of
    ``RESIDUAL_BITS`` bits rounded up, a proved upper bound that is 0
    exactly when the terms reconstruct f.  The exact residual is the memo
    of ``_residual_squared``, keyed by those exact values: a decomposition
    checked right after ``decompose`` built it is neither read nor
    reconstructed a second time.
    """
    if f.degree != dec.degree:
        raise ValueError("degree mismatch between form and decomposition")
    if f.is_zero():
        raise ZeroFormError("verification against the zero form")
    return _upper_root(*_residual_squared(f, dec.exact_terms))


def _upper_root(num: int, den: int):
    """sqrt(num / den) rounded up to an mpf of ``RESIDUAL_BITS`` bits: the
    integer square root of num 2^(2k) / den, both rounded up, has at least
    RESIDUAL_BITS + 2 bits, over 2^k."""
    import mpmath
    from mpmath.libmp import from_man_exp, round_ceiling

    k = (2 * RESIDUAL_BITS + 4 + den.bit_length() - num.bit_length()) // 2
    q = -(-(num << 2 * k) // den) if k >= 0 else -(-num // (den << -2 * k))
    s = isqrt(q)
    s += s * s < q
    return mpmath.mp.make_mpf(from_man_exp(s, -k, RESIDUAL_BITS, round_ceiling))


def residual_string(x, digits: int) -> str:
    """x, a nonnegative rational or mpf, rounded up to ``digits``
    significant decimal digits and printed as ``mpmath.nstr`` prints that
    decimal, so that the printed number is never below x."""
    import mpmath
    from mpmath.libmp import to_rational

    q = Fraction(x) if isinstance(x, (int, Fraction)) else Fraction(*to_rational(x._mpf_))
    if not q:
        return mpmath.nstr(mpmath.mpf(0), digits)
    e = len(str(q.numerator)) - len(str(q.denominator)) - digits
    while q >= Fraction(10) ** (e + digits):
        e += 1
    while q < Fraction(10) ** (e + digits - 1):
        e -= 1
    n = -(-q // Fraction(10) ** e)  # 10^(digits-1) <= n <= 10^digits
    with mpmath.workprec(4 * digits + 16):
        return mpmath.nstr(mpmath.mpf(f"{n}e{e}"), digits)


def decompose(f: BinaryForm, precision_bits: int = 192) -> Decomposition:
    """Minimal power-sum decomposition for forms with a square-free witness.

    The witness's rational points and the cofactor left after them come
    from ``ratfactor.rational_roots``, which proves nothing more about the
    cofactor.  The scalars are the residue formula of ``_residue_scalars``,
    exact at the points.  A cofactor of degree 2 has no rational root, so
    it is irreducible and its roots are one conjugate pair, whose scalar
    has a closed form over Q(gamma); then, or with no cofactor, the whole
    is checked in rationals (``_decompose_exact``).  Otherwise the roots of
    the cofactor are approximated and their scalars rounded to big-float
    complex (``_decompose_numeric``).  Raises NonReducedRank when the rank
    witness is a non-reduced scheme.
    """
    if precision_bits < 64:
        raise ValueError("precision_bits must be at least 64")
    cert = rank(f)
    if cert.witness_kind != "squarefree":
        raise NonReducedRank(
            "rank witness is non-reduced; no length-r power sum is produced"
        )
    g = cert.witness_form
    k, tau = g.tau_poly()  # k <= 1: g is square-free
    roots, cofactor = ratfactor.rational_roots(tau)
    points = [(Fraction(0), Fraction(1))] * k + [(Fraction(1), r) for r in roots[::-1]]
    if len(cofactor) > 3:
        return _decompose_numeric(f, g, points, cofactor, precision_bits)
    quad = [Fraction(c, cofactor[-1]) for c in cofactor] if len(cofactor) == 3 else None
    return _decompose_exact(f, g, points, quad, precision_bits)


def _residue_numerator(seq, poly) -> list:
    """R with s_i = R(x_i) / poly'(x_i) when seq[k] = sum_i s_i x_i^k for
    k < m over the m distinct roots x_i of poly: R_j = sum_k seq[k]
    poly[j+1+k].  It is the generating function sum_k seq[k] x^k = N(x) /
    rev(poly)(x) read off by residues at x = 1/x_i, with R the reversal of
    poly[m] * N (Comas-Seiguer, arXiv:math/0112311)."""
    m = len(poly) - 1
    return [sum(seq[k] * poly[j + 1 + k] for k in range(m - j)) for j in range(m)]


def _horner(c: list[int], zr: int, zi: int, q: int) -> tuple[int, int]:
    """sum_j c_j z^j q^(n-j), n = len(c) - 1, for the Gaussian integer
    z = zr + i zi and integers c_j and q, as its real and imaginary parts."""
    xr, xi, qk = c[-1], 0, 1
    for cj in reversed(c[:-1]):
        qk *= q
        xr, xi = xr * zr - xi * zi + cj * qk, xr * zi + xi * zr
    return xr, xi


def _residue_scalars(f: BinaryForm, g: BinaryForm, points) -> list[tuple[int, int, int]]:
    """The scalar s of each point (a:b), a in {0, 1}, of the square-free
    witness g in f = sum s (a u + b t)^d, with no linear solve, exactly at
    the point as given: (re, im, q) with s = (re + i im) / q and q > 0.

    b is read by ``_gaussian`` as z / q, z a Gaussian integer.  A point
    (1:b) with |b| <= 1 is read in the chart t/u, from the apolar
    coefficients a_0, a_1, ... and the roots of g(1, x), at x = z / q.  The
    point (0:1), and (1:b) with |b| > 1, are read in the chart u/t, from
    a_d, a_(d-1), ... and the roots of g(x, 1), at x = a q / z, where the
    formula gives s b^d, so it is multiplied by (q / z)^d.  Over the common
    denominator D of the a_k, the residue numerator R and poly' have
    integer coefficients, and ``_horner`` evaluates both at x homogeneously
    of degree deg poly - 1 (in the chart u/t on the reversed coefficients),
    so that the denominators of x cancel in R(x) / (D poly'(x)); in the
    chart u/t, z^d and q^d are each formed once, by squaring.  A poly'
    that vanishes at a point, which no root of g can make it do, raises
    PrecisionError.  Since f and g are rational, the scalar at the exact
    conjugate of a point is the conjugate of its scalar: a point whose
    conjugate came earlier in the list takes that, with no evaluation.
    Nothing else is checked: callers reconstruct f from the terms.
    """
    ints, den = _integer_apolar(f)
    d = f.degree
    charts: dict[bool, tuple[list, list]] = {}
    seen: dict[tuple, tuple[int, int, int]] = {}
    out = []
    for alpha, beta in points:
        zr, zi, q = _gaussian(beta)
        twin = seen.get((not alpha, zr, -zi, q))
        if twin:
            out.append((twin[0], -twin[1], twin[2]))
            continue
        flip = not alpha or zr * zr + zi * zi > q * q
        if flip not in charts:
            poly = univar.trim(list(g.coeffs[::-1] if flip else g.coeffs))
            num = _residue_numerator(ints[::-1] if flip else ints, poly)
            der = univar.derivative(poly)
            charts[flip] = (num[::-1], der[::-1]) if flip else (num, der)
        num, der = charts[flip]
        y = (q if alpha else 0) if flip else q
        nr, ni = _horner(num, zr, zi, y)
        dr, di = _horner(der, zr, zi, y)
        if flip:
            pr, pi, qd = *_gaussian_power(zr, zi, d), q**d
            nr, ni, dr, di = nr * qd, ni * qd, dr * pr - di * pi, dr * pi + di * pr
        if di:
            scalar = (nr * dr + ni * di, ni * dr - nr * di, den * (dr * dr + di * di))
        elif dr:
            scalar = (nr, ni, den * dr) if dr > 0 else (-nr, -ni, -den * dr)
        else:
            raise PrecisionError("the witness's derivative vanishes at a point")
        seen[not alpha, zr, zi, q] = scalar
        out.append(scalar)
    return out


def _gaussian_power(zr: int, zi: int, d: int) -> tuple[int, int]:
    """(zr + i zi)^d as its real and imaginary parts, by squaring."""
    pr, pi = 1, 0
    for bit in bin(d)[2:]:
        pr, pi = pr * pr - pi * pi, 2 * pr * pi
        if bit == "1":
            pr, pi = pr * zr - pi * zi, pr * zi + pi * zr
    return pr, pi


def _pair_scalar(a0: Fraction, a1: Fraction, p: Fraction, q: Fraction) -> tuple[Fraction, Fraction]:
    """(alpha, beta) for the scalar s = alpha + beta gamma of the root gamma
    of the irreducible x^2 + p x + q, its conjugate s' that of the other
    root, whose power sums P_i = s gamma^i + s' gamma'^i are a0 and a1 at
    i = 0 and 1: P_0 = 2 alpha - p beta and P_1 = (p^2 - 2q) beta - p alpha,
    solved over the discriminant p^2 - 4q, which is nonzero."""
    disc = p * p - 4 * q
    return (p * a1 + (p * p - 2 * q) * a0) / disc, (2 * a1 + p * a0) / disc


def _decompose_exact(f: BinaryForm, g: BinaryForm, points, quad, bits: int) -> Decomposition:
    """The decomposition over the witness's rational ``points`` and, when
    ``quad`` is the monic irreducible [q, p, 1], over its roots gamma and
    -p - gamma, proved in rationals.

    The rational scalars come from ``_residue_scalars``.  With no pair, the
    certificate is an exact residual of 0, the one ``verify_decomposition``
    reads from the memo of ``_residual_squared``.  Otherwise what their
    power sum leaves of the apolar coordinates of f is a_0, ..., a_d, which
    must be the power sums P_i of the pair: ``_pair_scalar`` reads the
    pair's scalar off a_0 and a_1, and P_(i+2) = -p P_(i+1) - q P_i, the
    recurrence of the minimal polynomial, gives the rest, and P_i = a_i for
    every i is the certificate.  CertificateError otherwise.  The pair is
    published in mpc at bits + 32, gamma the larger real root or the one
    with positive imaginary part.
    """
    import mpmath

    d = f.degree
    scalars = [Fraction(re, q) for re, _, q in _residue_scalars(f, g, points)]
    terms = tuple(zip(scalars, points))
    exact = _exact_terms(terms)
    if quad is None:
        if _residual_squared(f, exact)[0]:
            raise CertificateError("the power sum does not reconstruct the form")
        return Decomposition(d, terms, mpmath.mpf(0), "rational", bits, exact)
    den, real, _ = _reconstruct_in_integers(exact, d)
    a = [Fraction(c.numerator * den - x * c.denominator, c.denominator * den * comb(d, i))
         for i, (c, x) in enumerate(zip(f.coeffs, real))]
    q, p = quad[0], quad[1]
    alpha, beta = _pair_scalar(a[0], a[1], p, q)
    power_sums = [2 * alpha - p * beta, (p * p - 2 * q) * beta - p * alpha]
    while len(power_sums) <= d:
        power_sums.append(-p * power_sums[-1] - q * power_sums[-2])
    if power_sums != a:
        raise CertificateError("the power sum does not reconstruct the form")
    emb = AlgebraicNumber(tuple(quad), True).value(bits)
    with mpmath.workprec(bits + 32):

        def at(x, y):  # x + y gamma, as an mpc
            return mpmath.mpc(mpmath.mpf(y.numerator) / y.denominator * emb
                              + mpmath.mpf(x.numerator) / x.denominator)

        one = mpmath.mpc(1)
        pair = (
            (at(alpha, beta), (one, at(0, 1))),
            (at(alpha - p * beta, -beta), (one, at(-p, -1))),
        )
    exact += _exact_terms(pair)
    residual = _upper_root(*_residual_squared(f, exact))
    return Decomposition(d, terms + pair, residual, "algebraic", bits, exact)


def _sticky_quotient(num: int, den: int, prec: int) -> tuple[int, int]:
    """(man, exp) for num / den, den > 0: man 2^exp is the quotient to at
    least prec + 2 bits with a sticky bit for the remainder, which
    ``from_man_exp`` rounds once to the nearest ``prec``-bit mpf."""
    if not num:
        return 0, 0
    shift = prec + 3 - num.bit_length() + den.bit_length()
    q, r = divmod(abs(num) << shift, den) if shift >= 0 else divmod(abs(num), den << -shift)
    man = 2 * q + (r > 0)
    return man if num > 0 else -man, -shift - 1


def _decompose_numeric(
    f: BinaryForm,
    g: BinaryForm,
    rational_points: list[tuple[Fraction, Fraction]],
    cofactor: tuple[int, ...],
    bits: int,
) -> Decomposition:
    """The witness's rational points, sorted by (a, b), then the roots of
    the cofactor left after them, approximated from its primitive integer
    vector and sorted by (re, im).  Each scalar is the exact residue
    formula at its point as stored, read in the chart where the point's
    modulus is at most 1, so that its own powers, not the other roots',
    carry the rows it is read from, and each part is rounded once, to
    nearest, at bits + 32; the residual check below is the certificate."""
    import mpmath
    from mpmath.libmp import from_man_exp, round_nearest

    with mpmath.workprec(bits + 64):
        roots = [+z for z in approximate_roots(linalg.canonical_vector(cofactor), bits + 96)]
    roots.sort(key=lambda z: (z.real, z.imag))
    with mpmath.workprec(bits + 32):
        pts = sorted(rational_points) + [(mpmath.mpc(1), mpmath.mpc(z)) for z in roots]

    def nearest(num, den):  # the raw mpf of bits + 32 bits nearest num / den
        return from_man_exp(*_sticky_quotient(num, den, bits + 32), bits + 32, round_nearest)

    terms = tuple(
        (mpmath.mp.make_mpc((nearest(re, q), nearest(im, q))), p)
        for (re, im, q), p in zip(_residue_scalars(f, g, pts), pts)
    )
    exact = _exact_terms(terms)
    num, den = _residual_squared(f, exact)
    if not num << 2 * ((bits + 1) // 2) < den:
        raise PrecisionError("decomposition residual above the precision target")
    return Decomposition(f.degree, terms, _upper_root(num, den), "complex", bits, exact)
