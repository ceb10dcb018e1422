"""Binary forms of one fixed degree with exact rational coefficients.

A form of degree d is stored by its monomial coefficients (c_0, ..., c_d),
where c_i multiplies u**(d-i) * t**i.  The apolar coefficients a_i = c_i /
binomial(d, i) drive the catalecticant machinery downstream.  Everything here
is exact; the only numerics are the root approximations of
``approximate_roots`` at the end of the module, which certify nothing
themselves: ``apolarity.decompose`` checks the power sum built from them by
its exact residual.
"""

from __future__ import annotations

import cmath
import re
from dataclasses import dataclass
from fractions import Fraction
from math import comb, log2, pi
from typing import Sequence

from . import linalg, ratfactor, univar
from .ratfactor import CertificateError  # noqa: F401  public here too, as before


class GrammarError(ValueError):
    """Malformed textual form input."""


class ZeroFormError(ValueError):
    """The zero form was supplied where a nonzero one is required."""


class PrecisionError(ArithmeticError):
    """The working precision was too low for a numeric result."""


# input size limits of ``parse_form`` and ``BinaryForm.from_json``; the
# constructor itself takes any size
MAX_DEGREE = 128
MAX_COEFFICIENT_BITS = 1024
_MAX_DIGITS = len(str(2**MAX_COEFFICIENT_BITS))

_RATIONAL_RE = re.compile(r"^[+-]?\d+(/[1-9]\d*)?$")
_INTEGER_RE = re.compile(r"\s*[+-]?[0-9]+\s*")
_FORM_RE = re.compile(r"^\s*d\s*=\s*(\d+)\s*;\s*\[(.*)\]\s*$")


def is_integer_literal(value) -> bool:
    """True for a JSON integer that is not a bool, or a decimal integer string."""
    if isinstance(value, str):
        return _INTEGER_RE.fullmatch(value) is not None
    return isinstance(value, int) and not isinstance(value, bool)


def _as_fraction(text: str) -> Fraction:
    text = text.strip()
    if not _RATIONAL_RE.match(text):
        raise GrammarError(f"malformed rational {text!r}")
    return Fraction(text)


def _coefficient(text: str) -> Fraction:
    """``_as_fraction`` for a form coefficient, refused when its numerator
    or denominator, as written, has more than ``MAX_COEFFICIENT_BITS`` bits."""
    text = text.strip()
    if _RATIONAL_RE.match(text) and any(
        len(x.lstrip("0")) > _MAX_DIGITS or int(x).bit_length() > MAX_COEFFICIENT_BITS
        for x in text.lstrip("+-").split("/")
    ):
        raise GrammarError(f"coefficient {text[:24]}... above {MAX_COEFFICIENT_BITS} bits")
    return _as_fraction(text)


def _check_degree(degree: int) -> None:
    if degree > MAX_DEGREE:
        raise GrammarError(f"degree {degree} above the limit {MAX_DEGREE}")


def _exact(c) -> int | Fraction:
    """The value of c as an int when it is integral, else as a Fraction; a
    Fraction that is not integral comes back as the very object given."""
    if type(c) is int:
        return c
    if type(c) is not Fraction:
        c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def _convolve(p: Sequence, q: Sequence) -> list:
    """Coefficients of the product of two forms, schoolbook; trailing zeros
    are kept, since they carry powers of u."""
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return out


@dataclass(frozen=True)
class BinaryForm:
    """Homogeneous binary form sum(c_i * u**(d-i) * t**i).

    Each coefficient is stored as an ``int`` when it is integral and as a
    ``fractions.Fraction`` otherwise, whatever exact type it was given in;
    since an int and the equal Fraction compare and hash alike, so do forms
    built from either.
    """

    degree: int
    coeffs: tuple[int | Fraction, ...]

    def __post_init__(self) -> None:
        if self.degree < 0:
            raise ValueError("degree must be nonnegative")
        coeffs = tuple(_exact(c) for c in self.coeffs)
        if len(coeffs) != self.degree + 1:
            raise ValueError(
                f"degree {self.degree} needs {self.degree + 1} coefficients, got {len(coeffs)}"
            )
        object.__setattr__(self, "coeffs", coeffs)

    _hash = None  # a class attribute, not a field: set on the first hash

    def __hash__(self) -> int:
        """The dataclass's own hash, formed on first use and kept: the memos
        of ``apolarity`` look a form up more than once."""
        h = self._hash
        if h is None:
            h = hash((self.degree, self.coeffs))
            object.__setattr__(self, "_hash", h)
        return h

    # -- basic structure ---------------------------------------------------

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def evaluate(self, a, b) -> int | Fraction:
        # after step i, acc = sum over j <= i of c_j a^(i-j) b^j
        a, b = _exact(a), _exact(b)
        acc, b_pow = 0, 1
        for c in self.coeffs:
            acc = acc * a + c * b_pow
            b_pow *= b
        return acc

    def __add__(self, other: "BinaryForm") -> "BinaryForm":
        if self.degree != other.degree:
            raise ValueError("degree mismatch")
        return BinaryForm(self.degree, tuple(x + y for x, y in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "BinaryForm") -> "BinaryForm":
        if self.degree != other.degree:
            raise ValueError("degree mismatch")
        return BinaryForm(self.degree, tuple(x - y for x, y in zip(self.coeffs, other.coeffs)))

    def __mul__(self, other: "BinaryForm") -> "BinaryForm":
        return BinaryForm(self.degree + other.degree, tuple(_convolve(self.coeffs, other.coeffs)))

    def scaled(self, c) -> "BinaryForm":
        c = _exact(c)
        return BinaryForm(self.degree, tuple(c * x for x in self.coeffs))

    def power(self, k: int) -> "BinaryForm":
        cs = [1]
        for _ in range(k):
            cs = _convolve(cs, self.coeffs)
        return BinaryForm(self.degree * k, tuple(cs))

    def normalized(self) -> "BinaryForm":
        """Primitive int coefficients, first nonzero coefficient positive."""
        return BinaryForm(self.degree, linalg.canonical_vector(self.coeffs))

    # -- chart bookkeeping -------------------------------------------------

    def tau_poly(self) -> tuple[int, list[Fraction]]:
        """Write f = u**k * p(t/u) * u**deg(p); returns (k, p) with p(tau) dense.

        p carries every root of f of the shape (1:tau); the factor u**k
        carries the root (0:1) with multiplicity k.
        """
        p = univar.trim(list(self.coeffs))
        k = self.degree - univar.degree(p) if p else 0
        return k, p

    # -- rendering ---------------------------------------------------------

    def render(self) -> str:
        return f"d={self.degree}; [{','.join(str(c) for c in self.coeffs)}]"

    def pretty(self) -> str:
        if self.is_zero():
            return "0"
        parts: list[str] = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            a, b = self.degree - i, i
            mono = "*".join(
                s
                for s in (
                    "u" if a == 1 else f"u^{a}" if a else "",
                    "t" if b == 1 else f"t^{b}" if b else "",
                )
                if s
            )
            mag = abs(c)
            if not mono:
                body = str(mag)
            elif mag == 1:
                body = mono
            else:
                body = f"{mag}*{mono}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+{body}" if c > 0 else f"-{body}")
        return "".join(parts)

    def to_json(self) -> dict:
        return {
            "degree": self.degree,
            "coeffs": [str(c) for c in self.coeffs],
            "basis": "monomial",
        }

    @staticmethod
    def from_json(data) -> "BinaryForm":
        """Read {"degree", "coeffs"} with an optional "basis": "monomial".

        The degree is a JSON integer or a decimal integer string; a float or
        a boolean is refused, never truncated.  A degree above
        ``MAX_DEGREE``, or a coefficient whose numerator or denominator has
        more than ``MAX_COEFFICIENT_BITS`` bits, is a GrammarError.  A
        wrong coefficient count is the constructor's ValueError.
        """
        if not isinstance(data, dict):
            raise GrammarError("a form record is a JSON object")
        if "degree" not in data or "coeffs" not in data:
            raise GrammarError("record carries no form")
        if not is_integer_literal(data["degree"]):
            raise GrammarError(f'"degree" must be an integer, got {data["degree"]!r}')
        if not isinstance(data["coeffs"], list):
            raise GrammarError('"coeffs" must be a list')
        _check_degree(int(data["degree"]))
        form = BinaryForm(int(data["degree"]), tuple(_coefficient(str(c)) for c in data["coeffs"]))
        if data.get("basis", "monomial") != "monomial":
            raise GrammarError(f"unsupported basis {data.get('basis')!r}")
        return form


def parse_form(text: str) -> BinaryForm:
    """Parse the grammar ``d=<int>; [<q0>,<q1>,...,<qd>]`` with rational
    entries, within the limits of ``BinaryForm.from_json``."""
    m = _FORM_RE.match(text)
    if not m:
        raise GrammarError(f"malformed form {text!r}")
    degree = int(m.group(1))
    _check_degree(degree)
    body = m.group(2).strip()
    items = [s for s in (part.strip() for part in body.split(","))] if body else []
    if len(items) != degree + 1:
        raise GrammarError(
            f"degree {degree} needs {degree + 1} coefficients, got {len(items)}"
        )
    return BinaryForm(degree, tuple(_coefficient(s) for s in items))


@dataclass(frozen=True)
class ApolarCoeffs:
    """Coefficients divided by binomials: a_i = c_i / binomial(d, i)."""

    degree: int
    entries: tuple[Fraction, ...]


def apolar_coeffs(f: BinaryForm) -> ApolarCoeffs:
    d = f.degree
    return ApolarCoeffs(d, tuple(univar.quo(f.coeffs[i], comb(d, i)) for i in range(d + 1)))


def form_from_apolar(a: Sequence) -> BinaryForm:
    """The form of degree len(a) - 1 whose apolar coefficients are a."""
    d = len(a) - 1
    return BinaryForm(d, tuple(c * comb(d, i) for i, c in enumerate(a)))


@dataclass(frozen=True)
class P1Point:
    """Point (a:b) of the projective line, normalized so the first nonzero
    coordinate is 1."""

    a: Fraction
    b: Fraction

    def __post_init__(self) -> None:
        a, b = (x if type(x) is Fraction else Fraction(x) for x in (self.a, self.b))
        if a == 0 and b == 0:
            raise ValueError("(0:0) is not a point")
        if a == 0:
            a, b = Fraction(0), Fraction(1)
        elif a != 1:
            a, b = Fraction(1), b / a
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @property
    def tau(self) -> Fraction | None:
        """Chart value for points (1:tau); None for (0:1)."""
        return None if self.a == 0 else self.b

    def linear_form(self) -> BinaryForm:
        """The degree-1 form vanishing exactly at this point."""
        return BinaryForm(1, linalg.canonical_vector((self.b, -self.a)))

    def __str__(self) -> str:
        return f"({self.a}:{self.b})"


POINT_A = P1Point(Fraction(1), Fraction(0))


def _root_of_linear(g: BinaryForm) -> P1Point:
    """The point (-c_1 : c_0) where the linear form c_0 u + c_1 t vanishes."""
    return P1Point(-g.coeffs[1], g.coeffs[0])


@dataclass(frozen=True)
class ZeroScheme:
    """Zero scheme of a form: factors with multiplicities.

    Construction canonicalizes: every factor is split into irreducible pieces
    over the rationals and multiplicities of coinciding pieces accumulate, so
    two schemes are structurally equal (dataclass ``==``) exactly when they
    agree as schemes.  The scheme always means the vanishing of
    ``prod g_i^{m_i}``.

    Invariant: every factor is an irreducible, primitive integer form whose
    first nonzero coefficient is positive.  The pieces arrive as primitive
    integer vectors from ``ratfactor.primitive_factors``; each has a nonzero
    constant term or is t = (0, 1), so fixing the sign of the constant term
    is all the canonical form asks.  So a factor vanishes at a
    rational point p exactly when it equals ``p.linear_form()``, and a factor
    of degree 2 or more has no rational point.  The point methods read their
    answers off the factors and factor nothing again.
    """

    factors: tuple[tuple[BinaryForm, int], ...]

    def __post_init__(self) -> None:
        acc: dict[BinaryForm, int] = {}
        for g, m in self.factors:
            if m <= 0:
                raise ValueError("multiplicities must be positive")
            if g.is_zero():
                raise ValueError("zero factor in a zero scheme")
            if g.degree < 1:
                raise ValueError("constant factor in a zero scheme")
            k, p = g.tau_poly()
            if k:
                ufac = BinaryForm(1, (1, 0))
                acc[ufac] = acc.get(ufac, 0) + k * int(m)
            for q, e in ratfactor.primitive_factors(p):
                piece = BinaryForm(len(q) - 1, q if q[0] >= 0 else tuple(-c for c in q))
                acc[piece] = acc.get(piece, 0) + e * int(m)
        canon = sorted(acc.items(), key=lambda fm: (fm[0].degree, fm[0].coeffs))
        object.__setattr__(self, "factors", tuple(canon))

    @property
    def degree(self) -> int:
        return sum(g.degree * m for g, m in self.factors)

    def is_reduced(self) -> bool:
        return all(m == 1 for _, m in self.factors)

    def product_form(self) -> BinaryForm:
        cs = [1]
        for g, m in self.factors:
            for _ in range(m):
                cs = _convolve(cs, g.coeffs)
        return BinaryForm(self.degree, tuple(cs))

    def multiplicity_at(self, p: P1Point) -> int:
        total = 0
        for g, m in self.factors:
            if g.evaluate(p.a, p.b) == 0:
                total += m  # factors are square-free: each root is simple
        return total

    def remove_point(self, p: P1Point, k: int) -> "ZeroScheme":
        """Scheme difference: drop k from the multiplicity at the rational point p."""
        lin = p.linear_form()
        m = dict(self.factors).get(lin, 0)
        if k > 0 and not m:
            raise ValueError(f"{p} does not lie on the scheme")
        if m < k:
            raise ValueError(f"multiplicity at {p} is {m} < {k}")
        return ZeroScheme(
            tuple((g, e - k if g == lin else e) for g, e in self.factors if g != lin or e > k)
        )

    def rational_points(self) -> list[tuple[P1Point, int]] | None:
        """Points with multiplicities when every factor is linear; None when a
        factor of degree 2 or more, which has no rational point, is present."""
        if any(g.degree > 1 for g, _ in self.factors):
            return None
        pts = [(_root_of_linear(g), m) for g, m in self.factors]
        pts.sort(key=lambda pm: (pm[0].a, pm[0].b))
        return pts

    def to_json(self) -> dict:
        return {
            "factors": [[g.pretty(), m] for g, m in self.factors],
            "degree": self.degree,
            "reduced": self.is_reduced(),
        }

    def __str__(self) -> str:
        if not self.factors:
            return "(empty scheme)"
        return " * ".join(
            g.pretty() if m == 1 else f"({g.pretty()})^{m}" for g, m in self.factors
        )


def is_square_free(f: BinaryForm) -> bool:
    """True iff f has no repeated root on P^1, the point (0:1) included.
    Constants and linear forms are square-free.

    f is read as a binary form, u^k p(t) with p(t) = f(1, t): it is
    square-free iff k <= 1 and p is square-free.  The first is read off the
    coefficients, and so is a double root at (1:0), t^2 | f, that is p[0] =
    p[1] = 0.  Otherwise p is square-free iff gcd(p, p') = 1, which is
    proved modulo one of the first two primes that do not divide lc(p)
    (``ratfactor.proves_squarefree``; von zur Gathen and Gerhard, *Modern
    Computer Algebra*, §5.10).  A nontrivial gcd modulo both proves
    nothing, so then the degree of the exact gcd, taken in the integers,
    decides."""
    if f.is_zero():
        raise ZeroFormError("square-free test on the zero form")
    k, p = f.tau_poly()
    if k > 1 or not any(f.coeffs[:2]):
        return False
    p = linalg.canonical_vector(p)
    if ratfactor.proves_squarefree(p):
        return True
    return univar.degree(univar.gcd(p, univar.derivative(p))) == 0


def squarefree_decompose(f: BinaryForm) -> ZeroScheme:
    """The zero scheme of f: its irreducible factors over Q with their
    multiplicities, a factor supported at (0:1) included.  ``ZeroScheme``
    finds them with ``ratfactor.primitive_factors``, which runs Yun's
    square-free decomposition only when no listed prime proves f(1, t)
    square-free."""
    if f.is_zero():
        raise ZeroFormError("decomposition of the zero form")
    return ZeroScheme(((f, 1),) if f.degree else ())


def approximate_roots(p: Sequence[Fraction], bits: int) -> list:
    """Approximations, as mpc, of all complex roots of the square-free
    rational polynomial p (low to high, degree >= 1), refined at ``bits``
    bits; the caller works at ``bits`` or above.  Roots that are close
    relative to their size keep far fewer correct bits: for
    (x - M)^2 - 3 with M = 10^30 + 7, asked for 128 bits, the two real
    roots come back real, but about 3e12 from the true ones, inside the
    stopping rule's slack below.

    The seeds are float roots from the primitive integer coefficients,
    started on the circles of their Newton polygon (``_float_seeds``), and
    made exactly real or conjugate, so that real roots stay real below.
    The real roots are counted exactly, and as many seeds, those of least
    |Im z| / |z|, stand for them (``_real_seeds``); picking them leaves the
    seeds in their order, which sets the bits of the sweeps.  Seeds within
    2^-20 max(1, |z|) of another start apart, real ones along the axis.
    Newton steps with Aberth's correction, which keeps two approximations
    from settling on one root, then refine all roots together while the
    working precision P doubles from 106 bits to ``bits`` (Bini, Numer.
    Algorithms 13, 1996).  At each precision the sweeps repeat, at most
    100 times, until every step h satisfies |h| <= 2^(8 - P/2) max(1, |z|),
    so that one sweep at twice the precision is accurate to it.

    The sweeps run in fixed point: each root is a pair of Python ints
    scaled by 2^(P + g), p and p' are evaluated by Horner from the
    primitive integer coefficients of p, every product and quotient is
    rounded to nearest at that scale, so that real roots stay real and
    conjugate pairs conjugate, and the stopping rule compares exact
    squared norms.
    The g guard bits come from the lower bound |c_j| / (|c_j| + max |c_k|)
    on the modulus of a nonzero root, c_j the lowest nonzero coefficient,
    so that the smallest roots keep P bits relative to their size.  A zero
    denominator, some z_i = z_j or a vanishing p' or Aberth factor, raises
    PrecisionError, and so does a root modulus above 2^1000, which no float
    seed reaches.  The roots are returned as mpc values equal to the
    final integers over 2^(P + g).

    The seeds only start the iteration; nothing here is certified.
    ``apolarity.decompose`` reads the roots of a witness's irreducible
    factors from it, and its exact residual is what certifies them: it
    raises PrecisionError when the roots are too poor.  The roots of exact
    quadratics, in ``numberfield``, come from the quadratic formula instead.
    """
    import mpmath
    from mpmath.libmp import from_man_exp

    cs = linalg.canonical_vector(univar.trim(p))
    deg = len(cs) - 1
    zs = _float_seeds(cs)
    real = _real_seeds(cs, zs)
    upper = [z for z, r in zip(zs, real) if not r and z.imag > 0]
    if sum(real) + 2 * len(upper) == deg:
        zs = [complex(z.real) for z, r in zip(zs, real) if r] + upper
        zs += [z.conjugate() for z in upper]
    # seeds too close to part in the sweeps start apart, and so off their
    # conjugate symmetry unless they are real
    zs = [z * (1 + 2**-20 * (cmath.exp(1j * k) if z.imag else k))
          if any(abs(z - w) <= 2**-20 * max(1, abs(z)) for w in zs[:k] + zs[k + 1:]) else z
          for k, z in enumerate(zs)]
    low = next(abs(c) for c in cs if c)
    guard = ((low + max(abs(c) for c in cs)) // low).bit_length()
    prec = min(106, bits)
    scale = prec + guard
    zs = [tuple(int(Fraction(v) * 2**scale) for v in (z.real, z.imag)) for z in zs]
    while True:
        zs = _aberth_sweeps(cs, zs, scale, prec)
        if prec >= bits:
            return [mpmath.mp.make_mpc((from_man_exp(x, -scale), from_man_exp(y, -scale)))
                    for x, y in zs]
        step = min(2 * prec, bits) - prec
        prec, scale = prec + step, scale + step
        zs = [(x << step, y << step) for x, y in zs]


def _real_seeds(cs: tuple[int, ...], zs: list[complex]) -> list[bool]:
    """For each float root z in zs of the square-free integer polynomial cs,
    whether it stands for a real root: the ``_real_root_count(cs)`` of least
    |Im z| / |z|, zs left in its order."""
    by_axis = sorted(range(len(zs)), key=lambda k: abs(zs[k].imag) / (abs(zs[k]) or 1))
    nearest = set(by_axis[:_real_root_count(cs)])
    return [k in nearest for k in range(len(zs))]


def _real_root_count(cs: tuple[int, ...]) -> int:
    """The number of real roots of the square-free integer polynomial cs
    (low to high), by Descartes' rule of signs with bisection in integers
    (Vincent-Collins-Akritas; Collins and Akritas, SYMSAC 1976): a root at
    0, then for q(x) = p(x) and p(-x) the roots of q in (0, 1), a root at 1
    (the coefficients of q sum to 0), and the roots in (1, oo), which are
    the roots in (0, 1) of the reversed q."""
    count = 0 if cs[0] else 1
    p = list(cs if cs[0] else cs[1:])
    for sign in (1, -1):
        q = [c * sign**i for i, c in enumerate(p)]
        count += _unit_interval_roots(q) + (sum(q) == 0) + _unit_interval_roots(q[::-1])
    return count


def _unit_interval_roots(q: list[int]) -> int:
    """The number of roots in (0, 1) of the square-free integer polynomial q
    (low to high).  The sign changes of the coefficients of
    (x + 1)^n q(1 / (x + 1)) bound that number and have its parity, so 0 or
    1 of them decides it; otherwise (0, 1) is halved, 2^n q(x / 2) on the
    left and its Taylor shift by 1 on the right, a root at 1/2 counted on
    its own.  An interval short against the distance between the roots
    has 0 or 1 sign changes (the one- and two-circle theorems), so halving
    ends by the depth at which the intervals fall below Mahler's bound on
    that distance; a q that goes deeper is not square-free, and raises
    ValueError."""
    limit = len(q) * (max(abs(c) for c in q).bit_length() + 2 * len(q).bit_length()) + 4
    count, stack = 0, [(q, 0)]
    while stack:
        q, depth = stack.pop()
        changes = _sign_changes(_taylor_shift(q[::-1]))
        if changes < 2:
            count += changes
            continue
        if depth > limit:
            raise ValueError("real root count of a polynomial that is not square-free")
        n = len(q) - 1
        left = [c << n - i for i, c in enumerate(q)]
        right = _taylor_shift(left)
        if not right[0]:
            count += 1
            right = right[1:]
        stack += [(left, depth + 1), (right, depth + 1)]
    return count


def _taylor_shift(q: list[int]) -> list[int]:
    """The coefficients of q(x + 1), q low to high, by repeated Horner steps."""
    q = list(q)
    for i in range(len(q) - 1):
        for j in range(len(q) - 2, i - 1, -1):
            q[j] += q[j + 1]
    return q


def _sign_changes(q: list[int]) -> int:
    signs = [c > 0 for c in q if c]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def _float_seeds(cs: tuple[int, ...]) -> list[complex]:
    """Float approximations of the roots of the integer polynomial cs (low
    to high), from seeds on its Newton polygon (Bini, Numer. Algorithms 13,
    1996): one at 0 for each leading zero coefficient, and for each edge
    from i to j of the upper convex hull of the points (k, log2 |c_k|),
    j - i on the circle of radius (|c_i| / |c_j|)^(1/(j-i)) at the angles
    2 pi (k/(j-i) + i/deg) + 0.7.  A radius below 2^-1000 is raised to it,
    and the fixed-point sweeps, whose guard bits reach the smallest root,
    carry such a seed in; a radius above 2^1000 raises PrecisionError, since
    a seed clipped there walks away from its root.  Aberth's method
    in Python complex, one root at a time, moves them until every step h
    has |h| <= 1e-14 |z|, for at most 100 sweeps; a root that does not stay
    finite, or every root when a division fails, keeps its seed.  The
    coefficients are scaled by their largest, and p / p' at |z| > 1 is
    z q / (deg q - q' / z) for the reversed polynomial q at 1/z."""
    deg = len(cs) - 1
    hull: list[tuple[int, float]] = []
    for k, y in ((k, log2(abs(c))) for k, c in enumerate(cs) if c):
        while len(hull) > 1 and ((hull[-1][0] - hull[-2][0]) * (y - hull[-2][1])
                                 >= (hull[-1][1] - hull[-2][1]) * (k - hull[-2][0])):
            hull.pop()
        hull.append((k, y))
    seeds = [0j] * hull[0][0]
    for (i, yi), (j, yj) in zip(hull, hull[1:]):
        if (yi - yj) / (j - i) > 1000:
            raise PrecisionError("a root modulus above 2^1000 is beyond the float seeds")
        radius = 2 ** max(-1000, (yi - yj) / (j - i))
        seeds += [cmath.rect(radius, 2 * pi * (k / (j - i) + i / deg) + 0.7)
                  for k in range(j - i)]
    top = max(abs(c) for c in cs)
    fl = [c / top for c in cs]
    zs = list(seeds)
    try:
        for _ in range(100):
            done = True
            for i, z in enumerate(zs):
                a, b, far = _chart(fl, z)
                ratio = z * a / (deg * a - b / z) if far else a / b
                h = ratio / (1 - ratio * sum(1 / (z - v) for j, v in enumerate(zs) if j != i))
                zs[i] = z - h
                done = done and abs(h) <= 1e-14 * abs(zs[i])
            if done:
                break
    except (ZeroDivisionError, OverflowError):
        return seeds
    return [z if cmath.isfinite(z) else s for z, s in zip(zs, seeds)]


def _chart(fl: list[float], z: complex) -> tuple[complex, complex, bool]:
    """p(z) and p'(z) from the float coefficients fl (low to high) when
    |z| <= 1, and when |z| > 1 (far) the same for the reversed polynomial at
    1/z, so that nothing overflows."""
    far = abs(z) > 1
    w = 1 / z if far else z
    a = b = 0j
    for c in fl if far else reversed(fl):
        a, b = a * w + c, b * w + a
    return a, b, far


def _aberth_sweeps(cs: tuple[int, ...], zs: list, scale: int, prec: int) -> list:
    """Aberth sweeps on the roots zs, pairs of ints over 2^scale, of the
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


def random_form(degree: int, rng, bound: int = 100) -> BinaryForm:
    """Nonzero random form; numerators in [-bound, bound], denominators in [1, bound]."""
    while True:
        coeffs = tuple(
            Fraction(rng.randint(-bound, bound), rng.randint(1, bound))
            for _ in range(degree + 1)
        )
        if any(coeffs):
            return BinaryForm(degree, coeffs)
