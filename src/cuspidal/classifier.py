"""Executable case analysis for ranks with respect to the cuspidal curve.

A degree-(n+1) form B with border rank w determines a border scheme W on the
power curve, and the rank of the projected point ℓ_O(B) with respect to the
cuspidal curve is classified by the multiplicity of W at the cusp preimage
A = (1:0) together with parity bands in (n, w).  Two regimes split the
analysis:

* no gap (rank = border rank, reduced computing set E of size ρ):
  2ρ ≤ n gives exactly ρ with a unique computing set on the cuspidal curve;
  n+1 ≤ 2ρ ≤ n+2 pins the value into {ρ-1, ρ}; for odd n and 2ρ = n+3 the
  value is ρ-1 on a dense open subset (generic-only, confirmed per instance
  by the fiber scan).

* gap (border rank w < rank, W non-reduced, unique since 2w ≤ n+2): the
  value depends on m = multiplicity of W at A, with a span-membership
  subcase criterion that distinguishes the values w-1 and w-2 when
  W = 2A + (reduced part).

Each case is one row of CASES below: its band in (n, ρ) or (n, w), its
predicted interval, its notes and its --explain line.  classify_e3 and
classify_e4 decide only the shape of the scheme, read off the witness form g
of the rank certificate with nothing factored (m is the number of leading
zeros of g, and the residual W - 2A is g/t², reduced iff square-free), and
hand its candidate rows to one constructor, which takes the first whose band
holds.  A verdict keeps its square-free witness form and factors the scheme
and its points on first read; crosscheck splits over Q only the two e4_i
witnesses it compares.

The span-versus-multiplicity equivalence (O ∈ ⟨W⟩ iff m ≥ 2) is exposed as
an operation computing both routes.  With d = n+1 and h = prod g^e over the
factors of W, ⟨W⟩ is the kernel of the contraction by h (the apolarity
lemma), whose row m = 0..d-deg W sends v to sum_j h_j v_{m+j}.  The center
O = e_1 contracts to (h_1, h_0, 0, ...), cut to those rows, and t² | h
exactly when m ≥ 2, so both routes read only h mod t² (the 2-jet of h at
A) and m off the factors, and W is never multiplied out.  By band:

* deg W ≤ n: both rows are present, and O ∈ ⟨W⟩ iff h_0 = h_1 = 0 iff m ≥ 2;
* deg W = n+1: only row 0 is, and O ∈ ⟨W⟩ iff the u^n t coefficient h_1
  vanishes, which holds for m ≥ 2 and on some schemes with m = 0;
* deg W = n+2: there are no rows, O ∈ ⟨W⟩ always, and the routes agree iff
  m ≥ 2.

The dual-route helper reports both answers; o_in_span raises when they
disagree.
"""

from __future__ import annotations

import random
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import comb

from . import linalg, ratfactor
from .apolarity import CertificateError, RankCertificate, rank as sylvester_rank
from .binform import (
    POINT_A,
    BinaryForm,
    P1Point,
    ZeroFormError,
    ZeroScheme,
    _check_degree,
    apolar_coeffs,
    form_from_apolar,
    is_square_free,
    random_form,
)
from .projection import ProjectedPoint, ProjectionFrame, cusp_curve_images, fiber_scan, x_rank


class ClassifierError(ValueError):
    pass


class SchemeDegreeError(ClassifierError):
    pass


class SpanCriterionDisagreement(ClassifierError):
    """The two o_in_span routes answered differently."""


class GenerationError(RuntimeError):
    pass


CASE_TAGS = (
    "e4_i",
    "e4_ii",
    "e4_iii",
    "e3_1_info",
    "e3_2",
    "e3_3_wminus1",
    "e3_3_wminus2",
    "e3_3_cusp",
    "e3_4_exact",
    "e3_4_interval",
    "e3_5",
    "out_of_scope",
)


# -- spans of divisors on the power curve -------------------------------------


def _contract(h: BinaryForm, vec) -> list:
    """The contraction of vec by h, whose row m = 0..len(vec)-1-deg h is
    sum_j h_j vec[m+j].  vec lies in the span of the divisor of h iff every
    entry is zero (the apolarity lemma); at deg h = len(vec) there are no
    rows and the span is the whole space.

    Each row is accumulated over the nonzero entries of vec alone, as
    out[k-j] += h_j vec[k]."""
    rows = len(vec) - h.degree
    out = [0] * max(rows, 0)
    for k, v in enumerate(vec):
        if v:
            for j in range(max(0, k - rows + 1), min(k, h.degree) + 1):
                out[k - j] += h.coeffs[j] * v
    return out


def _in_center_extended_span(h: BinaryForm, avec) -> bool:
    """avec ∈ ⟨s⟩ + O, for the scheme s of a form h of degree 1..n off A.

    The contraction by h kills ⟨s⟩ and sends O to (h_1, h_0, 0, ...), which
    is nonzero since h_0 ≠ 0 off A.  So avec is a member iff its contraction
    x is a multiple of that vector, whatever the scale of h.
    """
    x = _contract(h, avec)
    return not any(x[2:]) and x[0] * h.coeffs[0] == x[1] * h.coeffs[1]


def _mult_at_A(g: BinaryForm) -> int:
    """Multiplicity at A = (1:0) of the zeros of g: its leading zero coefficients."""
    return next(i for i, c in enumerate(g.coeffs) if c)


def _center_jet(W: ZeroScheme) -> tuple[int, int, int, int]:
    """(deg W, h_0, h_1, mult_A W), h_0 + h_1 t = prod (g_0 + g_1 t)^e mod t²
    over the factors g^e of W, by (g_0 + g_1 t)^e = g_0^e + e g_0^(e-1) g_1 t.
    Only the factor t vanishes at A, so only it has g_0 = 0."""
    deg, h0, h1, m = 0, 1, 0, 0
    for g, e in W.factors:
        g0, g1 = g.coeffs[0], g.coeffs[1]
        deg += g.degree * e
        q = g0 ** (e - 1)
        h0, h1 = h0 * g0 * q, (h1 * g0 + e * h0 * g1) * q
        if not g0:
            m = e
    return deg, h0, h1, m


def _center_routes(deg: int, h0, h1, m: int, frame: ProjectionFrame) -> tuple[bool, bool]:
    """span_center_routes from deg W, the first two coefficients h_0, h_1 of
    its product form (any scale) and m = mult_A(W).  The contraction by h
    sends the center to (h_1, h_0, 0, ...), cut to d + 1 - deg W rows."""
    if deg > frame.n + 2:
        raise SchemeDegreeError("degree beyond the independence regime")
    rows = frame.d + 1 - deg
    return not ((rows >= 1 and h1) or (rows >= 2 and h0)), m >= 2


def span_center_routes(W: ZeroScheme, frame: ProjectionFrame) -> tuple[bool, bool]:
    """(contraction answer, multiplicity-criterion answer) for O ∈ ⟨W⟩, read
    off h mod t² of the factors of W; W is never multiplied out."""
    return _center_routes(*_center_jet(W), frame)


def _center_in_span(deg: int, h0, h1, m: int, frame: ProjectionFrame) -> bool:
    """o_in_span from the arguments of _center_routes."""
    by_span, by_mult = _center_routes(deg, h0, h1, m, frame)
    if by_span != by_mult:
        raise SpanCriterionDisagreement(
            f"span says {by_span}, multiplicity says {by_mult} "
            f"(deg W = {deg}, n = {frame.n})"
        )
    return by_span


def o_in_span(W: ZeroScheme, frame: ProjectionFrame) -> bool:
    """Membership of the projection center in the span of W, dual-route.

    Both the contraction by the product form and the multiplicity-at-A
    criterion are read off h mod t² (see span_center_routes) and must agree;
    disagreement raises.  The equivalence is guaranteed for deg W ≤ n; the
    module docstring gives the schemes above that on which it fails.
    """
    return _center_in_span(*_center_jet(W), frame)


# -- the case table ------------------------------------------------------------


@dataclass(frozen=True)
class Case:
    """One case of the paper, its level ρ for e4 and w for e3: the band of
    (n, level) it covers, the (lo, hi) it predicts there, the line that
    ``classify --explain`` prints for it from (n, level, inputs), and its
    notes.  A witnessed case publishes the witness its shape hands it.
    out_of_scope has no band: it is taken when no candidate's band holds."""

    theorem: str
    band: Callable[[int, int], bool] | None
    value: Callable[[int, int], tuple]
    explain: Callable[[int, int, dict], str]
    notes: tuple[str, ...] = ()
    witnessed: bool = False


def _sigma_line(n: int, w: int, inputs: dict) -> str:
    return (
        "m = 2 with reduced residual; membership of the target in the "
        f"center-extended residual span: {inputs['sigma_member']}"
    )


def _gap_band(n: int, w: int) -> bool:
    """The band of e3_2, e3_3_wminus1 and e3_3_wminus2: m >= 2 with W != 2A
    gives w >= 3, up to the uniqueness bound 2w <= n+2."""
    return w >= 3 and 2 * w <= n + 2


def _m0_line(n: int, w: int, inputs: dict) -> str:
    return f"m = 0 band: 2w = {2 * w} against n-1 = {n - 1}, n+1 = {n + 1}"


_SPAN_NOTE = (
    "subcase decided by a span-membership criterion taken from the argument, not the statement",
)

CASES: dict[str, Case] = {
    "e4_i": Case(
        "e4", lambda n, rho: rho >= 2 and 2 * rho <= n, lambda n, rho: (rho, rho),
        lambda n, rho, _: f"band 2*rho <= n: {2 * rho} <= {n}",
        ("the computing set on the cuspidal curve is unique",), witnessed=True,
    ),
    "e4_ii": Case(
        "e4", lambda n, rho: rho >= 2 and n + 1 <= 2 * rho <= n + 2, lambda n, rho: (rho - 1, rho),
        lambda n, rho, _: f"band n+1 <= 2*rho <= n+2: {n + 1} <= {2 * rho} <= {n + 2}",
        ("no selection criterion between the endpoints is available",), witnessed=True,
    ),
    "e4_iii": Case(
        "e4", lambda n, rho: n % 2 == 1 and 2 * rho == n + 3, lambda n, rho: (rho - 1, rho - 1),
        lambda n, rho, _: f"band 2*rho = n+3: {2 * rho} = {n + 3} (n odd)",
        ("generic-only: holds on a dense open subset and must be "
         "confirmed per instance by the fiber scan",),
    ),
    "e3_2": Case(
        "e3", _gap_band, lambda n, w: (n + 3 - w, n + 3 - w),
        lambda n, w, _: "m >= 3, or m = 2 with a non-reduced residual",
    ),
    "e3_3_wminus1": Case(
        "e3", _gap_band, lambda n, w: (w - 1, w - 1),
        _sigma_line, _SPAN_NOTE, witnessed=True,
    ),
    "e3_3_wminus2": Case(
        "e3", _gap_band, lambda n, w: (w - 2, w - 2),
        _sigma_line, _SPAN_NOTE, witnessed=True,
    ),
    "e3_3_cusp": Case(
        "e3", lambda n, w: w == 2, lambda n, w: (1, 1),
        lambda n, w, _: "scheme is the double cusp preimage: point on the curve",
        ("the projected point lies on the cuspidal curve",), witnessed=True,
    ),
    "e3_4_exact": Case(
        "e3", lambda n, w: w >= 2 and 2 * w <= n - 1, lambda n, w: (n + 1 - w, n + 1 - w),
        _m0_line,
    ),
    "e3_4_interval": Case(
        "e3", lambda n, w: w >= 2 and n <= 2 * w <= n + 1, lambda n, w: (n + 1 - w, n + 3 - w),
        _m0_line, ("only the bounds are classified in this band",),
    ),
    "e3_5": Case(
        "e3", lambda n, w: w >= 3 and 2 * w <= n, lambda n, w: (n + 2 - w, n + 2 - w),
        lambda n, w, _: f"m = 1 with 2w = {2 * w} <= n = {n}",
    ),
    "out_of_scope": Case(
        "e3", None, lambda n, w: (None, None),
        lambda n, w, _: "the hypotheses of every clause fail",
    ),
}


# -- verdicts ------------------------------------------------------------------


@dataclass(frozen=True)
class ClassifierVerdict:
    """Predicted rank with respect to the cuspidal curve, with provenance.

    lo == hi means an exact prediction; both None means out_of_scope.  The
    witness lives on the power curve upstairs.  It is square-free, so the
    verdict keeps its form; its scheme and witness_points, the scheme's images
    on the cuspidal curve when all its points are rational, are factored on
    first read and then cached.
    """

    theorem: str
    case_tag: str
    lo: int | None
    hi: int | None
    witness_form: BinaryForm | None = None
    inputs: dict | None = None
    notes: tuple[str, ...] = ()

    @cached_property
    def witness_scheme(self) -> ZeroScheme | None:
        return None if self.witness_form is None else ZeroScheme(((self.witness_form, 1),))

    @cached_property
    def witness_points(self) -> tuple | None:
        W = self.witness_scheme
        return None if W is None else cusp_curve_images(self.inputs["n"], W)

    @property
    def exact(self) -> bool:
        return self.lo is not None and self.lo == self.hi

    @property
    def prediction(self):
        """lo for an exact prediction, [lo, hi] for an interval, else None."""
        if self.lo is None:
            return None
        return self.lo if self.lo == self.hi else [self.lo, self.hi]

    def to_json(self) -> dict:
        return {
            "theorem": self.theorem,
            "case": self.case_tag,
            "prediction": self.prediction,
            "witness": None if self.witness_scheme is None else self.witness_scheme.to_json(),
            "witness_points_on_X": (
                None
                if self.witness_points is None
                else [p.to_json() for p in self.witness_points]
            ),
            "inputs": self.inputs,
            "notes": list(self.notes),
        }

    def explain(self) -> list[str]:
        """The hypotheses that decided the case, then the prediction and the
        notes: the trace of ``classify --explain``."""
        i = self.inputs
        n = i["n"]
        if self.theorem == "e4":
            level = i["rho"]
            lines = [f"rank equals border rank: rho = {level}", "computing set is reduced"]
        else:
            level = i["w"]
            lines = [
                f"border rank w = {level} strictly below rank r = {i['r']}",
                f"border scheme non-reduced, unique since 2w = {2 * level} <= n+2 = {n + 2}",
                f"multiplicity at the cusp preimage: m = {i['mult_A']}",
            ]
        lines.append(CASES[self.case_tag].explain(n, level, i))
        if self.prediction is not None:
            lines.append(f"prediction: {self.prediction}")
        return lines + list(self.notes)


def _verdict(
    n: int, level: int, inputs: dict, tags: tuple[str, ...], witness: BinaryForm | None = None
) -> ClassifierVerdict:
    """The verdict of the first of tags whose band holds at (n, level), or
    out_of_scope when none does.  A witnessed case publishes witness."""
    tag = next((t for t in tags if CASES[t].band(n, level)), "out_of_scope")
    case = CASES[tag]
    notes = case.notes
    if tag == "out_of_scope":
        m = inputs["mult_A"]
        bound = "n+1" if m == 0 else "n"
        notes = (f"no prediction: cusp multiplicity {m} with 2w = {2 * level} > {bound}",)
    if not case.witnessed:
        witness = None
    lo, hi = case.value(n, level)
    return ClassifierVerdict(case.theorem, tag, lo, hi, witness, inputs, notes)


def _guard_form(f: BinaryForm) -> tuple[tuple[Fraction, ...], ProjectionFrame]:
    """The apolar vector and the frame of a classifiable form: nonzero,
    degree n+1 with n >= 3, and not the center of projection."""
    if f.is_zero():
        raise ZeroFormError("classification of the zero form")
    if f.degree < 4:
        raise ClassifierError("classification needs degree n+1 with n >= 3")
    a = apolar_coeffs(f).entries
    if not any(c for i, c in enumerate(a) if i != 1):
        raise ClassifierError("the form is the center of projection")
    return a, ProjectionFrame(f.degree - 1)


def classify_e4(M: BinaryForm) -> ClassifierVerdict:
    """Prediction when rank equals border rank with a reduced computing set."""
    return _classify_e4(_guard_form(M)[1], sylvester_rank(M))


def _classify_e4(frame: ProjectionFrame, cert: RankCertificate) -> ClassifierVerdict:
    n = frame.n
    if cert.rank != cert.border_rank or cert.witness_kind != "squarefree":
        raise ClassifierError(
            "rank must equal border rank with a reduced computing set; "
            "the border-gap classification applies otherwise"
        )
    rho = cert.rank
    E = cert.witness_form
    inputs = {"n": n, "rho": rho, "r": rho, "mult_A": _mult_at_A(E), "witness_reduced": True}
    verdict = _verdict(n, rho, inputs, ("e4_i", "e4_ii", "e4_iii"), E)
    if verdict.case_tag == "out_of_scope":
        raise ClassifierError(f"computing-set size {rho} outside 2..{(n + 3) // 2}")
    return verdict


def classify_e3(B: BinaryForm) -> ClassifierVerdict:
    """Prediction when border rank w is strictly below rank (non-reduced W)."""
    return _classify_e3(*_guard_form(B), sylvester_rank(B))


def _classify_e3(a, frame: ProjectionFrame, cert: RankCertificate) -> ClassifierVerdict:
    """The border-gap verdict of the form with apolar vector a."""
    n = frame.n
    if cert.rank == cert.border_rank:
        raise ClassifierError(
            "border rank equals rank; the reduced-set classification applies"
        )
    w = cert.border_rank
    # a border-gap witness has a one-dimensional kernel, so W is unique
    if cert.kernel_dimension != 1 or 2 * w > n + 2:
        raise CertificateError(
            f"border-gap certificate with kernel dimension "
            f"{cert.kernel_dimension} and border rank {w} at n = {n}"
        )
    g = cert.witness_form
    m = _mult_at_A(g)
    inputs = {"n": n, "w": w, "r": cert.rank, "mult_A": m, "witness_reduced": False}
    s2 = BinaryForm(w - 2, g.coeffs[2:]) if m == 2 else None  # g/t², the residual W - 2A
    if m >= 3 or (m == 2 and not is_square_free(s2)):
        return _verdict(n, w, inputs, ("e3_2",))
    if m == 2:
        reduced = BinaryForm(w - 1, g.coeffs[1:])  # g/t, the reduced scheme of W
        if w == 2:  # W = 2A
            return _verdict(n, w, inputs, ("e3_3_cusp",), reduced)
        inputs["sigma_member"] = _in_center_extended_span(s2, a)
        if inputs["sigma_member"]:
            return _verdict(n, w, inputs, ("e3_3_wminus2",), s2)
        return _verdict(n, w, inputs, ("e3_3_wminus1",), reduced)
    if m == 0:
        return _verdict(n, w, inputs, ("e3_4_exact", "e3_4_interval"))
    return _verdict(n, w, inputs, ("e3_5",))


def classify(f: BinaryForm) -> ClassifierVerdict:
    """Dispatch on the border-rank gap."""
    return _classify(*_guard_form(f), sylvester_rank(f))


def _classify(a, frame: ProjectionFrame, cert: RankCertificate) -> ClassifierVerdict:
    if cert.rank == cert.border_rank:
        return _classify_e4(frame, cert)
    return _classify_e3(a, frame, cert)


# -- instance generation -------------------------------------------------------


@dataclass(frozen=True)
class InstanceSpec:
    """Target case with its parameters; level means w or ρ by theorem."""

    case_tag: str
    n: int
    level: int
    seed: int = 0

    def __post_init__(self) -> None:
        case = CASES.get(self.case_tag)
        if case is None or case.band is None:
            raise ClassifierError(f"no generation recipe for {self.case_tag!r}")
        if self.n < 3:
            raise ClassifierError("instances need n >= 3")
        _check_degree(self.n + 1)
        if not case.band(self.n, self.level):
            raise ClassifierError(
                f"{self.case_tag} does not admit (n={self.n}, level={self.level})"
            )


@dataclass(frozen=True)
class GeneratedInstance:
    spec: InstanceSpec
    form: BinaryForm
    scheme: ZeroScheme
    truth: ClassifierVerdict

    def to_json(self) -> dict:
        return {
            "spec": {
                "case": self.spec.case_tag,
                "n": self.spec.n,
                "level": self.spec.level,
                "seed": self.spec.seed,
            },
            "degree": self.form.degree,
            "coeffs": [str(c) for c in self.form.coeffs],
            "scheme": self.scheme.to_json(),
            "truth": self.truth.to_json(),
        }


_RETRIES = 300


def _distinct_points(rng: random.Random, k: int) -> list[P1Point]:
    """k distinct rational points avoiding the cusp preimage (1:0)."""
    taus: set[Fraction] = set()
    while len(taus) < k:
        # Bounded so numeric cross-checks keep the points inside a basin
        # the multi-start search actually covers.
        t = Fraction(rng.randint(-12, 12))
        if t:
            taus.add(t)
    return [P1Point(Fraction(1), t) for t in sorted(taus)]


def _osculating(pairs: list[tuple[P1Point, int]], d: int) -> list[list[Fraction]]:
    """The osculating vectors of the points (1:τ) of multiplicity m, which
    span the scheme they make (the apolarity lemma): the derivatives
    (C(i, j) τ^(i-j))_i of the power vector (τ^i)_i for j < m.  At A = (1:0)
    they are e_0..e_(m-1)."""
    return [
        [comb(i, j) * p.tau ** (i - j) if i >= j else 0 for i in range(d + 1)]
        for p, m in pairs
        for j in range(m)
    ]


def _nonzero_coeff(rng: random.Random) -> Fraction:
    c = 0
    while not c:
        c = rng.randint(-9, 9)
    return Fraction(c)


# (multiplicity at A, whether the first other point is double) of the
# scheme W that each recipe draws; e3_2 trades m_A = 3 for (2, True) on a
# fair coin when w >= 4
_SHAPES = {
    "e4_i": (0, False), "e4_ii": (0, False), "e3_2": (3, False),
    "e3_3_wminus1": (2, False), "e3_3_wminus2": (2, False), "e3_3_cusp": (2, False),
    "e3_4_exact": (0, True), "e3_4_interval": (0, True), "e3_5": (1, True),
}


def _recipe(spec: InstanceSpec, rng: random.Random) -> tuple[BinaryForm, ZeroScheme | None]:
    """One candidate for spec: a form and the scheme W its witness must be,
    or None for e4_iii, where any computing set of size ρ will do.

    W is A with multiplicity m_A plus distinct rational points off A.  The
    form combines, with nonzero coefficients, the d-th powers of W's points
    (e4_i, e4_ii), a basis of ⟨W - 2A⟩ and O (e3_3_wminus2), or a basis of
    ⟨W⟩ (the other e3 cases), each the free-column basis of the osculating
    vectors of the points.
    """
    tag, k, d = spec.case_tag, spec.level, spec.n + 1
    if tag == "e4_iii":
        return random_form(d, rng, bound=30), None
    m_A, double = (2, True) if tag == "e3_2" and k >= 4 and rng.random() < 0.5 else _SHAPES[tag]
    pts = _distinct_points(rng, k - m_A - double)
    pairs = [(POINT_A, m_A)] if m_A else []
    pairs += [(p, 2 if double and i == 0 else 1) for i, p in enumerate(pts)]
    W = ZeroScheme(tuple((p.linear_form(), m) for p, m in pairs))
    if CASES[tag].theorem == "e4":  # (u + τt)^d has apolar coordinates τ^i
        vectors = _osculating(pairs, d)
    elif tag == "e3_3_wminus2":  # W - 2A drops pairs[0] = (A, 2); O = e_1
        vectors = linalg.free_column_basis(_osculating(pairs[1:], d)) + [[0, 1] + [0] * (d - 1)]
    else:
        vectors = linalg.free_column_basis(_osculating(pairs, d))
    coeffs = [_nonzero_coeff(rng) for _ in vectors]
    avec = [sum(c * v[i] for c, v in zip(coeffs, vectors)) for i in range(d + 1)]
    return form_from_apolar(avec), W


def generate_instance(spec: InstanceSpec) -> GeneratedInstance:
    """Construct a form realizing the target case, ground truth recomputed.

    Rejection sampling over _recipe: a candidate is accepted when the
    witness of its rank certificate is W's product form (both normalized),
    or, for e4_iii, when its rank and border rank both equal the level, and
    the classifier then lands on the target case.  No candidate in the span
    of a subscheme W' of W of degree w-1 passes: the product form of W'
    annihilates it (the apolarity lemma), so its witness has degree below w.
    An e3_3_wminus1 candidate in ⟨W - 2A⟩ + O classifies as e3_3_wminus2.
    """
    rng = random.Random(f"cuspidal:{spec.case_tag}:{spec.n}:{spec.level}:{spec.seed}")
    frame = ProjectionFrame(spec.n)
    for _ in range(_RETRIES):
        B, W = _recipe(spec, rng)
        cert = sylvester_rank(B)
        if W is None:
            if not cert.rank == cert.border_rank == spec.level:
                continue
            W = cert.witness_scheme
        elif cert.witness_form != W.product_form():
            continue
        truth = _classify(apolar_coeffs(B).entries, frame, cert)
        if truth.case_tag == spec.case_tag:
            return GeneratedInstance(spec=spec, form=B, scheme=W, truth=truth)
    raise GenerationError(f"retry budget exhausted for {spec}")


# -- the validation loop --------------------------------------------------------


def crosscheck(f: BinaryForm) -> dict:
    """Classifier prediction against the exact fiber scan, as a plain report.

    Disagreement is reported, never raised: "match" is True/False for exact
    predictions (including generic-only ones, which consumers aggregate),
    containment for intervals, and None when no prediction applies.

    f is the lift of its image P at lambda = d a_1(f): off the cusp its
    certificate comes from the scan of P, at the cusp from ``apolarity.rank``.
    """
    a, frame = _guard_form(f)
    n = frame.n
    P = ProjectedPoint(n, (a[0],) + a[2:])
    scan = fiber_scan(P) if any(a[2:]) else None  # B'' = 0 at the cusp
    cert = scan.certificate(frame.d * a[1]) if scan else sylvester_rank(f)
    res = scan.result if scan else x_rank(P)
    report: dict = {
        "n": n,
        "w": cert.border_rank,
        "r": cert.rank,
        "witness_kind": cert.witness_kind,
    }
    verdict = None
    try:
        verdict = _classify(a, frame, cert)
        report["theorem"] = verdict.theorem
        report["case"] = verdict.case_tag
        report["prediction"] = verdict.prediction
        report["notes"] = list(verdict.notes)
    except ClassifierError as err:
        report["classifier_error"] = str(err)

    # deg W = w <= floor((n+1)/2) + 1 <= n + 2, inside o_in_span's range
    g = cert.witness_form
    m = _mult_at_A(g)
    try:
        member = _center_in_span(g.degree, g.coeffs[0], g.coeffs[1], m, frame)
        report["o_span"] = {"case": "e3_1_info", "o_in_span": member, "mult_A": m, "agree": True}
    except SpanCriterionDisagreement as err:
        report["o_span"] = {"case": "e3_1_info", "agree": False, "detail": str(err)}

    report["fiber_value"] = res.value
    report["fiber_complete"] = True  # kept for readers of the earlier schema
    if verdict is None or verdict.lo is None:
        report["match"] = None
    elif verdict.exact:
        report["match"] = res.value == verdict.lo
    else:
        report["match"] = verdict.lo <= res.value <= verdict.hi

    if verdict is not None and verdict.case_tag == "e4_i":
        # None unless both square-free witnesses split over Q; the curve map
        # is injective, so then their images agree iff the forms do up to
        # scale, and forms equal up to scale split together
        E, theirs = verdict.witness_form, res.witness_certificate
        report["witness_match"] = None
        if isinstance(res.witness_lambda, Fraction) and theirs.witness_kind == "squarefree":
            same = E.normalized() == theirs.witness_form.normalized()
            forms = (E,) if same else (E, theirs.witness_form)
            if all(ratfactor.rational_roots(h.coeffs)[1] == (1,) for h in forms):
                report["witness_match"] = same
    return report
