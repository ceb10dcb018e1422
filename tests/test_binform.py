import collections
import itertools
import json
import random
import time
from fractions import Fraction
from math import comb, prod

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from cuspidal import apolarity, binform, linalg, ratfactor, univar
from cuspidal.binform import (
    MAX_COEFFICIENT_BITS,
    MAX_DEGREE,
    BinaryForm,
    GrammarError,
    P1Point,
    POINT_A,
    PrecisionError,
    ZeroScheme,
    apolar_coeffs,
    approximate_roots,
    is_square_free,
    parse_form,
    random_form,
    squarefree_decompose,
)
from oracles import (
    field_is_square_free,
    monic_route_factors,
    mp_aberth_roots,
    mp_polyroots,
    per_root_aberth_roots,
    real_flags,
    resultant_of_partials,
    sturm_real_root_count,
    sympy_factors,
)


def F(a, b=1):
    return Fraction(a, b)


def form(*coeffs):
    return BinaryForm(len(coeffs) - 1, tuple(Fraction(c) for c in coeffs))


U2T = form(0, 1, 0, 0)  # u^2 t
UT_U_MINUS_T = form(0, 1, -1, 0)  # u t (u - t)


class TestParsing:
    def test_parse_cubic(self):
        f = parse_form("d=3; [1,0,0,1]")
        assert f == form(1, 0, 0, 1)

    def test_parse_rationals_and_whitespace(self):
        f = parse_form(" d = 4 ; [ 2/3, -1, 0, 0, 5 ] ")
        assert f.coeffs == (F(2, 3), F(-1), F(0), F(0), F(5))

    def test_wrong_count_rejected(self):
        with pytest.raises(GrammarError):
            parse_form("d=2; [1,0]")

    def test_malformed_rational_rejected(self):
        with pytest.raises(GrammarError):
            parse_form("d=1; [1.5,0]")
        with pytest.raises(GrammarError):
            parse_form("d=1; [1/0,0]")

    def test_render_roundtrip(self):
        rng = random.Random(3)
        for _ in range(50):
            f = random_form(rng.randint(1, 9), rng)
            assert parse_form(f.render()) == f

    def test_json_roundtrip(self):
        f = form(1, F(-2, 3), 0)
        assert BinaryForm.from_json(f.to_json()) == f

    @pytest.mark.parametrize(
        "record",
        [
            {"degree": 4.7, "coeffs": ["1", "0", "0", "0", "1"]},
            {"degree": 4.0, "coeffs": ["1", "0", "0", "0", "1"]},
            {"degree": True, "coeffs": ["1", "1"]},
            {"degree": 1, "coeffs": "11"},
            {"degree": 1, "coeffs": ["1", "1"], "basis": "apolar"},
            {"coeffs": ["1", "1"]},
            [1, ["1", "1"]],
        ],
    )
    def test_json_refuses_what_it_cannot_read_exactly(self, record):
        with pytest.raises(GrammarError):
            BinaryForm.from_json(record)

    def test_json_coefficient_count_is_the_constructors_error(self):
        with pytest.raises(ValueError, match="needs 3 coefficients"):
            BinaryForm.from_json({"degree": "2", "coeffs": ["1", "0"]})


class TestSizeLimits:
    """``parse_form`` and ``BinaryForm.from_json`` refuse a degree above
    MAX_DEGREE and a coefficient numerator or denominator, as written, of
    more than MAX_COEFFICIENT_BITS bits; the constructor takes any size."""

    @staticmethod
    def _both(degree, coeffs):
        text = f"d={degree}; [{','.join(coeffs)}]"
        return (lambda: parse_form(text),
                lambda: BinaryForm.from_json({"degree": degree, "coeffs": coeffs}))

    def test_degree_at_and_above_the_bound(self):
        for d, ok in ((MAX_DEGREE, True), (MAX_DEGREE + 1, False)):
            for read in self._both(d, ["1"] + ["0"] * d):
                if ok:
                    assert read() == BinaryForm(d, (1,) + (0,) * d)
                else:
                    with pytest.raises(GrammarError, match="degree"):
                        read()
        assert BinaryForm(MAX_DEGREE + 1, (1,) * (MAX_DEGREE + 2)).degree == MAX_DEGREE + 1

    def test_coefficient_bits_at_and_above_the_bound(self):
        top, over = 2**MAX_COEFFICIENT_BITS - 1, 2**MAX_COEFFICIENT_BITS
        assert top.bit_length() == MAX_COEFFICIENT_BITS
        for text, value in ((str(top), F(top)), (f"-{top}", F(-top)), (f"1/{top}", F(1, top)),
                            (f"{top}/{top}", F(1)), ("0" * 500 + "7", F(7))):
            for read in self._both(1, [text, "1"]):
                assert read().coeffs[0] == value, text
        for text in (str(over), f"-{over}", f"1/{over}", f"{over}/{over}", "9" * 2000):
            for read in self._both(1, [text, "1"]):
                with pytest.raises(GrammarError, match="bits"):
                    read()
        assert BinaryForm(1, (over, 1)).coeffs == (over, 1)


class TestApolar:
    def test_values(self):
        f = form(1, 3, 3, 1)  # (u+t)^3
        assert apolar_coeffs(f).entries == (F(1), F(1), F(1), F(1))

    def test_roundtrip(self):
        rng = random.Random(4)
        for _ in range(50):
            f = random_form(rng.randint(1, 10), rng)
            d = f.degree
            assert [a * comb(d, i) for i, a in enumerate(apolar_coeffs(f).entries)] == list(f.coeffs)


class TestSquareFree:
    def test_spec_examples(self):
        assert is_square_free(UT_U_MINUS_T)
        assert not is_square_free(U2T)

    def test_pure_powers(self):
        assert is_square_free(form(1, 0))  # u
        assert not is_square_free(form(1, 0, 0))  # u^2
        assert not is_square_free(form(0, 0, 1))  # t^2

    def test_matches_decomposition(self):
        rng = random.Random(5)
        for _ in range(100):
            f = random_form(rng.randint(1, 8), rng, bound=10)
            scheme = squarefree_decompose(f)
            assert is_square_free(f) == scheme.is_reduced()


def _moved(f, a, b, c, e):
    """f(a u + b t, c u + e t)."""
    out = BinaryForm(f.degree, (0,) * (f.degree + 1))
    for i, x in enumerate(f.coeffs):
        out = out + (form(a, b).power(f.degree - i) * form(c, e).power(i)).scaled(x)
    return out


@st.composite
def _planted_forms(draw):
    """Forms of degree 0..14: random small coefficients, times u^2, t^2 or
    nothing, then moved by an invertible substitution or not, which carries
    a planted square to another point of P^1."""
    d = draw(st.integers(0, 12))
    f = BinaryForm(d, tuple(draw(st.lists(st.integers(-6, 6), min_size=d + 1, max_size=d + 1))))
    if f.is_zero():
        f = BinaryForm(d, (1,) + (0,) * d)
    f = f * draw(st.sampled_from((form(1), form(1, 0, 0), form(0, 0, 1))))
    if draw(st.booleans()):
        a, b, c, e = draw(st.lists(st.integers(-4, 4), min_size=4, max_size=4).filter(
            lambda m: m[0] * m[3] != m[1] * m[2]))
        f = _moved(f, a, b, c, e)
    return f


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(_planted_forms())
def test_square_free_matches_gcd_and_decomposition(f):
    """The square-free test agrees with the resultant of the partials, with
    the gcd of the chart polynomial and its derivative, and with the exact
    square-free decomposition."""
    got = is_square_free(f)
    assert got == (resultant_of_partials(linalg.canonical_vector(f.coeffs)) != 0)
    assert got == field_is_square_free(list(f.coeffs), f.degree)
    assert got == squarefree_decompose(f).is_reduced()


@st.composite
def _double_root_at_an_end(draw):
    """u^k t^2 h or u^2 h, h of degree 0..10 with small coefficients."""
    d = draw(st.integers(0, 10))
    h = BinaryForm(d, tuple(draw(st.lists(st.integers(-6, 6), min_size=d + 1, max_size=d + 1))))
    if h.is_zero():
        h = BinaryForm(d, (1,) * (d + 1))
    if draw(st.booleans()):
        return h * form(0, 0, 1) * form(1, 0).power(draw(st.integers(0, 3)))
    return h * form(1, 0, 0)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(_double_root_at_an_end())
def test_a_double_root_at_either_end_is_not_square_free(f):
    """A square of t or of u, read off the coefficients, agrees with the
    resultant of the partials and with the exact square-free decomposition."""
    assert is_square_free(f) is False
    assert resultant_of_partials(linalg.canonical_vector(f.coeffs)) == 0
    assert not squarefree_decompose(f).is_reduced()


def _chart_form(k, *factors):
    """u^k times the homogenized product of the chart polynomials given."""
    p = [1]
    for fac in factors:
        p = univar.mul(p, fac)
    return BinaryForm(len(p) - 1 + k, tuple(p) + (0,) * k)


P1 = ratfactor.PRIMES[0]
N3 = prod(ratfactor.PRIMES[:3])


@pytest.mark.parametrize("f, square_free, exact", [
    (_chart_form(0, [-1, 1], [-1 - N3, 1], [-2, 0, 0, 1]), True, True),    # P1 | disc
    (_chart_form(1, [1, P1], [-1, 1], [-1 - N3, 1]), True, True),          # P1 | lc, P2 | disc
    (_chart_form(1, [-2, 0, 0, 1], [5, 3]), True, False),                  # u exactly divides f
    (_chart_form(2, [-2, 0, 0, 1], [5, 3]), False, False),                 # u^2 divides f
    (_chart_form(0, [-2, 0, 0, 1], [5, 3], [5, 3]), False, True),          # a square in the chart
    (_chart_form(1, [0, 1], [0, 1], [1, 1, 1]), False, False),             # t^2 divides f
    (_chart_form(0, [0, 1], [P1, 1], [-2, 0, 0, 1]), True, False),         # P1 | disc, P2 does not
])
def test_square_free_modular_and_exact_routes(f, square_free, exact, monkeypatch):
    """A nontrivial gcd modulo each of the first two listed primes that do
    not divide the leading coefficient sends the test to the exact gcd in
    the integers, and a trivial one modulo either proves square-freeness;
    u^2 | f and t^2 | f are read off the coefficients."""
    calls = []
    gcd = univar.gcd
    monkeypatch.setattr(univar, "gcd", lambda p, q: calls.append(p) or gcd(p, q))
    assert is_square_free(f) is square_free
    assert len(calls) == exact
    assert field_is_square_free(list(f.coeffs), f.degree) is square_free
    assert (resultant_of_partials(linalg.canonical_vector(f.coeffs)) != 0) is square_free


def test_square_free_matches_resultant_on_large_forms():
    """Seeded forms of degree 4..21 with coefficients up to 60 bits, every
    other one times the square of a random factor: the gcd route agrees
    with the resultant of the partials."""
    rng = random.Random(2112)
    squares = 0
    for trial in range(60):
        d = rng.randint(4, 21)
        bits = rng.choice((8, 30, 60))
        if trial % 2:
            k = rng.randint(1, (d - 2) // 2)
            h = BinaryForm(k, tuple(rng.randint(-2**bits, 2**bits) for _ in range(k + 1)))
            rest = BinaryForm(d - 2 * k, tuple(rng.randint(-2**bits, 2**bits)
                                               for _ in range(d - 2 * k + 1)))
            f = h * h * rest
        else:
            f = BinaryForm(d, tuple(rng.randint(-2**bits, 2**bits) for _ in range(d + 1)))
        if f.is_zero():
            continue
        got = is_square_free(f)
        assert got == (resultant_of_partials(linalg.canonical_vector(f.coeffs)) != 0), f
        squares += not got
    assert squares >= 25


class TestDecompose:
    def test_u2t(self):
        scheme = squarefree_decompose(U2T)
        got = {(g.pretty(), m) for g, m in scheme.factors}
        assert got == {("u", 2), ("t", 1)}

    def test_squarefree_input_single_factors(self):
        f = form(0, 1, -1, 0)  # u t (u-t)
        scheme = squarefree_decompose(f)
        assert scheme.is_reduced()
        assert scheme.degree == 3

    def test_product_reconstruction(self):
        rng = random.Random(6)
        for _ in range(100):
            f = random_form(rng.randint(1, 9), rng, bound=10)
            scheme = squarefree_decompose(f)
            # square-free factors, pairwise coprime
            assert is_square_free(prod((g for g, _ in scheme.factors), start=BinaryForm(0, (1,))))
            assert scheme.degree == f.degree
            assert scheme.product_form().normalized() == f.normalized()

    def test_engineered_multiplicities(self):
        # (u - t)^3 * (u + 2t)^2 * t
        a = form(1, -1)
        b = form(1, 2)
        t = form(0, 1)
        f = a * a * a * b * b * t
        scheme = squarefree_decompose(f)
        got = {(g.pretty(), m) for g, m in scheme.factors}
        assert got == {("u-t", 3), ("u+2*t", 2), ("t", 1)}


class TestMultiplicity:
    def test_spec_example(self):
        assert squarefree_decompose(U2T).multiplicity_at(POINT_A) == 1

    def test_at_infinity_chart(self):
        assert squarefree_decompose(U2T).multiplicity_at(P1Point(F(0), F(1))) == 2

    def test_scheme_dispatch(self):
        # a point off the scheme has multiplicity 0
        assert squarefree_decompose(U2T).multiplicity_at(P1Point(F(1), F(5))) == 0


class TestSchemeOps:
    def test_remove_and_add_point(self):
        scheme = squarefree_decompose(U2T)
        at_infinity = P1Point(F(0), F(1))
        smaller = scheme.remove_point(at_infinity, 1)
        assert smaller.degree == 2
        assert smaller.multiplicity_at(at_infinity) == 1
        assert ZeroScheme(smaller.factors + ((at_infinity.linear_form(), 1),)) == scheme

    def test_rational_points_none_for_irrational(self):
        f = form(1, 0, 1)  # u^2 + t^2
        scheme = squarefree_decompose(f)
        assert scheme.rational_points() is None


def _irreducible_pool(rng, degree, count):
    """count distinct primitive integer forms of the given degree that
    sympy finds irreducible over Q."""
    pool = set()
    while len(pool) < count:
        cs = [rng.randint(-6, 6) for _ in range(degree + 1)]
        if cs[-1] and [(len(fac), e) for fac, e in sympy_factors(cs)] == [(degree + 1, 1)]:
            pool.add(form(*cs).normalized())
    return sorted(pool, key=lambda g: g.coeffs)


class TestSchemeInvariant:
    """Points read off the irreducible factors of a scheme, on seeded schemes
    built from rational points (A and (0:1) included), irreducible quadratics
    and cubics, with multiplicities 1-3; sympy's factorization of the
    product form is the independent oracle."""

    SCHEMES = 1000

    def _schemes(self):
        rng = random.Random(1915)
        points = [POINT_A, P1Point(F(0), F(1))] + [
            P1Point(F(1), F(a, b)) for a in range(-4, 5) for b in (1, 2, 3)
        ]
        points = list(dict.fromkeys(points))
        nonlinear = _irreducible_pool(rng, 2, 12) + _irreducible_pool(rng, 3, 8)
        for _ in range(self.SCHEMES):
            pts = rng.sample(points, rng.randint(0, 2))
            if rng.random() < 0.3:
                pts += [POINT_A]
            pts = list(dict.fromkeys(pts))
            curved = rng.sample(nonlinear, rng.choice((0, 0, 1, 1, 2)))
            if not pts and not curved:
                pts = [rng.choice(points)]
            mult = {p: rng.choice((1, 1, 2, 3)) for p in pts}
            pieces = [(p.linear_form(), m) for p, m in mult.items()]
            pieces += [(g, rng.randint(1, 3 - len(curved))) for g in curved]
            # each piece scaled by a nonzero constant, in shuffled order
            given = [(g.scaled(rng.choice((-3, -1, 2, F(1, 2)))), m) for g, m in pieces]
            rng.shuffle(given)
            yield ZeroScheme(tuple(given)), mult, pieces, [p for p in points if p not in mult]

    def test_points_from_the_invariant(self):
        def by_point(pts):
            return sorted(pts, key=lambda pm: (pm[0].a, pm[0].b))

        count = 0
        for W, mult, pieces, off in self._schemes():
            count += 1
            h = W.product_form()
            k, p = h.tau_poly()
            oracle = sympy_factors(p) if len(p) > 1 else []
            want = by_point(
                ([(P1Point(F(0), F(1)), k)] if k else [])
                + [(P1Point(F(1), -fac[0]), e) for fac, e in oracle if len(fac) == 2]
            )
            assert want == by_point(mult.items())
            nonlinear_degree = sum(len(fac) - 1 for fac, _ in oracle if len(fac) > 2)
            pts = W.rational_points()
            assert (pts is None) == (nonlinear_degree > 0) == any(g.degree > 1 for g, _ in pieces)
            assert pts is None or pts == want

            for pt, m in mult.items():
                for j in range(1, m + 1):
                    rest = W.remove_point(pt, j)
                    assert ZeroScheme(rest.factors + ((pt.linear_form(), j),)) == W
                with pytest.raises(ValueError):
                    W.remove_point(pt, m + 1)
            for pt in off[:2]:
                with pytest.raises(ValueError):
                    W.remove_point(pt, 1)

        assert count >= 1000

    def test_pieces_match_the_monic_route(self):
        """On seeded forms of degree <= 8, products of u, t, repeated linear
        factors and irreducible quadratics, scaled by a non-integral
        constant, the pieces that ``ZeroScheme`` reads from
        ``ratfactor.primitive_factors`` are those of the monic route, types
        and order included."""
        rng = random.Random("monic-route")
        kinds = collections.Counter()
        for _ in range(400):
            g, pieces = form(F(rng.randint(1, 9), rng.randint(1, 9))), []
            while g.degree < rng.randint(1, 8):
                if rng.random() < 0.2:
                    piece = form(*rng.choice(((1, 0), (0, 1))))
                elif rng.random() < 0.3:
                    b, c = rng.randint(-3, 3), rng.randint(1, 5)
                    piece = form(c, b, 1) if b * b < 4 * c else form(1, -1)
                else:
                    piece = form(rng.randint(-6, 6) or 1, rng.randint(-6, 6))
                e = rng.choice((1, 1, 2, 3))
                g = g * piece.power(e)
                pieces.append((piece.degree, e))
            if g.degree == 0:
                continue
            m = rng.randint(1, 2)
            W = ZeroScheme(((g, m),))
            assert repr(W.factors) == repr(monic_route_factors(((g, m),))), g.render()
            kinds.update(("quadratic" if d == 2 else "linear", e > 1) for d, e in pieces)
            kinds["non-integral"] += any(type(c) is Fraction for c in g.coeffs)
            kinds["u"] += g.coeffs[-1] == 0
            kinds["t"] += g.coeffs[0] == 0
        assert min(kinds.values()) >= 20, kinds


class TestFormArithmetic:
    def test_pretty(self):
        assert form(0, 1).pretty() == "t"
        assert form(1, 0).pretty() == "u"
        assert form(1, 0, 1).pretty() == "u^2+t^2"
        assert form(1, -1).pretty() == "u-t"
        assert form(0, F(2, 3), 0).pretty() == "2/3*u*t"


def _wide_coefficients(degree: int) -> list[int]:
    """Seeded integer coefficients of 1 to 1000 bits and random signs."""
    rng = random.Random("wide-coefficients")
    return [rng.choice((-1, 1)) * rng.getrandbits(rng.randint(1, 1000)) for _ in range(degree + 1)]


class TestNumericRoots:
    """Roots of forms: the rational ones read off the zero scheme, the rest
    refined by ``approximate_roots``."""

    def test_u2t(self):
        assert squarefree_decompose(U2T).rational_points() == [
            (P1Point(F(0), F(1)), 2), (P1Point(F(1), F(0)), 1)]

    def test_gaussian_pair(self):
        prec = 128
        with mpmath.workprec(prec):
            got = sorted(approximate_roots([F(1), F(0), F(1)], prec), key=lambda z: z.imag)
        with mpmath.workprec(prec + 16):
            assert abs(got[0] + mpmath.mpc(0, 1)) < mpmath.mpf(2) ** (-prec + 4)
            assert abs(got[1] - mpmath.mpc(0, 1)) < mpmath.mpf(2) ** (-prec + 4)

    def test_multiplicity_sum(self):
        rng = random.Random(9)
        for _ in range(30):
            f = random_form(rng.randint(1, 8), rng, bound=10)
            assert squarefree_decompose(f).degree == f.degree

    def test_mixed_exact_and_numeric(self):
        # (u - 2t)^2 * (u^2 + t^2); the rational root sits at (2:1) = (1:1/2)
        f = form(1, -2) * form(1, -2) * form(1, 0, 1)
        (lin, m), (quad, one) = squarefree_decompose(f).factors
        assert (lin.evaluate(2, 1), m, one) == (0, 2, 1)
        assert len(approximate_roots(quad.tau_poly()[1], 96)) == 2

    @pytest.mark.parametrize("seed, count, degrees, bound, precisions", [
        ("refined-roots", 40, (3, 12), 100, (64, 128, 192)),
        (11, 20, (2, 7), 8, (160,)),
    ], ids=["refined-roots", "seed-11"])
    def test_roots_match_durand_kerner(self, seed, count, degrees, bound, precisions):
        """Seeded random forms: the roots ``approximate_roots`` refines for
        each irreducible factor are those mpmath's Durand-Kerner iteration
        finds at more than twice the precision, each to within 2^(8-prec)
        relative to max(1, |z|)."""
        rng = random.Random(seed)
        compared = 0
        for _ in range(count):
            f = random_form(rng.randint(*degrees), rng, bound=bound)
            prec = rng.choice(precisions)
            for g, _m in squarefree_decompose(f).factors:
                p = g.tau_poly()[1]
                if len(p) < 2:
                    continue
                with mpmath.workprec(prec):
                    got = approximate_roots(p, prec)
                want = mp_polyroots(p, 2 * prec + 64)
                assert len(got) == len(want)
                with mpmath.workprec(2 * prec + 64):
                    for z in want:
                        err = min(abs(mpmath.mpc(y) - z) for y in got)
                        assert err <= mpmath.mpf(2) ** (8 - prec) * max(1, abs(z)), f.render()
                compared += len(want)
        assert compared >= count

    def test_sweep_matches_the_per_pair_oracle(self):
        """On the polynomials of ``_aberth_polynomials``, the mpc sweep of
        the oracle that takes each pair's reciprocal once returns the bits
        of the one that takes it per ordered pair, or both raise
        PrecisionError."""
        compared = 0
        for p, bits, _ in _aberth_polynomials():
            outcomes = []
            for roots_of in (mp_aberth_roots, per_root_aberth_roots):
                try:
                    outcomes.append([z._mpc_ for z in roots_of(p, bits)])
                except PrecisionError:
                    outcomes.append("PrecisionError")
            assert outcomes[0] == outcomes[1], (p, bits)
            compared += outcomes[0] != "PrecisionError"
        assert compared >= 50

    def test_fixed_point_matches_the_mpc_oracle(self):
        """On the polynomials of ``_aberth_polynomials``, every root the
        fixed-point sweeps return lies within 2^(8-prec) max(1, |z|) of a
        root of the mpc oracle ``mp_aberth_roots`` at the same precision.

        On a cluster the oracle is no reference at that precision: it
        rounds the coefficients, as large as M^k, to prec bits, which moves
        the clustered roots by up to 2^-15 relative here, while the
        fixed-point Horner reads the integers exactly.  There both are
        compared with the oracle at 3 prec + 128 bits, and the fixed-point
        roots must be within 2^(8-prec) relative of it or no farther from
        it than the oracle's at prec."""
        compared = 0
        for p, bits, clustered in _aberth_polynomials():
            assert univar.degree(univar.gcd(p, univar.derivative(p))) == 0, p
            got = approximate_roots(p, bits)
            want = mp_aberth_roots(p, bits)
            assert len(got) == len(want) == univar.degree(p)
            with mpmath.workprec(3 * bits + 128):
                if clustered:
                    truth = mp_aberth_roots(p, 3 * bits + 128)
                    error = lambda roots: max(  # noqa: E731
                        min(abs(y - z) for y in roots) / max(1, abs(z)) for z in truth)
                    assert error(got) <= max(mpmath.mpf(2) ** (8 - bits), error(want)), (p, bits)
                else:
                    for z in want:
                        err = min(abs(y - z) for y in got)
                        assert err <= mpmath.mpf(2) ** (8 - bits) * max(1, abs(z)), (p, bits)
            compared += not clustered
        assert compared >= 40

    @pytest.mark.parametrize("p", [
        (-2, 0, 0, 10**40),
        (3, 10**30, 0, 0, 10**60),
        (1, -7 * 10**20, 0, 0, 0, 10**50),
    ], ids=["cube-roots-6e-14", "moduli-1e-10-and-3e-30", "moduli-5e-8-and-1e-21"])
    def test_small_roots_keep_relative_bits(self, p):
        """Roots of modulus 10^-30 to 10^-7: the guard bits from the lower
        bound on the root modulus keep each within 2^(8-prec) of its size,
        against the mpc oracle at 3 prec + 128 bits."""
        p = [F(c) for c in p]
        for bits in (64, 128, 224):
            got = approximate_roots(p, bits)
            truth = mp_aberth_roots(p, 3 * bits + 128)
            with mpmath.workprec(3 * bits + 128):
                for z in truth:
                    err = min(abs(y - z) for y in got)
                    assert err <= mpmath.mpf(2) ** (8 - bits) * abs(z), (p, bits, z)

    @pytest.mark.parametrize("p", [
        univar.mul([-10**200, 0, 0, 0, 0, 1], [-3, 0, 0, 0, 0, 10**200]),
        _wide_coefficients(48),
        [-10**300] + [0] * 23 + [1],
        [-1] + [0] * 23 + [10**300],
    ], ids=["moduli-1e40-and-1e-40", "degree-48-1000-bits", "moduli-3e12", "moduli-3e-13"])
    def test_seeds_for_coefficients_floats_cannot_hold(self, p):
        """Coefficients whose ratios floats cannot hold: the Newton polygon
        seeds each root on a circle of its modulus, and the float pass reads
        |z| > 1 from the reversed polynomial.  Refined at 128 bits, the
        roots are the degree in number, pairwise apart, and each one's
        Newton step, at 2000 bits, is at most 2^-131 of its modulus."""
        p = [F(c) for c in p]
        got = approximate_roots(p, 128)
        assert len(got) == univar.degree(p)
        with mpmath.workprec(2000):
            cs = [mpmath.mpf(c.numerator) for c in p]
            ds = [mpmath.mpf(c.numerator) for c in univar.derivative(p)]
            for i, z in enumerate(got):
                step = univar.evaluate(cs, z) / univar.evaluate(ds, z)
                assert abs(step) <= mpmath.mpf(2) ** -131 * abs(z), (i, z)
                assert all(abs(z - y) > mpmath.mpf(2) ** -64 * abs(z) for y in got[i + 1:])

    def test_real_seeds_match_the_real_roots(self):
        """On the polynomials of ``_aberth_polynomials`` and on the clusters
        (x - M)^2 -+ 3, the exact count ``_real_root_count`` is the number
        of real roots that mpmath's Durand-Kerner finds at 400 bits, and
        wherever the inclusion disks of the oracle ``real_flags`` are sure
        of the float seeds, they mark that many of them real: exactly the
        seeds of least |Im z| / |z| that ``_real_seeds`` marks.  The disks
        are unsure on clusters near the real axis."""
        M = 10**30 + 7
        polys = [p for p, _, _ in _aberth_polynomials()]
        polys += [[F(M * M + c), F(-2 * M), F(1)] for c in (3, -3)]
        unsure = 0
        for p in polys:
            cs = linalg.canonical_vector(p)
            with mpmath.workprec(400):
                want = sum(abs(z.imag) < mpmath.mpf(2) ** -200 for z in mp_polyroots(p, 400))
            assert binform._real_root_count(cs) == want, p
            zs = binform._float_seeds(cs)
            flags = real_flags(cs, zs)
            assert flags is None or sum(flags) == want, p
            assert flags is None or flags == binform._real_seeds(cs, zs), p
            unsure += flags is None
        assert 2 < unsure < len(polys) // 2

    def test_real_root_count_matches_sturm(self):
        """Descartes' rule with bisection, ``_real_root_count``, counts the
        real roots that the Sturm sequence of ``sturm_real_root_count``
        counts, on the inputs of this class (the wide coefficients at degree
        16, where Sturm takes 13 s at 48) and on seeded square-free
        polynomials: random ones, products of distinct linear factors
        (roots at 0 and at powers of two, the midpoints of the bisection,
        included) or of quadratics with no real root, coefficients of widely
        spread sizes, and clusters.  Products of up to three roots from 0,
        +-1 and +-1/2, where the bisection splits (0, oo) and halves (0, 1),
        from 1 +- 10^-12 beside the split, and from +-10^30 and 10^-30, some
        times x^2 + 1, test the split point."""
        M = 10**30 + 7
        polys = [p for p, _, _ in _aberth_polynomials()]
        polys += [[F(M * M + c), F(-2 * M), F(1)] for c in (3, -3)]
        polys += [[F(-2), 0, 0, F(10**40)], [F(3), F(10**30), 0, 0, F(10**60)],
                  univar.mul([-10**200, 0, 0, 0, 0, 1], [-3, 0, 0, 0, 0, 10**200]),
                  _wide_coefficients(16), [-10**300] + [0] * 23 + [1]]
        split = [F(0), F(1), F(-1), F(1, 2), F(-1, 2), 1 + F(1, 10**12), 1 - F(1, 10**12),
                 F(10**30), F(-10**30), F(1, 10**30)]
        for k in (1, 2, 3):
            for n, roots in enumerate(itertools.combinations(split, k)):
                p = [1, 0, 1] if n % 2 else [1]
                for r in roots:
                    p = univar.mul(p, [-r.numerator, r.denominator])
                polys.append(p)
        rng = random.Random("real-root-count")
        for n in range(240):
            deg = rng.randint(1, 14)
            if n % 4 == 0:
                p = [rng.randint(-2**40, 2**40) for _ in range(deg)] + [rng.randint(1, 99)]
            elif n % 8 == 1:
                roots = rng.sample([F(a, b) for a in range(-16, 17) for b in (1, 2, 3, 5)], deg)
                p = [1]
                for r in dict.fromkeys(roots):
                    p = univar.mul(p, [-r.numerator, r.denominator])
            elif n % 8 == 5:
                p = [1]
                for c in rng.sample(range(1, 40), (deg + 1) // 2):
                    p = univar.mul(p, [c, rng.randint(-1, 1), 1])
            elif n % 4 == 2:
                p = [rng.choice((-1, 1)) * 10 ** rng.randint(0, 120) for _ in range(deg + 1)]
            else:
                k, c = rng.randint(2, 4), rng.randint(-5, 5) or 1
                cluster = [comb(k, i) * (-10**12) ** (k - i) for i in range(k + 1)]
                cluster[0] -= c
                p = univar.mul(cluster, [rng.randint(-9, 9) for _ in range(deg)] + [1])
            p = univar.trim([F(c) for c in p])
            if len(p) > 1 and univar.degree(univar.gcd(p, univar.derivative(p))) == 0:
                polys.append(p)
        counts = collections.Counter()
        for p in polys:
            cs = linalg.canonical_vector([F(c) for c in p])
            want = sturm_real_root_count(cs)
            assert binform._real_root_count(cs) == want, p
            counts[min(want, 3)] += 1
        assert len(polys) > 250 and min(counts.values()) >= 20, counts

    def test_real_root_count_of_a_wide_cofactor_is_fast(self, monkeypatch):
        """The degree-31 cofactor, 3095-bit coefficients, that ``decompose``
        hands ``approximate_roots`` for a seeded degree-60 form: Sturm's
        count of its 5 real roots took 18.6 s on a 2-core machine, and the
        count by Descartes' rule must take under 0.05 s (best of 3)."""
        cofactors = []
        approximate = apolarity.approximate_roots
        monkeypatch.setattr(apolarity, "approximate_roots",
                            lambda p, bits: cofactors.append(p) or approximate(p, bits))
        apolarity.decompose(random_form(60, random.Random(60), bound=100))
        (cs,) = cofactors
        assert (len(cs) - 1, max(abs(c) for c in cs).bit_length()) == (31, 3095)
        times = []
        for _ in range(3):
            start = time.perf_counter()
            assert binform._real_root_count(cs) == 5
            times.append(time.perf_counter() - start)
        assert min(times) < 0.05, times

    def test_a_root_beyond_float_seeds_raises(self):
        """(x - 3^700)(x^2 + 1): no float seed reaches the root near 2^1109,
        and a seed clipped to 2^1000 walks away from it, so the call raises
        PrecisionError.  Its mirror (3^700 x - 1)(x^2 + 1), a root near
        2^-1109, is reached from the seed at 2^-1000: at 128 bits each root's
        Newton step, at 4000 bits, is at most 2^-120 of its modulus."""
        with pytest.raises(PrecisionError):
            approximate_roots([F(c) for c in univar.mul([-3**700, 1], [1, 0, 1])], 128)
        p = univar.mul([-1, 3**700], [1, 0, 1])
        got = approximate_roots([F(c) for c in p], 128)
        assert len(got) == 3
        with mpmath.workprec(4000):
            cs = [mpmath.mpf(c) for c in p]
            ds = [mpmath.mpf(c) for c in univar.derivative(p)]
            for z in got:
                step = univar.evaluate(cs, z) / univar.evaluate(ds, z)
                assert abs(step) <= mpmath.mpf(2) ** -120 * abs(z), z

    @pytest.mark.parametrize("bits", [128, 224])
    def test_real_roots_of_a_cluster_stay_real(self, bits):
        """(x - M)^2 - 3, M = 10^30 + 7: floats cannot resolve the two roots
        2 sqrt(3) apart, but the exact count of real roots makes both seeds
        real, and the fixed-point sweeps keep them real, so both imaginary
        parts are exactly 0.  The real parts keep the stopping rule's
        slack: at 128 bits they are about 3e12 from M -+ sqrt(3), inside
        2^(8 - bits/2) |z| = 1.4e13."""
        M = 10**30 + 7
        got = approximate_roots([F(M * M - 3), F(-2 * M), F(1)], bits)
        assert [z.imag for z in got] == [0, 0]
        with mpmath.workprec(2 * bits):
            for root in (M - mpmath.sqrt(3), M + mpmath.sqrt(3)):
                err = min(abs(z - root) for z in got)
                assert err <= mpmath.mpf(2) ** (8 - bits // 2) * root

    @pytest.mark.parametrize("M, bits", [(10**9 + 7, 128), (10**15 + 7, 128), (10**30 + 7, 224)])
    def test_complex_roots_of_a_cluster_are_found(self, M, bits):
        """(x - M)^2 + 3, the conjugate twin of the cluster above: its float
        roots lie near the real axis, but the seeds must not stand for two
        real roots, which the sweeps would keep real; each root M +- i sqrt(3)
        is found to within 2^(8 - bits/2) |z|."""
        got = approximate_roots([F(M * M + 3), F(-2 * M), F(1)], bits)
        with mpmath.workprec(2 * bits):
            for root in (M - mpmath.sqrt(3) * 1j, M + mpmath.sqrt(3) * 1j):
                err = min(abs(z - root) for z in got)
                assert err <= mpmath.mpf(2) ** (8 - bits // 2) * abs(root)


def _aberth_polynomials():
    """(p, bits, clustered) for 60 seeded square-free polynomials of degree
    3..12: two in three with random rational coefficients, one in three a
    cluster (x - M)^k - c, k <= 4 roots within c^(1/k) of M = 10^3, 10^9
    or 10^15 + 7, times a random factor, whose float seeds nearly
    coincide; bits is 64, 128 or 224."""
    rng = random.Random("aberth-pairs")
    for n in range(60):
        deg = 3 + n % 10
        if n % 3:
            p = [F(rng.randint(-99, 99), rng.randint(1, 9)) for _ in range(deg)] + [F(1)]
        else:
            k, M = rng.randint(2, min(deg, 4)), rng.choice((10**3, 10**9, 10**15 + 7))
            cluster = [F(comb(k, i) * (-M) ** (k - i)) for i in range(k + 1)]
            cluster[0] -= rng.randint(1, 5)
            rest = [F(rng.randint(-9, 9)) for _ in range(deg - k)] + [F(1)]
            p = univar.mul(cluster, rest)
        yield p, rng.choice((64, 128, 224)), not n % 3


class TestIntFractionParity:
    """Integral coefficients are stored as int; nothing a caller can see
    depends on whether they came in as int or as Fraction."""

    INTS = [(4, (1, -6, 0, 2, 9)), (2, (0, 1, 0)), (3, (-3, 0, 0, 12)), (0, (5,))]

    @staticmethod
    def _pair(degree, ints):
        return BinaryForm(degree, ints), BinaryForm(degree, tuple(F(c) for c in ints))

    def test_forms_compare_hash_and_render_alike(self):
        for degree, ints in self.INTS:
            a, b = self._pair(degree, ints)
            assert a == b and hash(a) == hash(b)
            assert a.render() == b.render()
            assert a.pretty() == b.pretty()
            assert json.dumps(a.to_json()) == json.dumps(b.to_json())
            assert all(type(c) is int for c in b.coeffs)

    def test_non_integral_coefficients_stay_fractions(self):
        f = BinaryForm(2, (F(1, 2), 3, F(6, 3)))
        assert [type(c) for c in f.coeffs] == [Fraction, int, int]
        assert f.render() == "d=2; [1/2,3,2]"

    def test_arithmetic_stays_integral(self):
        a, b = self._pair(4, self.INTS[0][1])
        for g in (a * a, a.power(3), a.normalized(), a + b, a.scaled(F(4, 2))):
            assert all(type(c) is int for c in g.coeffs)
        assert a * a == b * b and a.power(3) == b.power(3)

    def test_schemes_compare_and_key_alike(self):
        for degree, ints in self.INTS[:3]:
            a, b = self._pair(degree, ints)
            sa, sb = ZeroScheme(((a, 2),)), ZeroScheme(((b, 2),))
            assert sa == sb and hash(sa) == hash(sb)
            assert {sa: 1}[sb] == 1
            assert json.dumps(sa.to_json()) == json.dumps(sb.to_json())
            assert sa.product_form() == sb.product_form()
            assert all(type(c) is int for c in sa.product_form().coeffs)

    def test_exact_keeps_the_fraction_it_is_given(self):
        """``binform._exact`` hands back a non-integral Fraction as the very
        object given and an integral one as an int, and converts an int, a
        bool or a string as the route that rebuilt every Fraction did."""

        def rebuilt(c):
            if type(c) is int:
                return c
            c = Fraction(c)
            return c.numerator if c.denominator == 1 else c

        x = F(-7, 4)
        assert binform._exact(x) is x
        for c in (F(6, 3), F(-5), F(0), x, 7, -2**70, 0, True, False, "3/4", "-6/2", " 5 ", "0"):
            got = binform._exact(c)
            assert (type(got), got) == (type(rebuilt(c)), rebuilt(c)), c

    def test_points_store_fractions(self):
        """A point keeps Fraction coordinates, normalized as before, whatever
        exact type they came in, and equal points hash alike."""
        for a, b in [(1, 5), (F(1), F(5, 2)), (2, 3), (F(-3, 2), 1), (0, 7), (0, F(-2)),
                     (F(1), 0), (3, 0), (F(1), F(0)), (True, 2)]:
            p = P1Point(a, b)
            assert type(p.a) is Fraction and type(p.b) is Fraction, (a, b)
            want = (F(0), F(1)) if a == 0 else (F(1), F(b) / F(a))
            assert (p.a, p.b) == want
            assert hash(p) == hash(P1Point(*want)) and p == P1Point(*want)

    def test_kernels_render_alike(self):
        rows = [[2, -4, 6, 0], [1, 0, -3, 5]]
        as_fractions = [[F(c) for c in row] for row in rows]
        render = lambda vecs: json.dumps([[str(c) for c in v] for v in vecs])  # noqa: E731
        assert render(linalg.nullspace(rows)) == render(linalg.nullspace(as_fractions))
        assert render([linalg.canonical_vector(rows[0])]) == render(
            [linalg.canonical_vector(as_fractions[0])]
        )
        assert render([linalg.canonical_vector([F(1, 2), F(-3, 4)])]) == '[["2", "-3"]]'
