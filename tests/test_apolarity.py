import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction as F
from math import comb
from pathlib import Path
from dataclasses import replace
from types import SimpleNamespace

import mpmath
import pytest
from hypothesis import assume, given, settings, strategies as st

from cuspidal import apolarity, binform, linalg, ratfactor, univar
from cuspidal.apolarity import (
    AmbiguousScheme,
    CertificateError,
    Decomposition,
    NonReducedRank,
    RankCertificate,
    border_rank,
    border_scheme,
    decompose,
    find_squarefree_in_kernel,
    rank,
    verify_decomposition,
)
from cuspidal.binform import (
    BinaryForm,
    PrecisionError,
    ZeroFormError,
    ZeroScheme,
    apolar_coeffs,
    is_square_free,
    parse_form,
    random_form,
    squarefree_decompose,
)
from oracles import (
    QuadraticNumber,
    border_kernel_middle_level,
    bareiss_rank,
    border_kernel_two_eliminations,
    catalecticant,
    evaluate_form,
    exact_parts,
    exact_value,
    first_kernel_scan,
    fraction_power_sum,
    fraction_reconstruct,
    fraction_residual_squared,
    hankel,
    is_irreducible,
    kernel_basis,
    mp_decomposition_residual,
    mpc_residue_scalars,
    nullspace,
    nullspace_plain,
    power,
    power_sum_scalars,
    qr_power_sum_scalars,
    reconstruct_by_columns,
    render,
    residue_scalars,
)
from test_binform import _moved
from test_decomposition_digests import (
    _power_sum as _rational_power_sum,
    _quadratic_pair,
    _rational_terms,
    _trace_form,
)


def form(*coeffs):
    return BinaryForm(len(coeffs) - 1, tuple(F(c) for c in coeffs))


def hankel_rows(f, r):
    """Independent construction: a_i = c_i / binom(d, i), Hankel layout."""
    d = f.degree
    a = [F(f.coeffs[i], comb(d, i)) for i in range(d + 1)]
    return [[a[j + k] for k in range(r + 1)] for j in range(d - r + 1)]


U2T = form(0, 1, 0, 0)
U4T = form(0, 1, 0, 0, 0, 0)
CUBE_SUM = form(1, 0, 0, 1)
# (u + t)^5 + (u + i t)^5 + (u - i t)^5: one rational point and one pair
POINT_AND_PAIR = BinaryForm(5, tuple(c * comb(5, i) for i, c in enumerate((3, 1, -1, 1, 3, 1))))


class TestCatalecticant:
    def test_cube_sum_level_one(self):
        m = catalecticant(CUBE_SUM, 1)
        assert m.rows == ((F(1), F(0)), (F(0), F(0)), (F(0), F(1)))

    def test_u2t_level_two(self):
        m = catalecticant(U2T, 2)
        assert m.rows == ((F(0), F(1, 3), F(0)), (F(1, 3), F(0), F(0)))

    def test_level_zero_column(self):
        f = form(3, 4, 5)
        m = catalecticant(f, 0)
        assert [row[0] for row in m.rows] == [F(3), F(2), F(5)]

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            catalecticant(U2T, 4)
        with pytest.raises(ValueError):
            catalecticant(U2T, -1)

    def test_hankel_structure_random(self):
        rng = random.Random(3)
        for _ in range(20):
            f = random_form(rng.randint(2, 9), rng, bound=20)
            r = rng.randint(0, f.degree)
            m = catalecticant(f, r)
            assert m.rows == tuple(tuple(row) for row in hankel_rows(f, r))


class TestKernelBasis:
    def test_kernel_oracle_u2t(self):
        # Independent oracle: row-reduce the hand-built matrix.
        oracle = nullspace_plain(hankel_rows(U2T, 2))
        assert oracle == [(F(0), F(0), F(1))]
        got = kernel_basis(catalecticant(U2T, 2))
        assert [g.coeffs for g in got] == [(F(0), F(0), F(1))]
        assert got[0] == form(0, 0, 1)  # t^2

    def test_full_rank_empty(self):
        assert kernel_basis(catalecticant(CUBE_SUM, 1)) == []

    def test_zero_matrix(self):
        zero = BinaryForm(2, (F(0), F(0), F(0)))
        got = kernel_basis(catalecticant(zero, 1))
        assert len(got) == 2

    def test_kernel_vectors_annihilate(self):
        rng = random.Random(9)
        for _ in range(40):
            f = random_form(rng.randint(2, 10), rng, bound=30)
            r = rng.randint(1, (f.degree + 2) // 2)
            m = catalecticant(f, r)
            for g in kernel_basis(m):
                for row in m.rows:
                    assert sum(c * v for c, v in zip(row, g.coeffs)) == 0


class TestBorderRank:
    def test_pure_power(self):
        assert border_rank(form(1, 0, 0, 0, 0, 0)) == 1

    def test_cube_sum(self):
        assert border_rank(CUBE_SUM) == 2

    def test_u2t(self):
        # Oracle: level-1 kernel empty, level-2 kernel is t^2.
        assert nullspace_plain(hankel_rows(U2T, 1)) == []
        assert border_rank(U2T) == 2

    def test_zero_form_rejected(self):
        with pytest.raises(ZeroFormError):
            border_rank(BinaryForm(3, (F(0),) * 4))

    def test_bound(self):
        rng = random.Random(21)
        for _ in range(60):
            f = random_form(rng.randint(1, 11), rng, bound=50)
            if f.is_zero():
                continue
            assert 1 <= border_rank(f) <= (f.degree + 2) // 2


@st.composite
def _first_kernel_forms(draw):
    """Forms of degree 1..24: random small coefficients, sums of k powers
    at distinct points (the point (0:1) included), monomials u^a t^(d-a),
    and monomials moved by an invertible substitution."""
    d = draw(st.integers(1, 24))
    kind = draw(st.sampled_from(("random", "power_sum", "monomial", "moved_monomial")))
    if kind == "random":
        cs = draw(st.lists(st.integers(-9, 9), min_size=d + 1, max_size=d + 1))
        return BinaryForm(d, tuple(cs)) if any(cs) else form(*([1] + [0] * d))
    if kind == "power_sum":
        k = draw(st.integers(1, d // 2 + 2))
        points = draw(st.lists(st.sampled_from([(0, 1)] + [(1, x) for x in range(-12, 13)]),
                               min_size=k, max_size=k, unique=True))
        f = BinaryForm(d, (0,) * (d + 1))
        for a, b in points:
            f = f + power(form(a, b), d).scaled(draw(st.integers(1, 5)))
        return f
    a = draw(st.integers(0, d))
    f = power(form(1, 0), a) * power(form(0, 1), d - a)
    if kind == "monomial":
        return f
    a, b, c, e = draw(st.lists(st.integers(-4, 4), min_size=4, max_size=4).filter(
        lambda m: m[0] * m[3] != m[1] * m[2]))
    return _moved(f, a, b, c, e)


@settings(derandomize=True, database=None, max_examples=250, deadline=None)
@given(_first_kernel_forms())
def test_first_kernel_matches_the_level_scan(f):
    """The generators of one remainder sequence give the same border rank
    and basis as the upward scan of catalecticant kernels."""
    assert apolarity._first_kernel(f) == first_kernel_scan(f)


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(_first_kernel_forms())
def test_ideal_generators_span_every_kernel_level(f):
    """The shifts of the two generators span the catalecticant kernel at
    every level 1..d, and their degrees sum to d + 2."""
    a = apolar_coeffs(f).entries
    gens = apolarity._ideal_generators(a)
    assert len(gens) == 2 and sum(len(g) - 1 for g in gens) == f.degree + 2
    assert len(gens[0]) - 1 == border_rank(f)
    for r in range(1, f.degree + 1):
        shifts = [
            (0,) * i + g + (0,) * (r + 1 - len(g) - i) for g in gens for i in range(r + 2 - len(g))
        ]
        rows = hankel(a, r)
        assert all(sum(x * y for x, y in zip(row, v)) == 0 for row in rows for v in shifts)
        assert len(shifts) == len(nullspace(rows)) == (bareiss_rank(shifts) if shifts else 0)


def test_the_zero_vector_has_the_unit_ideal():
    assert apolarity._ideal_generators((F(0),) * 5) == [(1,)]


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(
    _first_kernel_forms().filter(lambda f: f.degree <= 14),
    st.lists(st.integers(-3, 3), min_size=4, max_size=4).filter(
        lambda m: m[0] * m[3] != m[1] * m[2]),
)
def test_rank_is_invariant_under_gl2(f, m):
    """Rank, border rank and witness kind do not change when an invertible
    integer substitution moves the form."""
    cert, moved = rank(f), rank(_moved(f, *m))
    assert (moved.border_rank, moved.rank, moved.witness_kind) == (
        cert.border_rank, cert.rank, cert.witness_kind)


def test_degree_zero_raises_like_the_level_scan():
    f = form(3)
    with pytest.raises(ValueError, match="catalecticant level 1 out of range for degree 0"):
        apolarity._first_kernel(f)
    with pytest.raises(ValueError, match="catalecticant level 1 out of range for degree 0"):
        first_kernel_scan(f)


def _apolar_vector(f):
    return linalg.canonical_vector(apolar_coeffs(f).entries)


def _kernel_dimension(a):
    """dim of the kernel at level floor(d/2)+1, the one
    ``border_kernel_middle_level`` reads."""
    return len(nullspace(hankel(a, (len(a) - 1) // 2 + 1)))


_HONEST_GENERATORS = apolarity._remainder_generators


def _planted(shift):
    """A stand-in for ``apolarity._remainder_generators`` that moves g1 one
    level up (shift 1: g1 times u, g2 cut by its last entry) or down
    (shift -1: g1 cut, g2 times u), so that the degrees still sum to d+2:
    a generator one level too high or too low."""

    def planted(a):
        g1, g2 = _HONEST_GENERATORS(a)
        return (g1 + (0,), g2[:-1]) if shift > 0 else (g1[:-1], g2 + (0,))

    return planted


def _assert_planted_levels_raise(f):
    """Both planted levels fail the checks of ``_ideal_generators``, on the
    rank's route through ``_first_kernel`` and on the fiber scan's."""
    for shift in (-1, 1):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(apolarity, "_remainder_generators", _planted(shift))
            with pytest.raises(CertificateError):
                apolarity._first_kernel(f)
            with pytest.raises(CertificateError):
                apolarity._ideal_generators(_apolar_vector(f))


def test_border_kernel_matches_two_eliminations():
    """Seeded vectors of every degree 1..26, random, power sums of 1..d/2+1
    terms, sparse, and slices a[j:] of another form's vector, the apolar
    vectors of its derivatives: the first kernel read off the generators
    gives the border rank, the rank of the middle catalecticant, and the
    basis of the level-w kernel; generators planted one level too high or
    too low raise.  Both even-degree branches with a two-dimensional middle
    kernel are met."""
    rng = random.Random("border-kernel:two-eliminations")
    branches = set()
    for trial in range(60):
        for d in range(1, 27):
            kind = rng.choice(("random", "powers", "sparse", "derivative"))
            if kind == "random":
                f = random_form(d, rng, bound=rng.choice((3, 100)))
            elif kind == "powers":
                f = form(*[0] * (d + 1))
                for _ in range(rng.randint(1, d // 2 + 1)):
                    f = f + power(form(1, rng.randint(-4, 4)), d).scaled(rng.randint(-5, 5))
            elif kind == "sparse":
                coeffs = [0] * (d + 1)
                for _ in range(rng.randint(1, 3)):
                    coeffs[rng.randint(0, d)] = rng.randint(-5, 5)
                f = form(*coeffs)
            else:
                j = rng.randint(1, 2)
                g = random_form(d + j, rng, bound=9)
                f = BinaryForm(d, tuple(c * comb(d, i) for i, c in enumerate(
                    apolar_coeffs(g).entries[j:])))
            if f.is_zero():
                continue
            a = _apolar_vector(f)
            w, basis = border_kernel_two_eliminations(a)
            assert apolarity._first_kernel(f) == (w, [BinaryForm(w, v) for v in basis]), f
            if d % 2 == 0 and _kernel_dimension(a) == 2:
                branches.add(w - d // 2)
            if trial < 3:
                _assert_planted_levels_raise(f)
    assert branches == {0, 1}


@pytest.mark.parametrize("f, w", [
    # d = 8 and d/2 powers: w = d/2 with a two-dimensional kernel at d/2+1
    (sum((power(form(1, tau), 8) for tau in (1, 2, 3)), power(form(1, -1), 8)), 4),
    # a random form of even degree: w = d/2+1, the kernel at d/2+1 itself
    (random_form(10, random.Random(3), bound=100), 6),
    (form(1, 0), 1),  # d = 1
    (form(1, 0, 0), 1),  # u^2
    (form(0, 1, 0, 0), 2),  # u^2 t
], ids=["d-over-2-powers", "random-even", "linear", "square", "u2t"])
def test_border_kernel_named_cases(f, w):
    a = _apolar_vector(f)
    want = border_kernel_two_eliminations(a)
    assert want == border_kernel_middle_level(a) and want[0] == w
    assert apolarity._first_kernel(f) == (w, [BinaryForm(w, v) for v in want[1]])
    if f.degree in (8, 10):
        assert _kernel_dimension(a) == 2
    _assert_planted_levels_raise(f)


def test_border_kernel_refuses_degree_zero(monkeypatch):
    """A nonzero constant is refused with the level scan's message before
    any remainder sequence runs."""
    monkeypatch.setattr(apolarity, "_remainder_generators",
                        lambda a: pytest.fail("the remainder sequence ran on a constant"))
    for refuse in (apolarity._ideal_generators, border_kernel_middle_level):
        with pytest.raises(ValueError, match="catalecticant level 1 out of range for degree 0"):
            refuse((3,))


def test_a_planted_border_level_raises():
    """A generator one level too low is no kernel vector there, or leaves
    both generators divisible by u; one level too high makes g1 times u and
    a g2 that is no kernel vector, or a multiple of g1, or below g1.  The
    explicit checks of ``_ideal_generators`` raise CertificateError either
    way, and ``_first_kernel`` passes the error on."""
    forms = (form(1, 0, 0, 0, 1), form(0, 1, 0, 0, 0, 0), CUBE_SUM, form(1, 0, 0),
             random_form(10, random.Random(3), bound=100), form(0, 1, 0, 0),
             form(1, 0, 0, 0, 0, 0, 0).scaled(3) + power(form(1, 1), 6) + power(form(1, -2), 6))
    for f in forms:
        _assert_planted_levels_raise(f)


def test_the_generator_pair_tries_every_listed_prime(monkeypatch):
    """x - 1 and x - 10404 meet modulo 101 and 103, the first two primes
    (10403 = 101 * 103), but not modulo 107, so every listed prime proves
    them coprime where two prove nothing.  The generators of the apolar
    vector (13, -3, -19, 6, -13) both vanish at 0 modulo 101 and 103, and
    ``_ideal_generators`` proves them coprime with no exact gcd."""
    g, h = [-1, 1], [-10404, 1]
    assert not ratfactor.proves_coprime(g, h)
    assert ratfactor.proves_coprime(g, h, tries=len(ratfactor.PRIMES))
    a = (13, -3, -19, 6, -13)
    g1, g2 = apolarity._remainder_generators(a)
    assert g1[0] == 101 * 103 and g2[0] == 0 and not ratfactor.proves_coprime(g1, g2)

    def no_gcd(p, q):
        raise AssertionError("the exact gcd ran")

    monkeypatch.setattr(univar, "gcd", no_gcd)
    assert apolarity._ideal_generators(a) == [g1, g2]


def test_coprimality_falls_back_to_the_exact_gcd(monkeypatch):
    """When no prime proves the generators coprime, one exact gcd in the
    integers decides: it accepts the honest pair and refuses a planted
    pair that shares a factor, which no prime proves coprime either."""
    f = random_form(4, random.Random("coprime-fallback"), bound=100)
    a = _apolar_vector(f)
    honest = apolarity._ideal_generators(a)
    g1 = honest[0]
    assert [len(g) - 1 for g in honest] == [3, 3] and g1[-1]
    calls = []
    gcd = univar.gcd
    monkeypatch.setattr(univar, "gcd", lambda p, q: calls.append(len(p)) or gcd(p, q))
    assert apolarity._ideal_generators(a) == honest and calls == []
    with monkeypatch.context() as m:
        m.setattr(ratfactor, "proves_coprime", lambda g, h, tries=2: False)
        assert apolarity._ideal_generators(a) == honest and calls == [4]
    monkeypatch.setattr(apolarity, "_remainder_generators", lambda a: (g1, g1))
    with pytest.raises(CertificateError, match="share a factor"):
        apolarity._ideal_generators(a)
    assert calls == [4, 4]


def test_generators_match_the_bareiss_oracles():
    """Seeded forms of every degree 0..40: random, power sums, sparse,
    power sums with the summand u^d (t | g1), and powers of one linear form
    (g2 of level d+1).  ``_first_kernel`` equals the middle-level kernel and
    the two eliminations; g1 equals their one vector when w < d+2-w, and g1,
    g2 span their two-dimensional kernel otherwise; with the shifts of g1,
    g2 spans the level-(d+2-w) kernel.  Both even-degree branches with a
    two-dimensional middle kernel are met.  Degree 0 raises the level
    scan's message on every route."""
    rng = random.Random("remainder-sequence:bareiss")
    branches, t_divides = set(), 0
    for d in range(41):
        for kind in ("random", "powers", "sparse", "with-u^d", "one-power"):
            points = [(1, rng.randint(-6, 6)) for _ in range(rng.randint(1, d // 2 + 1))]
            if kind == "random":
                f = random_form(d, rng, bound=rng.choice((3, 100)))
            elif kind == "sparse":
                coeffs = [0] * (d + 1)
                for _ in range(rng.randint(1, 3)):
                    coeffs[rng.randint(0, d)] = rng.randint(-5, 5)
                f = form(*coeffs)
            elif kind == "one-power":
                f = power(form(rng.randint(1, 5), rng.randint(-5, 5)), d)
            else:
                if kind == "with-u^d":
                    points[0] = (1, 0)
                f = form(*[0] * (d + 1))
                for p in points:
                    f = f + power(form(*p), d).scaled(rng.randint(1, 5))
            if f.is_zero():
                continue
            a = _apolar_vector(f)
            if d == 0:
                for refuse, arg in ((apolarity._first_kernel, f), (apolarity._ideal_generators, a),
                                    (border_kernel_middle_level, a)):
                    with pytest.raises(ValueError, match="level 1 out of range for degree 0"):
                        refuse(arg)
                continue
            w, basis = border_kernel_middle_level(a)
            assert (w, basis) == border_kernel_two_eliminations(a), f
            assert apolarity._first_kernel(f) == (w, [BinaryForm(w, v) for v in basis]), f
            g1, g2 = apolarity._ideal_generators(a)
            s = d + 2 - w
            assert (len(g1) - 1, len(g2) - 1) == (w, s)
            if w < s:
                assert [g1] == basis
            else:
                assert bareiss_rank([g1, g2]) == 2 == bareiss_rank([g1, g2, *basis])
            kernel = nullspace(hankel(a, s)) if s <= d else nullspace_plain([], s + 1)
            span = [(0,) * i + g1 + (0,) * (s - w - i) for i in range(s - w + 1)] + [g2]
            assert bareiss_rank(span) == len(kernel) == bareiss_rank(kernel + span), f
            if kind == "one-power":
                assert (w, s) == (1, d + 1)
            if d % 2 == 0 and _kernel_dimension(a) == 2:
                branches.add(w - d // 2)
            t_divides += g1[0] == 0
    assert branches == {0, 1} and t_divides >= 10


class TestBorderScheme:
    def test_u2t_double_point(self):
        scheme, unique = border_scheme(U2T)
        assert unique
        assert scheme == ZeroScheme(((form(0, 1), 2),))
        assert scheme.degree == 2 and not scheme.is_reduced()

    def test_pure_fifth_power(self):
        scheme, unique = border_scheme(form(1, 0, 0, 0, 0, 0))
        assert unique
        assert scheme == ZeroScheme(((form(0, 1), 1),))

    def test_generic_quartic_ambiguous(self):
        f = form(3, 1, -2, 5, 7)
        # Oracle: level-3 kernel of a quartic has dimension 2 when levels
        # 1 and 2 are injective (2 rows, 4 columns).
        assert nullspace_plain(hankel_rows(f, 1)) == []
        assert nullspace_plain(hankel_rows(f, 2)) == []
        assert len(nullspace_plain(hankel_rows(f, 3))) == 2
        with pytest.raises(AmbiguousScheme):
            border_scheme(f)

    def test_equivariance_rational_example(self):
        # Substituting (u,t) -> (u+t, t) in u^2 t moves the border scheme
        # from the double point with factor t to the one with factor u-t.
        u_plus_t = form(1, 1)
        t = form(0, 1)
        g = u_plus_t * u_plus_t * t
        scheme, unique = border_scheme(g)
        assert unique
        assert scheme == ZeroScheme(((form(1, -1), 2),))


class TestFindSquareFree:
    def test_single_nonreduced(self):
        assert find_squarefree_in_kernel([form(0, 0, 1)]) is None

    def test_single_squarefree(self):
        g = form(1, 0, -1)
        assert find_squarefree_in_kernel([g]) == g

    def test_two_squares_combine(self):
        got = find_squarefree_in_kernel([form(1, 0, 0), form(0, 0, 1)])
        assert got is not None and is_square_free(got)

    def test_span_with_forced_factor(self):
        # span{u^3, u^2 t}: every member is divisible by u^2.
        got = find_squarefree_in_kernel([form(1, 0, 0, 0), form(0, 1, 0, 0)])
        assert got is None

    def test_linear_degree(self):
        assert find_squarefree_in_kernel([form(1, 2)]) == form(1, 2)

    def test_mixed_degrees_rejected(self):
        with pytest.raises(ValueError):
            find_squarefree_in_kernel([form(1, 0), form(1, 0, 0)])

    def test_scan_after_the_seeded_draws(self, monkeypatch):
        # every draw is (0, 0); the scan meets u^2, t^2, then u^2 + t^2
        class Zeros:
            def __init__(self, seed):
                pass

            def randint(self, lo, hi):
                return 0

        monkeypatch.setattr(apolarity, "random", SimpleNamespace(Random=Zeros))
        got = find_squarefree_in_kernel([form(1, 0, 0), form(0, 0, 1)])
        assert got == form(1, 0, 1)


class TestCertify:
    """A first kernel has dimension 1 or 2, and a two-dimensional one is a
    pencil with no base point; anything else is a failed certificate."""

    def test_three_forms_rejected(self):
        basis = [form(1, 0, 0, 0), form(0, 1, 0, 0), form(0, 0, 1, 0)]
        with pytest.raises(CertificateError, match="dimension 3"):
            apolarity._certify(6, 3, basis)

    def test_based_pencil_rejected(self):
        with pytest.raises(CertificateError, match="no square-free member"):
            apolarity._certify(4, 3, [form(1, 0, 0, 0), form(0, 1, 0, 0)])


class TestRank:
    def test_u4t_certificate(self):
        # Oracle: level-2 kernel of u^4 t is spanned by t^2 (hand system).
        assert nullspace_plain(hankel_rows(U4T, 2)) == [(F(0), F(0), F(1))]
        cert = rank(U4T)
        assert cert.border_rank == 2
        assert cert.rank == 5
        assert cert.witness_kind == "nonreduced"
        assert cert.kernel_dimension == 1
        assert cert.witness_scheme == ZeroScheme(((form(0, 1), 2),))
        assert cert.to_json() == {
            "w": 2,
            "r": 5,
            "witness": {"type": "nonreduced", "factors": [["t", 2]]},
        }

    def test_cube_sum_certificate(self):
        cert = rank(CUBE_SUM)
        assert (cert.border_rank, cert.rank, cert.witness_kind) == (2, 2, "squarefree")
        assert is_square_free(cert.witness_form)

    def test_witness_scheme_built_on_first_read(self, monkeypatch):
        calls = []
        post_init = ZeroScheme.__post_init__

        def counted(scheme):
            calls.append(scheme.factors)
            post_init(scheme)

        monkeypatch.setattr(ZeroScheme, "__post_init__", counted)
        cert = rank(U4T)
        assert calls == []
        scheme = cert.witness_scheme
        assert cert.witness_scheme is scheme
        assert calls == [((cert.witness_form, 1),)]
        assert scheme == squarefree_decompose(cert.witness_form)

    def test_one_first_kernel_per_form(self, monkeypatch):
        """The rank, the border rank, the border scheme and a decomposition
        of one form share one certificate: the first kernel is built once."""
        calls = []
        first_kernel = apolarity._first_kernel

        def counted(f):
            calls.append(f)
            return first_kernel(f)

        monkeypatch.setattr(apolarity, "_first_kernel", counted)
        f = random_form(9, random.Random("one-kernel"), bound=100)
        cert = rank(f)
        assert border_rank(f) == cert.border_rank == 5
        assert border_scheme(f) == (cert.witness_scheme, True)
        assert len(decompose(f, 128).terms) == cert.rank
        assert rank(BinaryForm(f.degree, f.coeffs)) is cert
        assert calls == [f]

    def test_seed42_degree7_generic(self):
        f = random_form(7, random.Random(42), bound=100)
        cert = rank(f)
        # Oracle: the witness search and a second seed agree on generic rank 4.
        assert cert.rank == 4 and cert.witness_kind == "squarefree"
        g = random_form(7, random.Random(43), bound=100)
        assert rank(g).rank == 4

    def test_monomial_law(self):
        for a in range(1, 9):
            for b in range(1, 9):
                if a + b > 9 or a < b:
                    continue
                coeffs = [F(0)] * (a + b + 1)
                coeffs[b] = F(1)  # u^a t^b
                cert = rank(BinaryForm(a + b, tuple(coeffs)))
                assert cert.rank == max(a, b) + 1
                assert cert.border_rank == min(a, b) + 1

    def test_dichotomy_fuzz(self):
        rng = random.Random(77)
        for _ in range(120):
            f = random_form(rng.randint(2, 11), rng, bound=100)
            if f.is_zero():
                continue
            cert = rank(f)
            d = f.degree
            assert cert.rank in (cert.border_rank, d + 2 - cert.border_rank)
            assert cert.border_rank <= cert.rank
            assert cert.witness_scheme.degree == cert.border_rank

    def test_generic_rank_frequency(self):
        rng = random.Random(123)
        for d in range(3, 8):
            hits = 0
            n = 150
            for _ in range(n):
                f = random_form(d, rng, bound=100)
                if f.is_zero():
                    f = form(*([1] + [0] * (d - 1) + [1]))
                if rank(f).rank == (d + 1 + 1) // 2:
                    hits += 1
            assert hits >= int(0.97 * n)

    def test_degree_40_needs_no_determinant(self, monkeypatch):
        """The witness of a pinned degree-40 form with 3-digit coefficients
        has degree 21 and 650-bit coefficients; it is proved square-free
        modulo a prime, with no call to the exact gcd in the integers."""
        rng = random.Random("rank-size:40")
        f = BinaryForm(40, tuple(rng.randint(-999, 999) for _ in range(41)))
        calls = []
        gcd = univar.gcd
        monkeypatch.setattr(univar, "gcd", lambda p, q: calls.append(len(p)) or gcd(p, q))
        cert = rank(f)
        assert (cert.border_rank, cert.rank, cert.witness_kind) == (21, 21, "squarefree")
        assert calls == []

    def test_rank_one_powers(self):
        for pt in [(F(1), F(0)), (F(0), F(1)), (F(2), F(-3))]:
            d = 6
            lin = BinaryForm(1, pt)
            cert = rank(power(lin, d))
            assert cert.rank == 1 and cert.border_rank == 1
            scheme, unique = border_scheme(power(lin, d))
            assert unique and scheme.degree == 1
            (factor, m), = scheme.factors
            assert evaluate_form(factor, pt[0], pt[1]) == 0 and m == 1


class TestDecompose:
    def test_cube_sum_exact(self):
        dec = decompose(CUBE_SUM, 96)
        assert dec.field_tag == "rational"
        assert dec.residual == 0
        terms = {(s, p) for s, p in dec.terms}
        assert terms == {(F(1), (F(1), F(0))), (F(1), (F(0), F(1)))}
        assert verify_decomposition(CUBE_SUM, dec) == 0

    def test_single_power(self):
        f = power(form(1, 1), 4)
        dec = decompose(f, 96)
        assert len(dec.terms) == 1 and dec.field_tag == "rational"
        s, (a, b) = dec.terms[0]
        assert s * (a + b) ** 0 == s  # exact scalars
        assert verify_decomposition(f, dec) == 0

    def test_generic_seed7_degree5(self):
        f = random_form(5, random.Random(7), bound=100)
        cert = rank(f)
        assert cert.rank == 3 and cert.witness_kind == "squarefree"
        dec = decompose(f, 192)
        assert len(dec.terms) == 3
        assert verify_decomposition(f, dec) < mpmath.mpf(2) ** -96

    def test_quadratic_field_path(self):
        f = form(0, 1, -1, 0)  # u t (u - t), witness u^2+ut+t^2 irreducible
        cert = rank(f)
        assert cert.rank == 2 and cert.witness_kind == "squarefree"
        dec = decompose(f, 128)
        assert dec.field_tag == "algebraic"
        assert len(dec.terms) == 2
        assert verify_decomposition(f, dec) < mpmath.mpf(2) ** -100

    def test_complex_path_irreducible_cubic(self):
        # a = (1,0,0,-1,1,-1) has level-3 kernel spanned by u^3+u t^2+t^3,
        # which is irreducible over the rationals; levels 1,2 are injective.
        coeffs = tuple(F(x) * comb(5, i) for i, x in enumerate((1, 0, 0, -1, 1, -1)))
        f = BinaryForm(5, coeffs)
        assert nullspace_plain(hankel_rows(f, 1)) == []
        assert nullspace_plain(hankel_rows(f, 2)) == []
        assert nullspace_plain(hankel_rows(f, 3)) == [(F(1), F(0), F(1), F(1))]
        cert = rank(f)
        assert cert.rank == 3 and cert.witness_kind == "squarefree"
        dec = decompose(f, 192)
        assert dec.field_tag == "complex"
        assert len(dec.terms) == 3
        assert verify_decomposition(f, dec) < mpmath.mpf(2) ** -96

    def test_complex_path_factors_once(self, monkeypatch):
        """The complex path reads its roots from the cofactor that
        ``ratfactor.rational_roots`` leaves: no square-free decomposition
        and no zero scheme."""

        def refuse(*args, **kwargs):
            raise AssertionError("the witness was factored twice")

        monkeypatch.setattr(binform, "squarefree_decompose", refuse)
        monkeypatch.setattr(ZeroScheme, "__post_init__", refuse)
        coeffs = tuple(F(x) * comb(5, i) for i, x in enumerate((1, 0, 0, -1, 1, -1)))
        f = BinaryForm(5, coeffs)
        dec = decompose(f, 192)
        assert dec.field_tag == "complex"
        assert verify_decomposition(f, dec) < mpmath.mpf(2) ** -96

    @pytest.mark.parametrize("monic", [
        (-(10**30 + 7) ** 3 - 2, 3 * (10**30 + 7) ** 2, -3 * (10**30 + 7)),
        (1, -3 + (10**12 + 3) ** 2, -2 * (10**12 + 3)),
    ], ids=["cube-root-cluster", "close-real-pair"])
    def test_clustered_witness_roots(self, monic):
        """Witnesses (x - M)^3 - 2 with M = 10^30 + 7, three roots within
        2 of M, and x((x - M)^2 - 3) + 1 with M = 10^12 + 3, two roots near
        M + sqrt(3) and M - sqrt(3): at every precision ``decompose``
        returns three terms with a residual below 2^(-bits/2).  With the
        scalars exact at the stored roots, the cluster no longer raises
        PrecisionError at any of these precisions."""
        assert is_irreducible([F(c) for c in monic] + [F(1)])
        f = _trace_form(7, monic, F(1), F(0))
        assert rank(f).rank == 3
        for bits in (64, 80, 96, 128, 160, 192, 256):
            dec = decompose(f, bits)
            assert dec.field_tag == "complex" and len(dec.terms) == 3
            assert verify_decomposition(f, dec) < mpmath.mpf(2) ** (-bits // 2)

    def test_split_cofactor(self):
        """A witness whose cofactor after its rational point is the product
        of two irreducible cubics: Aberth runs once on the sextic, and the
        seven terms check at 192 bits."""
        d = 13
        f = (_trace_form(d, (-2, 0, 0), F(3, 2), F(-1))
             + _trace_form(d, (1, 1, 0), F(1), F(2))
             + _rational_power_sum(d, [(F(5, 3), (F(1), F(-7, 2)))]))
        cert = rank(f)
        assert cert.rank == 7 and cert.kernel_dimension == 1
        roots, cofactor = ratfactor.rational_roots(cert.witness_form.tau_poly()[1])
        assert roots == [F(-7, 2)] and len(cofactor) == 7
        assert univar.mul([-2, 0, 0, 1], [1, 1, 0, 1]) == list(cofactor)
        dec = decompose(f, 192)
        assert dec.field_tag == "complex" and len(dec.terms) == 7
        s, point = dec.terms[0]
        re, im = exact_parts(s)
        assert point == (F(1), F(-7, 2)) and im == 0
        assert abs(re - F(5, 3)) <= F(5, 3) / 2 ** (192 + 32)  # 5/3 rounded once
        assert verify_decomposition(f, dec) < mpmath.mpf(2) ** -96

    def test_nonreduced_refused(self):
        with pytest.raises(NonReducedRank):
            decompose(U2T, 96)

    def test_json_roundtrip(self):
        f = form(0, 1, -1, 0)
        dec = decompose(f, 128)
        blob = dec.to_json()
        back = Decomposition.from_json(blob)
        assert back.degree == dec.degree and back.field_tag == dec.field_tag
        assert verify_decomposition(f, back) < mpmath.mpf(2) ** -100


def _power_sum(d, terms, one):
    """Monomial coefficients of sum s (a u + b t)^d over the (s, (a, b))."""
    return [
        sum((comb(d, j) * s * (one * a) ** (d - j) * (one * b) ** j for s, (a, b) in terms),
            one - one)
        for j in range(d + 1)
    ]


def _rational(rng):
    return F(rng.randint(-30, 30), rng.randint(1, 7))


def _to_mpc(x):
    return mpmath.mpc(mpmath.mpf(x.numerator) / x.denominator) if isinstance(x, F) else x


class TestReconstruct:
    def test_integers_match_the_fraction_oracle(self):
        """Random exact terms, ints and Fractions, negative and
        non-integral, alpha mostly outside {0, 1}: the integer
        reconstruction equals the term-by-term Fraction one exactly."""
        rng = random.Random("reconstruct:integers")

        def value():
            return _rational(rng) if rng.random() < 0.7 else rng.randint(-9, 9)

        for _ in range(200):
            d = rng.randint(0, 14)
            terms = [(value(), (value(), value())) for _ in range(rng.randint(0, 6))]
            den, real, imag = apolarity._reconstruct_in_integers(apolarity._exact_terms(terms), d)
            assert [F(x, den) for x in real] == fraction_reconstruct(terms, d)
            assert not any(imag)

    def test_decompositions_check_in_integers(self, monkeypatch):
        """The rational path's reconstruction check and the exact branch
        of ``verify_decomposition`` both run in integers, on one
        reconstruction: the check's exact residual is the one verify reads
        from the memo."""
        calls = []
        in_integers = apolarity._reconstruct_in_integers
        monkeypatch.setattr(apolarity, "_reconstruct_in_integers",
                            lambda terms, d: calls.append(d) or in_integers(terms, d))
        dec = decompose(CUBE_SUM, 96)
        assert verify_decomposition(CUBE_SUM, dec) == 0
        assert calls == [3]


    def test_the_folded_power_sum_is_the_column_sum(self):
        """Seeded terms, scalars and points mpc, mpf, Fraction or int, with
        a in {1, 2^k, other}, some with their exact conjugate or a repeat
        among them: folding the scalar into the running power of b, and
        forming a term and its conjugate once, gives the triple of the
        term-by-term columns exactly."""
        rng = random.Random("reconstruct:columns")

        def dyadic():
            return _dyadic(rng.randint(-(2**70), 2**70), rng.randint(-90, 4))

        def value():
            kind = rng.random()
            if kind < 0.4:
                return mpmath.mp.make_mpc((dyadic()._mpf_, dyadic()._mpf_))
            if kind < 0.6:
                return dyadic()
            return _rational(rng) if kind < 0.85 else rng.randint(-9, 9)

        def alpha():
            k = rng.randint(0, 5)
            return rng.choice((mpmath.mpc(1), F(1), 1, 2**k, mpmath.mpf(2**k), F(2**k),
                               F(1, 2**k), value(), value()))

        def conjugate(x):
            if isinstance(x, mpmath.mpc):
                return mpmath.mp.make_mpc((x._mpc_[0], mpmath.libmp.mpf_neg(x._mpc_[1])))
            return x

        pairs = 0
        for _ in range(150):
            d = rng.randint(0, 16)
            terms = [(value(), (alpha(), value())) for _ in range(rng.randint(0, 6))]
            # exact conjugates and repeats of some terms, formed as pairs
            for s, (a, b) in terms[: rng.randint(0, len(terms))]:
                terms.insert(rng.randint(0, len(terms)),
                             (conjugate(s), (conjugate(a), conjugate(b))) if rng.random() < 0.8
                             else (s, (a, b)))
                pairs += isinstance(b, mpmath.mpc)
            got = apolarity._reconstruct_in_integers(apolarity._exact_terms(terms), d)
            assert got == reconstruct_by_columns(terms, d)
        assert pairs >= 50

    def test_a_conjugate_pair_is_formed_once(self, monkeypatch):
        """The terms of a complex decomposition, rational points then
        conjugate pairs at (1:b): each pair takes one run of powers, and
        the triple is that of the term-by-term columns."""
        f = random_form(9, random.Random("one-kernel"), bound=100)
        dec = decompose(f, 128)
        pairs = sum(b.imag < 0 for _, (_, b) in dec.terms)
        assert pairs
        runs = []
        powers = apolarity._gaussian_powers
        monkeypatch.setattr(apolarity, "_gaussian_powers", lambda *a: runs.append(a) or powers(*a))
        got = apolarity._reconstruct_in_integers(dec.exact_terms, f.degree)
        assert len(runs) == len(dec.terms) - pairs
        assert got == reconstruct_by_columns(dec.terms, f.degree)

    def test_a_decomposition_is_reconstructed_once(self, monkeypatch):
        """``verify_decomposition`` right after ``decompose`` reads the exact
        residual of its memo, on the complex and the algebraic path, where
        the rational points are reconstructed first (the rational path is
        ``test_decompositions_check_in_integers``); the same form with one
        scalar moved is a new key, reconstructed afresh, and its residual
        is above 0 and above the honest one."""
        calls = []
        in_integers = apolarity._reconstruct_in_integers
        monkeypatch.setattr(apolarity, "_reconstruct_in_integers",
                            lambda terms, d: calls.append(d) or in_integers(terms, d))
        f = random_form(9, random.Random("one-kernel"), bound=100)
        dec = decompose(f, 128)
        assert dec.field_tag == "complex"
        assert verify_decomposition(f, dec) == dec.residual
        assert calls == [9]
        (s, point), rest = dec.terms[0], dec.terms[1:]
        with mpmath.workprec(160):
            moved = replace(dec, terms=((s + 1, point),) + rest)
        assert verify_decomposition(f, moved) > max(dec.residual, 0)
        assert calls == [9, 9]
        calls.clear()
        dec = decompose(POINT_AND_PAIR, 128)
        assert dec.field_tag == "algebraic"
        assert verify_decomposition(POINT_AND_PAIR, dec) == dec.residual
        assert calls == [5, 5]


class TestResidueScalars:
    """The residue formula in integers against the oracles: the solution of
    the full (d+1) x r system in the powers of the points, the same formula
    over Q(i) at the stored points, and the ``mpc`` route it replaced."""

    @staticmethod
    def _points(rng, count):
        """``count`` distinct points (a:b), a in {0, 1}, (0:1) and (1:0)
        among them now and then, with nonzero rational scalars."""
        taus = {F(0)} if count and rng.random() < 0.3 else set()
        while len(taus) < count:
            taus.add(_rational(rng))
        pts = [(F(1), t) for t in sorted(taus)]
        if pts and rng.random() < 0.3:
            pts[-1] = (F(0), F(1))
        return [(_rational(rng) or F(1), p) for p in pts]

    def test_rational_exact(self):
        rng = random.Random("residue:rational")
        for _ in range(60):
            d = rng.randint(3, 12)
            terms = self._points(rng, rng.randint(1, (d + 1) // 2))
            f = BinaryForm(d, tuple(_power_sum(d, terms, F(1))))
            cert = rank(f)
            assert cert.rank == len(terms) and cert.witness_kind == "squarefree"
            pts = [p for _, p in terms]
            exact = apolarity._residue_scalars(f, cert.witness_form, pts)
            assert all(q > 0 and not im for _, im, q in exact)
            got = [F(re, q) for re, _, q in exact]
            assert got == power_sum_scalars(f, pts, F(1)) == [s for s, _ in terms]
            assert got == residue_scalars(f, cert.witness_form, pts, F)

    def test_quadratic_field_exact(self):
        rng = random.Random("residue:quadratic")
        for _ in range(30):
            d = rng.randint(4, 12)
            gamma = QuadraticNumber.generator([-rng.choice((2, 3, 5, 7, -1, -2, -3)), 0, 1])
            one = gamma.lift(1)
            x, y, c, q = (_rational(rng) for _ in range(4))
            q = q or F(1)
            conj = [(one * x + y * gamma, (one, c + q * gamma)),
                    (one * x - y * gamma, (one, c - q * gamma))]
            rest = [(gamma.lift(s), (gamma.lift(a), gamma.lift(b)))
                    for s, (a, b) in self._points(rng, rng.randint(0, (d + 1) // 2 - 2))]
            terms = rest + conj
            coeffs = _power_sum(d, terms, one)
            f = BinaryForm(d, tuple(e.rational_value() for e in coeffs))
            cert = rank(f)
            assert cert.rank == len(terms) and cert.witness_kind == "squarefree"
            pts = [p for _, p in terms]
            got = residue_scalars(f, cert.witness_form, pts, gamma.lift)
            assert got == power_sum_scalars(f, pts, one) == [s for s, _ in terms]

    @staticmethod
    def _pair_forms():
        """Seeded forms whose witness has one conjugate pair: sqrt(m) pairs,
        real and complex, and clustered pairs M +- sqrt(D) with
        M = 10^6..10^15, each with 0, 1 or 2 rational points, (0:1) among
        them now and then, within the unique-witness range 2r <= d + 1."""
        rng = random.Random("residue:closed-form-pair")
        for d in range(4, 14):
            for m in (2, -1, 5, -3):
                x, y, c, q = (F(rng.randint(-9, 9) or 1, rng.randint(1, 4)) for _ in range(4))
                yield d, _quadratic_pair(d, m, x, y, c, q)
            for big in (10**6, 10**15):
                disc = rng.choice((2, 3, -1, -7))
                s0, s1 = F(rng.randint(1, 9), rng.randint(1, 5)), F(rng.randint(-9, 9))
                yield d, _trace_form(d, (big * big - disc, -2 * big), s0, s1)

    def test_closed_form_pair_is_the_field_residue_formula(self, monkeypatch):
        """The scalars ``_decompose_exact`` proves, the pair's from its
        closed form and the rational ones from the residue formula over Q,
        equal the residue formula run over Q(gamma) in the oracle field, the
        route quadratic decompositions once took, exactly."""
        seen = []
        pair_scalar = apolarity._pair_scalar
        monkeypatch.setattr(apolarity, "_pair_scalar",
                            lambda *args: seen.append(pair_scalar(*args)) or seen[-1])
        rng = random.Random("residue:closed-form-points")
        checked = with_points = with_t = 0
        for d, pair in self._pair_forms():
            count = rng.randint(0, min(2, (d + 1) // 2 - 2))
            extra = _rational_terms(rng, count, with_t=count > 0 and rng.random() < 0.4)[-count:]
            f = pair + BinaryForm(d, tuple(_power_sum(d, extra, F(1)))) if count else pair
            seen.clear()
            dec = decompose(f, 128)
            assert dec.field_tag == "algebraic" and len(dec.terms) == count + 2, render(f)
            g = rank(f).witness_form
            (quad,) = [c for c, _ in ratfactor.primitive_factors(g.tau_poly()[1]) if len(c) == 3]
            gamma = QuadraticNumber.generator(quad)
            one = gamma.lift(1)
            points = [p for _, p in dec.terms[:-2]]
            lifted = [(gamma.lift(a), gamma.lift(b)) for a, b in points]
            old = residue_scalars(f, g, lifted + [(one, gamma), (one, gamma.conjugate())],
                                  gamma.lift)
            ((alpha, beta),) = seen
            s = one * alpha + beta * gamma
            assert old[-2:] == [s, s.conjugate()]
            assert [x.rational_value() for x in old[:-2]] == [s for s, _ in dec.terms[:-2]]
            checked += 1
            with_points += bool(points)
            with_t += (F(0), F(1)) in points
        assert checked == 60 and with_points >= 20 and with_t >= 5

    def test_exact_at_the_stored_points(self):
        """On seeded complex decompositions, the integers equal the residue
        formula run over Q(i) in the oracle field at the stored points, read
        exactly, with the same chart rule decided by the exact norm; the
        published scalars are those values rounded to nearest."""
        rng = random.Random("residue:gaussian")
        i = QuadraticNumber.generator([1, 0, 1])

        def gaussian(x):
            re, im = exact_parts(x)
            return QuadraticNumber(re, im, i.p, i.q)

        checked = flipped = 0
        while checked < 12:
            f = random_form(rng.randint(5, 12), rng, bound=rng.choice((9, 100)))
            dec = decompose(f, rng.choice((64, 128)))
            if dec.field_tag != "complex":
                continue
            checked += 1
            pts = [p for _, p in dec.terms]
            g = rank(f).witness_form
            field_pts = [(gaussian(a), gaussian(b)) for a, b in pts]
            want = residue_scalars(f, g, field_pts, i.lift, outside=lambda b: b.norm() > 1)
            got = apolarity._residue_scalars(f, g, pts)
            assert [(F(re, q), F(im, q)) for re, im, q in got] == [(w.a, w.b) for w in want]
            flipped += sum(b.norm() > 1 for _, b in field_pts)
            for (s, _), w in zip(dec.terms, want):
                for part, exact in zip(exact_parts(s), (w.a, w.b)):
                    assert abs(part - exact) <= abs(exact) / 2 ** (dec.precision_bits + 32)
        assert flipped >= 5

    def test_twin_scalars_are_the_direct_evaluation(self, monkeypatch):
        """On seeded complex decompositions, the scalar of each point whose
        exact conjugate came earlier, taken as the conjugate of that
        point's scalar, is the one the point alone evaluates to, and only
        the other points are evaluated; on the same points with each
        conjugate's imaginary part moved by 2^-(bits+40), which leaves no
        exact conjugate, every scalar is evaluated, and again each equals
        the point's alone."""
        rng = random.Random("residue:twins")
        checked = twins = 0
        evaluations = []
        horner = apolarity._horner
        monkeypatch.setattr(apolarity, "_horner", lambda *a: evaluations.append(a) or horner(*a))
        while checked < 12:
            f = random_form(rng.randint(5, 12), rng, bound=rng.choice((9, 100)))
            dec = decompose(f, rng.choice((64, 128)))
            if dec.field_tag != "complex":
                continue
            checked += 1
            g = rank(f).witness_form
            pts = [p for _, p in dec.terms]
            with mpmath.workprec(dec.precision_bits + 96):
                nudge = mpmath.mpf(2) ** -(dec.precision_bits + 40) * 1j
                forged = [(a, b - nudge if b.imag < 0 else b) for a, b in pts]
            got = []
            pairs = sum(b.imag < 0 for _, b in pts)
            for points, evaluated in ((pts, len(pts) - pairs), (forged, len(pts))):
                alone = [apolarity._residue_scalars(f, g, [p])[0] for p in points]
                evaluations.clear()
                got.append(apolarity._residue_scalars(f, g, points))
                assert got[-1] == alone
                assert len(evaluations) == 2 * evaluated  # R and poly' at each point
            assert (got[0] != got[1]) is bool(pairs)
            twins += pairs
        assert twins >= 10

    @pytest.mark.parametrize("bits", [64, 128, 192, 256])
    def test_agrees_with_the_mpc_oracle(self, bits):
        """Seeded random forms of degree 4..14 with coefficients p/q,
        |p| <= 100 and 1 <= q <= 100, as in the waring benchmark: each
        scalar of a complex decomposition agrees with the ``mpc`` route at
        bits + 32 to 2^-(bits+8) relative."""
        rng = random.Random(f"residue:mpc:{bits}")
        checked = 0
        for _ in range(40):
            f = random_form(rng.randint(4, 14), rng, bound=100)
            dec = decompose(f, bits)
            if dec.field_tag != "complex":
                continue
            checked += 1
            pts = [p for _, p in dec.terms]
            want = mpc_residue_scalars(f, rank(f).witness_form, pts, bits)
            with mpmath.workprec(bits + 64):
                for (s, _), w in zip(dec.terms, want):
                    assert abs(s - w) <= mpmath.mpf(2) ** -(bits + 8) * abs(w), render(f)
        assert checked >= 15

    def test_numeric_against_qr(self):
        rng = random.Random("residue:numeric")
        checked = 0
        while checked < 25:
            f = random_form(rng.randint(5, 12), rng)
            dec = decompose(f, 192)
            if dec.field_tag != "complex":
                continue
            checked += 1
            want = qr_power_sum_scalars(f, [(_to_mpc(a), _to_mpc(b)) for _, (a, b) in dec.terms], 512)
            with mpmath.workprec(512):
                for (s, _), w in zip(dec.terms, want):
                    assert abs(s - w) <= mpmath.mpf(2) ** -150 * abs(w), render(f)

    @pytest.mark.parametrize("text", [
        "d=10; [-64/7,35/82,-42/31,23/40,11/62,2/11,-48/7,-29/16,-38/11,-21/20,95/36]",
        "d=10; [70/43,77/23,-7/47,-85/98,-45/14,-65/79,-26/43,-58,-39/16,86/49,-26/21]",
    ])
    def test_far_roots_read_in_the_other_chart(self, text):
        """Witness roots of modulus 9239 and 20382: read in the chart t/u
        only, their scalars miss the residual bound."""
        f = parse_form(text)
        dec = decompose(f, 192)
        assert dec.field_tag == "complex"
        assert max(abs(_to_mpc(b)) for _, (_, b) in dec.terms) > 9000
        assert verify_decomposition(f, dec) < mpmath.mpf(2) ** -96


class TestCertificateChecks:
    """The reconstruction checks are explicit raises, not bare asserts."""

    @pytest.fixture
    def wrong_last_scalar(self, monkeypatch):
        """The last exact scalar (re, im, q) doubled."""
        scalars_of = apolarity._residue_scalars

        def planted(*args, **kwargs):
            scalars = scalars_of(*args, **kwargs)
            re, im, q = scalars[-1]
            scalars[-1] = (2 * re, 2 * im, q)
            return scalars

        monkeypatch.setattr(apolarity, "_residue_scalars", planted)

    def test_rational_path(self, wrong_last_scalar):
        with pytest.raises(CertificateError):
            decompose(CUBE_SUM, 96)

    def test_quadratic_path(self, monkeypatch):
        """A fault in the pair's scalar, on a form with no rational point
        and on one with a rational point, and a fault in that point's
        scalar: the exact check of the pair's power sums raises."""
        pair_scalar = apolarity._pair_scalar
        monkeypatch.setattr(apolarity, "_pair_scalar",
                            lambda *args: [2 * x for x in pair_scalar(*args)])
        for f in (form(0, 1, -1, 0), POINT_AND_PAIR):
            with pytest.raises(CertificateError):
                decompose(f, 128)
        monkeypatch.undo()
        scalars_of = apolarity._residue_scalars
        monkeypatch.setattr(apolarity, "_residue_scalars",
                            lambda *args: [(re + q, im, q) for re, im, q in scalars_of(*args)])
        with pytest.raises(CertificateError):
            decompose(POINT_AND_PAIR, 128)

    def test_numeric_path(self, wrong_last_scalar):
        coeffs = tuple(F(x) * comb(5, i) for i, x in enumerate((1, 0, 0, -1, 1, -1)))
        with pytest.raises(PrecisionError):
            decompose(BinaryForm(5, coeffs), 128)

    def test_is_an_arithmetic_error(self):
        assert issubclass(CertificateError, ArithmeticError)

    def test_checks_survive_python_O(self):
        """Plant faults under ``python -O``, which strips bare asserts: the
        reconstruction check of each decomposition path must still raise."""
        child = textwrap.dedent(
            """
            import sys
            from math import comb
            from cuspidal import apolarity, binform

            if __debug__:
                sys.exit("not running under -O")
            pair_and_point = (3, 1, -1, 1, 3, 1)
            exact = lambda out: [(2 * re, 2 * im, q) for re, im, q in out]
            pair = lambda out: [2 * x for x in out]
            for name, double, apolar, fault in (
                ("_residue_scalars", exact, (1, 0, 0, 1), binform.CertificateError),
                ("_residue_scalars", exact, pair_and_point, binform.CertificateError),
                ("_pair_scalar", pair, (0, 1, -1, 0), binform.CertificateError),
                ("_pair_scalar", pair, pair_and_point, binform.CertificateError),
                ("_residue_scalars", exact, (1, 0, 0, -1, 1, -1), binform.PrecisionError),
            ):
                d = len(apolar) - 1
                f = binform.BinaryForm(d, tuple(c * comb(d, i) for i, c in enumerate(apolar)))
                honest = getattr(apolarity, name)
                setattr(apolarity, name, lambda *a, fn=honest, double=double: double(fn(*a)))
                try:
                    apolarity.decompose(f, 96)
                except fault:
                    continue
                finally:
                    setattr(apolarity, name, honest)
                sys.exit(f"wrong scalars in {name} went unnoticed for {render(f)}")
            """
        )
        _run_optimized(child)

    def test_factor_checks_survive_python_O(self):
        """Plant a wrong and a dropped root in the rational roots that the
        modular reconstruction returns, under ``python -O``: the explicit
        checks of the factorization must raise."""
        child = textwrap.dedent(
            """
            import sys
            from cuspidal import ratfactor, univar

            if __debug__:
                sys.exit("not running under -O")
            g = univar.mul(univar.mul([-2, 1], [1, 3]), [-2, 0, 0, 1])
            roots_of = ratfactor._rational_roots
            for plant in (lambda rs: [rs[0] + 1] + rs[1:], lambda rs: rs[1:]):
                def planted(g, p, plant=plant):
                    roots, cofactor = roots_of(g, p)
                    return plant(roots), cofactor
                ratfactor._rational_roots = planted
                try:
                    ratfactor.primitive_factors(g)
                except ratfactor.CertificateError:
                    continue
                sys.exit("a planted root went unnoticed")
            """
        )
        _run_optimized(child)


def _run_optimized(child: str) -> None:
    """Run the script child under ``python -O`` with the package importable;
    it exits nonzero on a failure."""
    src = Path(apolarity.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run(
        [sys.executable, "-O", "-c", child],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr


def _dyadic(man: int, exp: int) -> mpmath.mpf:
    """man * 2^exp exactly, whatever the working precision."""
    return mpmath.mp.make_mpf(mpmath.libmp.from_man_exp(man, exp))


class TestExactResidual:
    """``verify_decomposition`` reads every term exactly and forms the
    power sum in integers; the old ``mpc`` residual is the oracle
    ``mp_decomposition_residual``."""

    def test_the_exact_residual_is_the_fraction_residual(self):
        """Seeded complex decompositions: the integer route gives exactly
        the squared residual of the term-by-term Fraction oracle, and the
        returned mpf is its square root rounded up."""
        rng = random.Random("exact-residual:fractions")
        checked = 0
        while checked < 12:
            f = random_form(rng.randint(5, 14), rng, bound=rng.choice((9, 100)))
            dec = decompose(f, rng.choice((64, 128, 192)))
            if dec.field_tag != "complex":
                continue
            checked += 1
            want = fraction_residual_squared(f, dec.terms)
            num, den = apolarity._residual_squared(f, apolarity._exact_terms(dec.terms))
            assert F(num, den) == want
            got = verify_decomposition(f, dec)
            assert exact_value(got) ** 2 >= want
            with mpmath.workprec(apolarity.RESIDUAL_BITS):
                below = mpmath.mpf(got) - mpmath.mpf(2) ** (got.exp + got.man.bit_length() - 1
                                                             - apolarity.RESIDUAL_BITS + 1)
            assert exact_value(below) ** 2 < want

    def test_within_the_rounding_bound_of_the_mpc_oracle(self):
        """Seeded complex decompositions at 64, 128 and 192 bits, of degree
        5..16: |exact - oracle| <= B, so exact >= oracle - B.

        The oracle works at u = 2^-(bits+32) and rounds each complex
        product and sum once, componentwise, so each such step has relative
        error at most sqrt(2) u.  A column entry C(d,k) a^(d-k) b^k takes
        at most 2d+1 products, the rational parts of a term one rounding
        each, and the product with s and the running sum over the r terms
        r+1 more: the computed power sum is off at k by at most
        sqrt(2) u (2d+r+4) S_k (1 + O(du)), S_k = sum over the terms of
        |s| C(d,k) |a|^(d-k) |b|^k.  Rounding c_k, the difference, its
        modulus and the division by the scale of f add at most u |c_k| and
        4u times the result.  Doubling covers sqrt(2) and the O(du) terms:
        B = 2u ((2d+r+6) max_k S_k / max_k |c_k| + 1 + 4 oracle)."""
        rng = random.Random("exact-residual:mpc")
        checked = 0
        while checked < 30:
            f = random_form(rng.randint(5, 16), rng, bound=rng.choice((9, 100)))
            bits = rng.choice((64, 128, 192))
            dec = decompose(f, bits)
            if dec.field_tag != "complex":
                continue
            checked += 1
            exact, oracle = verify_decomposition(f, dec), mp_decomposition_residual(f, dec)
            d, r = f.degree, len(dec.terms)
            with mpmath.workprec(64):
                sums = [
                    sum(abs(mpmath.mpc(s)) * comb(d, k) * abs(mpmath.mpc(a)) ** (d - k)
                        * abs(mpmath.mpc(b)) ** k for s, (a, b) in dec.terms)
                    for k in range(d + 1)
                ]
                scale = max(abs(c) for c in f.coeffs)
                u = mpmath.mpf(2) ** -(bits + 32)
                bound = 2 * u * ((2 * d + r + 6) * max(sums) * scale.denominator
                                 / scale.numerator + 1 + 4 * oracle)
                assert exact >= oracle - bound, (render(f), bits)
                assert oracle >= exact - bound, (render(f), bits)

    @settings(max_examples=60, deadline=None)
    @given(
        d=st.integers(1, 12),
        pairs=st.lists(
            st.tuples(*[st.integers(-(2**60), 2**60)] * 4, st.integers(-80, 20)),
            min_size=1, max_size=4,
        ),
        real=st.lists(st.tuples(st.integers(-(2**40), 2**40), st.integers(-40, 10)), max_size=2),
        rational=st.lists(st.tuples(st.fractions(max_denominator=50),
                                    st.fractions(max_denominator=50)), max_size=2),
    )
    def test_dyadic_terms_reconstruct_exactly(self, d, pairs, real, rational):
        """Terms whose parts are exact dyadic mpc and mpf values, in
        conjugate pairs so that the power sum is real, with real dyadic and
        rational terms beside them: against the form their power sum
        equals, the residual is exactly 0 at any working precision, and a
        scalar moved by one unit in its last place makes it nonzero."""
        terms = []
        for sr, si, br, bi, e in pairs:
            for sign in (1, -1):
                s = mpmath.mp.make_mpc((_dyadic(sr, e)._mpf_, _dyadic(sign * si, e)._mpf_))
                b = mpmath.mp.make_mpc((_dyadic(br, e)._mpf_, _dyadic(sign * bi, e)._mpf_))
                terms.append((s, (mpmath.mpc(1), b)))
        terms += [(_dyadic(m, e), (_dyadic(1, 0), _dyadic(m + 1, e))) for m, e in real]
        terms += [(s, (F(1), b)) for s, b in rational]
        total = fraction_power_sum(terms, d)
        assert all(not y for _, y in total)
        f = BinaryForm(d, tuple(x for x, _ in total))
        assume(not f.is_zero())
        (sr, si, _, _, e), (s, point) = pairs[0], terms[0]
        moved = mpmath.mp.make_mpc((_dyadic(sr + 1, e)._mpf_, s.imag._mpf_))
        with mpmath.workprec(53):
            dec = Decomposition(d, tuple(terms), mpmath.mpf(0), "complex", 64)
            assert verify_decomposition(f, dec) == 0
            terms[0] = (moved, point)
            dec = Decomposition(d, tuple(terms), mpmath.mpf(0), "complex", 64)
            assert verify_decomposition(f, dec) > 0


class TestVerifyDecomposition:
    def test_exact_zero(self):
        dec = decompose(CUBE_SUM, 96)
        assert verify_decomposition(CUBE_SUM, dec) == 0

    def test_perturbed_scalar(self):
        eps = F(1, 2**20)
        terms = ((F(1) + eps, (F(1), F(0))), (F(1), (F(0), F(1))))
        dec = Decomposition(3, terms, mpmath.mpf(0), "rational", 96)
        res = verify_decomposition(CUBE_SUM, dec)
        assert mpmath.mpf(2) ** -21 < res < mpmath.mpf(2) ** -19

    def test_empty_decomposition(self):
        dec = Decomposition(3, (), mpmath.mpf(0), "rational", 96)
        f = form(1, 0, 0, 0)
        assert verify_decomposition(f, dec) == 1

    def test_degree_mismatch(self):
        dec = Decomposition(4, (), mpmath.mpf(0), "rational", 96)
        with pytest.raises(ValueError):
            verify_decomposition(form(1, 0, 0, 0), dec)

    def test_a_term_that_is_not_finite_is_refused(self):
        """An infinite or NaN part has no exact value to reconstruct from.
        ``_gaussian`` reads the raw parts: an mpf with mantissa 0 and a
        nonzero exponent is refused as a real mpf and as the real or the
        imaginary part of an mpc, in the scalar and in either coordinate of
        the linear form; a finite zero part, mantissa and exponent 0, reads
        as 0."""
        for x in (mpmath.inf, -mpmath.inf, mpmath.nan):
            for bad in (x, mpmath.mpc(x, 0), mpmath.mpc(1, x)):
                for term in ((bad, (F(1), F(0))), (F(1), (bad, F(0))),
                             (F(1), (mpmath.mpc(1), bad))):
                    dec = Decomposition(3, (term,), mpmath.mpf(0), "complex", 96)
                    with pytest.raises(ValueError, match="not finite"):
                        verify_decomposition(CUBE_SUM, dec)
        one = mpmath.mpc(1, 0)
        terms = ((one, (one, mpmath.mpf(0))), (F(1), (F(0), one)))
        assert verify_decomposition(CUBE_SUM, Decomposition(3, terms, 0, "complex", 96)) == 0

    def test_verify_reads_the_triples_decompose_certified(self, monkeypatch):
        """A decomposition carries the ``_gaussian`` triples of its terms:
        ``decompose`` reads each part of every term once, and the point of
        each term it solves a scalar for once more, and checking the result
        right after reads none again, on each of the three paths.  A
        decomposition read back from its JSON reads each part once."""
        calls = []
        gaussian = apolarity._gaussian
        monkeypatch.setattr(apolarity, "_gaussian", lambda x: calls.append(x) or gaussian(x))
        cubic = BinaryForm(5, tuple(F(x) * comb(5, i) for i, x in enumerate((1, 0, 0, -1, 1, -1))))
        for f, tag, solved in ((CUBE_SUM, "rational", 2), (POINT_AND_PAIR, "algebraic", 1),
                               (cubic, "complex", 3)):
            calls.clear()
            dec = decompose(f, 128)
            assert dec.field_tag == tag
            assert len(calls) == 3 * len(dec.terms) + solved
            calls.clear()
            assert verify_decomposition(f, dec) == dec.residual
            assert calls == []
            back = Decomposition.from_json(dec.to_json())
            assert verify_decomposition(f, back) <= mpmath.mpf(2) ** -64
            assert len(calls) == 3 * len(dec.terms)
