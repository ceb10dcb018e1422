import collections
import dataclasses
import itertools
import random
import textwrap
from fractions import Fraction as F

import pytest

from hypothesis import given, settings, strategies as st

from cuspidal import apolarity, linalg, projection, ratfactor, univar
from cuspidal.apolarity import CertificateError, RankCertificate, _ideal_generators, rank
from cuspidal.binform import BinaryForm, P1Point, ZeroFormError, ZeroScheme, random_form
from cuspidal.classifier import InstanceSpec, generate_instance
from cuspidal.numberfield import AlgebraicNumber
from cuspidal.projection import (
    ALL_LAMBDA,
    FieldCertificate,
    ProjectedPoint,
    ProjectionError,
    cusp_curve_point,
    fiber_scan,
    lift,
    project,
    special_lambdas,
    x_rank,
)
from oracles import (
    FieldForm,
    QuadraticNumber,
    catalecticant,
    discriminant_field_certificate,
    field_is_square_free,
    field_lift,
    field_rank_certificate,
    grid_generic_certificate,
    isolate_roots,
    nullspace_pencil,
    nullspace_plain,
    power,
    power_cusp_curve_point,
    probe_generic_value,
    reparametrized,
    upward_x_rank,
)
import oracles
from test_apolarity import _run_optimized
from test_corpus import corpus_forms


def level_pencil(P, r):
    return projection._pencil(P, r, _ideal_generators(P.coords[1:]))


def form(*coeffs):
    cs = tuple(F(c) for c in coeffs)
    return BinaryForm(len(cs) - 1, cs)


U4 = form(1, 0, 0, 0, 0)
QUARTIC_1001 = form(1, 5, 0, 0, 1)


class TestProjectedPoint:
    def test_scale_invariant_equality(self):
        p = ProjectedPoint(3, (F(2), F(0), F(0), F(2)))
        q = ProjectedPoint(3, (F(1), F(0), F(0), F(1)))
        assert p == q
        assert hash(p) == hash(q)
        assert p.coords == (2, 0, 0, 2)
        assert p.canonical == (1, 0, 0, 1)

    def test_sign_and_denominators(self):
        p = ProjectedPoint(3, (F(-1, 2), F(0), F(1, 3), F(0)))
        assert p.canonical == (3, 0, -2, 0)

    def test_rejects_zero_vector(self):
        with pytest.raises(ProjectionError):
            ProjectedPoint(3, (F(0),) * 4)

    def test_rejects_wrong_length(self):
        with pytest.raises(ProjectionError):
            ProjectedPoint(3, (F(1),) * 5)

    def test_rejects_small_n(self):
        with pytest.raises(ProjectionError):
            ProjectedPoint(2, (F(1), F(0), F(0)))

    def test_json_roundtrip(self):
        p = ProjectedPoint(4, (F(1), F(-3), F(0), F(2), F(7)))
        blob = p.to_json()
        assert blob["deleted_slot"] == 1
        assert blob["n"] == 4
        assert ProjectedPoint.from_json(blob) == p

    def test_slots_skip_the_deleted_one(self):
        p = ProjectedPoint(3, (F(1), F(0), F(0), F(1)))
        assert p.slots == (0, 2, 3, 4)


class TestProject:
    def test_pure_power(self):
        assert project(U4) == ProjectedPoint(3, (F(1), F(0), F(0), F(0)))

    def test_deleted_slot_is_invisible(self):
        assert project(QUARTIC_1001) == ProjectedPoint(3, (F(1), F(0), F(0), F(1)))
        assert project(form(1, -17, 0, 0, 1)) == project(QUARTIC_1001)

    def test_center_is_rejected(self):
        with pytest.raises(ProjectionError):
            project(form(0, 1, 0, 0, 0))
        with pytest.raises(ProjectionError):
            project(form(0, -3, 0, 0, 0))

    def test_zero_form_rejected(self):
        with pytest.raises(ZeroFormError):
            project(BinaryForm(4, (F(0),) * 5))

    def test_degree_too_small(self):
        with pytest.raises(ProjectionError):
            project(form(1, 0, 0, 1))

    def test_apolar_scaling_is_respected(self):
        # c_2 = 6 means a_2 = 1, matching a_0 = 1 exactly
        p = project(form(1, 0, 6, 0, 0))
        assert p == ProjectedPoint(3, (F(1), F(1), F(0), F(0)))


class TestLift:
    def test_lift_at_zero(self):
        p = ProjectedPoint(3, (F(1), F(0), F(0), F(1)))
        assert lift(p, 0) == form(1, 0, 0, 0, 1)

    def test_lift_at_two(self):
        p = ProjectedPoint(3, (F(1), F(0), F(0), F(1)))
        assert lift(p, 2) == form(1, 2, 0, 0, 1)

    def test_roundtrip_project_lift(self):
        rng = random.Random(911)
        for d in (4, 5, 6, 7):
            for _ in range(8):
                f = random_form(d, rng)
                try:
                    p = project(f)
                except ProjectionError:
                    continue
                g = lift(p, f.coeffs[1])
                # forms agree up to the scale dropped by normalization
                ratio = None
                for cf, cg in zip(f.coeffs, g.coeffs):
                    if cf or cg:
                        assert cf and cg
                        r = cf / cg
                        assert ratio is None or r == ratio
                        ratio = r

    def test_roundtrip_lift_project(self):
        p = ProjectedPoint(4, (F(3), F(1), F(0), F(-2), F(5)))
        for lam in (F(0), F(7), F(-1, 3)):
            assert project(lift(p, lam)) == p

    def test_algebraic_lift_raises(self):
        p = ProjectedPoint(3, (F(1), F(1), F(0), F(-1)))
        with pytest.raises(ProjectionError):
            lift(p, special_lambdas(p, 2)[0])

    def test_algebraic_lift_is_a_field_form(self):
        # the oracle's lift over Q[x]/(minpoly)
        p = ProjectedPoint(3, (F(1), F(1), F(0), F(-1)))
        roots = special_lambdas(p, 2)
        assert isinstance(roots[0], AlgebraicNumber)
        ff = field_lift(p, roots[0])
        assert isinstance(ff, FieldForm)
        assert ff.degree == 4
        # slot 0 and slot 2 carry the rational coordinates of p
        assert ff.a_coeffs[0].is_rational() and ff.a_coeffs[0].rational_value() == 1
        assert ff.a_coeffs[2].is_rational() and ff.a_coeffs[2].rational_value() == 1
        assert not ff.a_coeffs[1].is_rational()


class TestCuspCurvePoint:
    def test_cusp_itself(self):
        p = cusp_curve_point(3, P1Point(F(1), F(0)))
        assert p == ProjectedPoint(3, (F(1), F(0), F(0), F(0)))

    def test_opposite_end(self):
        p = cusp_curve_point(3, P1Point(F(0), F(1)))
        assert p == ProjectedPoint(3, (F(0), F(0), F(0), F(1)))

    def test_all_ones(self):
        for n in (3, 5, 8):
            p = cusp_curve_point(n, P1Point(F(1), F(1)))
            assert p.coords == (1,) * (n + 1)

    def test_matches_projection_of_powers(self):
        # (2u+3t)^5 projects to the curve point of (2:3)
        f = form(32, 240, 720, 1080, 810, 243)
        assert project(f) == cusp_curve_point(4, P1Point(F(2), F(3)))

    def test_running_product_matches_the_powers(self):
        """The running product stores the very coordinates of the power
        formula, scale included, at both ends and at (1:p/q)."""
        ts = [P1Point(F(1), F(0)), P1Point(F(0), F(1))]
        ts += [P1Point(F(1), F(p, q)) for p in (-7, -2, -1, 1, 3, 5) for q in (1, 2, 3, 7)]
        ts.append(P1Point(F(4), F(-6)))
        for n in range(3, 13):
            for t in ts:
                got, want = cusp_curve_point(n, t), power_cusp_curve_point(n, t)
                assert got.coords == want.coords, (n, t)
                assert got.to_json() == want.to_json(), (n, t)


def _hand_minor_gcd(rows):
    """gcd of all 2x2 minors of a 4x2 polynomial matrix, straight ad-bc."""
    g = []
    for i, j in itertools.combinations(range(4), 2):
        det = univar.sub(
            univar.mul(rows[i][0], rows[j][1]),
            univar.mul(rows[i][1], rows[j][0]),
        )
        g = univar.gcd(g, det) if g else univar.trim(det)
    return g


# -- reference oracle: the special lambda as the roots of the gcd of all
# maximal minors of the whole lambda-Hankel matrix over Q[lambda], a route
# that shares no step with the two-row reduction before the root tail


def _lambda_hankel(P, r):
    """Level-r Hankel matrix of the pencil, entries as polynomials in lambda."""
    d = P.n + 1
    a = P.apolar_with_slot(None)
    rows = []
    for j in range(d - r + 1):
        row = []
        for k in range(r + 1):
            if j + k == 1:
                row.append([F(0), F(1, d)])
            else:
                row.append([F(a[j + k])] if a[j + k] else [])
        rows.append(row)
    return rows


def _poly_rank(rows):
    """Rank over the rational function field, by fraction-free elimination."""
    m = [[list(e) for e in row] for row in rows]
    nr, nc = len(m), len(m[0])
    prev = [F(1)]
    rank_ = 0
    for col in range(nc):
        piv = next((i for i in range(rank_, nr) if not univar.is_zero(m[i][col])), None)
        if piv is None:
            continue
        m[rank_], m[piv] = m[piv], m[rank_]
        for i in range(rank_ + 1, nr):
            for j in range(col + 1, nc):
                num = univar.sub(
                    univar.mul(m[rank_][col], m[i][j]),
                    univar.mul(m[i][col], m[rank_][j]),
                )
                m[i][j] = univar.div_exact(num, prev)
            m[i][col] = []
        prev = m[rank_][col]
        rank_ += 1
    return rank_


def _poly_det(rows):
    """Determinant of a square polynomial matrix, up to sign (Bareiss)."""
    k = len(rows)
    m = [[list(e) for e in row] for row in rows]
    prev = [F(1)]
    for col in range(k):
        piv = next((i for i in range(col, k) if not univar.is_zero(m[i][col])), None)
        if piv is None:
            return []
        m[col], m[piv] = m[piv], m[col]
        for i in range(col + 1, k):
            for j in range(col + 1, k):
                num = univar.sub(
                    univar.mul(m[col][col], m[i][j]),
                    univar.mul(m[i][col], m[col][j]),
                )
                m[i][j] = univar.div_exact(num, prev)
            m[i][col] = []
        prev = m[col][col]
    return m[k - 1][k - 1]


def _minor_gcd_lambdas(P, r):
    """special_lambdas computed from the gcd of every maximal minor."""
    rows = _lambda_hankel(P, r)
    nr, nc = len(rows), r + 1
    if nr < nc or _poly_rank(rows) < nc:
        return ALL_LAMBDA
    g = []
    for rsel in itertools.combinations(range(nr), nc):
        minor = _poly_det([rows[i] for i in rsel])
        g = univar.gcd(g, minor) if g else univar.trim(minor)
        if g and univar.degree(g) == 0:
            return []
    assert g, "full generic column rank guarantees a nonzero minor"
    if univar.degree(g) == 0:
        return []
    rats, algs = [], []
    for fac, _mult in ratfactor.irreducible_factors(g):
        if len(fac) == 2:
            rats.append(-fac[0] / fac[1])
        else:
            # the proved disks order the pair: lower branch first
            disks = sorted(isolate_roots(fac, 192), key=lambda z: (z.approx_re, z.approx_im))
            algs.extend(AlgebraicNumber(z.minpoly, bool(i)) for i, z in enumerate(disks))
    rats.sort()
    return rats + algs


def _constant_kernel_dim(P, r):
    d = P.n + 1
    a = P.apolar_with_slot(None)
    rows = [[a[j + k] for k in range(r + 1)] for j in range(2, d - r + 1)]
    return len(nullspace_plain(rows, r + 1))


def _assert_matches_oracle(P):
    """Every level of P agrees with the minor-gcd route; returns the
    constant-row kernel dimension met at each level."""
    dims = []
    for r in range(1, (P.n + 1 + 2) // 2 + 1):
        got = special_lambdas(P, r)
        want = _minor_gcd_lambdas(P, r)
        if want is ALL_LAMBDA:
            assert got is ALL_LAMBDA, (P, r)
        else:
            assert got == want, (P, r)
            assert all(len(z.minpoly) == 3 for z in got if isinstance(z, AlgebraicNumber))
        dims.append(_constant_kernel_dim(P, r))
    return dims


# one small cell per generated case tag
TAG_CELLS = [
    ("e4_i", 5, 2),
    ("e4_ii", 5, 3),
    ("e4_iii", 5, 4),
    ("e3_2", 7, 3),
    ("e3_3_wminus1", 7, 4),
    ("e3_3_wminus2", 7, 4),
    ("e3_3_cusp", 6, 2),
    ("e3_4_exact", 5, 2),
    ("e3_4_interval", 5, 3),
    ("e3_5", 6, 3),
]


class TestSpecialLambdasOracle:
    def test_random_pencils_every_level(self):
        rng = random.Random(8128)
        dims = set()
        for d in range(4, 11):
            for trial in range(8):
                f = random_form(d, rng)
                if trial % 2:
                    # sparse coordinates reach the degenerate branches
                    f = BinaryForm(
                        d, tuple(c if rng.random() < 0.4 else F(0) for c in f.coeffs)
                    )
                try:
                    P = project(f)
                except (ProjectionError, ZeroFormError):
                    continue
                dims.update(_assert_matches_oracle(P))
        assert {0, 1, 2}.issubset(dims) and max(dims) >= 3

    @pytest.mark.parametrize("tag,n,level", TAG_CELLS)
    def test_generated_instance_every_level(self, tag, n, level):
        f = generate_instance(InstanceSpec(tag, n, level, seed=1)).form
        _assert_matches_oracle(project(f))

    def test_branch_dim_zero(self):
        p = ProjectedPoint(3, (F(0), F(0), F(1), F(0)))
        assert _constant_kernel_dim(p, 1) == 0
        assert special_lambdas(p, 1) == [] == _minor_gcd_lambdas(p, 1)

    def test_branch_dim_one(self):
        # K is spanned by (1, 0); row 0 gives 0 and row 1 gives lambda/4
        p = ProjectedPoint(3, (F(0), F(0), F(0), F(1)))
        assert _constant_kernel_dim(p, 1) == 1
        assert special_lambdas(p, 1) == [F(0)] == _minor_gcd_lambdas(p, 1)

    def test_branch_dim_two(self):
        p = ProjectedPoint(3, (F(1), F(1), F(0), F(-1)))
        assert _constant_kernel_dim(p, 2) == 2
        got = special_lambdas(p, 2)
        assert got == _minor_gcd_lambdas(p, 2)
        assert [len(z.minpoly) for z in got] == [3, 3]

    def test_branch_dim_two_vanishing_determinant(self):
        p = ProjectedPoint(3, (F(0), F(0), F(1), F(0)))
        assert _constant_kernel_dim(p, 2) == 2
        assert special_lambdas(p, 2) is ALL_LAMBDA
        assert _minor_gcd_lambdas(p, 2) is ALL_LAMBDA

    def test_branch_dim_three(self):
        p = ProjectedPoint(5, (F(1), F(0), F(0), F(0), F(0), F(0)))
        assert _constant_kernel_dim(p, 2) >= 3
        assert special_lambdas(p, 2) is ALL_LAMBDA
        assert _minor_gcd_lambdas(p, 2) is ALL_LAMBDA


class TestSpecialLambdas:
    def test_pure_power_level_one(self):
        # independent route: the matrix has rows (1, x/4), (x/4, 0), 0, 0
        one = [F(1)]
        x4 = [F(0), F(1, 4)]
        zero = []
        rows = [[one, x4], [x4, zero], [zero, zero], [zero, zero]]
        g = _hand_minor_gcd(rows)
        assert g == [F(0), F(0), F(1)]  # x^2, so the only root is 0

        got = special_lambdas(project(U4), 1)
        assert got == [F(0)]

    def test_no_drop_gives_empty_list(self):
        # level 1 of (1,0,0,1): the minor from rows 0 and 3 is the constant 1
        p = ProjectedPoint(3, (F(1), F(0), F(0), F(1)))
        assert special_lambdas(p, 1) == []

    def test_dimension_count_gives_all_lambda(self):
        # at the cap level columns outnumber rows for every point
        for p in (
            project(U4),
            ProjectedPoint(4, (F(3), F(1), F(0), F(-2), F(5))),
        ):
            d = p.n + 1
            assert special_lambdas(p, (d + 2) // 2) is ALL_LAMBDA

    def test_deficient_rows_give_all_lambda(self):
        # level 2 for the pure fifth power: the polynomial matrix has rank 2
        # of a possible 3 even though rows outnumber columns
        assert special_lambdas(project(form(1, 0, 0, 0, 0, 0)), 2) is ALL_LAMBDA

    def test_quadratic_class(self):
        # d=4, r=2 is a square matrix; its determinant is x^2/16 - 2
        p = ProjectedPoint(3, (F(1), F(1), F(0), F(-1)))
        got = special_lambdas(p, 2)
        assert len(got) == 2
        assert all(isinstance(z, AlgebraicNumber) for z in got)
        assert got == [AlgebraicNumber((-32, 0, 1), False), AlgebraicNumber((-32, 0, 1), True)]
        # roots are ±sqrt(32) = ±5.656854...
        lo, hi = (z.value(64) for z in got)
        assert abs(lo + hi) < 1e-30 and abs(hi - 5.656854249) < 1e-6

    def test_level_bounds(self):
        p = project(U4)
        with pytest.raises(ProjectionError):
            special_lambdas(p, 0)
        with pytest.raises(ProjectionError):
            special_lambdas(p, 4)


class TestXRank:
    def test_point_on_curve(self):
        for d in (4, 5, 6):
            f = BinaryForm(d, (F(1),) + (F(0),) * d)
            res = x_rank(project(f))
            assert res.value == 1
            assert res.witness_lambda == 0

    def test_curve_points_everywhere(self):
        for n in (3, 4, 5):
            for t in (P1Point(F(1), F(1)), P1Point(F(2), F(3)), P1Point(F(0), F(1))):
                res = x_rank(cusp_curve_point(n, t))
                assert res.value == 1

    def test_cusp_plus_far_point(self):
        # (1,0,0,1) lifts at lambda=0 to u^4 + t^4 whose level-2 kernel is ut
        p = ProjectedPoint(3, (F(1), F(0), F(0), F(1)))
        res = x_rank(p)
        assert res.value == 2
        assert res.witness_lambda == 0
        assert isinstance(res.witness_certificate, RankCertificate)
        assert res.witness_certificate.witness_kind == "squarefree"
        assert res.witness_set_on_X == (
            ProjectedPoint(3, (F(0), F(0), F(0), F(1))),
            ProjectedPoint(3, (F(1), F(0), F(0), F(0))),
        )

    def test_algebraic_witness(self):
        # the quadratic special pair at level 2 drops the rank to 2, while
        # every rational lambda gives rank 3
        p = ProjectedPoint(3, (F(1), F(1), F(0), F(-1)))
        res = x_rank(p)
        assert res.value == 2
        assert isinstance(res.witness_lambda, AlgebraicNumber)
        assert res.witness_lambda.minpoly == (-32, 0, 1)
        assert isinstance(res.witness_certificate, FieldCertificate)
        assert res.witness_certificate.witness_kind == "squarefree"
        assert res.witness_set_on_X is None

    def test_wrong_border_rank_raises(self):
        """Two faults planted where ``x_rank`` keeps a check, each raising
        CertificateError under ``python -O``.  Generators of Ann(B'') without
        g1 claim the border rank d - w' of B'' in place of w' and leave no
        generic level among the levels scanned; zero kernel vectors in the
        quadratic certificate leave no kernel form at an algebraic lambda."""
        child = textwrap.dedent(
            """
            import dataclasses
            import sys
            from fractions import Fraction as F
            from cuspidal import apolarity, projection
            from cuspidal.binform import BinaryForm

            if __debug__:
                sys.exit("not running under -O")
            generators = projection._ideal_generators
            projection._ideal_generators = lambda a: generators(a)[1:]
            forms = [(3, -1, 4, 1, -5, 9, 2, -6), (2, 0, 7, -1, 8, 2, -8, 1, 8)]
            forms += [(1, 0, 0, 0, 0, 0, 0, 1), (0, 0, 1, 0, 0, 0, 0, 0, 1)]
            for coeffs in forms:
                try:
                    projection.x_rank(projection.project(BinaryForm(len(coeffs) - 1, coeffs)))
                except apolarity.CertificateError as exc:
                    if "no generic kernel level" in str(exc):
                        continue
                    raise
                sys.exit(f"generators without g1 went unnoticed on {coeffs}")
            projection._ideal_generators = generators

            certify = projection._Pencil.field_certificate
            def zero_kernel(pen, minpoly):
                zeros = [tuple(0 for _ in v) for v in pen.kernel]
                return certify(dataclasses.replace(pen, kernel=zeros), minpoly)
            projection._Pencil.field_certificate = zero_kernel
            try:
                projection.x_rank(projection.ProjectedPoint(3, (F(1), F(1), F(0), F(-1))))
            except apolarity.CertificateError as exc:
                if "vanishes" not in str(exc):
                    raise
            else:
                sys.exit("a zero kernel at an algebraic lambda went unnoticed")
            """
        )
        _run_optimized(child)

    def test_field_certificate_direct(self):
        p = ProjectedPoint(3, (F(1), F(1), F(0), F(-1)))
        lam = special_lambdas(p, 2)[0]
        cert = level_pencil(p, 2).field_certificate(lam.minpoly)
        assert cert.border_rank == 2
        assert cert.rank == 2
        assert cert.witness_kind == "squarefree"
        assert cert == field_rank_certificate(field_lift(p, lam))

    def test_never_exceeds_classical_rank(self):
        rng = random.Random(4242)
        for d in (5, 6):
            for _ in range(6):
                f = random_form(d, rng)
                try:
                    p = project(f)
                except ProjectionError:
                    continue
                assert x_rank(p).value <= rank(f).rank

    def test_reparametrization_invariance(self):
        pts = [
            ProjectedPoint(3, (F(1), F(0), F(0), F(1))),
            ProjectedPoint(3, (F(1), F(1), F(0), F(-1))),
            ProjectedPoint(4, (F(3), F(1), F(0), F(-2), F(5))),
        ]
        rng = random.Random(77)
        for p in pts:
            base = x_rank(p).value
            for _ in range(3):
                s = F(rng.randint(1, 9), rng.randint(1, 9)) * rng.choice((1, -1))
                assert x_rank(reparametrized(p, s)).value == base

    def test_reparametrization_matches_substitution(self):
        # projecting f(u, s*t) agrees with transforming the projection of f
        rng = random.Random(31)
        for _ in range(5):
            f = random_form(5, rng)
            try:
                p = project(f)
            except ProjectionError:
                continue
            s = F(rng.randint(1, 7), rng.randint(1, 7))
            g = BinaryForm(5, tuple(c * s**i for i, c in enumerate(f.coeffs)))
            assert project(g) == reparametrized(p, s)

    def test_deterministic(self):
        p = ProjectedPoint(4, (F(3), F(1), F(0), F(-2), F(5)))
        r1 = x_rank(p)
        r2 = x_rank(p)
        assert r1.value == r2.value
        assert r1.witness_lambda == r2.witness_lambda

    def test_json_shape(self):
        p = ProjectedPoint(3, (F(1), F(0), F(0), F(1)))
        blob = x_rank(p).to_json()
        assert blob["value"] == 2
        assert blob["witness_lambda"] == "0"
        # the constants of the schema that had a degree-bound knob are gone
        assert not {"complete", "unexplored", "flag"} & blob.keys()
        assert blob["witness_certificate"]["w"] == 2
        assert [pt["coords"] for pt in blob["witness_set_on_X"]] == [
            ["0", "0", "0", "1"],
            ["1", "0", "0", "0"],
        ]


def _pencil_points(seed):
    """Projections of seeded random forms of degree 4..12, every other one
    with sparse coordinates."""
    rng = random.Random(seed)
    for d in range(4, 13):
        for trial in range(4):
            f = random_form(d, rng)
            if trial % 2:
                f = BinaryForm(d, tuple(c if rng.random() < 0.4 else F(0) for c in f.coeffs))
            try:
                yield project(f)
            except (ProjectionError, ZeroFormError):
                continue


def _assert_pencil_matches_oracles(P, rng) -> tuple[int, int]:
    """At every level of P, the pencil's kernel at rational lambda equals
    nullspace of the lift's catalecticant, and each lambda whose first kernel
    level it is gets the certificate of the independent route: rank() of the
    lift when rational, the number-field level scan when quadratic.  Returns
    how many rational and quadratic certificates were compared."""
    rats = quads = 0
    seen = set()
    for r in range(1, (P.n + 3) // 2 + 1):
        pen = level_pencil(P, r)
        got = pen.special_values()
        keyed = [] if got is ALL_LAMBDA else got
        lams = [F(rng.randint(-30, 30), rng.randint(1, 4)) for _ in range(2)]
        lams += [lam for _key, lam in keyed if isinstance(lam, F)]
        for lam in lams:
            B = lift(P, lam)
            assert pen.kernel_at(lam) == linalg.nullspace(catalecticant(B, r).rows), (P, r, lam)
            want = rank(B)
            if want.border_rank == r:
                got_cert = pen.certificate(lam)
                assert got_cert == want, (P, r, lam)
                assert got_cert.to_json() == want.to_json()
                rats += 1
        for key, lam in keyed:
            if key not in seen and not isinstance(lam, F):
                want = field_rank_certificate(field_lift(P, lam))
                assert pen.field_certificate(lam.minpoly) == want, (P, r, lam)
                quads += 1
        seen.update(key for key, _lam in keyed)
        if got is ALL_LAMBDA:
            break
    return rats, quads


class TestPencilCertificates:
    def test_random_pencils_agree_with_oracles(self):
        rng = random.Random(1729)
        rats = quads = 0
        for P in _pencil_points(6174):
            a, b = _assert_pencil_matches_oracles(P, rng)
            rats += a
            quads += b
        assert rats > 60 and quads > 10

    @pytest.mark.parametrize("tag,n,level", TAG_CELLS)
    def test_generated_instance_agrees_with_oracles(self, tag, n, level):
        f = generate_instance(InstanceSpec(tag, n, level, seed=1)).form
        _assert_pencil_matches_oracles(project(f), random.Random(tag))

    def test_quadratic_classes_agree_with_oracle(self):
        """The norm route of ``field_certificate`` against the number-field
        level scan and the discriminant route, at every algebraic lambda of
        three pinned points, whose kernel form is non-reduced at both
        roots; of points planted on a3 = 0, a0 a4 = -3 a2^2, where the n = 3
        points with such a lambda lie; and of seeded points at n = 3..5 with
        coordinates in [-4, 4]."""
        rng = random.Random(99)
        points = [(-1, -1, 0, 3), (3, -1, 0, -1), (-1, 1, 0, 3)]
        for _ in range(12):
            a0, a2 = (F(rng.choice((-1, 1)) * rng.randint(1, 6), rng.randint(1, 3)) for _ in "02")
            points.append((a0, a2, 0, -3 * a2**2 / a0))
        points += [tuple(rng.randint(-4, 4) for _ in range(n + 1))
                   for n in (3, 4, 5) for _ in range(100)]
        kinds = []
        for coords in points:
            if not any(coords[1:]):
                continue
            P = ProjectedPoint(len(coords) - 1, tuple(F(c) for c in coords))
            for pen, lam in _algebraic_lambdas(P):
                cert = pen.field_certificate(lam.minpoly)
                assert cert == field_rank_certificate(field_lift(P, lam)), (coords, lam)
                assert cert == discriminant_field_certificate(pen, lam.minpoly), (coords, lam)
                kinds.append(cert.witness_kind)
        assert kinds[:6] == ["nonreduced"] * 6
        assert kinds.count("nonreduced") >= 20 and kinds.count("squarefree") >= 300


def _algebraic_lambdas(P):
    """(pencil, lambda) for every algebraic lambda of P at its first kernel
    level, scanned upward from level 1."""
    gens = _ideal_generators(P.coords[1:])
    seen = set()
    for r in range(1, (P.n + 3) // 2 + 1):
        pen = projection._pencil(P, r, gens)
        got = pen.special_values()
        if got is ALL_LAMBDA:
            return
        yield from ((pen, lam) for key, lam in got if key not in seen and not isinstance(lam, F))
        seen.update(key for key, _lam in got)


U, T = form(1, 0), form(0, 1)


class TestNormRoute:
    """``field_certificate`` on pencils built by hand, where h = gcd(v0, v1)
    is not 1 or v0 or v1 vanishes, which no natural input reached: the
    kernel form g = v0 + gamma v1 is checked square-free over Q(gamma)
    directly, and by the discriminant route."""

    @pytest.mark.parametrize("v0, v1, minpoly, kind", [
        ((U + T) * U * U, (U + T) * T * T, (-2, 0, 1), "squarefree"),  # h = u + t
        (power(U + T, 2) * U, power(U + T, 2) * T, (-2, 0, 1), "nonreduced"),  # h^2 | g
        ((T * T - U * U.scaled(2)) * T, (T * T - U * U.scaled(2)) * U.scaled(-1), (-2, 0, 1),
         "nonreduced"),  # h = t^2 - 2u^2 splits, and t - gamma u divides g twice
        (U * U * T, U * T * T, (1, 1, 1), "squarefree"),  # h = ut, a simple root at (0:1)
        (U * U * T, power(U, 3), (1, 1, 1), "nonreduced"),  # h = u^2
        (U * T * (U + T), form(0, 0, 0, 0), (-3, 0, 1), "squarefree"),  # v1 = 0
        (U * T * T, form(0, 0, 0, 0), (-3, 0, 1), "nonreduced"),
        (form(0, 0, 0, 0), U * T * (U - T), (-5, 1, 1), "squarefree"),  # v0 = 0
        (form(0, 0, 0, 0), power(U + T, 2) * T, (-5, 1, 1), "nonreduced"),
    ], ids=["h=u+t", "h^2|g", "h-splits", "h=ut", "h=u^2", "v1=0", "v1=0-square", "v0=0",
            "v0=0-square"])
    def test_hand_built_pencils(self, v0, v1, minpoly, kind):
        # rows chosen so that c = (y, -x) gives v = k0 - lambda k1
        kernel = [v0.coeffs, tuple(-c for c in v1.coeffs)]
        pen = projection._Pencil(6, 3, kernel, [((0, 1), (0, 0)), ((1, 0), (0, 0))])
        cert = pen.field_certificate(minpoly)
        assert cert.witness_kind == kind
        assert cert == discriminant_field_certificate(pen, minpoly)
        gamma = QuadraticNumber.generator(minpoly)
        g = [gamma.lift(a) + gamma * b for a, b in zip(v0.coeffs, v1.coeffs)]
        assert field_is_square_free(g, 3) is (kind == "squarefree")


def _moving_first_points(seed):
    """Projections of forms L^(d-1) M + sum of (d-3)/2 powers, d = 5, 7, 9,
    with the last scalar chosen so that c_1 = 0: the lift at lambda = 0 is
    the form itself, whose witness has a double point off A, while the
    generic lift's witness is square-free, so the grid goes past its first
    point."""
    rng = random.Random(seed)
    for d in (5, 7, 9):
        for _ in range(6):
            taus = rng.sample(range(-6, 7), (d + 1) // 2)
            f = power(form(1, taus[0]), d - 1) * form(1, taus[1])
            for tau in taus[2:-1]:
                f = f + power(form(1, tau), d).scaled(rng.choice((-3, -2, -1, 1, 2, 3)))
            if taus[-1]:
                yield project(f - power(form(1, taus[-1]), d).scaled(F(f.coeffs[1], d * taus[-1])))


def _assert_shifts_match_nullspace(P, rng) -> int:
    """At every level 1..cap the pencil spanned by the shifts of the
    generators of Ann(B'') has the kernel K (as a span), the special values,
    the lift kernels at rational lambda and the quadratic certificates of
    the pencil built by ``linalg.nullspace``.  Returns the number of levels
    where the second generator entered K at a degree above the first."""
    d = P.n + 1
    gens = _ideal_generators(P.coords[1:])
    entered = 0
    for r in range(1, (d + 2) // 2 + 1):
        pen, want = projection._pencil(P, r, gens), nullspace_pencil(P, r)
        assert (linalg.free_column_basis(pen.kernel) if pen.kernel else []) == want.kernel
        got, expected = pen.special_values(), want.special_values()
        if expected is ALL_LAMBDA:
            assert got is ALL_LAMBDA, (P, r)
            keyed = []
        else:
            assert [key for key, _lam in got] == [key for key, _lam in expected], (P, r)
            keyed = got
        lams = [F(rng.randint(-30, 30), rng.randint(1, 4)) for _ in range(2)]
        for lam in lams + [lam for key, lam in keyed if isinstance(key, F)]:
            assert pen.kernel_at(lam) == want.kernel_at(lam), (P, r, lam)
        for key, lam in keyed:
            if not isinstance(key, F):
                assert pen.field_certificate(lam.minpoly) == want.field_certificate(lam.minpoly)
        entered += len(gens) == 2 and len(gens[0]) < len(gens[1]) <= r + 1
    return entered


class TestShiftPencil:
    """``projection._pencil`` spans K by the shifts of the two generators of
    Ann(B''); the pencil of ``linalg.nullspace`` at every level is the
    oracle."""

    def test_random_and_planted_points_match_the_nullspace_pencil(self):
        rng = random.Random(1618)
        points = list(_pencil_points(2024)) + list(_moving_first_points(4048))
        entered = sum(_assert_shifts_match_nullspace(P, rng) for P in points)
        assert entered >= 10

    @pytest.mark.parametrize("tag,n,level", TAG_CELLS)
    def test_every_case_tag_matches_the_nullspace_pencil(self, tag, n, level):
        for seed in (1, 2):
            f = generate_instance(InstanceSpec(tag, n, level, seed=seed)).form
            _assert_shifts_match_nullspace(project(f), random.Random(seed))


def _generic_route(P) -> str:
    """Check the fixed-kernel rule against the whole grid on P and name the
    route it took: "squarefree", "fixed" (first point nonreduced with
    t^2 | g) or "moving" (the rest of the grid ran)."""
    w_gen, seen, cert, lam = grid_generic_certificate(P)
    got = projection._generic_certificate(level_pencil(P, w_gen), seen)
    assert got == (cert, lam), P
    zigzag = (F(z) for k in itertools.count() for z in ((k, -k) if k else (0,)))
    if lam != next(z for z in zigzag if z not in seen):
        return "moving"
    return "fixed" if cert.witness_kind == "nonreduced" else "squarefree"


class TestGenericCertificate:
    """``_generic_certificate`` stops the grid at its first point when the
    kernel there is one form divisible by t^2; the whole grid, every lift
    certified by ``apolarity.rank``, is the oracle."""

    def test_random_and_planted_pencils_agree_with_the_grid(self):
        points = list(_pencil_points(2718)) + list(_moving_first_points(3141))
        routes = [_generic_route(P) for P in points]
        assert set(routes) == {"squarefree", "fixed", "moving"}
        assert routes.count("moving") >= 8

    @pytest.mark.parametrize("tag,n,level", TAG_CELLS)
    def test_every_case_tag_agrees_with_the_grid(self, tag, n, level):
        for seed in (1, 2):
            _generic_route(project(generate_instance(InstanceSpec(tag, n, level, seed=seed)).form))

    def test_only_a_one_dimensional_kernel_stops_the_grid(self, monkeypatch):
        # _certify makes no nonreduced certificate with a two-dimensional
        # kernel; the stopping rule must not lean on that
        stuck = RankCertificate(3, 3, "nonreduced", BinaryForm(3, (0, 0, 1, 1)), 2)
        free = RankCertificate(3, 3, "squarefree", BinaryForm(3, (1, 0, 0, 1)), 2)
        certs = {F(0): stuck, F(1): free}
        monkeypatch.setattr(projection._Pencil, "certificate", lambda pen, lam: certs[lam])
        pencil = level_pencil(ProjectedPoint(4, (F(1),) * 5), 3)
        assert projection._generic_certificate(pencil, set()) == (free, F(1))
        certs[F(0)] = dataclasses.replace(stuck, kernel_dimension=1)
        assert projection._generic_certificate(pencil, set()) == (certs[F(0)], F(0))


QUAD_POINT = ProjectedPoint(3, (F(1), F(1), F(0), F(-1)))


class TestCertificateChecks:
    """Each invariant of the pencil route raises CertificateError, so it
    holds under python -O; each test plants one fault."""

    def test_algebraic_lambda_needs_two_dimensional_k(self, monkeypatch):
        real = projection._Pencil.field_certificate

        def one_dimensional(pen, minpoly):
            return real(dataclasses.replace(pen, kernel=pen.kernel[:1], rows=pen.rows[:1]), minpoly)

        monkeypatch.setattr(projection._Pencil, "field_certificate", one_dimensional)
        with pytest.raises(CertificateError, match="dim K"):
            x_rank(QUAD_POINT)

    def test_vanishing_kernel_vector_raises(self, monkeypatch):
        real = projection._Pencil.field_certificate

        def zero_kernel(pen, minpoly):
            zeros = [tuple(F(0) for _ in v) for v in pen.kernel]
            return real(dataclasses.replace(pen, kernel=zeros), minpoly)

        monkeypatch.setattr(projection._Pencil, "field_certificate", zero_kernel)
        with pytest.raises(CertificateError, match="vanishes"):
            x_rank(QUAD_POINT)

    def test_trivial_kernel_at_claimed_level_raises(self, monkeypatch):
        monkeypatch.setattr(projection._Pencil, "kernel_at", lambda pen, lam: [])
        with pytest.raises(CertificateError, match="trivial kernel"):
            x_rank(ProjectedPoint(3, (F(1), F(0), F(0), F(1))))

    def test_wrong_border_rank_of_second_derivative_raises_under_python_O(self):
        """Generators of Ann(B'') planted one level too low or too high
        through ``apolarity._remainder_generators``, their degrees still
        summing to d: one is no kernel vector at its level, or both share a
        factor, or g1 lies above g2.  The explicit checks of
        ``_ideal_generators`` raise CertificateError under ``python -O``."""
        child = textwrap.dedent(
            """
            import sys
            from cuspidal import apolarity, projection
            from cuspidal.binform import BinaryForm

            if __debug__:
                sys.exit("not running under -O")
            forms = [(3, -1, 4, 1, -5, 9, 2, -6), (2, 0, 7, -1, 8, 2, -8, 1, 8)]
            forms += [(1, 0, 0, 0, 0, 0, 0, 0, 1), (0, 0, 1, 0, 0, 0, 0, 0, 1)]
            honest = apolarity._remainder_generators

            def planted(shift):
                def generators(a):
                    g1, g2 = honest(a)
                    return (g1 + (0,), g2[:-1]) if shift > 0 else (g1[:-1], g2 + (0,))
                return generators

            for coeffs in forms:
                P = projection.project(BinaryForm(len(coeffs) - 1, coeffs))
                for shift in (-1, 1):
                    apolarity._remainder_generators = planted(shift)
                    try:
                        projection.x_rank(P)
                    except apolarity.CertificateError:
                        continue
                    finally:
                        apolarity._remainder_generators = honest
                    sys.exit(f"a generator off by {shift} level went unnoticed on {coeffs}")
            """
        )
        _run_optimized(child)

    def test_disagreeing_probe_raises(self, monkeypatch):
        """The probe check of ``tests/oracles.py`` catches a rank or a border
        rank planted in the certificates it takes from ``apolarity.rank``."""
        P = ProjectedPoint(6, (F(1), F(0), F(0), F(0), F(0), F(0), F(1)))
        w_gen, seen, cert, _lam = grid_generic_certificate(P)
        probe_generic_value(P, w_gen, seen, cert.rank)
        for field, match in (("rank", "probe"), ("border_rank", "generic kernel level")):
            def wrong(f, field=field):
                got = rank(f)
                return dataclasses.replace(got, **{field: getattr(got, field) + 1})

            with monkeypatch.context() as m:
                m.setattr(oracles, "rank", wrong)
                with pytest.raises(CertificateError, match=match):
                    probe_generic_value(P, w_gen, seen, cert.rank)


def _assert_probes_match_the_generic_certificate(P) -> bool:
    """Two seeded random lifts of P agree with the generic certificate that
    ``x_rank`` reads off its grid.  False at the cusp, whose lift at 0
    ``x_rank`` certifies alone."""
    if not any(P.coords[1:]):
        return False
    w_gen, seen, _cert, _lam = grid_generic_certificate(P)
    generic, _lam = projection._generic_certificate(level_pencil(P, w_gen), seen)
    probe_generic_value(P, w_gen, seen, generic.rank)
    return True


class TestGenericValueProbes:
    """The generic value is proved in the ``x_rank`` docstring; seeded random
    lifts certified by ``apolarity.rank`` check it."""

    def test_every_corpus_instance(self):
        checked = sum(_assert_probes_match_the_generic_certificate(project(f))
                      for _key, f in corpus_forms())
        assert checked == 672 - 72  # all but the e3_3_cusp instances

    def test_a_planted_rank_fails_the_corpus_check(self, monkeypatch):
        real = oracles.rank
        monkeypatch.setattr(
            oracles, "rank", lambda f: dataclasses.replace(real(f), rank=real(f).rank + 1)
        )
        _key, f = next(corpus_forms())
        with pytest.raises(CertificateError, match="probe"):
            _assert_probes_match_the_generic_certificate(project(f))


def _scan_route(scan, lam) -> str:
    """How ``FiberScan.certificate`` reaches the certificate at lam: one the
    scan kept ("kept"), the pencil of a special level whose certificate the
    scan did not keep ("pruned"), the fixed generic kernel ("fixed"), or the
    w_gen pencil."""
    level = next((pen.r for pen, fresh in scan.levels if lam in fresh), None)
    if level is None:
        if (scan.generic.r, lam) in scan.certificates:
            return "kept"
        return "fixed" if projection._fixed(scan.generic_certificate) else "generic"
    return "kept" if (level, lam) in scan.certificates else "pruned"


class TestFiberScanCertificates:
    """``FiberScan.certificate`` against ``apolarity.rank`` of the lift, the
    independent check, field for field: at lambda_B, at every rational
    special lambda of every visited level, and at
    the first three grid points outside ``seen``."""

    def test_every_non_cusp_corpus_instance(self):
        routes = collections.Counter()
        instances = 0
        for key, f in corpus_forms():
            P = project(f)
            if not any(P.coords[1:]):
                continue
            instances += 1
            scan = fiber_scan(P)
            assert scan.result == x_rank(P), key
            lam_b = f.coeffs[1]
            assert lift(P, lam_b) == f, key
            zigzag = (F(z) for k in itertools.count() for z in ((k, -k) if k else (0,)))
            lams = [lam_b] + [lam for _pen, fresh in scan.levels for lam in fresh
                              if isinstance(lam, F)]
            lams += itertools.islice((z for z in zigzag if z not in scan.seen), 3)
            for lam in lams:
                routes[_scan_route(scan, lam)] += 1
                assert scan.certificate(lam) == rank(lift(P, lam)), (key, lam)
        assert instances == 672 - 72
        # a special lambda at level w' makes the level-(w'+1) block vanish
        # there, so its determinant has no other root: pruning a level would
        # skip no special lambda, and the scan keeps every one it meets
        assert routes["pruned"] == 0
        assert min(routes[r] for r in ("kept", "fixed", "generic")) >= 100, routes

    def test_a_reused_certificate_is_the_one_kept(self):
        f = next(f for key, f in corpus_forms() if key.startswith("e3_2/"))
        scan = fiber_scan(project(f))
        lam = F(f.coeffs[1])
        assert scan.certificate(lam) is scan.certificate(lam)

    def test_the_cusp_has_no_scan(self):
        P = ProjectedPoint(4, (F(3), F(0), F(0), F(0), F(0)))
        with pytest.raises(ProjectionError, match="cusp"):
            fiber_scan(P)
        assert x_rank(P).value == 1


class TestWitnessImagesOnRead:
    """``x_rank`` factors its winning witness only when its images on the
    curve are read."""

    def test_no_witness_factoring_before_the_first_read(self, monkeypatch):
        factored = []
        post_init = ZeroScheme.__post_init__

        def counting_post_init(scheme):
            factored.append(scheme)
            post_init(scheme)

        monkeypatch.setattr(ZeroScheme, "__post_init__", counting_post_init)
        rng = random.Random(2121)
        points = []
        for d in range(7, 13):  # e4_ii at odd d, e4_iii at even d
            for _ in range(3):
                points.append(project(random_form(d, rng, bound=9)))
                # a sum of (d+1)/2 rational powers, whose winning witness
                # often has rational roots
                taus = rng.sample(range(-6, 7), (d + 1) // 2)
                f = power(form(1, taus[0]), d)
                for tau in taus[1:]:
                    f = f + power(form(1, tau), d).scaled(rng.choice((-3, -2, -1, 1, 2, 3)))
                points.append(project(f))
        images = reads = 0
        for P in points:
            res = x_rank(P)
            assert not factored, (P, factored)
            want = upward_x_rank(P).witness_set_on_X
            factored.clear()
            assert res.witness_set_on_X == want
            read = (isinstance(res.witness_lambda, F)
                    and res.witness_certificate.witness_kind == "squarefree")
            assert bool(factored) == read
            reads += read
            images += want is not None
            assert res.to_json() == upward_x_rank(P).to_json()
            factored.clear()
        assert reads >= 20
        assert images >= 5


_POINTS = st.integers(3, 6).flatmap(
    lambda n: st.lists(st.integers(-6, 6), min_size=n + 1, max_size=n + 1)
    .filter(any)
    .map(lambda cs: ProjectedPoint(n, tuple(F(c) for c in cs)))
)
_NONZERO_Q = st.builds(F, st.integers(-7, 7).filter(bool), st.integers(1, 7))


_RATIONAL_POINTS = st.integers(3, 6).flatmap(
    lambda n: st.lists(st.builds(F, st.integers(-6, 6), st.integers(1, 7)),
                       min_size=n + 1, max_size=n + 1)
    .filter(lambda cs: any(cs) and any(c.denominator > 1 for c in cs))
    .map(lambda cs: ProjectedPoint(n, tuple(cs)))
)


_SPARSE_POINTS = st.integers(3, 10).flatmap(
    lambda n: st.lists(st.sampled_from((0, 0, 0, 1, -1, 2, -3)), min_size=n + 1, max_size=n + 1)
    .filter(any)
    .map(lambda cs: ProjectedPoint(n, tuple(F(c) for c in cs)))
)


@settings(derandomize=True, database=None, max_examples=120, deadline=None)
@given(st.one_of(_POINTS, _RATIONAL_POINTS, _SPARSE_POINTS))
def test_x_rank_matches_the_upward_scan(P):
    """The scan of levels w'..w'+2, its pencil rows in integers, publishes
    what the upward scan from level 1, one nullspace per level and its rows
    in Fractions, publishes."""
    assert x_rank(P).to_json() == upward_x_rank(P).to_json()


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(st.one_of(_POINTS, _RATIONAL_POINTS, _SPARSE_POINTS))
def test_generic_value_matches_random_lifts(P):
    _assert_probes_match_the_generic_certificate(P)


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(_POINTS, _NONZERO_Q, _NONZERO_Q)
def test_x_rank_invariant_under_reparametrization_and_scaling(P, s, c):
    value = x_rank(P).value
    assert x_rank(reparametrized(P, s)).value == value
    assert x_rank(ProjectedPoint(P.n, tuple(c * x for x in P.coords))).value == value
