"""Numeric oracles: span search, secant probes, dichotomy fuzzing."""

import random
import textwrap
from fractions import Fraction

import mpmath
import pytest

from cuspidal.binform import BinaryForm, GrammarError, P1Point
from cuspidal.classifier import InstanceSpec, generate_instance
from cuspidal import linalg, oracle
from cuspidal.oracle import (
    CLUSTER_RADIUS,
    GUARD_BITS,
    SearchConfig,
    SpanWitness,
    _fit,
    _lu_solver,
    _polish,
    _slots,
    dichotomy_fuzz,
    secant_dimension_probe,
    xrank_upper_search,
)
from cuspidal.projection import ProjectedPoint, cusp_curve_point, project, x_rank
from oracles import fd_jacobian, mp_polish, mp_residual
from test_apolarity import _run_optimized

F = Fraction


class TestSearchConfig:
    def test_default_tolerance_is_half_precision(self):
        cfg = SearchConfig(r=2)
        assert cfg.tolerance == 2.0**-96

    def test_tolerance_floor_enforced(self):
        with pytest.raises(ValueError):
            SearchConfig(r=2, tolerance=2.0**-120)

    def test_bad_cardinality_and_starts(self):
        with pytest.raises(ValueError):
            SearchConfig(r=0)
        with pytest.raises(ValueError):
            SearchConfig(r=2, starts=0)


class TestSpanWitness:
    def test_clustered_parameters_rejected(self):
        P = cusp_curve_point(5, P1Point(F(1), F(2)))
        with pytest.raises(ValueError):
            SpanWitness((1.0, 1.0 + CLUSTER_RADIUS / 2), 1e-40, P)


class TestXrankUpperSearch:
    def test_curve_point_found_at_one(self):
        P = cusp_curve_point(6, P1Point(F(1), F(2)))
        w = xrank_upper_search(P, SearchConfig(r=1, starts=8))
        assert w is not None
        assert w.residual < 2.0**-96
        assert abs(w.parameters[0] - 2.0) < 1e-8
        assert w.matched == P

    def test_cusp_itself_found_at_one(self):
        P = cusp_curve_point(5, P1Point(F(1), F(0)))
        w = xrank_upper_search(P, SearchConfig(r=1, starts=8))
        assert w is not None
        assert abs(w.parameters[0]) < 1e-8

    def test_two_point_instance_recovers_the_computing_set(self):
        inst = generate_instance(InstanceSpec("e4_i", 6, 2, seed=7))
        P = project(inst.form)
        w = xrank_upper_search(P, SearchConfig(r=2, starts=24))
        assert w is not None
        pts = inst.scheme.rational_points()
        truth = sorted(float(p.b / p.a) for p, _ in pts)
        assert len(w.parameters) == 2
        for found, expect in zip(w.parameters, truth):
            assert abs(found - expect) < 1e-8
        # numeric success never undercuts the exact value
        assert x_rank(P).value <= 2

    def test_below_true_rank_finds_nothing(self):
        inst = generate_instance(InstanceSpec("e4_i", 6, 2, seed=7))
        P = project(inst.form)
        assert xrank_upper_search(P, SearchConfig(r=1, starts=12)) is None

    def test_reproducible_bitwise(self):
        inst = generate_instance(InstanceSpec("e4_i", 7, 3, seed=1))
        P = project(inst.form)
        cfg = SearchConfig(r=3, starts=16, seed=5)
        a = xrank_upper_search(P, cfg)
        b = xrank_upper_search(P, cfg)
        assert a is not None and b is not None
        assert a.parameters == b.parameters
        assert a.residual == b.residual

    def test_cardinality_bounds(self):
        P = cusp_curve_point(5, P1Point(F(1), F(2)))
        with pytest.raises(ValueError):
            xrank_upper_search(P, SearchConfig(r=6))

    def test_eleventh_powers_at_five_points(self):
        """The projection of sum s (u + tau t)^11 over five points: the
        damped polish once stalled above the tolerance on every seed."""
        taus = [5, 7, 8, 10, 11]
        scalars = [-9, -2, 3, 7, -2]
        a = [sum(s * F(t) ** i for t, s in zip(taus, scalars)) for i in range(12)]
        P = ProjectedPoint(10, tuple([a[0]] + a[2:]))
        for seed in range(4):
            w = xrank_upper_search(P, SearchConfig(r=5, seed=seed))
            assert w is not None, seed
            assert all(abs(x - t) < 1e-8 for x, t in zip(w.parameters, taus)), seed

    def test_witness_json(self):
        P = cusp_curve_point(5, P1Point(F(1), F(1)))
        w = xrank_upper_search(P, SearchConfig(r=1, starts=6))
        blob = w.to_json()
        assert blob["r"] == 1
        assert blob["matched"]["n"] == 5


class TestVariableProjectionFit:
    """The polish's fixed-point analytic fit, read back as mpf, against the
    normal-equation residual and the forward-difference Jacobian it
    replaced, at 192 bits."""

    BITS = 192
    SCALE = BITS + GUARD_BITS

    @classmethod
    def _fixed(cls, xs):
        return [int(mpmath.floor(mpmath.ldexp(x, cls.SCALE))) for x in xs]

    @classmethod
    def _mpf(cls, xs):
        return [mpmath.ldexp(x, -cls.SCALE) for x in xs]

    @staticmethod
    def _cases(rng):
        for n in range(3, 11):
            for r in range(1, min(5, n) + 1):
                while True:
                    taus = sorted(rng.uniform(-3.0, 3.0) for _ in range(r))
                    if all(b - a > 0.25 for a, b in zip(taus, taus[1:])):
                        break
                if (n + r) % 4 == 0:
                    taus[0] = 0.0  # the cusp
                yield n, [mpmath.mpf(t) for t in taus]

    @staticmethod
    def _rel_err(got, want, floor=0):
        diff = mpmath.sqrt(mpmath.fsum((a - b) ** 2 for a, b in zip(got, want)))
        return diff / max(mpmath.sqrt(mpmath.fsum(b * b for b in want)), floor)

    def test_residual_matches_normal_equations(self):
        rng = random.Random("vp-fit-residual")
        with mpmath.workprec(self.BITS):
            for n, taus in self._cases(rng):
                slots = _slots(n)
                v = [mpmath.mpf(rng.gauss(0.0, 1.0)) for _ in slots]
                res, _ = _fit(self._fixed(taus), self._fixed(v), slots, self.BITS)
                want = mp_residual(taus, v, slots)
                assert self._rel_err(self._mpf(res), want) < 2.0**-50, (n, taus)

    def test_jacobian_matches_finite_differences(self):
        """At a point in the span the residual vanishes, and there the
        Kaufman columns -c_i (I - P_A) a_i' are the exact Jacobian.  The
        curve's tangent vanishes at the cusp, and so does its column, so
        errors are relative to the column or to |v| = 1, whichever is
        larger."""
        rng = random.Random("vp-fit-jacobian")
        with mpmath.workprec(self.BITS):
            for n, taus in self._cases(rng):
                slots = _slots(n)
                v = [mpmath.mpf(0)] * len(slots)
                for t in taus:
                    c = rng.choice([-1, 1]) * rng.uniform(0.25, 2.0)
                    v = [x + c * t**k for x, k in zip(v, slots)]
                norm = mpmath.sqrt(mpmath.fsum(x * x for x in v))
                v = [x / norm for x in v]
                jac = _fit(self._fixed(taus), self._fixed(v), slots, self.BITS)[1]()
                fd = fd_jacobian(taus, v, slots, self.BITS)
                for i, (got, want) in enumerate(zip(jac, fd)):
                    assert self._rel_err(self._mpf(got), want, 1) < 2.0**-50, (n, taus, i)


def _power_sum_point(n, taus, scalars) -> ProjectedPoint:
    """The projection of sum s (u + tau t)^(n+1): the apolar coordinates
    are sum s tau^i, and projecting deletes slot 1."""
    a = [sum(s * F(t) ** i for t, s in zip(taus, scalars)) for i in range(n + 2)]
    return ProjectedPoint(n, tuple([a[0]] + a[2:]))


class TestFixedPointPolish:
    """The fixed-point polish against the mpmath polish it replaced
    (oracles.mp_polish), and its degenerate starts."""

    @staticmethod
    def _handovers(monkeypatch):
        """The float hand-over of each witness the search finds, on four
        seeded points of every cell (n, k) of the benchmark's search grid
        and on the eleventh powers at five points."""
        rng = random.Random("polish-equivalence")
        cases = []
        for n in range(5, 11):
            for k in range(2, n // 2 + 1):
                for _ in range(4):
                    taus = rng.sample([t for t in range(-12, 13) if t], k)
                    scalars = [rng.choice([-1, 1]) * rng.randint(1, 9) for _ in taus]
                    cases.append((n, taus, scalars))
        cases.append((10, [5, 7, 8, 10, 11], [-9, -2, 3, 7, -2]))
        calls = []

        def recording(P, taus0, bits, tol):
            calls.append([float(t) for t in taus0])
            return polish(P, taus0, bits, tol)

        polish = oracle._polish
        monkeypatch.setattr(oracle, "_polish", recording)
        out = []
        for n, taus, scalars in cases:
            P = _power_sum_point(n, taus, scalars)
            assert xrank_upper_search(P, SearchConfig(r=len(taus))) is not None, P
            out.append((P, calls[-1]))  # the search returns its last polish
        monkeypatch.undo()
        return out

    def test_same_parameters_as_the_mpmath_polish(self, monkeypatch):
        """From the same hand-over both polishes return the same float
        parameters, bit for bit, and residuals below the tolerance that
        agree to within 2^-(bits-16), at 128, 192 and 256 bits."""
        handovers = self._handovers(monkeypatch)
        assert len(handovers) >= 60
        for bits in (128, 192, 256):
            tol = SearchConfig(r=1, precision_bits=bits).tolerance
            for P, taus0 in handovers:
                got, want = _polish(P, taus0, bits, tol), mp_polish(P, taus0, bits, tol)
                assert got[0] == want[0], (bits, P, taus0)
                assert got[1] < tol and want[1] < tol, (bits, P, taus0)
                assert abs(got[1] - want[1]) < 2.0 ** -(bits - 16), (bits, P, taus0)

    # (n, taus, scalars, start, bits): the point of sum s (u + tau t)^(n+1)
    # and a start up to 20% off its parameters, on which the undamped
    # Gauss-Newton step fails
    DAMPED = [
        (8, [-12, -5, 4, -7], [6, -5, -4, 1], [-13.322788, -5.179179, 4.30794, -6.392279], 192),
        (8, [1, -8, -7, -2], [-7, 1, 8, -1], [0.964792, -7.456576, -6.964024, -1.918177], 192),
        (9, [12, -10, 11], [-1, -2, -9], [12.754453, -10.316892, 13.185254], 192),
        (8, [5, -9, -11], [3, -8, -6], [5.202252, -9.505927, -10.193824], 256),
        (10, [5, 8, 12], [9, 3, 6], [5.381729, 7.461013, 10.99223], 192),
        (6, [-12, 4, -10], [-5, -3, 3], [-11.453566, 3.900993, -9.538389], 128),
        (7, [-12, -9, 6], [3, 9, 5], [-11.003283, -9.267051, 5.456422], 256),
        (8, [9, -5, 1, 11], [-7, 2, -9, -3], [8.843391, -5.091074, 0.982367, 11.178113], 192),
        (10, [10, 3, 4], [-4, -5, 7], [10.037312, 3.00271, 4.04766], 128),
        (9, [12, -3, 8, -12], [4, 4, -4, 1], [10.909037, -3.408375, 7.916004, -13.029169], 256),
        (5, [-8, -6], [-6, -8], [-9.473833, -6.325812], 256),
        (7, [11, -7, 5], [-1, -5, -7], [10.584472, -7.578137, 5.909022], 128),
        (7, [11, -12, -4], [3, 8, 5], [11.942059, -11.811201, -3.693102], 128),
        (6, [4, 5], [1, 4], [4.448875, 4.578442], 128),
        (10, [1, -8, 9, 7], [2, -7, -5, -5], [1.158292, -8.72543, 9.751466, 7.004711], 128),
    ]

    def test_damped_fallback_matches_the_mpmath_polish(self, monkeypatch):
        """From starts on which the undamped step fails, so that
        Levenberg-Marquardt damping takes over for one try or for dozens,
        the fixed-point polish returns the float parameters of the mpmath
        polish bit for bit and both converge: the two share the schedule
        of mu, divided by 10 after a damped success and multiplied by 100
        after a failure.  The damped tries are counted in the mpmath
        polish, where each solves with the gradient of the try before it."""
        solve = mpmath.lu_solve
        counts = []
        for n, taus, scalars, start, bits in self.DAMPED:
            P = _power_sum_point(n, taus, scalars)
            tol = SearchConfig(r=1, precision_bits=bits).tolerance
            rhs = []
            monkeypatch.setattr(mpmath, "lu_solve", lambda A, b: rhs.append(b) or solve(A, b))
            want = mp_polish(P, start, bits, tol)
            monkeypatch.undo()
            counts.append(sum(x is y for x, y in zip(rhs, rhs[1:])))
            got = _polish(P, start, bits, tol)
            assert got[0] == want[0], (n, taus, start, bits)
            assert got[1] < tol and want[1] < tol, (n, taus, start, bits)
        assert min(counts) >= 1 and max(counts) >= 40, counts

    def test_coincident_starts_give_none(self):
        """Two equal starting parameters make the Gram matrix singular."""
        P = _power_sum_point(6, [1, 3, -2], [2, -1, 5])
        for bits in (128, 192, 256):
            tol = SearchConfig(r=1, precision_bits=bits).tolerance
            for taus0 in ([1.5, 1.5], [0.0, 0.0, 2.0], [-1.25, 3.0, -1.25]):
                assert _polish(P, taus0, bits, tol) is None, (bits, taus0)
                assert mp_polish(P, taus0, bits, tol) is None, (bits, taus0)

    @staticmethod
    def _matrices(bits):
        """Exact matrices on both sides of LU_decomp's singularity rule at
        bits: exactly singular ones, and near-singular ones 8 bits beyond
        or short of the threshold."""
        tiny, small = F(1, 2 ** (bits + 8)), F(1, 2 ** (bits - 8))
        rng = random.Random(f"lu-matrices:{bits}")
        yield [[0]]
        yield [[0, 0], [0, 0]]
        yield [[1, 2], [2, 4]]
        yield [[1, 2, 3], [2, 4, 6], [1, 1, 1]]
        for eps in (tiny, small):
            yield [[1, 0], [0, eps]]
            yield [[1, 1], [1, 1 + eps]]
            yield [[1, 0], [eps, eps]]
            yield [[eps, 1], [eps, 2]]
            yield [[2, 1, 0], [1, 2, 1], [1, 2, 1 + eps]]
        for size in range(1, 6):
            yield [[F(rng.randint(-9, 9), rng.randint(1, 9)) + (size + 9) * (i == j)
                    for j in range(size)] for i in range(size)]

    def test_singular_matrices_raise_where_lu_decomp_does(self):
        raised = set()
        for bits in (64, 128, 192):
            one = 1 << (bits + GUARD_BITS)
            for M in self._matrices(bits):
                with mpmath.workprec(bits):
                    A = mpmath.matrix([[mpmath.mpf(x.numerator) / x.denominator
                                        for x in map(F, row)] for row in M])
                    try:
                        mpmath.mp.LU_decomp(A)
                        want = False
                    except ZeroDivisionError:
                        want = True
                try:
                    _lu_solver([[int(F(x) * one) for x in row] for row in M], bits)
                    got = False
                except ZeroDivisionError:
                    got = True
                assert got == want, (bits, M)
                raised.add(got)
        assert raised == {False, True}

    def test_singular_raise_survives_python_O(self):
        """The singularity rule is an explicit raise, not an assert."""
        child = textwrap.dedent(
            """
            import sys
            from fractions import Fraction
            from cuspidal import oracle
            from cuspidal.projection import ProjectedPoint

            if __debug__:
                sys.exit("not running under -O")
            one = 1 << (96 + oracle.GUARD_BITS)
            try:
                oracle._lu_solver([[one, 2 * one], [2 * one, 4 * one]], 96)
            except ZeroDivisionError:
                pass
            else:
                sys.exit("a singular matrix went unnoticed")
            P = ProjectedPoint(5, tuple(Fraction(c) for c in (3, 1, -2, 1, 5, 1)))
            if oracle._polish(P, [0.5, 0.5], 96, 2.0 ** -48) is not None:
                sys.exit("coincident starts went unnoticed")
            """
        )
        _run_optimized(child)


class TestSecantProbe:
    def test_curve_itself(self):
        for n in (3, 5, 8):
            assert secant_dimension_probe(1, n, seed=0) == 1

    def test_chord_variety_of_quintic_curve(self):
        assert secant_dimension_probe(2, 5, seed=0) == 3

    def test_filling_secant(self):
        assert secant_dimension_probe(3, 4, seed=0) == 4

    def test_expected_dimension_small_grid(self):
        for n in range(3, 7):
            for s in range(1, (n + 2) // 2 + 1):
                for seed in range(2):
                    got = secant_dimension_probe(s, n, seed=seed)
                    assert got == min(n, 2 * s - 1), (n, s, seed)

    def test_expected_dimension_where_floats_lose_rank(self):
        """At n >= 13 the Jacobian's entries reach 60^n and a float SVD cut at
        eps * sigma_0 drops rank; the exact rank does not."""
        for n in range(13, 17):
            for s in range(1, (n + 2) // 2 + 1):
                assert secant_dimension_probe(s, n, seed=0) == min(n, 2 * s - 1), (n, s)

    def test_modular_rank_matches_bareiss(self, monkeypatch):
        """The rank modulo one prime gives the dimension that Bareiss over Q
        (``linalg.rank``, the route taken when the modular rank falls short)
        gives on every (s, n) with n <= 16, at seeds 0-2."""
        got = {(s, n, seed): secant_dimension_probe(s, n, seed=seed)
               for n in range(1, 17) for s in range(1, n + 1) for seed in range(3)}
        monkeypatch.setattr(linalg, "rank_mod", lambda rows: -1)
        for (s, n, seed), dim in got.items():
            assert dim == secant_dimension_probe(s, n, seed=seed) == min(n, 2 * s - 1)

    def test_rank_that_drops_modulo_the_prime_falls_back(self, monkeypatch):
        """With the first Jacobian row scaled by the prime, the rank modulo
        the prime falls one short of the bound, so the probe ranks the
        Jacobian over Q and still gives the expected dimension."""
        real_mod, real_rank, ranked = linalg.rank_mod, linalg.rank, []

        def scaled_mod(rows):
            return real_mod([[c * linalg._PRIME for c in rows[0]]] + rows[1:])

        def counted_rank(rows):
            ranked.append(len(rows))
            return real_rank(rows)

        monkeypatch.setattr(linalg, "rank_mod", scaled_mod)
        monkeypatch.setattr(linalg, "rank", counted_rank)
        assert secant_dimension_probe(3, 7, seed=0) == 5
        assert ranked == [6]

    def test_degree_limit(self):
        with pytest.raises(GrammarError, match="degree 301 above the limit 128"):
            secant_dimension_probe(2, 300)

    def test_bad_cardinality(self):
        with pytest.raises(ValueError):
            secant_dimension_probe(0, 5)
        with pytest.raises(ValueError):
            secant_dimension_probe(6, 5)


class TestDichotomyFuzz:
    def test_degree_six_clean(self):
        report = dichotomy_fuzz(6, 300, seed=1)
        assert report["violations"] == 0
        assert sum(report["rank_counts"].values()) == 300

    def test_degree_two_ranks_capped(self):
        report = dichotomy_fuzz(2, 300, seed=2)
        assert set(report["rank_counts"]) <= {"1", "2"}

    def test_cubic_monomial_corner(self):
        from cuspidal.apolarity import rank as sylvester_rank

        cert = sylvester_rank(BinaryForm(3, (F(0), F(1), F(0), F(0))))
        assert cert.rank == 3 and cert.border_rank == 2

    def test_degree_floor(self):
        with pytest.raises(ValueError):
            dichotomy_fuzz(1, 10)

    def test_degree_limit(self):
        with pytest.raises(GrammarError, match="degree 400 above the limit 128"):
            dichotomy_fuzz(400, 10)

    @pytest.mark.parametrize("samples", [0, -5])
    def test_sample_floor(self, samples):
        with pytest.raises(ValueError, match=f"at least 1 sample, got {samples}"):
            dichotomy_fuzz(4, samples)
