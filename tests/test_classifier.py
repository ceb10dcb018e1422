"""Case classification, instance generation, and the crosscheck loop."""

import collections
import dataclasses
import random
from fractions import Fraction

import pytest

from cuspidal import apolarity, binform, classifier, linalg, projection, ratfactor
from cuspidal.apolarity import CertificateError
from cuspidal.binform import (
    POINT_A,
    BinaryForm,
    P1Point,
    ZeroFormError,
    ZeroScheme,
    apolar_coeffs,
)
from cuspidal.classifier import (
    CASES,
    ClassifierError,
    GeneratedInstance,
    InstanceSpec,
    SchemeDegreeError,
    SpanCriterionDisagreement,
    classify,
    classify_e3,
    classify_e4,
    crosscheck,
    generate_instance,
    o_in_span,
    span_center_routes,
)
from cuspidal.projection import ProjectionFrame, cusp_curve_point, lift, project, x_rank
from oracles import (
    classify_by_factoring,
    dense_contract,
    evaluation_multiplicity,
    in_span,
    multiplicity_at,
    product_form_center_routes,
    remove_point,
    scheme_span_basis,
    span_matrix,
    sympy_factors,
)
from test_acceptance import _random_scheme as c09_scheme
from test_classifier_digests import seeded_forms
from test_corpus import corpus_forms

F = Fraction


def form_from_avec(d, avec):
    from math import comb

    return BinaryForm(d, tuple(F(avec[i]) * comb(d, i) for i in range(d + 1)))


def scheme_of(pairs):
    return ZeroScheme(tuple((p.linear_form(), m) for p, m in pairs))


def pt(tau):
    return P1Point(F(1), F(tau))


class TestSpans:
    def test_single_point_span_is_its_power_vector(self):
        W = scheme_of([(pt(2), 1)])
        basis = scheme_span_basis(W, 4)
        assert len(basis) == 1
        vec = basis[0]
        expect = [F(2) ** i for i in range(5)]
        ratios = {vec[i] / expect[i] for i in range(5)}
        assert len(ratios) == 1

    def test_double_cusp_preimage_spans_first_two_slots(self):
        W = scheme_of([(POINT_A, 2)])
        basis = scheme_span_basis(W, 4)
        assert len(basis) == 2
        for vec in basis:
            assert all(vec[i] == 0 for i in range(2, 5))

    def test_double_point_span_contains_tangent_direction(self):
        W = scheme_of([(pt(1), 2)])
        basis = scheme_span_basis(W, 4)
        assert len(basis) == 2
        assert in_span(basis, tuple(F(x) for x in (1, 1, 1, 1, 1)))
        assert in_span(basis, tuple(F(x) for x in (0, 1, 2, 3, 4)))
        assert not in_span(basis, tuple(F(x) for x in (0, 1, 0, 0, 0)))

    def test_full_degree_scheme_spans_everything(self):
        W = scheme_of([(pt(k), 1) for k in (1, 2, 3, 4)] + [(POINT_A, 1)])
        assert W.degree == 5
        basis = scheme_span_basis(W, 4)
        assert len(basis) == 5

    def test_degree_beyond_independence_regime_rejected(self):
        W = scheme_of([(pt(k), 1) for k in range(1, 7)])
        with pytest.raises(SchemeDegreeError):
            scheme_span_basis(W, 4)

    def test_span_matrix_rejects_oversized_divisor(self):
        h = scheme_of([(pt(k), 1) for k in (1, 2, 3, 4, 5)]).product_form()
        with pytest.raises(SchemeDegreeError):
            span_matrix(h, 4)

    def test_empty_scheme_spans_nothing(self):
        assert scheme_span_basis(ZeroScheme(()), 4) == []


class TestOInSpan:
    def test_double_cusp_preimage_contains_center(self):
        frame = ProjectionFrame(3)
        assert o_in_span(scheme_of([(POINT_A, 2)]), frame) is True

    def test_simple_cusp_preimage_plus_point_misses_center(self):
        frame = ProjectionFrame(3)
        W = scheme_of([(POINT_A, 1), (pt(1), 1)])
        assert o_in_span(W, frame) is False

    def test_three_distinct_points_miss_center(self):
        frame = ProjectionFrame(3)
        W = scheme_of([(pt(1), 1), (pt(2), 1), (pt(3), 1)])
        assert o_in_span(W, frame) is False

    def test_double_point_off_cusp_misses_center(self):
        frame = ProjectionFrame(3)
        assert o_in_span(scheme_of([(pt(1), 2)]), frame) is False

    def test_degree_above_regime_rejected(self):
        frame = ProjectionFrame(3)
        W = scheme_of([(pt(k), 1) for k in range(1, 7)])
        with pytest.raises(SchemeDegreeError):
            o_in_span(W, frame)

    def test_routes_agree_on_random_schemes_within_theorem_domain(self):
        import random

        rng = random.Random("o-span-agreement")
        for n in range(3, 9):
            frame = ProjectionFrame(n)
            for _ in range(40):
                deg = rng.randint(1, n)
                pairs = []
                left = deg
                while left:
                    m = rng.randint(1, left)
                    tau = rng.randint(-6, 6)
                    p = POINT_A if tau == 6 else pt(tau)
                    if any(p == q for q, _ in pairs):
                        continue
                    pairs.append((p, m))
                    left -= m
                W = scheme_of(pairs)
                by_span, by_mult = span_center_routes(W, frame)
                assert by_span == by_mult

    def test_routes_part_ways_at_degree_n_plus_1(self):
        # four points with tau summing to zero span a hyperplane through
        # the center, yet none of them is the cusp preimage
        frame = ProjectionFrame(3)
        W = scheme_of([(pt(1), 1), (pt(-1), 1), (pt(2), 1), (pt(-2), 1)])
        by_span, by_mult = span_center_routes(W, frame)
        assert by_span is True and by_mult is False
        with pytest.raises(SpanCriterionDisagreement):
            o_in_span(W, frame)

    def test_routes_part_ways_at_degree_n_plus_2(self):
        # a reduced scheme of degree n+2 spans the whole space
        frame = ProjectionFrame(3)
        W = scheme_of([(pt(k), 1) for k in (1, 2, 3, 4, 5)])
        by_span, by_mult = span_center_routes(W, frame)
        assert by_span is True and by_mult is False


def test_contraction_matches_the_dense_rows():
    """``_contract`` sums over the nonzero entries of vec alone.  On seeded
    h of degree 1..n+2, with and without t | h, and on dense, sparse and
    center vectors, it gives the rows of the dense oracle, none when
    deg h = len(vec)."""
    rng = random.Random("contract")
    kinds = collections.Counter()
    for n in range(3, 11):
        d = n + 1
        for _ in range(60):
            deg = rng.randint(1, n + 2)
            cs = [F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(deg + 1)]
            cs[-1] = cs[-1] or F(1)
            lead = min(rng.choice((0, 0, 1, 2)), deg)
            cs[:lead] = [0] * lead
            h = BinaryForm(deg, tuple(cs))
            dense = [F(rng.randint(1, 9), rng.randint(1, 4)) * rng.choice((-1, 1))
                     for _ in range(d + 1)]
            sparse = [rng.randint(-5, 5) if rng.random() < 0.3 else 0 for _ in range(d + 1)]
            for kind, vec in (("dense", dense), ("sparse", sparse),
                              ("center", [int(i == 1) for i in range(d + 1)])):
                got = classifier._contract(h, vec)
                assert got == dense_contract(h, vec), (h, vec)
                kinds[kind, h.coeffs[0] == 0, deg == d + 1] += 1
    assert len(kinds) == 12 and min(kinds.values()) >= 5, kinds


def test_osculating_vectors_give_the_kernel_basis(monkeypatch):
    """Every scheme whose span ``_recipe`` builds while generating seeds
    0..5 of every admitted (tag, n, level), n = 3..10, has the kernel basis
    of the contraction by its product form (oracles.scheme_span_basis) as
    the free-column basis of its osculating vectors: W for e3 cases, W - 2A
    for e3_3_wminus2, and W for e4 cases, whose power vectors they are."""
    drawn = []
    osculating = classifier._osculating
    monkeypatch.setattr(classifier, "_osculating",
                        lambda pairs, d: drawn.append((pairs, d)) or osculating(pairs, d))
    for tag, case in CASES.items():
        if case.band is None:
            continue
        for n in range(3, 11):
            for level in range(1, n + 3):
                if case.band(n, level):
                    for seed in range(6):
                        generate_instance(InstanceSpec(tag, n, level, seed))
    seen = collections.Counter()
    for pairs, d in drawn:
        vectors = osculating(pairs, d)
        W = scheme_of(pairs)
        assert linalg.free_column_basis(vectors) == scheme_span_basis(W, d), (pairs, d)
        if W.is_reduced():
            assert vectors == [[p.tau**i for i in range(d + 1)] for p, _ in pairs], (pairs, d)
        seen[multiplicity_at(W, POINT_A), W.is_reduced()] += 1
    assert len(drawn) >= 600, len(drawn)
    assert set(seen) == {(0, True), (0, False), (1, False), (2, False), (3, False)}, seen


def test_generation_runs_no_kernel_elimination():
    """Generation builds every span from the points it draws: each tag, at
    every admitted level of n = 7, lands on its tag.  The package has no
    kernel elimination left to run
    (``test_source_rules.py::test_no_code_names_nullspace_or_bareiss``)."""
    tags = set()
    for tag, case in CASES.items():
        if case.band is not None:
            for level in range(1, 10):
                if case.band(7, level):
                    assert generate_instance(InstanceSpec(tag, 7, level)).truth.case_tag == tag
                    tags.add(tag)
    assert len(tags) == 10


def _oracle_scheme(rng, deg):
    """Random scheme of degree deg: A with multiplicity 0..3, rational points
    (1:t) and (0:1) with multiplicities, and irreducible quadratics."""
    factors = []
    m_a = min(deg, rng.choice((0, 0, 1, 2, 3)))
    if m_a:
        factors.append((POINT_A.linear_form(), m_a))
    left = deg - m_a
    used = set()
    while left:
        if left >= 2 and rng.random() < 0.15:
            b, c = rng.randint(-3, 3), rng.randint(1, 5)
            if b * b < 4 * c:
                factors.append((BinaryForm(2, (F(1), F(b), F(c))), 1))
                left -= 2
                continue
        p = P1Point(F(0), F(1)) if rng.random() < 0.05 else pt(rng.randint(-12, 12))
        if p == POINT_A or p in used:
            continue
        used.add(p)
        m = min(left, rng.choice((1, 1, 1, 2, 3)))
        factors.append((p.linear_form(), m))
        left -= m
    return ZeroScheme(tuple(factors))


def _combination(rng, basis, d):
    coeffs = [rng.randint(-5, 5) for _ in basis]
    return [sum(c * v[i] for c, v in zip(coeffs, basis)) for i in range(d + 1)]


def test_contraction_matches_the_elimination_oracle():
    """Every span decision of the classifier against oracles.in_span over
    scheme_span_basis, on targets inside and outside: membership in <W>,
    the center route, and membership in <W> + O."""
    rng = random.Random("contraction-vs-elimination")
    seen = collections.Counter()
    for n in range(3, 11):
        d = n + 1
        frame = ProjectionFrame(n)
        center = [int(i == 1) for i in range(d + 1)]
        for deg in range(n + 3):
            for i in range(27):
                W = _oracle_scheme(rng, deg)
                h = W.product_form()
                basis = scheme_span_basis(W, d)
                want = in_span(basis, center)
                assert span_center_routes(W, frame)[0] == want, (n, W)
                seen["center", want] += 1
                inside = _combination(rng, basis, d)
                noise = [F(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(d + 1)]
                outside = [a + b for a, b in zip(inside, noise)]
                for v in (inside, outside):
                    want = in_span(basis, v)
                    assert (not any(classifier._contract(h, v))) == want, (n, W, v)
                    seen["span", want] += 1
                if multiplicity_at(W, POINT_A) == 0 and 1 <= deg <= n:
                    k = rng.choice((-2, 3))
                    for v in (outside, [a + k * c for a, c in zip(inside, center)]):
                        want = in_span(basis + [center], v)
                        assert classifier._in_center_extended_span(h, v) == want, (n, W, v)
                        seen["extended", want] += 1
    kinds = ("center", "span", "extended")
    assert all(seen[kind, ans] >= 100 for kind in kinds for ans in (True, False)), seen


class TestClassifyNoGap:
    def test_two_powers_low_degree_regime(self):
        # n=6, two distinct simple points: exact value 2, unique witness
        d = 7
        avec = [F(1) + F(-1) ** i for i in range(d + 1)]
        M = form_from_avec(d, avec)
        v = classify_e4(M)
        assert v.case_tag == "e4_i"
        assert (v.lo, v.hi) == (2, 2)
        assert v.exact and v.prediction == 2
        assert v.witness_scheme == scheme_of([(pt(1), 1), (pt(-1), 1)])
        assert v.witness_points == (
            cusp_curve_point(6, pt(-1)),
            cusp_curve_point(6, pt(1)),
        )
        assert any("unique" in note for note in v.notes)

    def test_interval_band(self):
        # n=7, four points: 2*4 = n+1, value pinned to {3, 4}
        inst = generate_instance(InstanceSpec("e4_ii", 7, 4, seed=1))
        v = inst.truth
        assert v.case_tag == "e4_ii"
        assert (v.lo, v.hi) == (3, 4)
        assert not v.exact and v.prediction == [3, 4]

    def test_generic_only_band(self):
        # n=7, five points: 2*5 = n+3, generic value 4
        inst = generate_instance(InstanceSpec("e4_iii", 7, 5, seed=0))
        v = inst.truth
        assert v.case_tag == "e4_iii"
        assert (v.lo, v.hi) == (4, 4)
        assert any("generic" in note for note in v.notes)

    def test_rejects_border_gap_input(self):
        B = form_from_avec(8, [1, 1, 1, 0, 0, 0, 0, 0, 0])
        with pytest.raises(ClassifierError):
            classify_e4(B)

    def test_rejects_pure_power(self):
        M = form_from_avec(7, [1] * 8)
        with pytest.raises(ClassifierError):
            classify_e4(M)

    def test_rejects_center(self):
        avec = [0] * 8
        avec[1] = 1
        with pytest.raises(ClassifierError):
            classify_e4(form_from_avec(7, avec))

    def test_rejects_small_degree(self):
        with pytest.raises(ClassifierError):
            classify_e4(BinaryForm(3, (F(1), F(0), F(0), F(1))))

    def test_rejects_zero(self):
        with pytest.raises(ZeroFormError):
            classify_e4(BinaryForm(7, (F(0),) * 8))


class TestClassifyGap:
    def test_bad_gap_certificate_raises(self, monkeypatch):
        # a border-gap certificate claiming a two-dimensional kernel
        real = classifier.sylvester_rank
        monkeypatch.setattr(
            classifier,
            "sylvester_rank",
            lambda f: dataclasses.replace(real(f), kernel_dimension=2),
        )
        with pytest.raises(CertificateError):
            classify_e3(form_from_avec(8, [1, 1, 1, 0, 0, 0, 0, 0, 0]))

    def test_triple_cusp_preimage(self):
        # n=7, w=3, scheme 3A: value n+3-w = 7
        B = form_from_avec(8, [1, 1, 1, 0, 0, 0, 0, 0, 0])
        v = classify_e3(B)
        assert v.case_tag == "e3_2"
        assert v.prediction == 7
        assert v.inputs["mult_A"] == 3

    def test_double_cusp_preimage_alone(self):
        B = form_from_avec(8, [1, 1, 0, 0, 0, 0, 0, 0, 0])
        v = classify_e3(B)
        assert v.case_tag == "e3_3_cusp"
        assert v.prediction == 1
        assert v.witness_points == (cusp_curve_point(7, POINT_A),)

    def test_membership_subcase_drops_two(self):
        # n=7, w=4, W = 2A + (1:1) + (1:-1), B inside the center-extended
        # span of the reduced residual: value w-2 = 2
        B = form_from_avec(8, [2, 1, 2, 0, 2, 0, 2, 0, 2])
        v = classify_e3(B)
        assert v.case_tag == "e3_3_wminus2"
        assert v.prediction == 2
        assert v.witness_scheme == scheme_of([(pt(1), 1), (pt(-1), 1)])
        assert v.witness_points == (
            cusp_curve_point(7, pt(-1)),
            cusp_curve_point(7, pt(1)),
        )

    def test_membership_subcase_drops_one(self):
        # same scheme, B outside that span: value w-1 = 3
        B = form_from_avec(8, [3, 1, 2, 0, 2, 0, 2, 0, 2])
        v = classify_e3(B)
        assert v.case_tag == "e3_3_wminus1"
        assert v.prediction == 3
        assert v.witness_scheme == scheme_of(
            [(POINT_A, 1), (pt(1), 1), (pt(-1), 1)]
        )
        assert v.witness_points == (
            cusp_curve_point(7, pt(-1)),
            cusp_curve_point(7, POINT_A),
            cusp_curve_point(7, pt(1)),
        )

    def test_simple_cusp_preimage_band(self):
        # n=8, w=4, multiplicity 1 at the cusp preimage: value n+2-w = 6
        inst = generate_instance(InstanceSpec("e3_5", 8, 4, seed=0))
        v = inst.truth
        assert v.case_tag == "e3_5"
        assert v.prediction == 6
        assert v.inputs["mult_A"] == 1

    def test_missing_cusp_preimage_exact_band(self):
        # n=9, w=4, 2w <= n-1: value n+1-w = 6
        inst = generate_instance(InstanceSpec("e3_4_exact", 9, 4, seed=0))
        v = inst.truth
        assert v.case_tag == "e3_4_exact"
        assert v.prediction == 6
        assert v.inputs["mult_A"] == 0

    def test_missing_cusp_preimage_interval_band(self):
        # n=8, w=4, 2w = n: value in [n+1-w, n+3-w] = [5, 7]
        inst = generate_instance(InstanceSpec("e3_4_interval", 8, 4, seed=0))
        v = inst.truth
        assert v.case_tag == "e3_4_interval"
        assert (v.lo, v.hi) == (5, 7)

    def test_double_cusp_preimage_with_nonreduced_residual(self):
        # W = 2A + 2Q needs the multiplicity-2 branch, not the membership one
        inst = generate_instance(InstanceSpec("e3_2", 8, 4, seed=3))
        v = inst.truth
        assert v.case_tag == "e3_2"
        assert v.prediction == 8 + 3 - 4

    def test_out_of_scope_band_reported_not_raised(self):
        # n=6, w=4, no cusp preimage: 2w = n+2 exceeds the m=0 clauses
        import random

        from cuspidal.apolarity import rank as sylvester_rank

        rng = random.Random("oos-construct")
        W = scheme_of([(pt(1), 2), (pt(2), 1), (pt(3), 1)])
        basis = scheme_span_basis(W, 7)
        found = None
        for _ in range(60):
            coeffs = [F(rng.randint(1, 9)) for _ in basis]
            avec = [
                sum(c * v[i] for c, v in zip(coeffs, basis))
                for i in range(8)
            ]
            B = form_from_avec(7, avec)
            if B.is_zero():
                continue
            cert = sylvester_rank(B)
            if cert.border_rank != 4 or cert.witness_scheme != W:
                continue
            found = B
            break
        assert found is not None
        v = classify_e3(found)
        assert v.case_tag == "out_of_scope"
        assert v.prediction is None and v.lo is None
        assert any("2w" in note for note in v.notes)

    def test_rejects_no_gap_input(self):
        M = form_from_avec(7, [F(1) + F(-1) ** i for i in range(8)])
        with pytest.raises(ClassifierError):
            classify_e3(M)

    def test_dispatch_picks_the_right_theorem(self):
        gap = form_from_avec(8, [1, 1, 1, 0, 0, 0, 0, 0, 0])
        nogap = form_from_avec(7, [F(1) + F(-1) ** i for i in range(8)])
        assert classify(gap).theorem == "e3"
        assert classify(nogap).theorem == "e4"

    def test_verdict_json_shape(self):
        v = classify_e3(form_from_avec(8, [2, 1, 2, 0, 2, 0, 2, 0, 2]))
        blob = v.to_json()
        assert blob["case"] == "e3_3_wminus2"
        assert blob["prediction"] == 2
        assert blob["witness"]["degree"] == 2
        assert len(blob["witness_points_on_X"]) == 2
        assert blob["inputs"]["w"] == 4


class TestGeneration:
    def test_deterministic(self):
        a = generate_instance(InstanceSpec("e3_2", 7, 3, seed=5))
        b = generate_instance(InstanceSpec("e3_2", 7, 3, seed=5))
        assert a.form == b.form and a.scheme == b.scheme

    def test_seeds_vary(self):
        a = generate_instance(InstanceSpec("e4_i", 8, 3, seed=0))
        b = generate_instance(InstanceSpec("e4_i", 8, 3, seed=1))
        assert a.form != b.form

    @pytest.mark.parametrize(
        "tag,n,level",
        [
            (tag, n, level)
            for tag, case in CASES.items()
            if case.band is not None
            for n in range(3, 11)
            for level in range(1, n + 4)
            if case.band(n, level)
        ],
    )
    def test_annotation_consistency(self, tag, n, level):
        inst = generate_instance(InstanceSpec(tag, n, level, seed=2))
        assert inst.truth.case_tag == tag
        assert inst.spec.n == n and inst.spec.level == level
        from cuspidal.apolarity import rank as sylvester_rank

        cert = sylvester_rank(inst.form)
        if tag.startswith("e4"):
            assert cert.rank == cert.border_rank == level
        else:
            assert cert.border_rank == level and cert.rank > level
            assert cert.witness_scheme == inst.scheme

    def test_no_instance_lies_in_a_smaller_span(self):
        """What the witness test guarantees, decided by elimination: B lies in
        no <W - p> for a point p of W, and no e3_3_wminus1 instance lies in
        <W - 2A> + O.  On every corpus instance, regenerated from its cell,
        and on seeds 0..2 of every admissible cell with n <= 8, wherever W
        has only rational points: every case but e4_iii."""
        corpus = dict(corpus_forms())
        specs = [
            InstanceSpec(tag, int(n), int(level), seed=int(seed))
            for tag, n, level, seed in (key.split("/") for key in corpus)
        ]
        specs += [
            InstanceSpec(tag, n, level, seed=seed)
            for tag, case in CASES.items()
            if case.band is not None
            for n in range(3, 9)
            for level in range(1, n + 4)
            if case.band(n, level)
            for seed in range(3)
        ]
        seen = collections.Counter()
        for spec in specs:
            inst = generate_instance(spec)
            key = f"{spec.case_tag}/{spec.n}/{spec.level}/{spec.seed}"
            assert corpus.get(key, inst.form) == inst.form, key
            W, d = inst.scheme, inst.form.degree
            points = W.rational_points()
            if points is None:
                continue
            a = apolar_coeffs(inst.form).entries
            for p, _ in points:
                assert not in_span(scheme_span_basis(remove_point(W, p, 1), d), a), (key, p)
            if spec.case_tag == "e3_3_wminus1":
                center = [int(i == 1) for i in range(d + 1)]
                residual = scheme_span_basis(remove_point(W, POINT_A, 2), d)
                assert not in_span(residual + [center], a), key
            seen[spec.case_tag] += 1
        # a random form's computing set (e4_iii) has only rational points by chance
        assert len(seen) == 9 and min(seen.values()) >= 70, seen

    def test_instance_json_roundtrippable(self):
        inst = generate_instance(InstanceSpec("e4_i", 6, 2, seed=0))
        blob = inst.to_json()
        assert blob["degree"] == 7
        rebuilt = BinaryForm(
            blob["degree"], tuple(F(c) for c in blob["coeffs"])
        )
        assert rebuilt == inst.form
        assert blob["truth"]["case"] == "e4_i"

    def test_spec_validation(self):
        with pytest.raises(ClassifierError):
            InstanceSpec("e4_iii", 6, 4)  # even n
        with pytest.raises(ClassifierError):
            InstanceSpec("e3_3_cusp", 7, 3)  # level must be 2
        with pytest.raises(ClassifierError):
            InstanceSpec("e4_i", 6, 4)  # 2*level > n
        with pytest.raises(ClassifierError):
            InstanceSpec("e3_5", 7, 4)  # 2w > n
        with pytest.raises(ClassifierError):
            InstanceSpec("e3_1_info", 7, 3)  # no recipe
        with pytest.raises(ClassifierError):
            InstanceSpec("bogus", 7, 3)
        with pytest.raises(binform.GrammarError, match="degree 141 above the limit 128"):
            InstanceSpec("e4_i", 140, 2)


class TestCrosscheck:
    def test_no_gap_low_regime_matches_with_witness(self):
        inst = generate_instance(InstanceSpec("e4_i", 6, 2, seed=4))
        report = crosscheck(inst.form)
        assert report["case"] == "e4_i"
        assert report["prediction"] == 2
        assert report["fiber_value"] == 2
        assert report["match"] is True
        assert report["witness_match"] is True
        assert report["fiber_complete"] is True

    def test_interval_case_containment(self):
        inst = generate_instance(InstanceSpec("e4_ii", 7, 4, seed=2))
        report = crosscheck(inst.form)
        assert report["case"] == "e4_ii"
        assert report["match"] is True
        assert 3 <= report["fiber_value"] <= 4

    def test_gap_cases_match_fiber_scan(self):
        for tag, n, level in [
            ("e3_2", 7, 3),
            ("e3_3_wminus1", 7, 4),
            ("e3_3_wminus2", 7, 4),
            ("e3_3_cusp", 7, 2),
            ("e3_5", 8, 4),
            ("e3_4_exact", 9, 4),
        ]:
            inst = generate_instance(InstanceSpec(tag, n, level, seed=6))
            report = crosscheck(inst.form)
            assert report["case"] == tag, (tag, report)
            assert report["match"] is True, (tag, report)
            assert report["o_span"]["agree"] is True

    def test_frozen_membership_pair_against_fiber(self):
        lo = crosscheck(form_from_avec(8, [2, 1, 2, 0, 2, 0, 2, 0, 2]))
        hi = crosscheck(form_from_avec(8, [3, 1, 2, 0, 2, 0, 2, 0, 2]))
        assert lo["case"] == "e3_3_wminus2" and lo["fiber_value"] == 2
        assert hi["case"] == "e3_3_wminus1" and hi["fiber_value"] == 3
        assert lo["match"] is True and hi["match"] is True

    def test_pure_power_reports_error_but_still_scans(self):
        M = form_from_avec(7, [1] * 8)
        report = crosscheck(M)
        assert "classifier_error" in report
        assert report["fiber_value"] == 1
        assert report["match"] is None

    def test_report_is_json_serializable(self):
        import json

        inst = generate_instance(InstanceSpec("e3_3_cusp", 6, 2, seed=0))
        report = crosscheck(inst.form)
        json.dumps(report)


# -- the shape read off the witness form ------------------------------------------


def _apolar_to(h, d, head):
    """Apolar coordinates of degree d annihilated by the form with monomial
    coefficients h, the first len(h) - 1 of them given by head."""
    a = [F(x) for x in head]
    while len(a) < d + 1:
        m = len(a) - (len(h) - 1)
        a.append(-sum(c * a[m + j] for j, c in enumerate(h[:-1])) / h[-1])
    return a


def _form_on(W, d, rng):
    """A form of degree d whose apolar vector is a random combination of a
    spanning set of <W>."""
    basis = scheme_span_basis(W, d)
    return form_from_avec(d, _combination(rng, basis, d))


def branch_forms():
    """(key, form) for seeded forms that reach every branch of the shape
    decision, out_of_scope and a reducible witness that does not split among
    them."""
    for tag, n, level in [
        ("e3_2", 7, 4), ("e3_2", 9, 5), ("e3_3_wminus1", 7, 4), ("e3_3_wminus2", 7, 4),
        ("e3_3_cusp", 6, 2), ("e3_4_exact", 9, 4), ("e3_4_interval", 8, 4), ("e3_5", 8, 4),
        ("e4_i", 6, 2), ("e4_ii", 7, 4), ("e4_iii", 5, 4),
    ]:
        for seed in range(4):
            yield f"{tag}/{n}/{level}/{seed}", generate_instance(InstanceSpec(tag, n, level, seed)).form
    rng = random.Random("branch-forms")
    for i in range(4):
        # m = 0 with 2w = n + 2 and m = 1 with 2w = n + 1: no band holds
        yield f"out_of_scope/m0/{i}", _form_on(scheme_of([(pt(1), 2), (pt(-2), 1), (pt(3), 1)]), 7, rng)
        yield f"out_of_scope/m1/{i}", _form_on(scheme_of([(POINT_A, 1), (pt(2), 2)]), 6, rng)
    # (u^2 + t^2)(u^2 + 2t^2): rho = 4 at n = 7, two irreducible quadratics
    yield "e4_ii/non-split", form_from_avec(8, _apolar_to((1, 0, 3, 0, 2), 8, (1, 2, -1, 5)))


def _branch(f, v) -> str:
    i = v.inputs
    if v.theorem == "e4":
        k, p = apolarity.rank(f).witness_form.tau_poly()
        factors = [(1, k)] * bool(k) + [(len(fac) - 1, e) for fac, e in sympy_factors(p)]
        split = all(deg == 1 for deg, _ in factors)
        return f"{v.case_tag}/{'split' if split else 'reducible' if len(factors) > 1 else 'irreducible'}"
    if v.case_tag in ("e3_2", "out_of_scope"):
        return f"{v.case_tag}/m{min(i['mult_A'], 3)}"
    return v.case_tag if "sigma_member" not in i else f"sigma/{i['sigma_member']}"


def _agrees_with_factoring(key, f):
    """classify(f) against oracles.classify_by_factoring(f): the verdict, or
    the error, field by field; the oracle's verdict, or None on an error."""
    try:
        want = classify_by_factoring(f)
    except (ValueError, ArithmeticError) as err:
        with pytest.raises(type(err)) as got:
            classify(f)
        assert str(got.value) == str(err), key
        return None
    got = classify(f)
    assert (got.theorem, got.case_tag, got.lo, got.hi) == (
        want.theorem, want.case_tag, want.lo, want.hi), key
    assert list(got.inputs.items()) == list(want.inputs.items()), key
    assert got.notes == want.notes and got.explain() == want.explain(), key
    assert got.witness_form == want.witness_form, key
    assert got.witness_scheme == want.witness_scheme, key
    assert got.witness_points == want.witness_points, key
    assert got.to_json() == want.to_json(), key
    return want


def test_classify_matches_the_factoring_oracle_on_the_digest_forms():
    """The corpus and the seeded forms of the classifier digests, 1572 in all."""
    forms = [*corpus_forms(), *seeded_forms()]
    assert len(forms) == 672 + 900
    verdicts = [_agrees_with_factoring(key, f) for key, f in forms]
    assert 0 < verdicts.count(None) < 300


def test_classify_matches_the_factoring_oracle_on_every_branch():
    branches = collections.Counter()
    for key, f in branch_forms():
        v = _agrees_with_factoring(key, f)
        branches[_branch(f, v)] += 1
    want = {
        "e3_3_cusp", "e3_2/m3", "e3_2/m2", "sigma/True", "sigma/False",
        "e3_4_exact", "e3_4_interval", "e3_5", "out_of_scope/m0", "out_of_scope/m1",
        "e4_i/split", "e4_ii/reducible", "e4_iii/irreducible",
    }
    assert want <= set(branches), branches


def _counting(monkeypatch):
    """Count the calls of the factoring entry points made outside the fiber
    scan (``fiber_scan``, and ``x_rank`` at the cusp)."""
    calls = collections.Counter()
    inside = [0]

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            if not inside[0]:
                calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def exempt(fn):
        def scan(P):
            inside[0] += 1
            try:
                return fn(P)
            finally:
                inside[0] -= 1
        return scan

    for module, name in [(ratfactor, "primitive_factors"), (ratfactor, "rational_roots"),
                         (binform, "squarefree_decompose")]:
        monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    for name in ("x_rank", "fiber_scan"):
        monkeypatch.setattr(classifier, name, exempt(getattr(classifier, name)))
    return calls


def test_classify_and_crosscheck_factor_only_what_they_publish(monkeypatch):
    forms = dict(branch_forms())
    calls = _counting(monkeypatch)
    for key in ("e3_2/7/4/0", "e3_3_wminus1/7/4/0", "e3_3_wminus2/7/4/0", "e3_3_cusp/6/2/0",
                "e3_5/8/4/0", "e4_ii/7/4/0", "e4_ii/non-split", "e4_iii/5/4/0"):
        classify(forms[key])
        assert not calls, (key, calls)
    report = crosscheck(forms["e4_i/6/2/0"])
    assert report["witness_match"] is True
    # E and the scan's witness agree up to scale; rational_roots reads primitive_factors
    assert calls == {"rational_roots": 1, "primitive_factors": 1}


def test_crosscheck_takes_the_certificate_of_b_from_the_scan(monkeypatch):
    """Off the cusp, crosscheck builds no first kernel: B is the lift of its
    image at lambda_B, certified by the fiber scan.  At the cusp it builds
    one for B, and x_rank one for the lift at 0.  Off the cusp the apolar
    vector of B is formed once, for the guard, the image and the span test."""
    kernels, vectors = [], []
    first_kernel = apolarity._first_kernel
    monkeypatch.setattr(apolarity, "_first_kernel", lambda f: kernels.append(f) or first_kernel(f))
    apolar_coeffs = binform.apolar_coeffs
    for module in (apolarity, binform, classifier, projection):
        monkeypatch.setattr(module, "apolar_coeffs", lambda f: vectors.append(f) or apolar_coeffs(f))
    firsts = {}
    for key, f in corpus_forms():
        firsts.setdefault(key.split("/")[0], f)
    assert len(firsts) == 10
    for tag, f in firsts.items():
        apolarity.rank.cache_clear()
        kernels.clear()
        vectors.clear()
        report = crosscheck(f)
        formed = vectors.count(f)
        if tag == "e3_3_cusp":
            assert kernels == [f, lift(project(f), 0)]
            assert formed == 2  # the guard's, and the first kernel's
        else:
            assert kernels == [], tag
            assert formed == 1, tag
        assert report["case"] == tag and report["r"] == apolarity.rank(f).rank


def test_verdict_witness_scheme_built_on_first_read(monkeypatch):
    f = dict(branch_forms())["e3_3_wminus1/7/4/0"]
    calls = _counting(monkeypatch)
    v = classify(f)
    assert not calls
    scheme = v.witness_scheme
    assert v.witness_scheme is scheme
    points = v.witness_points
    assert v.witness_points is points and len(points) == 4 - 1
    assert calls == {"primitive_factors": 1}
    assert scheme == ZeroScheme(((v.witness_form, 1),))


def test_center_routes_match_the_product_form_oracle():
    """span_center_routes, read off h mod t², against the product-form oracle
    on the first 150 schemes of every cell n = 3..10, deg W = 1..n+2 of c09's
    generator, the empty scheme, the four-point cancellation at deg n+1 and
    one scheme of degree n+3 per n; o_in_span raises exactly where the
    oracle's routes part, and both refuse degree n+3."""
    frame3 = ProjectionFrame(3)
    cancel = scheme_of([(pt(1), 1), (pt(-1), 1), (pt(2), 1), (pt(-2), 1)])
    cases = [(frame3, cancel)]
    for n in range(3, 11):
        frame = ProjectionFrame(n)
        cases.append((frame, ZeroScheme(())))
        for deg in range(1, n + 3):
            rng = random.Random(f"accept:c09:{n}:{deg}")
            cases += [(frame, c09_scheme(rng, deg)) for _ in range(150)]
        W = c09_scheme(random.Random(f"over:{n}"), n + 3)
        for route in (span_center_routes, product_form_center_routes, o_in_span):
            with pytest.raises(SchemeDegreeError):
                route(W, frame)
    seen = collections.Counter()
    for frame, W in cases:
        want = product_form_center_routes(W, frame)
        assert span_center_routes(W, frame) == want, (frame.n, W)
        if want[0] == want[1]:
            assert o_in_span(W, frame) is want[0]
        else:
            with pytest.raises(SpanCriterionDisagreement):
                o_in_span(W, frame)
        seen["empty"] += not W.factors
        seen["quadratic"] += any(g.degree == 2 for g, _ in W.factors)
        seen["m_A", evaluation_multiplicity(W, POINT_A)] += 1
        seen["parted", W.degree - frame.n] += want[0] != want[1]
    assert seen["empty"] == 8 and seen["quadratic"] >= 100, seen
    assert all(seen["m_A", m] >= 100 for m in range(4)), seen
    assert seen["parted", 1] >= 1 and seen["parted", 2] >= 100, seen
    assert not any(seen["parted", k] for k in range(-10, 1)), seen


def test_multiplicity_lookup_matches_evaluation():
    """ZeroScheme.multiplicity_at, a lookup of p.linear_form() among the
    factors, against evaluating every factor at p: at A = (1:0), (0:1), every
    rational point of the scheme and points off it, on seeded schemes with
    repeated linear factors and irreducible quadratics."""
    rng = random.Random("multiplicity-lookup")
    at_infinity = P1Point(F(0), F(1))
    seen = collections.Counter()
    for _ in range(400):
        W = _oracle_scheme(rng, rng.randint(0, 10))
        on = [P1Point(-g.coeffs[1], g.coeffs[0]) for g, _ in W.factors if g.degree == 1]
        off = [pt(F(rng.randint(-30, 30), rng.randint(1, 5))) for _ in range(3)]
        for p in on + off + [POINT_A, at_infinity]:
            m = evaluation_multiplicity(W, p)
            assert multiplicity_at(W, p) == m, (W, p)
            seen["on" if m else "off", p in (POINT_A, at_infinity)] += 1
        seen["quadratic"] += any(g.degree == 2 for g, _ in W.factors)
        seen["repeated"] += any(e > 1 for g, e in W.factors if g.degree == 1)
    assert min(seen.values()) >= 20 and len(seen) == 6, seen


def test_crosscheck_witness_match_against_the_curve_images():
    """witness_match against the set equality of the curve images of both
    factored witnesses, on e4_i forms whose witnesses split and one whose
    computing set, u^2 + t^2, does not."""
    forms = [f for key, f in corpus_forms() if key.startswith("e4_i/")][::6]
    forms.append(form_from_avec(5, _apolar_to((1, 0, 1), 5, (1, 0))))
    outcomes = collections.Counter()
    for f in forms:
        report = crosscheck(f)
        v = classify_by_factoring(f)
        assert v.case_tag == "e4_i"
        mine, theirs = v.witness_points, x_rank(project(f)).witness_set_on_X
        want = None if mine is None or theirs is None else set(mine) == set(theirs)
        assert report["witness_match"] == want
        outcomes[want] += 1
    assert outcomes[True] >= 10 and outcomes[None] == 1, outcomes


def test_planted_span_disagreement_reaches_the_report(monkeypatch):
    routes = classifier._center_routes

    def flipped(deg, h0, h1, m, frame):
        by_span, by_mult = routes(deg, h0, h1, m, frame)
        return not by_span, by_mult

    monkeypatch.setattr(classifier, "_center_routes", flipped)
    f = form_from_avec(8, [2, 1, 2, 0, 2, 0, 2, 0, 2])
    W = apolarity.rank(f).witness_scheme
    with pytest.raises(SpanCriterionDisagreement) as err:
        o_in_span(W, ProjectionFrame(7))
    detail = f"span says False, multiplicity says True (deg W = {W.degree}, n = 7)"
    assert str(err.value) == detail
    report = crosscheck(f)
    assert report["o_span"] == {"case": "e3_1_info", "agree": False, "detail": detail}
