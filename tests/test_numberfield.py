import math
import random
import sys
from fractions import Fraction as F

import mpmath
import pytest

from cuspidal import numberfield
from cuspidal.apolarity import decompose
from cuspidal.binform import BinaryForm, PrecisionError, approximate_roots
from cuspidal.numberfield import AlgebraicNumber, NumberFieldError
from cuspidal.projection import ProjectedPoint, x_rank
from oracles import (
    QuadraticNumber,
    euclid_gcd,
    exact_value,
    isolate_roots,
    nullspace_field,
    special_lambdas,
)


SQRT2 = QuadraticNumber.generator([-2, 0, 1])


def _random_moduli(rng, count):
    """Seeded irreducible quadratics c0 + c1 x + c2 x^2 with Fraction
    coefficients, c2 != 1, both discriminant signs."""
    out = []
    while len(out) < count:
        c0, c1, c2 = (F(rng.randint(-20, 20), rng.randint(1, 6)) for _ in range(3))
        if not c2 or c2 == 1:
            continue
        disc = c1 * c1 - 4 * c0 * c2
        if disc >= 0 and all(math.isqrt(v) ** 2 == v for v in (disc.numerator, disc.denominator)):
            continue
        out.append((c0, c1, c2))
    return out


def _element(rng, gamma):
    a, b = (F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(2))
    return a + b * gamma


class TestFieldArithmetic:
    def test_sqrt2_product(self):
        g = SQRT2
        one = g.lift(1)
        assert (one + g) * (one - g) == g.lift(-1)

    def test_sqrt2_inverse(self):
        g = SQRT2
        inv = (g.lift(1) + g).inverse()
        assert inv == g - 1
        assert (g.lift(1) + g) * inv == g.lift(1)

    def test_division_and_distributivity(self):
        rng = random.Random(11)
        for gamma in [SQRT2] + [QuadraticNumber.generator(m) for m in _random_moduli(rng, 4)]:
            for _ in range(40):
                a, b, c = (_element(rng, gamma) for _ in range(3))
                assert a * (b + c) == a * b + a * c
                if b:
                    assert (a / b) * b == a
                    assert b * b.inverse() == gamma.lift(1)

    def test_field_axioms_on_random_moduli(self):
        rng = random.Random("numberfield:axioms")
        moduli = _random_moduli(rng, 30)
        signs = {m[1] ** 2 - 4 * m[0] * m[2] > 0 for m in moduli}
        assert signs == {True, False}
        for mod in moduli:
            gamma = QuadraticNumber.generator(mod)
            c0, c1, c2 = mod
            # gamma is a root of the modulus, in the field's own arithmetic
            assert c2 * gamma * gamma + c1 * gamma + c0 == 0
            zero, one = gamma.lift(0), gamma.lift(1)
            for _ in range(10):
                a, b, c = (_element(rng, gamma) for _ in range(3))
                assert (a + b) + c == a + (b + c) and (a * b) * c == a * (b * c)
                assert a + b == b + a and a * b == b * a
                assert a * (b + c) == a * b + a * c
                assert a + zero == a and a * one == a and a + (-a) == zero
                assert a * a.conjugate() == a.norm()
                if a:
                    inv = a.inverse()
                    assert a * inv == one and inv * a == one
                    assert a**-1 == inv and (b / a) * a == b
                    assert a**3 == a * a * a and a**-2 * a**2 == one

    def test_rational_detection(self):
        e = SQRT2.lift(F(3, 7))
        assert e.is_rational() and e.rational_value() == F(3, 7)
        assert not SQRT2.is_rational()
        with pytest.raises(NumberFieldError):
            SQRT2.rational_value()

    def test_zero_division(self):
        with pytest.raises(ZeroDivisionError):
            SQRT2.lift(0).inverse()

    def test_bad_moduli(self):
        for modulus in ([1, 1], [-2, 0, 0, 1], [-1, 0, 1], [0, 0, 1], [F(-9, 4), 0, 1],
                        [F(-1, 2), F(1, 2), 1], [5]):
            with pytest.raises(NumberFieldError):
                QuadraticNumber.generator(modulus)

    def test_mixed_scalars(self):
        g = SQRT2
        assert 1 + g == g + 1
        assert 2 * g - g == g
        assert (2 / g) * g == g.lift(2)
        assert F(1, 2) * g + F(1, 2) * g == g

    def test_fields_do_not_mix(self):
        with pytest.raises(NumberFieldError):
            SQRT2 + QuadraticNumber.generator([-3, 0, 1])

    def test_numeric_is_the_closed_form_embedding(self):
        rng = random.Random("numberfield:numeric")
        for mod in _random_moduli(rng, 20):
            gamma = QuadraticNumber.generator(mod)
            for _ in range(5):
                e = _element(rng, gamma)
                for k in range(2):
                    with mpmath.workprec(512):
                        c0, c1, c2 = (mpmath.mpf(c.numerator) / c.denominator for c in mod)
                        disc = c1 * c1 - 4 * c0 * c2
                        sq = mpmath.sqrt(disc) if disc > 0 else 1j * mpmath.sqrt(-disc)
                        # the lower branch first
                        want_root = sorted(((-c1 + sq) / (2 * c2), (-c1 - sq) / (2 * c2)),
                                           key=lambda z: (z.real, z.imag))[k]
                        a, b = (mpmath.mpf(q.numerator) / q.denominator for q in (e.a, e.b))
                        want = a + b * want_root
                    with mpmath.workprec(256):
                        got = e.numeric(AlgebraicNumber(mod, bool(k)).value(256))
                    with mpmath.workprec(512):
                        assert abs(got - want) <= mpmath.mpf(2) ** -240 * max(1, abs(want))


class TestGenericRoutinesOverField:
    def test_nullspace_field(self):
        g = SQRT2
        mat = [[g.lift(1), g], [g, g.lift(2)]]
        basis = nullspace_field(mat)
        assert len(basis) == 1
        vec = basis[0]
        for row in mat:
            assert not sum((r * v for r, v in zip(row, vec)), g.lift(0))

    def test_euclid_gcd_over_field(self):
        g = SQRT2
        p = [g.lift(-2), g.lift(0), g.lift(1)]
        q = [-g, g.lift(1)]
        got = euclid_gcd(p, q)
        assert got == [-g, g.lift(1)]


class TestIsolation:
    """The proved disks of ``oracles.isolate_roots``, the reference that
    ``AlgebraicNumber`` is checked against."""

    def test_linear(self):
        (root,) = isolate_roots([F(1, 2), F(1)], 64)
        assert root.is_real and root.radius == 0
        assert root.approx_re == F(-1, 2)

    def test_sqrt2_pair(self):
        roots = isolate_roots([-2, 0, 1], 128)
        assert len(roots) == 2 and all(r.is_real for r in roots)
        lo, hi = roots
        with mpmath.workprec(160):
            target = mpmath.sqrt(2)
            assert abs(hi.refine(128) - target) < mpmath.mpf(2) ** -120
            assert abs(lo.refine(128) + target) < mpmath.mpf(2) ** -120
        assert abs(F(hi.approx_re) - F(1414213562, 10**9)) < F(1, 10**8)

    def test_complex_pair(self):
        roots = isolate_roots([1, 0, 1], 96)
        assert len(roots) == 2
        assert not any(r.is_real for r in roots)
        ims = sorted(r.approx_im for r in roots)
        assert abs(ims[1] - 1) < F(1, 2**80)
        with mpmath.workprec(128):
            z = [r for r in roots if r.approx_im > 0][0].refine(96)
            assert abs(z - mpmath.mpc(0, 1)) < mpmath.mpf(2) ** -90

    def test_reducible_rejected(self):
        with pytest.raises(NumberFieldError):
            isolate_roots([-1, 0, 1], 64)

    def test_degree_three_and_above_rejected(self):
        for poly in ([-2, 0, 0, 1], [-1, -1, 0, 0, 1]):
            with pytest.raises(NumberFieldError):
                isolate_roots(poly, 128)

    def test_quadratic_reality_is_the_discriminant_sign(self):
        rng = random.Random(606)
        seen = {True: 0, False: 0}
        for _ in range(120):
            c, b, a = (rng.randint(-40, 40) for _ in range(3))
            disc = b * b - 4 * a * c
            if not a or (disc >= 0 and math.isqrt(disc) ** 2 == disc):
                continue  # not an irreducible quadratic
            roots = isolate_roots([c, b, a], rng.choice((64, 192)))
            assert len(roots) == 2
            for root in roots:
                assert root.is_real == (disc > 0)
                assert (root.approx_im == 0) == (disc > 0)
            seen[disc > 0] += 1
        assert min(seen.values()) >= 20

    @pytest.mark.parametrize("m", [10**6, 10**9, 10**12, 10**15])
    @pytest.mark.parametrize("d", [2, -2])
    def test_near_double_roots(self, m, d):
        """(x - m)^2 = d: two real roots or a conjugate pair only
        2 sqrt(2) apart, too close for float seeds to tell which."""
        roots = isolate_roots([m * m - d, -2 * m, 1], 64)
        assert [r.is_real for r in roots] == [d > 0] * 2
        with mpmath.workprec(256):
            half = mpmath.sqrt(abs(d)) * (1 if d > 0 else 1j)
            for r in roots:
                re, im = (mpmath.mpf(q.numerator) / q.denominator for q in (r.approx_re, r.approx_im))
                z = mpmath.mpc(re, im)
                assert min(abs(z - (m + half)), abs(z - (m - half))) < mpmath.mpf(2) ** -60 * m

    def test_disks_contain_far_clustered_roots(self):
        """(x - M)^2 - D with |M| up to 10^40 and |D| <= 50: every disk
        holds its own root, checked against the roots M -+ sqrt(D) at 2000
        bits, and no other; refine() is good to its precision."""
        rng = random.Random("numberfield:far-clusters")
        checked = 0
        while checked < 150:
            m = rng.choice((-1, 1)) * rng.randint(1, 10 ** rng.randint(1, 40))
            d = rng.choice((-1, 1)) * rng.randint(1, 50)
            if d > 0 and math.isqrt(d) ** 2 == d:
                continue
            bits = (64, 128, 192)[checked % 3]
            roots = isolate_roots([m * m - d, -2 * m, 1], bits)
            with mpmath.workprec(2000):
                half = mpmath.sqrt(d) if d > 0 else mpmath.mpc(0, mpmath.sqrt(-d))
                exact = [m - half, m + half] if d > 0 else [m + half.conjugate(), m + half]
                for root, want, other in zip(roots, exact, exact[::-1]):
                    z = mpmath.mpc(*(mpmath.mpf(q.numerator) / q.denominator
                                     for q in (root.approx_re, root.approx_im)))
                    rho = mpmath.mpf(root.radius.numerator) / root.radius.denominator
                    assert abs(z - want) <= rho, (m, d, bits)
                    assert abs(z - other) > rho, (m, d, bits)
                    err = abs(root.refine(bits) - want)
                    assert err <= mpmath.mpf(2) ** -bits * max(1, abs(want)), (m, d, bits)
            checked += 1

    def test_closed_form_agrees_with_newton_refinement(self):
        """The Newton-Aberth refinement that isolated roots before the
        quadratic formula, ``binform.approximate_roots``, as an oracle."""
        rng = random.Random("numberfield:newton")
        for mod in _random_moduli(rng, 40):
            with mpmath.workprec(256):
                newton = approximate_roots(list(mod), 256)
                for upper in (False, True):
                    z = AlgebraicNumber(mod, upper).value(192)
                    assert min(abs(z - w) for w in newton) <= mpmath.mpf(2) ** -180 * max(1, abs(z))

    def test_precision_error_beyond_eightfold(self):
        # roots 2 sqrt(2) apart near 10^200 need about 670 bits of work
        m = 10**200
        with pytest.raises(PrecisionError):
            isolate_roots([m * m - 2, -2 * m, 1], 64)
        assert len(isolate_roots([m * m - 2, -2 * m, 1], 128)) == 2

    def test_json_shape(self):
        (root,) = [r for r in isolate_roots([1, 0, 1], 64) if r.approx_im > 0]
        blob = root.to_json()
        assert blob["minpoly"] == [1, 0, 1]
        assert blob["real"] is False
        assert isinstance(blob["approx"][0], str)
        assert blob["radius"] == str(F(1, 2**64))


def _mpf_bits(z):
    """The exact binary value of an mpf or mpc, for bit-for-bit equality."""
    return type(z), z.real._mpf_, z.imag._mpf_


class TestAlgebraicNumber:
    def test_minpoly_is_primitive_with_positive_leading_coefficient(self):
        assert AlgebraicNumber((F(1, 2), 0, F(-1, 4)), True).minpoly == (-2, 0, 1)
        assert AlgebraicNumber((6, 0, 3), False).minpoly == (2, 0, 1)
        for poly in ((1, 1), (0, 0, 0), (-2, 0, 0, 1), (5,)):
            with pytest.raises(NumberFieldError):
                AlgebraicNumber(poly, True)

    def test_json_names_the_root_exactly(self):
        assert AlgebraicNumber((1, 0, 1), True).to_json() == {
            "minpoly": [1, 0, 1], "branch": "upper", "approx": ["0.0", "1.0"]}
        assert AlgebraicNumber((-32, 0, 1), False).to_json() == {
            "minpoly": [-32, 0, 1], "branch": "lower",
            "approx": ["-5.6568542494923801952", "0.0"]}

    def test_branches_lie_in_the_oracle_disks(self, monkeypatch):
        """Branch i of a real or complex pair, the near-double family
        m^2 - 2 - 2m x + x^2 at large m included, lies in the oracle's proved
        disk i; and the embedding that a decomposition over Q(gamma) reads
        is the oracle's upper root, bit for bit."""
        rng = random.Random("numberfield:branches")
        moduli = _random_moduli(rng, 30)
        moduli += [(m * m - d, -2 * m, 1)
                   for m in (10**6, 10**9, 10**12, 10**15) for d in (2, -2)]
        for k, mod in enumerate(moduli):
            bits = (64, 128, 192)[k % 3]
            for i, disk in enumerate(isolate_roots(mod, bits)):
                z = AlgebraicNumber(mod, bool(i)).value(bits)
                re, im = exact_value(z.real), exact_value(z.imag)
                assert (re - disk.approx_re) ** 2 + (im - disk.approx_im) ** 2 <= disk.radius ** 2

        seen = []
        value = AlgebraicNumber.value

        def spy(self, bits):
            z = value(self, bits)
            seen.append((self, bits, z))
            return z

        monkeypatch.setattr(numberfield.AlgebraicNumber, "value", spy)
        d = 7
        for mod in [(-2, 0, 1)] + moduli[:6]:
            gamma = QuadraticNumber.generator(mod)
            # (u + gamma t)^7 + (u + gamma~ t)^7 + 3 (u + t)^7
            coeffs = [math.comb(d, k) * ((gamma**k + gamma.conjugate() ** k).rational_value() + 3)
                      for k in range(d + 1)]
            for bits in (64, 128, 192):
                seen.clear()
                dec = decompose(BinaryForm(d, tuple(coeffs)), bits)
                assert dec.field_tag == "algebraic"
                ((root, got_bits, z),) = seen
                assert root.upper and got_bits == bits
                want = isolate_roots(mod, bits)[-1].refine(bits)
                assert _mpf_bits(z) == _mpf_bits(want)


class TestNoNewtonIteration:
    """The quadratic paths use the closed form only: with every module's
    ``approximate_roots`` replaced by one that raises, a fiber scan with a
    quadratic special lambda and a decomposition over Q(sqrt 2) succeed."""

    @pytest.fixture(autouse=True)
    def no_newton(self, monkeypatch):
        def refuse(*_args, **_kwargs):
            raise AssertionError("approximate_roots called on a quadratic path")

        for name, module in list(sys.modules.items()):
            if name.startswith("cuspidal") and hasattr(module, "approximate_roots"):
                monkeypatch.setattr(module, "approximate_roots", refuse)

    def test_x_rank_with_a_quadratic_special_lambda(self):
        p = ProjectedPoint(3, (F(1), F(1), F(0), F(-1)))
        lams = special_lambdas(p, 2)
        assert lams and all(isinstance(lam, AlgebraicNumber) for lam in lams)
        assert x_rank(p).value >= 1

    def test_decompose_with_one_quadratic_factor(self):
        # (u + sqrt2 t)^7 + (u - sqrt2 t)^7 + 3 (u + t)^7
        d = 7
        coeffs = [math.comb(d, k) * ((2 * F(2) ** (k // 2) if k % 2 == 0 else 0) + 3)
                  for k in range(d + 1)]
        dec = decompose(BinaryForm(d, tuple(coeffs)), 128)
        assert dec.field_tag == "algebraic" and len(dec.terms) == 3
        assert dec.residual < mpmath.mpf(2) ** -96
