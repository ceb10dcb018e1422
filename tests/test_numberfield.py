import math
import random
from fractions import Fraction as F

import mpmath
import pytest

from cuspidal import univar
from cuspidal.binform import PrecisionError
from cuspidal.numberfield import (
    AlgebraicNumber,
    NumberField,
    NumberFieldError,
    isolate_roots,
)
from oracles import nullspace_field


SQRT2 = NumberField([-2, 0, 1])
CBRT2 = NumberField([-2, 0, 0, 1])


class TestFieldArithmetic:
    def test_sqrt2_product(self):
        g = SQRT2.gen
        one = SQRT2.one
        assert (one + g) * (one - g) == SQRT2.from_rational(-1)

    def test_sqrt2_inverse(self):
        g = SQRT2.gen
        inv = (SQRT2.one + g).inverse()
        assert inv == g - 1
        assert (SQRT2.one + g) * inv == SQRT2.one

    def test_cbrt2_relations(self):
        g = CBRT2.gen
        assert g**3 == CBRT2.from_rational(2)
        assert g * (g**2 / 2) == CBRT2.one
        assert g**-1 == g**2 / 2

    def test_division_and_distributivity(self):
        rng = random.Random(11)
        for field in (SQRT2, CBRT2):
            for _ in range(40):
                coords = lambda: [
                    F(rng.randint(-9, 9), rng.randint(1, 9))
                    for _ in range(field.degree)
                ]
                a, b, c = (field.element(coords()) for _ in range(3))
                assert a * (b + c) == a * b + a * c
                if b:
                    assert (a / b) * b == a
                    assert b * b.inverse() == field.one

    def test_rational_detection(self):
        e = SQRT2.element([F(3, 7)])
        assert e.is_rational() and e.rational_value() == F(3, 7)
        assert not SQRT2.gen.is_rational()
        with pytest.raises(NumberFieldError):
            SQRT2.gen.rational_value()

    def test_zero_division(self):
        with pytest.raises(ZeroDivisionError):
            SQRT2.zero.inverse()

    def test_bad_moduli(self):
        with pytest.raises(NumberFieldError):
            NumberField([1, 1])
        with pytest.raises(NumberFieldError):
            NumberField([-1, 0, 1])
        with pytest.raises(NumberFieldError):
            NumberField([0, 0, 1])

    def test_mixed_scalars(self):
        g = SQRT2.gen
        assert 1 + g == g + 1
        assert 2 * g - g == g
        assert (2 / g) * g == SQRT2.from_rational(2)
        assert F(1, 2) * g + F(1, 2) * g == g


class TestGenericRoutinesOverField:
    def test_nullspace_field(self):
        g = SQRT2.gen
        mat = [[SQRT2.one, g], [g, SQRT2.from_rational(2)]]
        basis = nullspace_field(mat)
        assert len(basis) == 1
        vec = basis[0]
        for row in mat:
            assert not sum((r * v for r, v in zip(row, vec)), SQRT2.zero)

    def test_univar_gcd_over_field(self):
        g = SQRT2.gen
        p = [SQRT2.from_rational(-2), SQRT2.zero, SQRT2.one]
        q = [-g, SQRT2.one]
        got = univar.gcd(p, q)
        assert got == [-g, SQRT2.one]

    def test_xgcd_bezout(self):
        rng = random.Random(5)
        for _ in range(30):
            a = [F(rng.randint(-5, 5)) for _ in range(rng.randint(1, 5))]
            b = [F(rng.randint(-5, 5)) for _ in range(rng.randint(1, 5))]
            if univar.is_zero(a) and univar.is_zero(b):
                continue
            g, s, t = univar.xgcd(a, b)
            lhs = univar.add(univar.mul(s, a), univar.mul(t, b))
            assert lhs == g
            assert g == univar.gcd(a, b)


class TestIsolation:
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

    def test_quartic_mixed(self):
        # x^4 - x - 1 has two real and two complex roots.
        roots = isolate_roots([-1, -1, 0, 0, 1], 128)
        assert len(roots) == 4
        assert sum(1 for r in roots if r.is_real) == 2
        with mpmath.workprec(160):
            for r in roots:
                z = r.refine(128)
                val = z**4 - z - 1
                assert abs(val) < mpmath.mpf(2) ** -100

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

    def test_json_shape(self):
        (root,) = [r for r in isolate_roots([1, 0, 1], 64) if r.approx_im > 0]
        blob = root.to_json()
        assert blob["minpoly"] == [1, 0, 1]
        assert blob["real"] is False
        assert isinstance(blob["approx"][0], str)

    def test_embeddings(self):
        embs = SQRT2.embeddings(96)
        vals = sorted(float(e.real if hasattr(e, "real") else e) for e in embs)
        assert abs(vals[1] - 2**0.5) < 1e-12
        g = SQRT2.gen
        with mpmath.workprec(128):
            for e in embs:
                assert abs(g.numeric(e) ** 2 - 2) < mpmath.mpf(2) ** -80
