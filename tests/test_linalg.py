import itertools
import math
import random
import time
from fractions import Fraction
from math import comb

import pytest

from cuspidal import apolarity, linalg
from cuspidal.binform import BinaryForm
import oracles
from oracles import (
    bareiss_rank,
    catalecticant,
    det,
    in_span,
    nullspace_plain,
    rank_field,
    rank_mod,
    solve,
)


def F(a, b=1):
    return Fraction(a, b)


def random_matrix(rng, nrows, ncols):
    return [
        [F(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(ncols)]
        for _ in range(nrows)
    ]


def test_nullspace_matches_plain_gauss_oracle():
    rng = random.Random(7)
    for _ in range(300):
        nrows, ncols = rng.randint(1, 6), rng.randint(1, 6)
        m = random_matrix(rng, nrows, ncols)
        fast = linalg.nullspace(m)
        plain = nullspace_plain(m)
        assert len(fast) == len(plain)
        # Same canonicalization on both paths: bases must agree exactly.
        assert sorted(fast) == sorted(plain)
        for v in fast:
            for row in m:
                assert sum(a * b for a, b in zip(row, v)) == 0


def test_rank_row_echelon_consistency():
    rng = random.Random(8)
    for _ in range(200):
        nrows, ncols = rng.randint(1, 6), rng.randint(1, 6)
        m = random_matrix(rng, nrows, ncols)
        r = bareiss_rank(m)
        assert r == rank_field(m)
        assert r + len(linalg.nullspace(m)) == ncols


def test_nullspace_of_zero_and_empty():
    z = [[F(0), F(0)], [F(0), F(0)]]
    basis = linalg.nullspace(z)
    assert len(basis) == 2
    with pytest.raises(ValueError, match="empty matrix"):
        linalg.nullspace([])


def test_in_span():
    v1 = [F(1), F(0), F(2)]
    v2 = [F(0), F(1), F(-1)]
    assert in_span([v1, v2], [F(2), F(3), F(1)])
    assert not in_span([v1, v2], [F(0), F(0), F(1)])


def test_solve_consistent_and_inconsistent():
    rows = [[F(1), F(2)], [F(3), F(4)], [F(4), F(6)]]
    rhs = [F(5), F(6), F(11)]
    x = solve(rows, rhs)
    assert x is not None
    for row, b in zip(rows, rhs):
        assert sum(a * xi for a, xi in zip(row, x)) == b
    assert solve(rows, [F(5), F(6), F(12)]) is None


# -- integer kernel against the Fraction oracles, on structured matrices ------


def _signed_unit_rows(rng, nrows, ncols):
    return [[rng.choice((-1, 0, 0, 1)) for _ in range(ncols)] for _ in range(nrows)]


def _low_rank_rows(rng, nrows, ncols):
    k = rng.randint(1, min(nrows, ncols))
    left = [[F(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(k)] for _ in range(nrows)]
    right = [[rng.randint(-6, 6) for _ in range(ncols)] for _ in range(k)]
    return [
        [sum(left[i][t] * right[t][j] for t in range(k)) for j in range(ncols)]
        for i in range(nrows)
    ]


def _hankel_rows(rng, nrows, ncols):
    """Catalecticant of a random form, or of a sum of a few powers (low rank)."""
    d = nrows + ncols - 2
    if rng.random() < 0.5:
        coeffs = [F(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(d + 1)]
    else:
        coeffs = [F(0)] * (d + 1)
        for _ in range(rng.randint(1, 3)):
            tau, s = F(rng.randint(-4, 4), rng.randint(1, 3)), rng.randint(-3, 3)
            for i in range(d + 1):
                coeffs[i] += s * comb(d, i) * tau**i
    if not any(coeffs):
        coeffs[0] = F(1)
    return [list(row) for row in catalecticant(BinaryForm(d, tuple(coeffs)), ncols - 1).rows]


def _mixed_rows(rng, nrows, ncols):
    return [
        [
            rng.randint(-5, 5) if rng.random() < 0.5 else F(rng.randint(-9, 9), rng.randint(1, 7))
            for _ in range(ncols)
        ]
        for _ in range(nrows)
    ]


_KINDS = (_signed_unit_rows, _low_rank_rows, _hankel_rows, _mixed_rows)


def _structured_cases(seed, count):
    """Seeded matrices up to 10 x 12 of every kind, some with zero rows and
    some with rows negated so that pivots come out negative."""
    rng = random.Random(seed)
    for i in range(count):
        nrows, ncols = rng.randint(1, 10), rng.randint(1, 12)
        m = _KINDS[i % len(_KINDS)](rng, nrows, ncols)
        if rng.random() < 0.3:
            m.insert(rng.randint(0, len(m)), [0] * ncols)
        if rng.random() < 0.5:
            m = [[-c for c in row] if rng.random() < 0.5 else row for row in m]
        yield rng, m


def _oracle_rank(rows):
    return rank_field([[F(c) for c in row] for row in rows])


def test_structured_cases_cover_every_shape():
    mats = [m for _, m in _structured_cases(21, 400)]
    assert max(len(m) for m in mats) == 11 and max(len(m[0]) for m in mats) == 12
    assert any(not any(row) for m in mats for row in m)
    assert any(isinstance(c, int) for m in mats for row in m for c in row)
    assert any(isinstance(c, Fraction) for m in mats for row in m for c in row)
    ranks = [(_oracle_rank(m), min(len(m), len(m[0]))) for m in mats]
    assert any(r < full for r, full in ranks) and any(r == full for r, full in ranks)
    assert any(
        row[pc] < 0 for m in mats for row, pc in zip(*linalg._bareiss(linalg._int_rows(m)))
    )


def test_integer_kernel_matches_fraction_oracles():
    for _, m in _structured_cases(22, 400):
        basis = linalg.nullspace(m)
        assert basis == nullspace_plain(m)
        r = bareiss_rank(m)
        assert r == _oracle_rank(m)
        assert r + len(basis) == len(m[0])


def test_in_span_matches_rank_oracle():
    members = 0
    for rng, m in _structured_cases(23, 300):
        ncols = len(m[0])
        vecs = m[: rng.randint(0, len(m))]
        targets = [
            [F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(ncols)],
            [sum(rng.randint(-3, 3) * F(row[j]) for row in vecs) for j in range(ncols)],
            [0] * ncols,
        ]
        for t in targets:
            want = _oracle_rank(vecs + [t]) == _oracle_rank(vecs)
            assert in_span(vecs, t) == want
            members += want
    assert 300 < members < 900
    assert in_span([], [F(0), 0])
    assert not in_span([], [F(0), F(1, 3)])


def test_free_column_basis_matches_nullspace():
    # any basis of a kernel, mixed by a random invertible matrix, comes back
    # as the basis nullspace gives, vector for vector
    mixed = 0
    for rng, m in _structured_cases(24, 300):
        basis = linalg.nullspace(m)
        k = len(basis)
        while True:
            mix = [[F(rng.randint(-3, 3)) for _ in range(k)] for _ in range(k)]
            if rank_field(mix) == k:
                break
        vecs = [
            [sum(c * v[i] for c, v in zip(row, basis)) for i in range(len(m[0]))]
            for row in mix
        ]
        assert linalg.free_column_basis(vecs) == basis
        mixed += k >= 2
    assert mixed > 50


def test_free_column_basis_keeps_integers_small():
    """The 24 shifts of the two apolar generators of a seeded degree-24
    form span the level-24 kernel, the hyperplane orthogonal to the apolar
    vector; dividing out the content of each cross-multiplied row keeps the
    elimination to a fraction of a second."""
    rng = random.Random(24)
    a = linalg.canonical_vector([rng.randint(-99, 99) for _ in range(25)])
    gens = apolarity._ideal_generators(a)
    shifts = [(0,) * i + g + (0,) * (25 - len(g) - i) for g in gens for i in range(26 - len(g))]
    assert len(shifts) == 24
    start = time.perf_counter()
    got = linalg.free_column_basis(shifts)
    assert time.perf_counter() - start < 1
    assert got == linalg.nullspace([a])


def test_det_matches_leibniz_formula():
    rng = random.Random(25)
    for _ in range(200):
        n = rng.randint(0, 5)
        m = [[rng.randint(-4, 4) if rng.random() < 0.7 else 0 for _ in range(n)] for _ in range(n)]
        want = 0
        for perm in itertools.permutations(range(n)):
            inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
            want += (-1) ** inversions * math.prod(m[i][perm[i]] for i in range(n))
        assert det(m) == want


def test_rank_mod_is_at_most_the_rational_rank():
    """Modulo 2^61 - 1 the rank agrees with Bareiss over Q on random
    rational matrices, and drops where the prime divides every maximal
    minor: diag(1/3, p/5) has rank 2 over Q and 1 modulo p."""
    rng = random.Random(11)
    for _ in range(200):
        m = random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
        assert rank_mod(m) == bareiss_rank(m)
    drop = [[F(1, 3), F(0)], [F(0), F(oracles.PRIME, 5)]]
    assert (bareiss_rank(drop), rank_mod(drop)) == (2, 1)
