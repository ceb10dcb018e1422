"""Canonical integer vectors and the free-column basis of an exact kernel.

A kernel here is never found by elimination: the mathematics gives a
spanning set of it (the shifts of the generators of an apolar ideal, the
osculating vectors of a scheme's points), and ``free_column_basis`` puts
that span in one canonical basis.  Vectors come back as primitive integer
vectors, so no floating point ever enters a kernel; rational entries are
cleared of denominators once per vector (``_int_rows``).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as int_gcd
from math import lcm as int_lcm
from typing import Sequence


Matrix = Sequence[Sequence[Fraction]]


def _int_rows(rows: Matrix) -> list[list[int]]:
    """Each row times the lcm of its denominators.  Entries are int or
    Fraction; a row of ints passes through as it is."""
    out = []
    for row in rows:
        if all(type(c) is int for c in row):
            out.append(list(row))
            continue
        den = int_lcm(*(c.denominator for c in row))
        out.append([c.numerator * (den // c.denominator) for c in row])
    return out


def canonical_vector(vec: Sequence[Fraction]) -> tuple[int, ...]:
    """Scale to primitive integer entries with the first nonzero entry positive."""
    try:  # integer entries need no denominator pass
        g, ints = int_gcd(*vec), vec
    except TypeError:
        (ints,) = _int_rows([vec])
        g = int_gcd(*ints)
    if g:
        if next(c for c in ints if c) < 0:
            g = -g
        ints = [c // g for c in ints]
    return tuple(ints)


def free_column_basis(vectors: Sequence[Sequence[Fraction]]) -> list[tuple[int, ...]]:
    """The free-column basis of the span of the given independent vectors.

    A column is free when some vector of the span ends there (has its last
    nonzero entry there); there are as many free columns as vectors.  The
    basis vector of free column f is the vector of the span that ends at f
    and vanishes on the other free columns, unique up to scale and given
    canonical; the basis is ordered by free column.  It depends only on the
    span, and it is the basis that back-substitution from the echelon form
    of any matrix with that kernel gives, one vector per free column of the
    echelon form.  Eliminating from the last column down finds it.
    """
    rows = _int_rows(vectors)
    ends: list[int] = []
    for i, row in enumerate(rows):
        col = max((j for j, c in enumerate(row) if c), default=None)
        if col is None:
            raise ValueError("dependent vectors have no free-column basis")
        for k, other in enumerate(rows):
            if k != i and other[col]:
                # cross-multiplied and divided by the content, so the
                # integers do not grow with each step; the canonical
                # vectors below do not see the scale
                new = [a * row[col] - other[col] * b for a, b in zip(other, row)]
                g = int_gcd(*new) or 1
                rows[k] = [c // g for c in new]
        ends.append(col)
    return [canonical_vector(rows[i]) for i in sorted(range(len(rows)), key=ends.__getitem__)]
