"""Exact kernels of small dense systems.

The rational path clears denominators once per row and then stays in the
integers: fraction-free (Bareiss) elimination gives the echelon form, and
kernel vectors are back-substituted in integers.  Integer rows skip the
denominator pass, and kernel vectors come back as primitive integer vectors,
so no floating point ever enters a kernel.  ``nullspace`` takes a matrix of
at least one row; ``free_column_basis`` gives the basis it would, from
kernel vectors known in advance, as the osculating vectors of a scheme's
points are.
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


def _bareiss(rows: list[list[int]]) -> tuple[list[list[int]], list[int]]:
    """Fraction-free row echelon form.  Returns (echelon rows, pivot columns)."""
    m = [list(r) for r in rows]
    if not m:
        return m, []
    ncols = len(m[0])
    pivots: list[int] = []
    prev = 1
    prow = 0
    for col in range(ncols):
        if prow >= len(m):
            break
        sel = next((i for i in range(prow, len(m)) if m[i][col]), None)
        if sel is None:
            continue
        m[prow], m[sel] = m[sel], m[prow]
        piv = m[prow][col]
        for i in range(prow + 1, len(m)):
            for j in range(col + 1, ncols):
                m[i][j] = (m[i][j] * piv - m[i][col] * m[prow][j]) // prev
            m[i][col] = 0
        prev = piv
        pivots.append(col)
        prow += 1
    return m, pivots


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


def nullspace(rows: Matrix) -> list[tuple[int, ...]]:
    """Basis of the right kernel of a matrix with at least one row,
    canonicalized, one vector per free column.

    Each vector is back-substituted in integers from the Bareiss echelon
    form: x starts as the unit vector of its free column, and at each pivot
    x is rescaled so that the pivot entry comes out integral.
    """
    if not rows:
        raise ValueError("an empty matrix has no column count")
    ncols = len(rows[0])
    ech, pivots = _bareiss(_int_rows(rows))
    free = [j for j in range(ncols) if j not in pivots]
    basis = []
    for f in free:
        x = [0] * ncols
        x[f] = 1
        for k in range(len(pivots) - 1, -1, -1):
            pc = pivots[k]
            row = ech[k]
            acc = sum(row[j] * x[j] for j in range(pc + 1, ncols))
            if acc:
                g = int_gcd(acc, row[pc])
                scale = row[pc] // g
                if scale != 1:
                    x = [c * scale for c in x]
                x[pc] = -acc // g
        basis.append(canonical_vector(x))
    return basis


def free_column_basis(vectors: Sequence[Sequence[Fraction]]) -> list[tuple[int, ...]]:
    """The basis ``nullspace`` returns for any matrix whose kernel is the
    span of the given independent vectors, in the same order.

    A column of such a matrix is free exactly when some kernel vector ends
    there, and the basis vector of free column f is the kernel vector that
    ends at f and vanishes on the other free columns.  Eliminating from the
    last column down finds both.
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

