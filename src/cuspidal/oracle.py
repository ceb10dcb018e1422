"""A numeric search for upper bounds on the rank with respect to the
cuspidal curve.  No subcommand runs it, and it publishes no number; it backs
the numeric recovery of the acceptance checks and the benchmark's search
workload.

xrank_upper_search runs a multi-start nonlinear least-squares search for a
small set of curve points whose span hits a projected point.  Success
certifies an upper bound on the rank with respect to the cuspidal curve
(numerically, to the configured tolerance); failure certifies nothing.
Starts converge in floats; a hit is then polished by Gauss-Newton on the
variable-projection residual (Golub-Pereyra), with the analytic Jacobian in
Kaufman's form and Levenberg-Marquardt damping only as a fallback, in
fixed-point integers with GUARD_BITS guard bits beyond the precision; the
witness residual is an estimate at that noise floor, not a proved bound.
Each stage tests its target before it steps: a start already converged
takes no float step, and a hand-over already below the polish's target gets
one undamped try and no damped retries.  Exact lower bounds only ever come
from the fiber scan: the cuspidal curve is singular, so catalecticant-style
lower bounds for smooth curves do not transfer.  The float stage is pure
Python: starts are seeded by the real roots of polynomials in the exact
kernel of the moment rows, found by binform's Aberth iteration, and the
fits use Gram-Schmidt and a partial-pivot solve in Python floats.  That
kernel is read off the apolar ideal, not eliminated: the moment rows are
the catalecticant of B'', so their kernel is spanned by the shifts of the
two generators of its apolar ideal, put in their free-column basis
(linalg.free_column_basis).

The search works in the chart of real parameters tau for curve points
(1:tau); the cusp tau=0 is an ordinary rank-1 point and needs no special
handling.  Restarts rescale the target through the curve's torus action
(coordinate j scales by s^slot(j)), which rebalances coordinates the way a
change of affine chart does; parameters found in the scaled frame map back
by tau -> tau/s.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from operator import mul

from . import linalg
from .apolarity import _ideal_generators
from .binform import _float_seeds
from .projection import ProjectedPoint, _shifts

CLUSTER_RADIUS = 1e-8
# fixed-point bits of the polish beyond the requested precision
GUARD_BITS = 64


@dataclass(frozen=True)
class SearchConfig:
    """Knobs for the span search; tolerance is relative residual."""

    r: int
    starts: int = 24
    precision_bits: int = 192
    tolerance: float | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.r < 1:
            raise ValueError("target cardinality must be at least 1")
        if self.starts < 1:
            raise ValueError("at least one start")
        if self.precision_bits < 53:
            raise ValueError("precision below double width")
        floor = 2.0 ** (-self.precision_bits / 2)
        if self.tolerance is None:
            object.__setattr__(self, "tolerance", floor)
        elif self.tolerance < floor:
            raise ValueError("tolerance finer than half the working precision")


@dataclass(frozen=True)
class SpanWitness:
    """Numeric evidence that the matched point lies in the span of the
    curve points at the given parameters.

    residual is the relative distance the polish reached, an estimate and
    no bound; parameters are pairwise distinct beyond the cluster radius.
    """

    parameters: tuple[float, ...]
    residual: float
    matched: ProjectedPoint

    def __post_init__(self) -> None:
        ps = self.parameters
        for i in range(len(ps)):
            for j in range(i + 1, len(ps)):
                if abs(ps[i] - ps[j]) <= CLUSTER_RADIUS:
                    raise ValueError("parameters collapse within the cluster radius")

    def to_json(self) -> dict:
        return {
            "r": len(self.parameters),
            "parameters": list(self.parameters),
            "residual": self.residual,
            "matched": self.matched.to_json(),
        }


def _fdot(a, b) -> float:
    return sum(x * y for x, y in zip(a, b))


def _residual_vec(taus, v, slots):
    """v minus its least-squares fit by the curve columns at taus, in
    floats, by modified Gram-Schmidt applied twice.  Each column is
    normalized first, which leaves the span (and so the residual) unchanged
    while taming the Vandermonde-style conditioning; a column whose part
    outside the earlier ones is at most len(v) ulps long is dropped, the
    cutoff of a least-squares solve at the default rcond."""
    qs = []
    for t in taus:
        a = [t**k for k in slots]
        norm = math.hypot(*a)
        a = [x / norm for x in a]
        for _ in range(2):
            for q in qs:
                c = _fdot(q, a)
                a = [x - c * y for x, y in zip(a, q)]
        norm = math.hypot(*a)
        if norm > len(v) * 2.0**-52:
            qs.append([x / norm for x in a])
    res = list(v)
    for _ in range(2):
        for q in qs:
            c = _fdot(q, res)
            res = [x - c * y for x, y in zip(res, q)]
    return res


def _solve_damped(H, mu: float, g):
    """(H + mu I) x = g by Gaussian elimination with partial pivoting in
    floats; a zero pivot raises ZeroDivisionError."""
    n = len(g)
    A = [row[:i] + [row[i] + mu] + row[i + 1:] + [b] for i, (row, b) in enumerate(zip(H, g))]
    for j in range(n):
        pj = max(range(j, n), key=lambda i: abs(A[i][j]))
        A[j], A[pj] = A[pj], A[j]
        for row in A[j + 1:]:
            f = row[j] / A[j][j]
            row[j:] = [x - f * y for x, y in zip(row[j:], A[j][j:])]
    x = [0.0] * n
    for i in reversed(range(n)):
        x[i] = (A[i][n] - _fdot(A[i][i + 1:n], x[i + 1:])) / A[i][i]
    return x


def _lm_float(taus, v, slots, max_iter: int = 80):
    """Levenberg-Marquardt with a finite-difference Jacobian of the
    variable-projection residual; scalars are eliminated by least squares.
    The target, a squared residual below 1e-26, is tested before each step,
    so a start already there takes none.  A step whose solve is singular or
    whose residual overflows counts as a failed step."""
    mu = 1e-3
    res = _residual_vec(taus, v, slots)
    best = _fdot(res, res)
    for _ in range(max_iter):
        if best < 1e-26:
            break
        J = []
        for i, t in enumerate(taus):
            h = 1e-6 * max(1.0, abs(t))
            bumped = taus[:i] + [t + h] + taus[i + 1:]
            J.append([(x - y) / h for x, y in zip(_residual_vec(bumped, v, slots), res)])
        g = [-_fdot(a, res) for a in J]
        H = [[_fdot(a, b) for b in J] for a in J]
        stepped = False
        for _ in range(8):
            try:
                cand = [t + d for t, d in zip(taus, _solve_damped(H, mu, g))]
                cres = _residual_vec(cand, v, slots)
            except (ZeroDivisionError, OverflowError):
                mu *= 10
                continue
            cval = _fdot(cres, cres)
            if cval < best:
                taus, res, best = cand, cres, cval
                mu = max(mu / 3, 1e-12)
                stepped = True
                break
            mu *= 10
        if not stepped:
            break
    return taus, best


def _dot(a, b, p: int) -> int:
    return sum(map(mul, a, b)) >> p


def _lu_solver(M, bits: int):
    """Solver of M x = b at scale 2^(bits + GUARD_BITS) by the LU of mpmath's
    LU_decomp: the pivot row has the largest |pivot| / row sum, and a row sum
    or pivot at most |M|_1 2^(1 - bits) (mpmath's eps) raises ZeroDivisionError."""
    p, A, n = bits + GUARD_BITS, [list(row) for row in M], len(M)
    tol, order = max(sum(abs(row[j]) for row in A) for j in range(n)), list(range(n))
    for j in range(n):
        sums = {k: sum(map(abs, A[k][j:])) for k in range(j, n)}
        pj = max(sums, key=lambda k: abs(A[k][j]) / (sums[k] or 1))
        A[j], A[pj], order[j], order[pj] = A[pj], A[j], order[pj], order[j]
        if min(*sums.values(), abs(A[j][j])) << (bits - 1) <= tol:
            raise ZeroDivisionError("matrix is numerically singular")
        for row in A[j + 1:]:
            row[j] = (row[j] << p) // A[j][j]
            row[j + 1:] = [x - (row[j] * y >> p) for x, y in zip(row[j + 1:], A[j][j + 1:])]

    def solve(b):
        x = [b[i] for i in order]
        for i in range(n):
            x[i] -= _dot(A[i][:i], x, p)
        for i in reversed(range(n)):
            x[i] = (x[i] - _dot(A[i][i + 1:], x[i + 1:], p) << p) // A[i][i]
        return x

    return solve


def _fit(taus, v, slots, bits: int):
    """Variable-projection fit of v by the normalized curve columns
    a_i = phi(tau_i)/|phi(tau_i)|, with the scalars c from the Gram normal
    equations: the residual (I - P_A) v, and a function that builds the
    Kaufman Jacobian columns -c_i (I - P_A) a_i', so that a fit the polish
    does not step from never pays for their r projections.  All are integers
    at scale 2^(bits + GUARD_BITS).  One LU of the Gram matrix serves the
    scalars and all r projections; a singular one raises ZeroDivisionError."""
    p = bits + GUARD_BITS
    cols, ders = [], []
    for t in taus:
        pw = list(accumulate(range(slots[-1]), lambda x, _: x * t >> p, initial=1 << p))
        phi = [pw[k] for k in slots]
        norm = math.isqrt(sum(x * x for x in phi))  # >= 2^p: slot 0 is t^0
        cols.append([(x << p) // norm for x in phi])
        # a_i' = (phi' - a_i (a_i . phi')) / |phi|, and the projection
        # removes the a_i part, so phi' / |phi| stands in for it
        ders.append([(k * pw[k - 1] << p) // norm if k else 0 for k in slots])
    solve = _lu_solver([[_dot(a, b, p) for b in cols] for a in cols], bits)
    rows = list(zip(*cols))

    def perp(b):
        """G^-1 A^T b and b - A G^-1 A^T b."""
        x = solve([_dot(a, b, p) for a in cols])
        return x, [bk - _dot(x, row, p) for bk, row in zip(b, rows)]

    coef, res = perp(v)
    return res, lambda: [[-c * y >> p for y in perp(d)[1]] for c, d in zip(coef, ders)]


def _polish(P: ProjectedPoint, taus0, precision_bits: int, tolerance: float):
    """Gauss-Newton on the variable-projection residual (I - P_A(tau)) v in
    fixed-point integers at scale 2^(precision_bits + GUARD_BITS), with the
    analytic Jacobian of _fit; returns (taus, residual) as floats, or None
    when the starting columns are degenerate.

    Each iteration tries the undamped step first, which converges
    quadratically from the float hand-over, and falls back to
    Levenberg-Marquardt damping only when that step does not lower the
    residual.  A step is taken only when it lowers the residual, and the
    Jacobian is built only where the next step starts.  The target is
    tested before each step: from a residual already below it only the
    undamped step is tried, and when that fails the polish ends.
    """
    p = precision_bits + GUARD_BITS
    den = math.lcm(*(c.denominator for c in P.coords))
    w = [c.numerator * (den // c.denominator) for c in P.coords]
    norm = math.isqrt(sum(x * x for x in w) << 2 * p)  # |w| 2^p
    v = [(x << 2 * p) // norm for x in w]
    slots = P.slots
    taus = [int(Fraction(t) * (1 << p)) for t in taus0]
    try:
        res, jacobian = _fit(taus, v, slots, precision_bits)
    except ZeroDivisionError:
        return None
    best = _dot(res, res, 0)
    target = int(Fraction(tolerance) / 4 * (1 << p)) ** 2
    mu, mu_floor = (1 << p) // 10**12, 1 << GUARD_BITS  # 1e-12 and 2^-bits
    for _ in range(72):
        jac = jacobian()
        H = [[_dot(a, b, p) for b in jac] for a in jac]
        g = [-_dot(a, res, p) for a in jac]
        # below the target a damped retry is not worth its fit
        for damped in (False,) + (True,) * (10 if best >= target else 0):
            M = [row[:i] + [row[i] + damped * mu] + row[i + 1:] for i, row in enumerate(H)]
            try:
                cand = [t + d for t, d in zip(taus, _lu_solver(M, precision_bits)(g))]
                fit = _fit(cand, v, slots, precision_bits)
            except ZeroDivisionError:
                fit = None
            cval = _dot(fit[0], fit[0], 0) if fit else best
            if cval < best:
                taus, (res, jacobian), best = cand, fit, cval
                if damped:
                    mu = max(mu // 10, mu_floor)
                break
            if damped:
                mu *= 100
        else:
            break
        if best < target:
            break
    return [t / (1 << p) for t in taus], math.isqrt(best) / (1 << p)


def _moment_seeds(P: ProjectedPoint, r: int):
    """Parameter seeds from the moment structure of the coordinates.

    The coordinates of P are power sums sum_i alpha_i t_i^k with the k=1
    entry missing, so the moment matrix rows (a_{j+k})_k for j >= 2 avoid the
    unknown entry entirely.  Whenever r curve points (1:t_i) span P, the
    root polynomial prod (x - t_i) lies in the exact kernel of these rows;
    the real roots of kernel polynomials seed the optimizer.  The rows are
    the level-r catalecticant of B'', so their kernel is Ann(B'')_r, spanned
    by the level-r shifts of the generators g1, g2 of the apolar ideal of
    B'' (``projection._shifts``; the proof is in the ``projection`` module
    docstring), and B'' = 0, the cusp, gives every unit vector.  Returns
    the free-column basis of that kernel (``linalg.free_column_basis``), or
    None when no row is known (r >= n) or the kernel is trivial.
    """
    if r >= P.n:
        return None
    gens = _ideal_generators(P._cleared[1][2:])  # B'' in integers
    return linalg.free_column_basis(_shifts(gens, r)) or None


def _roots_of(poly_ascending) -> list[float]:
    """Real roots of a polynomial given by ascending float coefficients,
    from the pure-Python Aberth iteration of binform._float_seeds; a root
    counts as real when |Im z| <= 1e-6 (1 + |z|)."""
    top = max(map(abs, poly_ascending))
    if top == 0:
        return []
    coeffs = [c / top for c in poly_ascending]
    # drop numerically-zero leading coefficients (roots at infinity)
    k = len(coeffs)
    while k > 1 and abs(coeffs[k - 1]) < 1e-10:
        k -= 1
    if k <= 1:
        return []
    return [z.real for z in _float_seeds(tuple(coeffs[:k]))
            if abs(z.imag) <= 1e-6 * (1.0 + abs(z))]


def xrank_upper_search(P: ProjectedPoint, cfg: SearchConfig) -> SpanWitness | None:
    """Search for r real curve points whose span hits P.

    Multi-start least squares in the parameter chart.  Starts are seeded
    from the moment structure of the coordinates where the degree allows it
    (pure random otherwise), perturbed progressively, and each start picks
    its own torus rescale so the rescaled parameters stay O(1).  Promising
    starts are polished at cfg.precision_bits and accepted when the
    relative residual drops below cfg.tolerance with parameters separated
    beyond the cluster radius.  Returns the first acceptance in start
    order, or None when every start fails; None proves nothing about the
    rank.
    """
    if not 1 <= cfg.r <= P.n:
        raise ValueError("target cardinality outside 1..n")
    rng = random.Random(f"span-search:{cfg.seed}:{cfg.r}")
    slots = P.slots
    base = [float(c) for c in P.coords]
    null_basis = _moment_seeds(P, cfg.r)
    if null_basis is not None:
        # largest entry 1, so that gaussian combinations stay in float range
        null_basis = [[c / max(map(abs, b)) for c in b] for b in null_basis]

    polish_budget = 8
    for start in range(cfg.starts):
        taus0: list[float] = []
        if null_basis is not None and start % 4 != 3:
            if len(null_basis) == 1:
                poly = null_basis[0]
            else:
                combo = [rng.gauss(0.0, 1.0) for _ in null_basis]
                poly = [_fdot(combo, column) for column in zip(*null_basis)]
            taus0 = _roots_of(poly)[: cfg.r]
            # grow the perturbation with the start index so repeated seeds
            # explore around a near-miss instead of repeating it
            wiggle = 0.02 * min(start, 8)
            if wiggle:
                taus0 = [
                    t + rng.gauss(0.0, wiggle * (1.0 + abs(t))) for t in taus0
                ]
        while len(taus0) < cfg.r:
            taus0.append(rng.uniform(-2.8, 2.8))
        spread = max(1.0, max(abs(t) for t in taus0))
        s = (1.0 / spread) * math.exp(rng.uniform(-0.15, 0.15))
        if rng.random() < 0.5:
            s = -s
        scaled = [x * s**k for x, k in zip(base, slots)]
        big = max(map(abs, scaled))
        if not math.isfinite(big) or big == 0:
            continue
        v = [x / big for x in scaled]
        norm = math.hypot(*v)
        taus, val = _lm_float([t * s for t in taus0], [x / norm for x in v], slots)
        if val >= 1e-18:
            continue
        # polish on hit; the first acceptance in start order is the
        # witness, so the reduction over starts is deterministic
        if polish_budget == 0:
            break
        polish_budget -= 1
        polished = _polish(P, [t / s for t in taus], cfg.precision_bits, cfg.tolerance)
        if polished is None:
            continue
        ptaus, resid = polished
        if resid >= cfg.tolerance:
            continue
        ps = sorted(ptaus)
        if any(
            abs(ps[i] - ps[i + 1]) <= CLUSTER_RADIUS for i in range(len(ps) - 1)
        ):
            continue
        return SpanWitness(tuple(ps), resid, P)
    return None
