"""The exact bits of ``decompose`` and ``verify_decomposition`` on seeded forms.

Each form is decomposed at 64, 128 and 192 bits.  The test hashes the
published JSON together with the raw bits of every term (mpmath's
``_mpf_``/``_mpc_`` tuples, exact rationals as strings), keeps the raw bits
of the residual that ``verify_decomposition`` recomputes, and compares both
with ``decomposition_digests.json`` beside this file; a decomposition that
raises an ArithmeticError is pinned by the exception's name.  The forms
reach all three paths of ``decompose``: rational points, (0:1) among them;
one conjugate pair over a quadratic field; the roots of a cofactor of degree
3 to 12 left after the rational points, a cluster of three roots near 10^30
among them, at degrees up to 24, each complex scalar the exact residue
formula at its stored point rounded once.  No pinned form needs the
irreducibility proof of ``ratfactor``.  A change that alters any bit fails
here and names the forms; if the change is meant, regenerate the digests
and say why in the ledger:

    PYTHONPATH=src python tests/test_decomposition_digests.py --write
"""

import hashlib
import json
import random
import sys
from fractions import Fraction
from math import comb
from pathlib import Path

import mpmath

from cuspidal.apolarity import decompose, verify_decomposition
from cuspidal.binform import BinaryForm, random_form
from oracles import fraction_residual_squared

HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "decomposition_digests.json"
BITS = (64, 128, 192)


def _bits(x) -> str:
    """The exact value of x: a rational as a string, an mpmath number by its
    sign, mantissa, exponent and bit count."""
    if isinstance(x, (int, Fraction)):
        return str(Fraction(x))
    if isinstance(x, mpmath.mpc):
        return str(x._mpc_)
    return str(mpmath.mpf(x)._mpf_)


def _power_sum(d: int, terms) -> BinaryForm:
    """sum s (a u + b t)^d over rational terms (s, (a, b))."""
    coeffs = [
        sum(comb(d, j) * s * a ** (d - j) * b**j for s, (a, b) in terms) for j in range(d + 1)
    ]
    return BinaryForm(d, tuple(coeffs))


def _power_sums(monic, count: int) -> list[Fraction]:
    """Power sums p_0..p_(count-1) of the roots of the monic polynomial
    x^m + monic[m-1] x^(m-1) + ... + monic[0], by Newton's identities."""
    m = len(monic)
    e = lambda i: monic[m - i] if i <= m else 0  # noqa: E731  coefficient of x^(m-i)
    p = [Fraction(m)]
    for n in range(1, count):
        p.append(-sum(e(i) * p[n - i] for i in range(1, n)) - n * e(n))
    return p


def _trace_form(d: int, monic, s0, s1) -> BinaryForm:
    """sum over the roots x of the monic polynomial of (s0 + s1 x)(u + x t)^d,
    rational because it is a trace."""
    p = _power_sums(monic, d + 2)
    return BinaryForm(d, tuple(comb(d, j) * (s0 * p[j] + s1 * p[j + 1]) for j in range(d + 1)))


def _quadratic_pair(d: int, m: int, x, y, c, q) -> BinaryForm:
    """(x + y r)(u + (c + q r) t)^d plus its conjugate, r = sqrt(m)."""
    coeffs, p, s = [], Fraction(1), Fraction(0)  # (c + q r)^j = p + s r
    for j in range(d + 1):
        coeffs.append(comb(d, j) * 2 * (x * p + y * s * m))
        p, s = p * c + s * q * m, p * q + s * c
    return BinaryForm(d, tuple(coeffs))


def _rational_terms(rng, count: int, with_t: bool):
    taus = set()
    while len(taus) < count:
        taus.add(Fraction(rng.randint(-30, 30), rng.randint(1, 7)))
    pts = [(Fraction(1), tau) for tau in sorted(taus)]
    if with_t:
        pts.append((Fraction(0), Fraction(1)))
    return [(Fraction(rng.choice((-1, 1)) * rng.randint(1, 40), rng.randint(1, 9)), p) for p in pts]


def digest_forms():
    """(label, form) for each seeded form of the pinned set."""
    rng = random.Random("decomposition-digests")
    for d, count in ((3, 1), (6, 2), (9, 3), (20, 5), (23, 7)):
        for with_t in (False, True):
            terms = _rational_terms(rng, count, with_t)
            yield f"rational/{d}/{len(terms)}", _power_sum(d, terms)
    for d, m in ((4, 2), (7, -3), (12, 5), (21, -1)):
        x, y, c, q = (Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 4)) for _ in range(4))
        f = _quadratic_pair(d, m, x, y, c, q)
        extra = _rational_terms(rng, d // 4, with_t=d % 2 == 1)
        yield f"algebraic/{d}/{m}", f + _power_sum(d, extra)
    for d, monic in ((5, (-2, 0, 0)), (8, (-1, -1, 0)), (11, (-1, -1, 0, 0, 0)),
                     (20, (1, 0, 0, 0)), (24, (3, -2, 0, 1, 0))):
        s0, s1 = Fraction(rng.randint(1, 9), rng.randint(1, 5)), Fraction(rng.randint(-9, 9))
        f = _trace_form(d, monic, s0, s1)
        extra = _rational_terms(rng, 1, with_t=True)
        yield f"complex/{d}/{len(monic)}", f + _power_sum(d, extra)
    for d in range(4, 25):
        for i in range(2):
            yield f"random/{d}/{i}", random_form(d, rng, bound=rng.choice((9, 100)))
    # (x - M)^3 - 2: three roots within 2 of each other near M = 10^30 + 7
    M = 10**30 + 7
    yield "cluster/7", _trace_form(7, (-M**3 - 2, 3 * M**2, -3 * M), Fraction(1), Fraction(0))


def _entry(f: BinaryForm, bits: int) -> dict:
    try:
        dec = decompose(f, bits)
    except ArithmeticError as exc:
        return {"raises": type(exc).__name__}
    blob = [dec.to_json(), [[_bits(s), _bits(a), _bits(b)] for s, (a, b) in dec.terms],
            _bits(dec.residual)]
    return {
        "field": dec.field_tag,
        "digest": hashlib.sha256(json.dumps(blob).encode()).hexdigest()[:16],
        "residual": _bits(verify_decomposition(f, dec)),
    }


def decomposition_digests() -> dict[str, dict]:
    return {f"{label}@{bits}": _entry(f, bits) for label, f in digest_forms() for bits in BITS}


def test_decompositions_unchanged():
    """Every pinned digest."""
    with open(DIGESTS) as fh:
        want = json.load(fh)
    got = decomposition_digests()
    assert got.keys() == want.keys()
    changed = [key for key in want if got[key] != want[key]]
    assert not changed, f"{len(changed)} changed, first: {changed[:10]}"


def test_the_pinned_forms_reach_every_path():
    with open(DIGESTS) as fh:
        want = json.load(fh)
    fields = {entry.get("field", entry.get("raises")) for entry in want.values()}
    assert {"rational", "algebraic", "complex"} <= fields


def test_published_residuals_bound_the_exact_ones():
    """For every pinned decomposition with inexact terms, the residual
    string that ``to_json`` publishes is at least the exact residual of
    the terms as stored, computed term by term in Fractions by the oracle,
    and on the complex path that exact residual is below the gate
    2^(-bits/2) of ``decompose``."""
    checked = 0
    for label, f in digest_forms():
        for bits in BITS:
            try:
                dec = decompose(f, bits)
            except ArithmeticError:
                continue
            if dec.field_tag == "rational":
                continue
            exact = fraction_residual_squared(f, dec.terms)
            assert Fraction(dec.to_json()["residual"]) ** 2 >= exact, (label, bits)
            if dec.field_tag == "complex":
                assert exact < Fraction(1, 2 ** (2 * ((bits + 1) // 2))), (label, bits)
            checked += 1
    assert checked >= 100


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_decomposition_digests.py --write")
    with open(DIGESTS, "w") as fh:
        json.dump(decomposition_digests(), fh, indent=1, sort_keys=True)
        fh.write("\n")
