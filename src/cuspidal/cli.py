"""Command-line front end.

One subcommand per library operation, JSON on stdout (JSON lines for batch
input), deterministic given --seed.  Only decompose and verify-decomp take
--precision-bits, and only generate, probe and verify take --seed; any other
subcommand refuses them as a usage error.  Every input line gives exactly one
output record, its result or a structured error, and a bad line does not
stop the batch.  Exit codes: 0 all checks passed, 1 some line failed or a
check failed (structured error JSON on stdout) or stdout was closed early
(the rest of the output is dropped, with no traceback), 2 usage.  Each
subcommand imports what it runs: ``rank``, ``borderrank`` and ``scheme``
load no mpmath, numpy, ``classifier``, ``projection`` or ``oracle``; mpmath
comes with decompositions and the JSON of quadratic irrational lambda, numpy
with the span search of ``oracle`` and nothing else: ``decompose`` seeds its
roots in pure Python, and ``probe`` and the ``verify`` battery run the
oracle's exact checks (see the README).

Forms are accepted in the text grammar ``d=<int>; [q0,q1,...]`` or as JSON
records carrying "degree" and "coeffs" (either at the top level or under
"form"), so subcommands pipe into each other: generate | classify | verify.
A "degree" (and the "n" of an xrank record) is a JSON integer or a string
of a decimal integer; a float or a boolean is an error, never truncated.
A "basis", when present, must be "monomial".

Defaults come from flags first, then the environment (CUSPIDAL_PRECISION_BITS,
CUSPIDAL_SEED), then built-ins (192 bits, seed 0).  A variable is read only by
the subcommands that take its flag, and a value there that is not an integer
is a usage error, exit 2, like a bad flag.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import apolarity
from .apolarity import Decomposition, decompose, residual_string, verify_decomposition
from .binform import BinaryForm, GrammarError, _check_degree, _coefficient, parse_form

ENV_PRECISION = "CUSPIDAL_PRECISION_BITS"
ENV_SEED = "CUSPIDAL_SEED"

_FAILURES = (ValueError, ArithmeticError, RuntimeError)


def _emit(blob: dict) -> None:
    print(json.dumps(blob))


def _error(exc: Exception) -> dict:
    return {"error": {"type": type(exc).__name__, "message": str(exc)}}


def _fail(exc: Exception) -> int:
    _emit(_error(exc))
    return 1


def _form_json(f: BinaryForm) -> dict:
    return {"degree": f.degree, "coeffs": [str(c) for c in f.coeffs]}


def _form_from_record(rec: dict) -> BinaryForm:
    """The form at the top level of rec, else the one nested under "form"."""
    if isinstance(rec, dict) and not ("degree" in rec and "coeffs" in rec) and "form" in rec:
        return _form_from_record(rec["form"])
    return BinaryForm.from_json(rec)


def _parse_form_text(line: str) -> BinaryForm:
    line = line.strip()
    if line.startswith("{"):
        return _form_from_record(json.loads(line))
    return parse_form(line)


def _input_lines(args) -> list[str]:
    if args.input:
        return [args.input]
    if args.file:
        try:
            with open(args.file, encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise GrammarError(f"cannot read --file {args.file}: {exc}") from None
    else:
        text = sys.stdin.read()
    return [ln for ln in text.splitlines() if ln.strip()]


def _for_each_line(lines, handler) -> int:
    """Emit one record per line: handler's result, or the error it raised.
    Returns 1 when some line failed or gave a record with "ok" false."""
    status = 0
    for line in lines:
        try:
            blob = handler(line)
        except _FAILURES as exc:
            status = _fail(exc)
            continue
        _emit(blob)
        if blob.get("ok") is False:
            status = 1
    return status


def _for_each_form(args, handler) -> int:
    return _for_each_line(_input_lines(args), lambda line: handler(_parse_form_text(line)))


# -- subcommand handlers -------------------------------------------------------


def cmd_rank(args) -> int:
    return _for_each_form(args, lambda f: {"d": f.degree, **apolarity.rank(f).to_json()})


def cmd_borderrank(args) -> int:
    return _for_each_form(args, lambda f: {"d": f.degree, "w": apolarity.border_rank(f)})


def cmd_scheme(args) -> int:
    def handler(f):
        scheme, unique = apolarity.border_scheme(f)
        return {"d": f.degree, "scheme": scheme.to_json(), "unique": unique}

    return _for_each_form(args, handler)


def cmd_decompose(args) -> int:
    return _for_each_form(
        args,
        lambda f: {
            "form": _form_json(f),
            "decomposition": decompose(f, args.precision_bits).to_json(),
        },
    )


def cmd_verify_decomp(args) -> int:
    import mpmath

    def handler(line):
        rec = json.loads(line)
        if not isinstance(rec, dict):
            raise GrammarError("a decomposition record is a JSON object")
        try:
            dec = Decomposition.from_json(rec.get("decomposition", rec))
        except (KeyError, TypeError, IndexError) as exc:
            raise GrammarError(f"malformed decomposition record: {exc!r}") from None
        if "form" in rec or ("degree" in rec and "coeffs" in rec):
            f = _form_from_record(rec)
        elif args.form:
            f = _parse_form_text(args.form)
        else:
            raise GrammarError("no form given for verification")
        resid = verify_decomposition(f, dec)
        with mpmath.workprec(args.precision_bits + 16):
            bound = mpmath.mpf(2) ** (-(args.precision_bits // 2))
            return {
                "relative_residual": residual_string(resid, 10),
                "bound": mpmath.nstr(bound, 10),
                "ok": bool(resid < bound),
            }

    return _for_each_line(_input_lines(args), handler)


def cmd_project(args) -> int:
    from .projection import project

    return _for_each_form(args, lambda f: project(f).to_json())


def cmd_xrank(args) -> int:
    from .projection import ProjectedPoint, x_rank

    def handler(line):  # one input line, or --coords when line is None
        if line is not None:
            P = ProjectedPoint.from_json(json.loads(line))
        elif args.n is None:
            raise GrammarError("--coords needs --n")
        else:
            _check_degree(args.n + 1)
            P = ProjectedPoint(args.n, tuple(_coefficient(c) for c in args.coords.split(",")))
        return {"n": P.n, **x_rank(P).to_json()}

    return _for_each_line([None] if args.coords else _input_lines(args), handler)


def cmd_classify(args) -> int:
    from .classifier import classify

    def handler(f):
        v = classify(f)
        blob = v.to_json()
        blob["form"] = _form_json(f)
        if args.explain:
            blob["explain"] = v.explain()
        return blob

    return _for_each_form(args, handler)


def cmd_generate(args) -> int:
    from .classifier import InstanceSpec, generate_instance

    try:
        for k in range(args.count):
            spec = InstanceSpec(args.case, args.n, args.level, seed=args.seed + k)
            _emit(generate_instance(spec).to_json())
    except _FAILURES as exc:
        return _fail(exc)
    return 0


def cmd_probe(args) -> int:
    from .oracle import secant_dimension_probe

    try:
        dim = secant_dimension_probe(args.s, args.n, seed=args.seed)
    except _FAILURES as exc:
        return _fail(exc)
    expected = min(args.n, 2 * args.s - 1)
    ok = dim == expected
    _emit({"s": args.s, "n": args.n, "dimension": dim, "expected": expected, "ok": ok})
    return 0 if ok else 1


def _crosscheck_ok(rep: dict) -> bool:
    if rep.get("match") is False and rep.get("case") != "e4_iii":
        return False
    if not rep.get("o_span", {}).get("agree", True):
        return False
    return True


_BATTERY_DEFAULTS = {"fuzz_samples": 150, "fuzz_degrees": [2, 3, 4, 5, 6], "probe_max_n": 7}

_VERIFY_BATTERY = [
    ("e4_i", 6, 2),
    ("e4_ii", 7, 4),
    ("e4_iii", 5, 4),
    ("e3_2", 7, 3),
    ("e3_3_wminus1", 7, 4),
    ("e3_3_wminus2", 7, 4),
    ("e3_3_cusp", 5, 2),
    ("e3_4_exact", 9, 4),
    ("e3_4_interval", 8, 4),
    ("e3_5", 8, 4),
]


def cmd_verify(args) -> int:
    from .classifier import InstanceSpec, crosscheck, generate_instance

    oks = []

    def check(blob: dict, ok: bool) -> None:
        oks.append(ok)
        _emit({**blob, "ok": ok})

    has_input = bool(args.input or args.file)
    lines = _input_lines(args) if has_input or not (args.battery or sys.stdin.isatty()) else []
    if has_input or lines:
        for line in lines:
            try:
                rep = crosscheck(_parse_form_text(line))
                check({"check": "crosscheck", **rep}, _crosscheck_ok(rep))
            except _FAILURES as exc:
                check({"check": "crosscheck", **_error(exc)}, False)
    else:
        from .oracle import dichotomy_fuzz, secant_dimension_probe

        for d in args.fuzz_degrees:
            try:
                rep = dichotomy_fuzz(d, args.fuzz_samples, seed=args.seed)
                check({"check": "fuzz", **rep}, rep["violations"] == 0)
            except AssertionError as exc:
                check({"check": "fuzz", "degree": d, "detail": str(exc)}, False)
            except _FAILURES as exc:
                check({"check": "fuzz", "degree": d, **_error(exc)}, False)
        for n in range(3, args.probe_max_n + 1):
            for s in range(1, (n + 2) // 2 + 1):
                blob = {"check": "probe", "s": s, "n": n}
                try:
                    dim = secant_dimension_probe(s, n, seed=args.seed)
                except _FAILURES as exc:
                    check({**blob, **_error(exc)}, False)
                    continue
                expected = min(n, 2 * s - 1)
                check({**blob, "dimension": dim, "expected": expected}, dim == expected)
        for tag, n, level in _VERIFY_BATTERY:
            blob = {"check": "crosscheck", "case_expected": tag}
            try:
                inst = generate_instance(InstanceSpec(tag, n, level, seed=args.seed))
                rep = crosscheck(inst.form)
                check({**blob, **rep}, rep.get("case") == tag and _crosscheck_ok(rep))
            except _FAILURES as exc:
                check({**blob, **_error(exc)}, False)

    _emit({"check": "summary", "records": len(oks), "failed": oks.count(False)})
    return 0 if all(oks) else 1


# -- parser --------------------------------------------------------------------


def _env_int(parser: argparse.ArgumentParser, name: str, fallback: int) -> int:
    raw = os.environ.get(name)
    if raw is None:
        return fallback
    try:
        return int(raw)
    except ValueError:
        parser.error(f"invalid {name}={raw!r}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cuspidal",
        description="Exact ranks of binary forms and of their projections "
        "to the cuspidal curve.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_input=True, precision=False, seed=False):
        if precision:
            p.add_argument("--precision-bits", type=int, help="working precision")
        if seed:
            p.add_argument("--seed", type=int)
        if with_input:
            p.add_argument("input", nargs="?", help="form text or JSON record")
            p.add_argument("--file", help="read inputs from a file")

    for name, fn, doc in [
        ("rank", cmd_rank, "rank and border rank with a witness"),
        ("borderrank", cmd_borderrank, "border rank only"),
        ("scheme", cmd_scheme, "border scheme at the first kernel level"),
        ("decompose", cmd_decompose, "minimal power-sum decomposition"),
        ("project", cmd_project, "projection away from the second coordinate"),
        ("classify", cmd_classify, "case classification of the projected point"),
    ]:
        p = sub.add_parser(name, help=doc)
        common(p, precision=name == "decompose")
        p.set_defaults(fn=fn)
    sub.choices["classify"].add_argument(
        "--explain", action="store_true", help="append the hypothesis trace"
    )

    p = sub.add_parser("verify-decomp", help="check a decomposition record")
    common(p, precision=True)
    p.add_argument("--form", help="form text when records carry none")
    p.set_defaults(fn=cmd_verify_decomp)

    p = sub.add_parser("xrank", help="exact rank with respect to the cuspidal curve")
    common(p)
    p.add_argument("--n", type=int, help="ambient dimension")
    p.add_argument("--coords", help="comma-separated rational coordinates")
    p.set_defaults(fn=cmd_xrank)

    p = sub.add_parser("generate", help="random instance of a classification case")
    common(p, with_input=False, seed=True)
    p.add_argument("--case", required=True)
    p.add_argument("--n", type=int, required=True)
    level = p.add_mutually_exclusive_group(required=True)
    level.add_argument("--level", type=int)
    level.add_argument("--w", dest="level", type=int, help="alias for --level on border-gap cases")
    level.add_argument("--rho", dest="level", type=int, help="alias for --level on reduced cases")
    p.add_argument("--count", type=int, default=1)
    p.set_defaults(fn=cmd_generate)

    p = sub.add_parser("probe", help="secant dimension probe")
    common(p, with_input=False, seed=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(fn=cmd_probe)

    p = sub.add_parser("verify", help="crosscheck records, or run the built-in battery")
    common(p, seed=True)
    p.add_argument("--fuzz-samples", type=int)
    p.add_argument("--fuzz-degrees", type=lambda s: [int(x) for x in s.split(",")])
    p.add_argument("--probe-max-n", type=int)
    p.set_defaults(fn=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    for flag in ("count", "fuzz_samples"):
        if (value := getattr(args, flag, None)) is not None and value < 1:
            parser.error(f"argument --{flag.replace('_', '-')}: must be at least 1, got {value}")
    if args.fn is cmd_verify:  # any battery flag given selects the battery
        given = {k: v for k in _BATTERY_DEFAULTS if (v := getattr(args, k)) is not None}
        if given and (args.input or args.file):
            parser.error("the battery flags of verify take no input record")
        vars(args).update(_BATTERY_DEFAULTS, **given, battery=bool(given))
    for dest, name, fallback in (("precision_bits", ENV_PRECISION, 192), ("seed", ENV_SEED, 0)):
        if getattr(args, dest, fallback) is None:  # the subcommand takes the flag
            setattr(args, dest, _env_int(parser, name, fallback))
    try:
        try:
            status = args.fn(args)
        except GrammarError as exc:
            status = _fail(exc)
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # the reader closed stdout: send what is left, and the flush at
        # exit, to the null device instead of raising again there
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
