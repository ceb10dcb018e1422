"""Command-line interface: schemas, exit codes, piping, configuration."""

import contextlib
import io
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from cuspidal import projection
from cuspidal.binform import MAX_COEFFICIENT_BITS, MAX_DEGREE
from cuspidal.cli import _build_parser, main


def run(capsys, monkeypatch, argv, stdin=""):
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code = main(argv)
    out = capsys.readouterr().out
    lines = [json.loads(ln) for ln in out.splitlines() if ln.strip()]
    return code, lines


class TestRankCommands:
    def test_rank_monomial(self, capsys, monkeypatch):
        code, recs = run(capsys, monkeypatch, ["rank", "d=5; [0,1,0,0,0,0]"])
        assert code == 0
        assert recs[0]["d"] == 5
        assert recs[0]["w"] == 2
        assert recs[0]["r"] == 5
        assert recs[0]["witness"]["type"] == "nonreduced"

    def test_borderrank(self, capsys, monkeypatch):
        code, recs = run(capsys, monkeypatch, ["borderrank", "d=5; [0,1,0,0,0,0]"])
        assert code == 0
        assert recs[0] == {"d": 5, "w": 2}

    def test_scheme(self, capsys, monkeypatch):
        code, recs = run(capsys, monkeypatch, ["scheme", "d=5; [0,1,0,0,0,0]"])
        assert code == 0
        assert recs[0]["scheme"]["degree"] == 2
        assert recs[0]["scheme"]["reduced"] is False
        assert recs[0]["unique"] is True

    def test_rank_accepts_json_record(self, capsys, monkeypatch):
        rec = json.dumps({"degree": 4, "coeffs": ["1", "0", "0", "0", "1"]})
        code, recs = run(capsys, monkeypatch, ["rank", rec])
        assert code == 0
        assert recs[0]["r"] == 2

    def test_batch_stdin_order_preserved(self, capsys, monkeypatch):
        stdin = "d=4; [1,0,0,0,1]\nd=5; [0,1,0,0,0,0]\n"
        code, recs = run(capsys, monkeypatch, ["rank"], stdin=stdin)
        assert code == 0
        assert [r["d"] for r in recs] == [4, 5]
        assert [r["r"] for r in recs] == [2, 5]

    def test_zero_form_is_structured_error(self, capsys, monkeypatch):
        code, recs = run(capsys, monkeypatch, ["rank", "d=2; [0,0,0]"])
        assert code == 1
        assert recs[0]["error"]["type"] == "ZeroFormError"

    @pytest.mark.parametrize("sub", ["rank", "borderrank", "scheme"])
    def test_degree_zero_is_structured_error(self, capsys, monkeypatch, sub):
        # a constant has no catalecticant level 1, where its kernel would be
        code, recs = run(capsys, monkeypatch, [sub, "d=0; [3]"])
        assert code == 1
        message = "catalecticant level 1 out of range for degree 0"
        assert recs == [{"error": {"type": "ValueError", "message": message}}]

    @pytest.mark.parametrize("sub,want", [
        ("rank", {"d": 1, "w": 1, "r": 1,
                  "witness": {"type": "squarefree", "factors": [["3*u+2*t", 1]]}}),
        ("borderrank", {"d": 1, "w": 1}),
        ("scheme", {"d": 1, "scheme": {"factors": [["3*u+2*t", 1]], "degree": 1,
                                       "reduced": True}, "unique": True}),
    ])
    def test_degree_one(self, capsys, monkeypatch, sub, want):
        # the witness 3u + 2t vanishes at (2:-3), the one power-sum point of 2u - 3t
        code, recs = run(capsys, monkeypatch, [sub, "d=1; [2,-3]"])
        assert code == 0
        assert recs == [want]

    def test_bad_grammar_is_structured_error(self, capsys, monkeypatch):
        code, recs = run(capsys, monkeypatch, ["rank", "degree five"])
        assert code == 1
        assert recs[0]["error"]["type"] == "GrammarError"

    @pytest.mark.parametrize("degree", ['4.7', '4.0', '"4.7"', 'null', '"four"'])
    def test_non_integral_degree_rejected(self, capsys, monkeypatch, degree):
        rec = '{"degree": %s, "coeffs": ["1", "0", "0", "0", "1"]}' % degree
        code, recs = run(capsys, monkeypatch, ["rank", rec])
        assert code == 1
        assert len(recs) == 1
        assert recs[0]["error"]["type"] == "GrammarError"

    def test_boolean_degree_is_not_one(self, capsys, monkeypatch):
        rec = '{"degree": true, "coeffs": ["1", "1"]}'
        code, recs = run(capsys, monkeypatch, ["rank", rec])
        assert code == 1
        assert recs[0]["error"]["type"] == "GrammarError"

    def test_non_monomial_basis_is_one_error_record(self, capsys, monkeypatch):
        rec = json.dumps({"degree": 2, "coeffs": ["1", "0", "1"], "basis": "apolar"})
        code, recs = run(capsys, monkeypatch, ["rank", rec])
        assert code == 1
        assert len(recs) == 1
        assert recs[0]["error"]["type"] == "GrammarError"
        assert "basis" in recs[0]["error"]["message"]

    def test_degree_as_integer_string_accepted(self, capsys, monkeypatch):
        rec = json.dumps({"degree": "4", "coeffs": ["1", "0", "0", "0", "1"]})
        code, recs = run(capsys, monkeypatch, ["rank", rec])
        assert code == 0
        assert recs[0]["d"] == 4 and recs[0]["r"] == 2

    def test_size_limits_give_one_error_record_each(self, capsys, monkeypatch):
        """A form above the degree or coefficient limits is one GrammarError
        record with exit 1, and the batch goes on."""
        big = {"degree": 1, "coeffs": [str(2**1024), "1"]}
        stdin = "\n".join([
            "d=4; [1,0,0,0,1]",
            "d=129; [" + ",".join(["1"] * 130) + "]",
            json.dumps(big),
            "d=1; [1/" + str(2**1024) + ",1]",
            "d=5; [0,1,0,0,0,0]",
        ])
        code, recs = run(capsys, monkeypatch, ["rank"], stdin=stdin)
        assert code == 1
        assert [r.get("error", {}).get("type") for r in recs] == [
            None, "GrammarError", "GrammarError", "GrammarError", None]
        assert (recs[0]["r"], recs[4]["r"]) == (2, 5)

    def test_unknown_subcommand_exits_2(self, capsys, monkeypatch):
        with pytest.raises(SystemExit) as err:
            run(capsys, monkeypatch, ["frobnicate"])
        assert err.value.code == 2

    def test_precision_and_seed_only_where_read(self, capsys):
        """--precision-bits goes to decompose and verify-decomp, --seed to
        generate, probe and verify; everywhere else they are usage errors."""
        parser = _build_parser()
        required = {"generate": ["--case", "e4_i", "--n", "6", "--rho", "2"],
                    "probe": ["--s", "2", "--n", "5"]}
        for name in ("rank", "borderrank", "scheme", "decompose", "verify-decomp", "project",
                     "xrank", "classify", "generate", "probe", "verify"):
            for flag, dest, takers in (
                ("--precision-bits", "precision_bits", {"decompose", "verify-decomp"}),
                ("--seed", "seed", {"generate", "probe", "verify"}),
            ):
                argv = [name, *required.get(name, []), flag, "7"]
                if name in takers:
                    assert getattr(parser.parse_args(argv), dest) == 7, argv
                    continue
                with pytest.raises(SystemExit) as err:
                    parser.parse_args(argv)
                assert err.value.code == 2, argv
                assert "unrecognized arguments" in capsys.readouterr().err


class TestDecomposePipeline:
    def test_decompose_then_verify(self, capsys, monkeypatch):
        code, recs = run(capsys, monkeypatch, ["decompose", "d=4; [1,0,0,0,1]"])
        assert code == 0
        line = json.dumps(recs[0])
        code2, recs2 = run(capsys, monkeypatch, ["verify-decomp"], stdin=line)
        assert code2 == 0
        assert recs2[0]["ok"] is True

    def test_verify_decomp_with_external_form(self, capsys, monkeypatch):
        code, recs = run(capsys, monkeypatch, ["decompose", "d=4; [1,0,0,0,1]"])
        dec_only = json.dumps(recs[0]["decomposition"])
        code2, recs2 = run(
            capsys,
            monkeypatch,
            ["verify-decomp", "--form", "d=4; [1,0,0,0,1]"],
            stdin=dec_only,
        )
        assert code2 == 0 and recs2[0]["ok"] is True

    def test_degree_mismatch_fails(self, capsys, monkeypatch):
        code, recs = run(capsys, monkeypatch, ["decompose", "d=4; [1,0,0,0,1]"])
        dec_only = json.dumps(recs[0]["decomposition"])
        code2, recs2 = run(
            capsys,
            monkeypatch,
            ["verify-decomp", "--form", "d=5; [1,0,0,0,0,1]"],
            stdin=dec_only,
        )
        assert code2 == 1
        assert recs2[0]["error"]["type"] == "ValueError"

    @pytest.mark.parametrize(
        "key, value",
        [("degree", 3.7), ("degree", True), ("degree", "3.0"),
         ("precision_bits", -5), ("precision_bits", 63), ("precision_bits", 96.5)],
    )
    def test_verify_decomp_refuses_bad_header(self, capsys, monkeypatch, key, value):
        """A truncated "degree" once verified a cubic's decomposition as
        ok against any form of degree int(degree)."""
        code, recs = run(capsys, monkeypatch, ["decompose", "d=3; [1,0,0,1]"])
        dec = {**recs[0]["decomposition"], key: value}
        code2, recs2 = run(
            capsys, monkeypatch, ["verify-decomp", "--form", "d=3; [1,0,0,1]"],
            stdin=json.dumps(dec),
        )
        assert code2 == 1
        assert recs2[0]["error"]["type"] == "GrammarError"
        assert key in recs2[0]["error"]["message"]

    @pytest.mark.parametrize("scalar", ["1e0", "1.0", "1.5e-1"])
    def test_verify_decomp_refuses_inexact_spellings(self, capsys, monkeypatch, scalar):
        """An exact scalar is an integer or p/q; "1e0" once verified as 1."""
        code, recs = run(capsys, monkeypatch, ["decompose", "d=3; [1,0,0,1]"])
        dec = recs[0]["decomposition"]
        dec["terms"][0]["scalar"] = scalar
        code2, recs2 = run(
            capsys, monkeypatch, ["verify-decomp", "--form", "d=3; [1,0,0,1]"],
            stdin=json.dumps(dec),
        )
        assert code2 == 1
        assert recs2[0]["error"]["type"] == "GrammarError"

    @pytest.mark.parametrize("scalar", [["inf", "0"], ["1", "nan"]])
    def test_verify_decomp_refuses_a_term_that_is_not_finite(self, capsys, monkeypatch, scalar):
        """An infinite or NaN part of a complex scalar has no exact value:
        one ValueError record, exit 1."""
        code, recs = run(capsys, monkeypatch, ["decompose", "d=5; [1,0,0,-10,5,-1]"])
        assert code == 0 and recs[0]["decomposition"]["field"] == "complex"
        recs[0]["decomposition"]["terms"][0]["scalar"] = scalar
        code2, recs2 = run(capsys, monkeypatch, ["verify-decomp"], stdin=json.dumps(recs[0]))
        assert code2 == 1
        assert len(recs2) == 1 and recs2[0]["error"]["type"] == "ValueError"
        assert "not finite" in recs2[0]["error"]["message"]

    @pytest.mark.parametrize(
        "form", ["d=3; [1,0,0,1]", "d=3; [0,1,-1,0]", "d=5; [1,0,0,-10,5,-1]"]
    )
    def test_decompose_refuses_low_precision(self, capsys, monkeypatch, form):
        """The rational, quadratic and complex paths all refuse below 64 bits."""
        code, recs = run(capsys, monkeypatch, ["decompose", "--precision-bits", "10", form])
        assert code == 1
        assert recs[0]["error"] == {
            "type": "ValueError", "message": "precision_bits must be at least 64"
        }


class TestBatchSemantics:
    """Each input line gives exactly one record and a bad line does not
    stop the batch; the exit code is 1 when any line failed."""

    BATCH = "d=2; [1,0,1]\nd=2; [1,0\nd=3; [1,0,0,1]\n"

    def test_rank_goes_on_past_a_bad_line(self, capsys, monkeypatch):
        code, recs = run(capsys, monkeypatch, ["rank"], stdin=self.BATCH)
        assert code == 1
        assert len(recs) == 3
        assert (recs[0]["d"], recs[0]["r"]) == (2, 2)
        assert recs[1]["error"]["type"] == "GrammarError"
        assert (recs[2]["d"], recs[2]["r"]) == (3, 2)

    def test_xrank_goes_on_past_a_bad_line(self, capsys, monkeypatch):
        # the same three lines, projected: n = 3 needs forms of degree 4
        good = [
            json.dumps({"n": 3, "coords": ["1", "0", "0", "1"]}),
            json.dumps({"n": 5, "coords": ["1", "0", "0", "0", "0", "1"]}),
        ]
        stdin = "\n".join([good[0], '{"n": 3, "coords": ["1", "0"', good[1]]) + "\n"
        code, recs = run(capsys, monkeypatch, ["xrank"], stdin=stdin)
        assert code == 1
        assert len(recs) == 3
        assert [recs[0]["n"], recs[2]["n"]] == [3, 5]
        assert recs[0]["value"] == 2 and recs[2]["value"] == 2
        assert recs[1]["error"]["type"] == "JSONDecodeError"

    def test_verify_decomp_goes_on_past_a_bad_line(self, capsys, monkeypatch):
        code, recs = run(capsys, monkeypatch, ["decompose", "d=4; [1,0,0,0,1]"])
        line = json.dumps(recs[0])
        bad = ["{not json", "[1]", "{}", '{"degree": 4, "terms": 3}']
        stdin = "\n".join([line, *bad, line]) + "\n"
        code2, recs2 = run(capsys, monkeypatch, ["verify-decomp"], stdin=stdin)
        assert code2 == 1
        assert len(recs2) == 6
        assert recs2[0]["ok"] is True and recs2[5]["ok"] is True
        assert [r["error"]["type"] for r in recs2[1:5]] == ["JSONDecodeError"] + ["GrammarError"] * 3

    @pytest.mark.parametrize(
        "line",
        [
            '{"degree": 2, "coeffs": 5}',
            '{"form": 5}',
            '{"form": [1, 0, 1]}',
            '{"degree": 4, "coeffs": ["1e5", 0, "2.5", 0, 1]}',
            '{"degree": 1, "coeffs": [0.5, 1]}',
        ],
    )
    def test_malformed_form_record_is_one_error(self, capsys, monkeypatch, line):
        stdin = "\n".join([line, "d=3; [1,0,0,1]"]) + "\n"
        code, recs = run(capsys, monkeypatch, ["rank"], stdin=stdin)
        assert code == 1
        assert recs[0]["error"]["type"] == "GrammarError"
        assert recs[1]["r"] == 2

    @pytest.mark.parametrize("sub", ["rank", "xrank", "classify", "verify-decomp", "verify"])
    def test_unreadable_file_is_one_error(self, capsys, monkeypatch, tmp_path, sub):
        missing = tmp_path / "absent.txt"
        binary = tmp_path / "binary.bin"
        binary.write_bytes(b"\xff\xfe\x00")
        for path in (missing, binary):
            code, recs = run(capsys, monkeypatch, [sub, "--file", str(path)])
            assert code == 1
            assert len(recs) == 1
            assert recs[0]["error"]["type"] == "GrammarError"
            assert str(path) in recs[0]["error"]["message"]

    @settings(derandomize=True, database=None, max_examples=60, deadline=None)
    @given(
        bad=st.one_of(
            st.floats(allow_nan=False, allow_infinity=False).map(json.dumps),
            st.builds("{}e{}".format, st.integers(-99, 99), st.integers(-9, 9)),
            st.builds("{}.{}".format, st.integers(-99, 99), st.integers(0, 99)),
        ),
        slot=st.integers(0, 2),
        spelling=st.sampled_from(("text", "json number", "json string")),
    )
    def test_malformed_coefficient_is_one_error(self, bad, slot, spelling):
        """Exponents, decimals and JSON floats are outside the rational
        grammar, in the text grammar and in JSON records alike."""
        if spelling == "text":
            coeffs = ["1", "0", "1"]
            coeffs[slot] = bad
            line = "d=2; [%s]" % ",".join(coeffs)
        else:
            coeffs = ['"1"', "0", '"1"']
            coeffs[slot] = bad if spelling == "json number" else json.dumps(bad)
            line = '{"degree": 2, "coeffs": [%s]}' % ", ".join(coeffs)
        stdin = "\n".join(["d=3; [1,0,0,1]", line, "d=2; [1,0,1]"]) + "\n"
        out = io.StringIO()
        with mock.patch("sys.stdin", io.StringIO(stdin)), contextlib.redirect_stdout(out):
            code = main(["rank"])
        recs = [json.loads(ln) for ln in out.getvalue().splitlines()]
        assert code == 1
        assert len(recs) == 3
        assert recs[1]["error"]["type"] == "GrammarError"
        assert (recs[0]["r"], recs[2]["r"]) == (2, 2)

    def test_all_good_batch_exits_0(self, capsys, monkeypatch):
        stdin = self.BATCH.replace("[1,0\n", "[1,0,0]\n")
        code, recs = run(capsys, monkeypatch, ["rank"], stdin=stdin)
        assert code == 0
        assert [r["d"] for r in recs] == [2, 2, 3]


class TestImports:
    def test_rank_loads_neither_sympy_nor_numpy(self):
        """Linear and quadratic witnesses are factored in closed form, and
        only the numeric subcommands import the oracle."""
        child = textwrap.dedent(
            """
            import contextlib, io, json, sys
            from cuspidal.cli import _build_parser, main
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                codes = [main(["rank", "d=7; [0,0,0,1,0,0,0,0]"]),
                         main(["rank", "d=2; [1,0,1]"])]
            recs = [json.loads(ln) for ln in out.getvalue().splitlines()]
            print(json.dumps({"codes": codes, "recs": recs,
                              "loaded": sorted(m for m in ("sympy", "numpy") if m in sys.modules)}))
            """
        )
        src = Path(projection.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(src)}
        out = subprocess.run(
            [sys.executable, "-c", child], env=env, capture_output=True, text=True, timeout=120
        )
        assert out.returncode == 0, out.stderr
        got = json.loads(out.stdout)
        assert got["codes"] == [0, 0]
        assert (got["recs"][0]["w"], got["recs"][0]["r"]) == (4, 5)
        assert got["recs"][1]["witness"]["factors"] == [["u^2-u*t-t^2", 1]]
        assert got["loaded"] == []

    def test_each_subcommand_loads_only_what_it_runs(self):
        """rank, borderrank and scheme run on the exact engine alone: no
        mpmath, numpy, classifier, projection or oracle, also for the error
        record of scheme on u^2 + t^2, whose level-2 kernel has dimension 2.
        classify loads no mpmath.  decompose on a cubic witness and on an
        irreducible quintic one, and verify-decomp of the quintic's record,
        load mpmath and no numpy, with their records unchanged.  Importing
        the oracle, probe and a small verify battery load no numpy either,
        and the span search on an e4_i point loads it."""
        child = textwrap.dedent(
            """
            import contextlib, hashlib, io, json, sys
            from cuspidal.cli import main
            HEAVY = ("mpmath", "numpy", "cuspidal.classifier", "cuspidal.projection",
                     "cuspidal.oracle")

            def run(argv):
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    code = main(argv)
                return code, out.getvalue()

            codes = [run([sub, form])[0] for sub in ("rank", "borderrank", "scheme")
                     for form in ("d=7; [0,0,0,1,0,0,0,0]", "d=2; [1,0,1]")]
            exact = sorted(m for m in HEAVY if m in sys.modules)
            code, _ = run(["classify", "d=7; [0,0,0,1,0,0,0,0]"])
            codes.append(code)
            classify = "mpmath" in sys.modules
            records = []
            for form in ("d=5; [1,0,0,-10,5,-1]", "d=9; [-1,2,-2,0,-2,1,1,1,1,-1]"):
                code, out = run(["decompose", form])
                codes.append(code)
                records.append(hashlib.sha256(out.encode()).hexdigest())
            code, checked = run(["verify-decomp", out.strip()])
            codes.append(code)
            decompose = ["mpmath" in sys.modules, "numpy" in sys.modules]
            import cuspidal.oracle
            numpy = ["numpy" in sys.modules]
            for argv in (["probe", "--s", "3", "--n", "6"],
                         ["verify", "--fuzz-samples", "2", "--fuzz-degrees", "4",
                          "--probe-max-n", "4"]):
                codes.append(run(argv)[0])
                numpy.append("numpy" in sys.modules)
            from cuspidal.classifier import InstanceSpec, generate_instance
            from cuspidal.projection import project
            point = project(generate_instance(InstanceSpec("e4_i", 6, 2, seed=7)).form)
            found = cuspidal.oracle.xrank_upper_search(point, cuspidal.oracle.SearchConfig(r=2))
            numpy.append("numpy" in sys.modules)
            print(json.dumps({"codes": codes, "exact": exact, "classify": classify,
                              "decompose": decompose, "records": records,
                              "verified": json.loads(checked)["ok"],
                              "numpy": numpy, "found": found is not None}))
            """
        )
        src = Path(projection.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(src)}
        out = subprocess.run(
            [sys.executable, "-c", child], env=env, capture_output=True, text=True, timeout=120
        )
        assert out.returncode == 0, out.stderr
        assert json.loads(out.stdout) == {
            "codes": [0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0], "exact": [], "classify": False,
            "decompose": [True, False], "records": [
                "99295298d7d8721b3841836fd512ea13472e97a896c1b0dd2e064741ff1ac539",
                "d73538c847e5986fcd8fc5532a98980e2f8c4e3c12b920b218ab8dd902adf499",
            ], "verified": True, "numpy": [False, False, False, True], "found": True,
        }

    def test_unserved_polynomials_load_no_sympy(self):
        """Polynomials that no prime of ``ratfactor.PRIMES`` serves are split
        modulo a later prime: factoring them, reading their rational roots
        and decomposing their forms import no sympy."""
        child = textwrap.dedent(
            """
            import json, math, sys
            from cuspidal import binform, ratfactor, univar
            n12 = math.prod(ratfactor.PRIMES)
            unserved = univar.mul(univar.mul([-1, 1], [-1 - n12, 1]),
                                  univar.mul([1, 0, 1], [-2, 0, 0, 1]))
            quartic = univar.mul([1, 0, 1], [n12**2 + 1, -2 * n12, 1])
            squared = univar.mul(univar.mul(unserved, unserved), [-2, 0, 0, 1])
            polys = [unserved, quartic, squared]
            print(json.dumps({
                "factors": [len(ratfactor.irreducible_factors(p)) for p in polys],
                "roots": [len(ratfactor.rational_roots(p)[0]) for p in polys[:2]],
                "schemes": [len(binform.squarefree_decompose(
                    binform.BinaryForm(len(p) - 1, p)).factors) for p in polys],
                "sympy": "sympy" in sys.modules}))
            """
        )
        src = Path(projection.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(src)}
        out = subprocess.run(
            [sys.executable, "-c", child], env=env, capture_output=True, text=True, timeout=120
        )
        assert out.returncode == 0, out.stderr
        assert json.loads(out.stdout) == {
            "factors": [4, 2, 4], "roots": [2, 0], "schemes": [4, 2, 4], "sympy": False,
        }

    def test_xrank_with_a_quadratic_lambda_loads_no_numpy(self):
        """Special lambda are at most quadratic, each named by its minimal
        polynomial and a branch of the quadratic formula, so xrank reads no
        precision: it refuses --precision-bits as a usage error, and no
        numpy is loaded."""
        point = {"n": 5, "coords": ["-15/2", "-4/195", "1/2", "-1/45", "13/168", "19/26"]}
        child = textwrap.dedent(
            f"""
            import contextlib, io, json, sys
            from cuspidal.cli import _build_parser, main
            arg = {json.dumps(json.dumps(point))}
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = main(["xrank", arg])
            with contextlib.redirect_stderr(io.StringIO()):
                try:
                    main(["xrank", "--precision-bits", "64", arg])
                    refused = None
                except SystemExit as exc:
                    refused = exc.code
            print(json.dumps({{"code": code, "out": out.getvalue(), "refused": refused,
                              "numpy": "numpy" in sys.modules}}))
            """
        )
        src = Path(projection.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(src)}
        out = subprocess.run(
            [sys.executable, "-c", child], env=env, capture_output=True, text=True, timeout=120
        )
        assert out.returncode == 0, out.stderr
        got = json.loads(out.stdout)
        assert got["code"] == 0
        assert got["refused"] == 2
        lam = json.loads(got["out"])["witness_lambda"]
        assert set(lam) == {"minpoly", "branch", "approx"}
        assert len(lam["minpoly"]) == 3 and lam["branch"] in ("lower", "upper")
        assert got["numpy"] is False


class TestClosedStdout:
    @pytest.mark.parametrize("argv, stdin", [
        (["rank", "d=4; [1,0,0,0,1]"], ""),
        (["rank"], "d=4; [1,0,0,0,1]\n" * 400),
    ], ids=["one-record", "400-records"])
    def test_a_closed_stdout_exits_1_without_a_traceback(self, argv, stdin):
        """The reader of stdout goes away before the first record, or, with
        400 records, before most of them: the command exits 1 and writes
        nothing to stderr."""
        src = Path(projection.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(src)}
        proc = subprocess.Popen(
            [sys.executable, "-m", "cuspidal.cli", *argv], env=env, stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        proc.stdout.close()
        _, err = proc.communicate(stdin, timeout=120)
        assert "Traceback" not in err and "BrokenPipeError" not in err
        assert proc.returncode == 1


class TestProjectionCommands:
    def test_project(self, capsys, monkeypatch):
        code, recs = run(capsys, monkeypatch, ["project", "d=4; [1,0,0,0,0]"])
        assert code == 0
        assert recs[0]["n"] == 3
        assert recs[0]["coords"] == ["1", "0", "0", "0"]
        assert recs[0]["deleted_slot"] == 1

    def test_xrank_inline_coords(self, capsys, monkeypatch):
        code, recs = run(
            capsys, monkeypatch,
            ["xrank", "--n", "6", "--coords", "1,0,0,0,0,0,1"],
        )
        assert code == 0
        assert recs[0]["value"] == 2
        assert recs[0]["witness_lambda"] == "0"

    def test_project_pipes_into_xrank(self, capsys, monkeypatch):
        code, recs = run(capsys, monkeypatch, ["project", "d=5; [1,0,0,0,0,32]"])
        assert code == 0
        code2, recs2 = run(
            capsys, monkeypatch, ["xrank"], stdin=json.dumps(recs[0])
        )
        assert code2 == 0
        assert recs2[0]["value"] >= 1

    def test_center_rejected(self, capsys, monkeypatch):
        code, recs = run(capsys, monkeypatch, ["project", "d=4; [0,1,0,0,0]"])
        assert code == 1
        assert recs[0]["error"]["type"] == "ProjectionError"

    @pytest.mark.parametrize(
        "line",
        [
            '{}',
            '{"n": 5}',
            '{"n": 5, "coords": 3}',
            '[1,2]',
            '{"n": null, "coords": ["1"]}',
            '{"n": 3, "coords": ["1", null, "0", "0"]}',
            '{"n": 5.9, "coords": ["1", "0", "0", "0", "0", "1"]}',
            '{"n": 3.0, "coords": ["1", "0", "0", "1"]}',
            '{"n": "5.9", "coords": ["1", "0", "0", "0", "0", "1"]}',
            '{"n": true, "coords": ["1", "0"]}',
            '{"n": [5], "coords": ["1", "0", "0", "0", "0", "1"]}',
            '{"n": 3, "coords": [0.1, 0, 0, 1]}',
            '{"n": 3, "coords": ["1e5", "0", "0", "1"]}',
        ],
    )
    def test_malformed_xrank_record(self, capsys, monkeypatch, line):
        code, recs = run(capsys, monkeypatch, ["xrank"], stdin=line + "\n")
        assert code == 1
        assert len(recs) == 1
        assert recs[0]["error"]["type"] == "ProjectionError"

    @pytest.mark.parametrize("n", ['5', '"5"', '" +5 "'])
    def test_xrank_integer_n_spellings(self, capsys, monkeypatch, n):
        line = '{"n": %s, "coords": ["1", "0", "0", "0", "0", "1"]}' % n
        code, recs = run(capsys, monkeypatch, ["xrank"], stdin=line + "\n")
        assert code == 0
        assert recs[0]["n"] == 5

    @pytest.mark.parametrize("coords", ["1e5,0,0,1", "0.1,0,0,1", "1,0,0,2.5"])
    def test_xrank_coords_refuse_exponents_and_decimals(self, capsys, monkeypatch, coords):
        code, recs = run(capsys, monkeypatch, ["xrank", "--n", "3", "--coords", coords])
        assert code == 1
        assert len(recs) == 1
        assert recs[0]["error"]["type"] == "GrammarError"

    def test_xrank_size_limits_give_one_error_record_each(self, capsys, monkeypatch):
        """A point of degree n + 1 = MAX_DEGREE, or with a coordinate of
        MAX_COEFFICIENT_BITS bits, is read; one more is one error record, a
        ProjectionError in a record and a GrammarError for --coords, and
        the batch goes on."""
        top, over = 2**MAX_COEFFICIENT_BITS - 1, 2**MAX_COEFFICIENT_BITS

        def coords(n, first):
            return [str(first)] + ["0"] * (n - 1) + ["1"]

        cases = [(MAX_DEGREE - 1, 1, None), (MAX_DEGREE, 1, "degree"),
                 (5, top, None), (5, over, "bits"), (5, f"1/{over}", "bits"), (5, "9" * 5000, "bits")]
        stdin = "".join(json.dumps({"n": n, "coords": coords(n, c)}) + "\n" for n, c, _ in cases)
        code, recs = run(capsys, monkeypatch, ["xrank"], stdin=stdin)
        assert code == 1 and len(recs) == len(cases)
        for rec, (n, _, refused) in zip(recs, cases):
            if refused:
                assert rec["error"]["type"] == "ProjectionError" and refused in rec["error"]["message"]
            else:
                assert rec["n"] == n and rec["value"] >= 1
        for n, c, refused in cases:
            code, recs = run(capsys, monkeypatch, ["xrank", "--n", str(n), "--coords",
                                                   ",".join(coords(n, c))])
            assert (code, len(recs)) == (1 if refused else 0, 1)
            if refused:
                assert recs[0]["error"]["type"] == "GrammarError"
                assert refused in recs[0]["error"]["message"]

    def test_certificate_failure_is_json_error(self, capsys, monkeypatch):
        # generators of Ann(B'') without g1 leave the scan no generic level
        real = projection._ideal_generators
        monkeypatch.setattr(projection, "_ideal_generators", lambda a: real(a)[1:])
        code, recs = run(
            capsys, monkeypatch, ["xrank", "--n", "6", "--coords", "1,0,0,0,0,0,1"]
        )
        assert code == 1
        assert len(recs) == 1
        assert recs[0]["error"]["type"] == "CertificateError"


class TestClassifyAndGenerate:
    def test_generate_classify_frozen_case(self, capsys, monkeypatch):
        code, recs = run(
            capsys, monkeypatch,
            ["generate", "--case", "e3_2", "--n", "7", "--w", "3", "--seed", "1"],
        )
        assert code == 0
        line = json.dumps(recs[0])
        code2, recs2 = run(capsys, monkeypatch, ["classify"], stdin=line)
        assert code2 == 0
        assert recs2[0]["case"] == "e3_2"
        assert recs2[0]["prediction"] == 7

    def test_classify_explain_has_trace(self, capsys, monkeypatch):
        code, recs = run(
            capsys, monkeypatch,
            ["classify", "--explain", "d=8; [2,8,56,0,140,0,56,0,2]"],
        )
        assert code == 0
        assert recs[0]["case"] == "e3_3_wminus2"
        trace = recs[0]["explain"]
        assert any("multiplicity" in ln for ln in trace)
        assert any("prediction: 2" in ln for ln in trace)

    def test_generate_count_emits_distinct_records(self, capsys, monkeypatch):
        code, recs = run(
            capsys, monkeypatch,
            ["generate", "--case", "e4_i", "--n", "6", "--rho", "2",
             "--count", "3"],
        )
        assert code == 0
        assert len(recs) == 3
        assert len({tuple(r["coeffs"]) for r in recs}) == 3

    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_generate_refuses_a_count_below_one(self, capsys, monkeypatch, count):
        with pytest.raises(SystemExit) as err:
            run(capsys, monkeypatch, ["generate", "--case", "e4_i", "--n", "6", "--rho", "2",
                                      "--count", count])
        assert err.value.code == 2
        assert f"argument --count: must be at least 1, got {count}" in capsys.readouterr().err

    def test_generate_requires_level(self, capsys, monkeypatch):
        with pytest.raises(SystemExit) as err:
            run(capsys, monkeypatch, ["generate", "--case", "e4_i", "--n", "6"])
        assert err.value.code == 2
        assert "one of the arguments --level --w --rho is required" in capsys.readouterr().err

    @pytest.mark.parametrize("levels", [["--w", "3", "--rho", "4"], ["--level", "2", "--w", "2"]])
    def test_generate_refuses_two_levels(self, capsys, monkeypatch, levels):
        with pytest.raises(SystemExit) as err:
            run(capsys, monkeypatch, ["generate", "--case", "e4_i", "--n", "6", *levels])
        assert err.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err

    def test_generate_bad_cell_structured_error(self, capsys, monkeypatch):
        code, recs = run(
            capsys, monkeypatch,
            ["generate", "--case", "e4_iii", "--n", "6", "--rho", "4"],
        )
        assert code == 1
        assert recs[0]["error"]["type"] == "ClassifierError"

    def test_classify_error_on_pure_power(self, capsys, monkeypatch):
        code, recs = run(capsys, monkeypatch, ["classify", "d=4; [1,4,6,4,1]"])
        assert code == 1
        assert recs[0]["error"]["type"] == "ClassifierError"


class TestProbeAndVerify:
    def test_probe_matches_expected(self, capsys, monkeypatch):
        code, recs = run(
            capsys, monkeypatch, ["probe", "--s", "2", "--n", "5"]
        )
        assert code == 0
        assert recs[0]["dimension"] == 3 and recs[0]["ok"] is True

    def test_verify_consumes_generate_records(self, capsys, monkeypatch):
        code, recs = run(
            capsys, monkeypatch,
            ["generate", "--case", "e3_3_cusp", "--n", "5", "--w", "2"],
        )
        line = json.dumps(recs[0])
        code2, recs2 = run(capsys, monkeypatch, ["verify"], stdin=line)
        assert code2 == 0
        kinds = {r["check"] for r in recs2}
        assert kinds == {"crosscheck", "summary"}
        assert recs2[-1]["failed"] == 0

    def test_verify_consumes_classify_records(self, capsys, monkeypatch):
        code, recs = run(
            capsys, monkeypatch,
            ["generate", "--case", "e4_i", "--n", "6", "--rho", "2"],
        )
        code2, recs2 = run(
            capsys, monkeypatch, ["classify"], stdin=json.dumps(recs[0])
        )
        code3, recs3 = run(
            capsys, monkeypatch, ["verify"], stdin=json.dumps(recs2[0])
        )
        assert code3 == 0
        assert recs3[-1]["failed"] == 0

    @pytest.mark.parametrize(
        "tag,n,level",
        [
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
        ],
    )
    def test_generate_classify_verify_chain(self, capsys, monkeypatch, tag, n, level):
        code, recs = run(
            capsys, monkeypatch,
            ["generate", "--case", tag, "--n", str(n), "--level", str(level)],
        )
        assert code == 0
        code2, recs2 = run(
            capsys, monkeypatch, ["classify"], stdin=json.dumps(recs[0])
        )
        assert code2 == 0 and recs2[0]["case"] == tag
        code3, recs3 = run(
            capsys, monkeypatch, ["verify"], stdin=json.dumps(recs2[0])
        )
        assert code3 == 0, recs3
        assert recs3[0]["case"] == tag

    def test_verify_battery_small(self, capsys, monkeypatch):
        code, recs = run(
            capsys, monkeypatch,
            ["verify", "--fuzz-samples", "30",
             "--fuzz-degrees", "2,4", "--probe-max-n", "4"],
        )
        assert code == 0
        kinds = [r["check"] for r in recs]
        assert "fuzz" in kinds and "probe" in kinds and "crosscheck" in kinds
        assert recs[-1]["check"] == "summary"
        assert recs[-1]["failed"] == 0

    def test_verify_reports_a_fuzz_error_as_a_record(self, capsys, monkeypatch):
        """A degree the fuzzer refuses gives a failed fuzz record with the
        error, and the battery still runs to its summary."""
        code, recs = run(
            capsys, monkeypatch, ["verify", "--fuzz-degrees", "1", "--probe-max-n", "3"]
        )
        assert code == 1
        assert recs[0] == {
            "check": "fuzz",
            "degree": 1,
            "error": {"type": "ValueError", "message": "fuzzing needs degree at least 2"},
            "ok": False,
        }
        assert recs[-1] == {"check": "summary", "records": len(recs) - 1, "failed": 1}

    def test_probe_where_floats_lose_rank(self, capsys, monkeypatch):
        code, recs = run(capsys, monkeypatch, ["probe", "--s", "6", "--n", "13"])
        assert code == 0
        assert recs == [{"s": 6, "n": 13, "dimension": 11, "expected": 11, "ok": True}]

    @pytest.mark.parametrize(
        "argv,degree",
        [
            (["generate", "--case", "e4_i", "--n", "140", "--level", "2"], 141),
            (["probe", "--s", "2", "--n", "300"], 301),
        ],
    )
    def test_size_limit_is_one_error_record(self, capsys, monkeypatch, argv, degree):
        code, recs = run(capsys, monkeypatch, argv)
        assert code == 1
        message = f"degree {degree} above the limit {MAX_DEGREE}"
        assert recs == [{"error": {"type": "GrammarError", "message": message}}]

    def test_verify_refuses_a_fuzz_degree_above_the_limit(self, capsys, monkeypatch):
        monkeypatch.setattr("cuspidal.cli._VERIFY_BATTERY", [])
        code, recs = run(
            capsys, monkeypatch, ["verify", "--fuzz-degrees", "400", "--probe-max-n", "2"]
        )
        assert code == 1
        message = f"degree 400 above the limit {MAX_DEGREE}"
        assert recs == [
            {"check": "fuzz", "degree": 400, "ok": False,
             "error": {"type": "GrammarError", "message": message}},
            {"check": "summary", "records": 1, "failed": 1},
        ]

    def test_verify_battery_does_not_read_an_open_stdin(self):
        """A battery flag selects the battery, so a child whose stdin is a
        pipe that never closes still runs it: one summary record, exit 0."""
        src = Path(projection.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(src)}
        argv = [sys.executable, "-m", "cuspidal.cli", "verify", "--fuzz-samples", "5",
                "--fuzz-degrees", "2", "--probe-max-n", "3"]
        read_end, write_end = os.pipe()
        try:
            out = subprocess.run(argv, env=env, stdin=read_end, capture_output=True,
                                 text=True, timeout=60)
        finally:
            os.close(read_end)
            os.close(write_end)
        assert out.returncode == 0, out.stderr
        recs = [json.loads(ln) for ln in out.stdout.splitlines()]
        assert [r for r in recs if r["check"] == "summary"] == [
            {"check": "summary", "records": len(recs) - 1, "failed": 0}
        ]

    @pytest.mark.parametrize("flag", [["--fuzz-samples", "5"], ["--fuzz-degrees", "2"],
                                      ["--probe-max-n", "3"]])
    @pytest.mark.parametrize("record", [["d=3; [1,0,0,1]"], ["--file", "forms.txt"]])
    def test_verify_battery_flag_with_a_record_is_a_usage_error(self, capsys, flag, record):
        with pytest.raises(SystemExit) as exc:
            main(["verify", *flag, *record])
        assert exc.value.code == 2
        assert "battery flags of verify take no input record" in capsys.readouterr().err

    @pytest.mark.parametrize("samples", ["0", "-5"])
    def test_verify_refuses_fuzz_samples_below_one(self, capsys, samples):
        """A battery of no fuzz samples checks nothing, so it is refused
        rather than reported ok."""
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--fuzz-samples", samples])
        assert exc.value.code == 2
        assert (f"argument --fuzz-samples: must be at least 1, got {samples}"
                in capsys.readouterr().err)

    def test_verify_reports_a_probe_error_as_a_record(self, capsys, monkeypatch):
        def fail(s, n, seed=0):
            raise RuntimeError(f"no rank at s = {s}")

        monkeypatch.setattr("cuspidal.oracle.secant_dimension_probe", fail)
        monkeypatch.setattr("cuspidal.cli._VERIFY_BATTERY", [])
        code, recs = run(
            capsys, monkeypatch,
            ["verify", "--fuzz-samples", "5", "--fuzz-degrees", "2", "--probe-max-n", "3"],
        )
        assert code == 1
        error = {"type": "RuntimeError", "message": "no rank at s = 2"}
        assert recs[2] == {"check": "probe", "s": 2, "n": 3, "error": error, "ok": False}
        assert recs[-1] == {"check": "summary", "records": 3, "failed": 2}


class TestConfiguration:
    def test_env_seed_used_when_flag_absent(self, capsys, monkeypatch):
        monkeypatch.setenv("CUSPIDAL_SEED", "9")
        _, by_env = run(
            capsys, monkeypatch,
            ["generate", "--case", "e4_i", "--n", "6", "--rho", "2"],
        )
        monkeypatch.delenv("CUSPIDAL_SEED")
        _, by_flag = run(
            capsys, monkeypatch,
            ["generate", "--case", "e4_i", "--n", "6", "--rho", "2",
             "--seed", "9"],
        )
        assert by_env[0]["coeffs"] == by_flag[0]["coeffs"]

    def test_flag_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv("CUSPIDAL_SEED", "9")
        _, flagged = run(
            capsys, monkeypatch,
            ["generate", "--case", "e4_i", "--n", "6", "--rho", "2",
             "--seed", "3"],
        )
        monkeypatch.delenv("CUSPIDAL_SEED")
        _, plain = run(
            capsys, monkeypatch,
            ["generate", "--case", "e4_i", "--n", "6", "--rho", "2",
             "--seed", "3"],
        )
        assert flagged[0]["coeffs"] == plain[0]["coeffs"]

    def test_bad_env_value_exits(self, capsys, monkeypatch):
        """A variable that is not an integer is a usage error, exit 2, for
        the subcommands that take its flag, unless the flag is given; the
        others never read it, so rank answers."""
        monkeypatch.setenv("CUSPIDAL_PRECISION_BITS", "lots")
        monkeypatch.setenv("CUSPIDAL_SEED", "many")
        for argv, name in (
            (["decompose", "d=4; [1,0,0,0,1]"], "CUSPIDAL_PRECISION_BITS"),
            (["verify-decomp", "{}"], "CUSPIDAL_PRECISION_BITS"),
            (["generate", "--case", "e4_i", "--n", "6", "--rho", "2"], "CUSPIDAL_SEED"),
            (["probe", "--s", "2", "--n", "5"], "CUSPIDAL_SEED"),
            (["verify", "{}"], "CUSPIDAL_SEED"),
        ):
            with pytest.raises(SystemExit) as err:
                main(argv)
            assert err.value.code == 2, argv
            assert f"invalid {name}=" in capsys.readouterr().err
        code, recs = run(capsys, monkeypatch, ["rank", "d=4; [1,0,0,0,1]"])
        assert code == 0 and recs[0]["r"] == 2
        code, recs = run(capsys, monkeypatch,
                         ["decompose", "--precision-bits", "96", "d=4; [1,0,0,0,1]"])
        assert code == 0 and recs[0]["decomposition"]["precision_bits"] == 96

    def test_deterministic_output(self, capsys, monkeypatch):
        argv = ["xrank", "--n", "5", "--coords", "3,1,4,1,5,9"]
        _, a = run(capsys, monkeypatch, argv)
        _, b = run(capsys, monkeypatch, argv)
        assert a == b
