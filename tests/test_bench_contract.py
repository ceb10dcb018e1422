"""The benchmark's output contract: ``bench/run.py`` exits 0, and the last
line of its stdout is one strict JSON object holding every metric that
``BENCHMARK.json`` names for the run's mode.  The runs work in a copy of
``bench/`` beside a link to ``src``, so ``bench/out`` is left untouched."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
P90_MIN_RECORDS = 100  # below this many records run.py leaves record_p90_ms out


def _refuse(constant):
    raise ValueError(f"{constant} is not strict JSON")


@pytest.fixture(scope="module")
def checkout(tmp_path_factory):
    root = tmp_path_factory.mktemp("checkout")
    shutil.copytree(ROOT / "bench", root / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    (root / "src").symlink_to(ROOT / "src", target_is_directory=True)
    return root


@pytest.mark.parametrize("workload, trace",
                         [(w["name"], 1) for w in SPEC["workloads"]] + [("waring", 0)])
def test_last_line_is_a_complete_result(checkout, workload, trace):
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
            "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.splitlines()[-1], parse_constant=_refuse)
    names = {m["name"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    if not trace and result["attempted"] < P90_MIN_RECORDS:
        names.discard("record_p90_ms")
    assert sorted(names - set(result["metrics"])) == []
