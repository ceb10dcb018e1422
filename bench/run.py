"""Benchmark for cuspidal: one workload per run, single process, single thread.

    python3 bench/run.py --workload {waring,fiber,span,search} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
``src``.  The seed makes the inputs, all of them before timing starts.  The
run is a closed loop: each record starts when the previous one has ended.
It does whole rounds of records (see workloads.py), as many as the
workload's nominal round cost fits into S seconds, so two commits measured
with the same S do the same work.  Every output is checked (checks.py);
a record whose check fails makes the run incorrect, a record that raises or
finds nothing counts as failed.

With --trace 0 the last line of stdout is one JSON object with the
end-to-end metrics; with --trace 1 the same loop runs under the tracer
(tracing.py) and the object holds the per-layer metrics instead, per record.
Results and spans are written to bench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

COLD_STARTS = 7
IMPORT_SAMPLES = 3
P90_MIN_RECORDS = 100


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def cold_start_s(a: int, b: int) -> float:
    """Seconds from starting a fresh interpreter on ``cuspidal rank`` to its
    first answered record, which must give rank max(a, b) + 1 for u^a t^b."""
    coeffs = ["0"] * (a + b + 1)
    coeffs[b] = "1"
    record = f"d={a + b}; [{','.join(coeffs)}]"
    argv = [sys.executable, "-m", "cuspidal.cli", "rank", record]
    start = time.perf_counter()
    with subprocess.Popen(
        argv, cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE, text=True
    ) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.communicate(timeout=120)
    if proc.returncode != 0 or json.loads(line).get("r") != max(a, b) + 1:
        raise RuntimeError(f"cold start answered {line.strip()!r} for {record}")
    return elapsed


def import_ms() -> float:
    """Milliseconds to import cuspidal.cli in a fresh interpreter."""
    code = (
        "import time; t = time.perf_counter(); import cuspidal.cli; "
        "print((time.perf_counter() - t) * 1e3)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env=_child_env(),
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(out.stdout)


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("waring", "fiber", "span", "search"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (SRC / "cuspidal" / "__init__.py").is_file():
        print(f"error: no cuspidal package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads
    from cuspidal import ratfactor

    rng = random.Random(f"bench:{args.workload}:{args.seed}")
    wl = workloads.WORKLOADS[args.workload]
    rounds = wl.make(rng, max(1, round(args.seconds / wl.round_seconds)))
    # cold starts are spread over the run, between rounds, so that their
    # median samples the same stretch of time as the records do
    a = rng.randint(1, 6)
    starts_before = [0] * len(rounds)
    if not args.trace:
        for i in range(COLD_STARTS):
            starts_before[i * len(rounds) // COLD_STARTS] += 1
    setup = []

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    cache = getattr(getattr(ratfactor, "_factor_cached", None), "cache_info", None)
    cache0 = cache() if cache else None

    times = []
    failed = wrong = 0
    for rnd, cold_starts in zip(rounds, starts_before):
        setup += [cold_start_s(a, 7 - a) for _ in range(cold_starts)]
        for rec in rnd:
            index = len(times)
            start = time.perf_counter_ns()
            try:
                out = tracer.record(index, wl.run, rec) if tracer else wl.run(rec)
            except Exception:  # a record's failure must not end the run
                out = None
                traceback.print_exc()
            times.append(time.perf_counter_ns() - start)
            if out is None:
                failed += 1
                print(f"record {index}: failed", file=sys.stderr)
                continue
            problems = wl.check(rec, out)
            if problems:
                wrong += 1
                print(f"record {index}: {'; '.join(problems)}", file=sys.stderr)

    n = len(times)
    rate = n / (sum(times) / 1e9)
    if tracer:
        metrics = {}
        for layer in tracer.calls:
            metrics[f"{layer}.calls"] = _metric(tracer.calls[layer] / n, "count")
            metrics[f"{layer}.ms"] = _metric(tracer.self_ns[layer] / n / 1e6, "ms")
        if cache0:
            cache1 = cache()
            misses = cache1.misses - cache0.misses
            hits = cache1.hits - cache0.hits
            metrics["ratfactor.sympy_calls"] = _metric(misses / n, "count")
            metrics["ratfactor.cache_hit_ratio"] = _metric(
                hits / (hits + misses) if hits + misses else 0.0, "ratio"
            )
        else:
            tracer.absent.append("ratfactor._factor_cached")
        x_calls = tracer.calls["projection.x_rank"]
        lifts = tracer.calls["projection.lift"] / x_calls if x_calls else 0.0
        metrics["projection.lifts_per_x_rank"] = _metric(lifts, "count")
        searches = tracer.calls["oracle.xrank_upper_search"]
        found = tracer.found["oracle.xrank_upper_search"]
        metrics["oracle.witness_ratio"] = _metric(found / searches if searches else 0.0, "ratio")
        metrics["cli.import_ms"] = _metric(
            statistics.median(import_ms() for _ in range(IMPORT_SAMPLES)), "ms"
        )
        metrics["trace.records_per_s"] = _metric(rate, "1/s")
        if tracer.absent:
            print(json.dumps({"absent_layers": tracer.absent}))
    else:
        ms = [t / 1e6 for t in times]
        metrics = {
            "setup_s": _metric(statistics.median(setup), "s"),
            "records_per_s": _metric(rate, "1/s"),
            "record_p50_ms": _metric(statistics.median(ms), "ms"),
        }
        if n >= P90_MIN_RECORDS:
            metrics["record_p90_ms"] = _metric(statistics.quantiles(ms, n=10)[8], "ms")
        else:
            print(f"record_p90_ms left out: {n} records", file=sys.stderr)
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics["peak_rss_mb"] = _metric(peak_kb / 1024, "MB")

    result = {"correct": wrong == 0, "attempted": n, "failed": failed, "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}.trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    if tracer:
        tracer.write(OUT / f"{stem}.spans.jsonl")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
