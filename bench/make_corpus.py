"""Regenerate the pinned fiber corpus, bench/fiber_corpus.json.

    PYTHONPATH=src python3 bench/make_corpus.py > bench/fiber_corpus.json

For each of the ten generated case tags and each n = 5..10 with an
admissible level, one level is fixed (the admissible levels taken in turn
as n grows) and INSTANCES forms are generated with instance seeds
0..INSTANCES-1.  The corpus is pinned so that a later change to the
generator's rejection sampling cannot change what the benchmark measures;
the benchmark's seed picks which instances of each cell a run uses.
"""

from __future__ import annotations

import json
import sys

from cuspidal.classifier import (
    CASE_TAGS,
    ClassifierError,
    InstanceSpec,
    generate_instance,
)

INSTANCES = 12
NS = range(5, 11)


def admissible_levels(tag: str, n: int) -> list[int]:
    out = []
    for level in range(1, n + 3):
        try:
            InstanceSpec(tag, n, level)
        except ClassifierError:
            continue
        out.append(level)
    return out


def main() -> int:
    cells = []
    for tag in CASE_TAGS:
        if tag in ("e3_1_info", "out_of_scope"):
            continue
        for n in NS:
            levels = admissible_levels(tag, n)
            if not levels:
                continue
            level = levels[n % len(levels)]
            instances = []
            for seed in range(INSTANCES):
                inst = generate_instance(InstanceSpec(tag, n, level, seed=seed))
                instances.append({"seed": seed, "coeffs": [str(c) for c in inst.form.coeffs]})
            cells.append({"case": tag, "n": n, "level": level, "instances": instances})
    # one cell per line
    sys.stdout.write(f'{{"instances_per_cell": {INSTANCES}, "cells": [\n')
    sys.stdout.write(",\n".join(json.dumps(cell) for cell in cells))
    sys.stdout.write("\n]}\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
