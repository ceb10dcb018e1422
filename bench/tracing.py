"""Per-layer tracing from the benchmark's side of each call.

Each layer is a public function of a module of ``cuspidal``.  Installing the
tracer replaces that function, in every ``cuspidal`` module that holds it,
by a wrapper that records a span: its id, the id of the enclosing wrapped
span (or of the record's root span), the record it belongs to, its name,
and its start and end.  A name bound under another name is wrapped too
(``apolarity.rank`` is ``sylvester_rank`` in ``classifier``, ``projection``
and ``oracle``), because the wrapper goes wherever the original object is.
A layer's self time is its duration minus that of the wrapped calls inside
it.  Spans stay in memory and are written out once, at the end of the run.
A layer whose function no longer exists is reported as absent.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

LAYERS = (
    "apolarity.rank",
    "apolarity.decompose",
    "apolarity.verify_decomposition",
    "binform.squarefree_decompose",
    "univar.gcd",
    "univar.yun",
    "ratfactor.irreducible_factors",
    "linalg.rank",
    "linalg.nullspace",
    "linalg.in_span",
    "linalg.rank_field",
    "linalg.nullspace_field",
    "numberfield.isolate_roots",
    "projection.special_lambdas",
    "projection.lift",
    "projection.field_rank_certificate",
    "projection.x_rank",
    "classifier.classify",
    "classifier.span_center_routes",
    "classifier.crosscheck",
    "oracle.xrank_upper_search",
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (id, parent id, record, name, start ns, end ns)
        self.calls = dict.fromkeys(LAYERS, 0)
        self.found = dict.fromkeys(LAYERS, 0)  # calls that returned something
        self.self_ns = dict.fromkeys(LAYERS, 0)
        self.absent: list[str] = []
        self._stack: list[list[int]] = []  # [span id, child ns] per open span
        self._record: int | None = None
        self._next_id = 0

    def install(self) -> None:
        originals = {}
        for layer in LAYERS:
            mod_name, fn_name = layer.split(".")
            try:
                module = importlib.import_module(f"cuspidal.{mod_name}")
            except ImportError:
                module = None
            originals[layer] = getattr(module, fn_name, None)
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "cuspidal"]
        for layer, original in originals.items():
            if not callable(original):
                self.absent.append(layer)
                continue
            wrapper = self._wrap(layer, original)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapper)

    def _open(self) -> tuple[int, int | None]:
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else None
        self._stack.append([sid, 0])
        return sid, parent

    def _close(self, sid, parent, name, start, end) -> int:
        child_ns = self._stack.pop()[1]
        if self._stack:
            self._stack[-1][1] += end - start
        self.spans.append((sid, parent, self._record, name, start, end))
        return child_ns

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid, parent = self._open()
            start = time.perf_counter_ns()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter_ns()
                child_ns = self._close(sid, parent, name, start, end)
                self.calls[name] += 1
                self.found[name] += result is not None
                self.self_ns[name] += end - start - child_ns

        return traced

    def record(self, index: int, fn, arg):
        """Run one record under a root span that its layer spans hang from."""
        self._record = index
        sid, parent = self._open()
        start = time.perf_counter_ns()
        try:
            return fn(arg)
        finally:
            self._close(sid, parent, "record", start, time.perf_counter_ns())

    def write(self, path) -> None:
        keys = ("id", "parent", "record", "name", "start_ns", "end_ns")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")
