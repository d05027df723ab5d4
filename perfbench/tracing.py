"""Spans around the calls into each relasym layer, recorded from outside.

Each traced function is replaced, under every name a relasym module
holds it by (relasym.verify.solve_Q as well as relasym.modified.solve_Q),
with a wrapper that appends (name, start, end, parent) to an in-memory
list while the tracer is active.  Self time is a span's duration minus
the durations of its direct children, which nest inside it because the
program runs in one thread.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict


# (layer name, module, attribute, per-layer metrics, extra counter)
# The extra counter is (metric suffix, function of the call's result),
# summed over calls.
LAYERS = (
    ("cli.main", "relasym.cli", "main", ("calls", "self_s"), None),
    ("verify.run_ratio_ladder", "relasym.verify", "run_ratio_ladder", ("self_s",), None),
    ("verify.run_zero_attraction", "relasym.verify", "run_zero_attraction", ("self_s",), None),
    ("verify.emit_report", "relasym.verify", "emit_report", ("calls", "self_s"),
     ("bytes", lambda path: path.stat().st_size)),
    ("measures.recurrence_for", "relasym.measures", "recurrence_for", ("calls", "self_s"),
     ("degrees", lambda table: table.nmax)),
    ("measures.gauss_rule", "relasym.measures", "gauss_rule", ("calls", "self_s"),
     ("nodes", lambda rule: rule.size)),
    ("polybasis.basis_jets", "relasym.polybasis", "basis_jets", ("calls", "self_s"),
     ("values", lambda jets: jets.size)),
    ("polybasis.PolyInBasis.jet", "relasym.polybasis", "PolyInBasis.jet", ("calls",), None),
    ("modified.solve_Q", "relasym.modified", "solve_Q", ("calls", "self_s"), None),
    ("sobolev.sn_kernel", "relasym.sobolev", "sn_kernel", ("calls", "self_s"), None),
    ("sobolev.sn_lambda", "relasym.sobolev", "sn_lambda", ("calls", "self_s"), None),
    ("pade.pade_denominator", "relasym.pade", "pade_denominator", ("calls", "self_s"), None),
    ("zeros.roots", "relasym.zeros", "roots", ("calls", "self_s"),
     ("count", lambda found: len(found))),
    ("zeros.cluster", "relasym.zeros", "cluster", ("self_s",), None),
)

UNITS = {"calls": "calls/op", "self_s": "s/op", "bytes": "B/op",
         "degrees": "degrees/op", "nodes": "nodes/op", "values": "values/op",
         "count": "roots/op"}


def layer_metric_names() -> list:
    """Per-layer metric names in report order (import times excluded)."""
    names = []
    for layer, _, _, metrics, extra in LAYERS:
        names += [f"{layer}.{m}" for m in metrics]
        if extra is not None:
            names.append(f"{layer}.{extra[0]}")
    return names


class Tracer:
    """Span recorder; install() swaps the wrappers in, uninstall() undoes it."""

    def __init__(self):
        self.active = False
        self.spans: list = []
        self.counters: dict = defaultdict(int)
        self._stack: list = []
        self._swapped: list = []

    def _wrap(self, name: str, fn, extra):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[idx] = (name, start, end, parent)
            if extra is not None:
                self.counters[f"{name}.{extra[0]}"] += extra[1](result)
            return result
        return traced

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "relasym" or key.startswith("relasym."))]
        for name, modname, attr, _, extra in LAYERS:
            owner = importlib.import_module(modname)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            orig = getattr(owner, leaf)
            traced = self._wrap(name, orig, extra)
            if path:
                self._swap(owner, leaf, traced)
                continue
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._swap(mod, key, traced)

    def _swap(self, obj, key: str, new) -> None:
        self._swapped.append((obj, key, getattr(obj, key)))
        setattr(obj, key, new)

    def uninstall(self) -> None:
        for obj, key, orig in reversed(self._swapped):
            setattr(obj, key, orig)
        self._swapped.clear()

    def summary(self, ops: int) -> dict:
        """Per-layer metrics per op: calls, self seconds and the counters."""
        child: dict = defaultdict(float)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls: dict = defaultdict(int)
        self_s: dict = defaultdict(float)
        for idx, (name, start, end, _) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += (end - start) - child[idx]
        out = {}
        for layer, _, _, metrics, extra in LAYERS:
            values = {"calls": calls[layer], "self_s": self_s[layer]}
            for m in metrics:
                out[f"{layer}.{m}"] = (values[m] / ops, UNITS[m])
            if extra is not None:
                key = f"{layer}.{extra[0]}"
                out[key] = (self.counters[key] / ops, UNITS[extra[0]])
        return out
