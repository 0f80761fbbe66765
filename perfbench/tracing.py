"""Spans and counts recorded from outside the program.

The tracer wraps the public functions of each fracbesov module and the
public methods of ``OperatorHandle``. A function is replaced wherever a
module looks it up: in its own module and in every fracbesov module that
imported it by name (``integrate_multiplicative`` inside ``fractional`` as
well as inside ``quadrature``). Nothing under ``src/`` is edited; the
patches live only in the benchmark's process and are undone by
``uninstall``.

Each call records a span (name, start, end, parent span, operation id) in
memory. A module's self time is the duration of its spans minus the time
their child spans cover. Work counts are read from the arguments and
results at the same boundaries.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

MODULES = ("operators", "quadrature", "fractional", "besov", "interpolation",
           "reference", "harness")
COUNTS = ("quadrature.nodes", "quadrature.widenings", "operators.dense_solve_rows",
          "operators.constants_estimates", "fractional.composed_phi_calls", "besov.levels")


def _count_quadrature(counts, args, result):
    diag = result[1]
    counts["quadrature.nodes"] += diag.nodes
    counts["quadrature.widenings"] += diag.widenings


def _count_dense_rows(counts, args, result):
    handle, lams = args[0], args[1]
    # shifted/inverse handles forward to their base, which is counted there
    if handle.spectral is None and handle.kind not in ("shifted", "inverse"):
        counts["operators.dense_solve_rows"] += len(lams)


def _count_constants(counts, args, result):
    counts["operators.constants_estimates"] += 1


def _count_phi(counts, args, result):
    if args[0].spectral is None:
        counts["fractional.composed_phi_calls"] += 1


def _count_levels(counts, args, result):
    counts["besov.levels"] += len(args[1])


COUNTERS = {
    "quadrature.integrate_multiplicative": _count_quadrature,
    "operators.OperatorHandle.resolvent_batch": _count_dense_rows,
    "operators.estimate_nonnegativity_constants": _count_constants,
    "fractional.phi_apply": _count_phi,
    "besov.dyadic_blocks": _count_levels,
}


class Tracer:
    """In-memory spans and counts for one benchmark run."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_op = array("i")
        self._stack: list[list] = []          # [span index, time covered by children]
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.name_s: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        self.op_id = -1
        self.enabled = True
        self._patches: list[tuple] = []

    # ---- recording ----

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, module: str, name: str, fn):
        tracer = self
        full = f"{module}.{name}"
        name_id = self._name_id(full)
        counter = COUNTERS.get(full)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stack = tracer._stack
            idx = len(tracer.span_start)
            tracer.span_name.append(name_id)
            tracer.span_parent.append(stack[-1][0] if stack else -1)
            tracer.span_op.append(tracer.op_id)
            frame = [idx, 0.0]
            stack.append(frame)
            start = clock()
            tracer.span_start.append(start)
            tracer.span_end.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                tracer.span_end[idx] = end
                dur = end - start
                tracer.self_s[module] += dur - frame[1]
                tracer.calls[module] += 1
                tracer.name_s[full] += dur
                if stack:
                    stack[-1][1] += dur
            if counter is not None:
                counter(tracer.counts, args, result)
            return result

        return traced

    # ---- patching ----

    def _set(self, obj, attr, value):
        self._patches.append((obj, attr, obj.__dict__[attr] if isinstance(obj, type)
                              else getattr(obj, attr)))
        setattr(obj, attr, value)

    def install(self) -> None:
        """Patch every public function of the traced modules wherever a
        loaded fracbesov module refers to it."""
        import fracbesov.harness as harness
        import fracbesov.operators as operators
        import fracbesov.reference  # noqa: F401  (harness looks it up as ``ref``)

        loaded = [m for n, m in sorted(sys.modules.items())
                  if m is not None and (n == "fracbesov" or n.startswith("fracbesov."))]
        replacements = {}
        for short in MODULES:
            mod = sys.modules[f"fracbesov.{short}"]
            for name, obj in vars(mod).items():
                if name.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != mod.__name__:
                    continue
                replacements[id(obj)] = (obj, self.wrap(short, name, obj))
        for mod in loaded:
            for name, obj in list(vars(mod).items()):
                hit = replacements.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._set(mod, name, hit[1])

        cls = operators.OperatorHandle
        for name, raw in list(vars(cls).items()):
            if name.startswith("_"):
                continue
            if isinstance(raw, staticmethod):
                self._set(cls, name, staticmethod(
                    self.wrap("operators", f"OperatorHandle.{name}", raw.__func__)))
            elif inspect.isfunction(raw):
                self._set(cls, name, self.wrap("operators", f"OperatorHandle.{name}", raw))

        for cd in harness.CHECKS.values():
            if cd.calibration is not None:
                self._set(cd, "calibration", self.wrap("harness", "calibration", cd.calibration))

    def uninstall(self) -> None:
        while self._patches:
            obj, attr, original = self._patches.pop()
            setattr(obj, attr, original)

    # ---- results ----

    def summary(self) -> dict:
        return {"self_s": dict(self.self_s), "calls": dict(self.calls),
                "name_s": dict(self.name_s), "counts": dict(self.counts),
                "spans": len(self.span_start)}

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path, names=np.array(self.names), name=np.frombuffer(self.span_name, np.int32),
            start=np.frombuffer(self.span_start), end=np.frombuffer(self.span_end),
            parent=np.frombuffer(self.span_parent, np.int32),
            op=np.frombuffer(self.span_op, np.int32))


def merge(summaries: list[dict]) -> dict:
    """Add up the summaries of several traced processes."""
    out = {"self_s": Counter(), "calls": Counter(), "name_s": Counter(),
           "counts": Counter(), "spans": 0}
    for s in summaries:
        for key in ("self_s", "calls", "name_s", "counts"):
            out[key].update(s[key])
        out["spans"] += s["spans"]
    return {k: (dict(v) if isinstance(v, Counter) else v) for k, v in out.items()}
