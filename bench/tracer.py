"""Span tracer that wraps the public functions of the lplorentz package.

Every public module-level function of every module of the package is
replaced by a timing wrapper in every module namespace that binds it: the
package re-exports names and its modules call each other through
``from .norms import rearrangement``-style imports, so wrapping only the
defining module would miss those calls.  Spans stay in memory and are
written out once, after the run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import pkgutil
import time
from collections import defaultdict
from pathlib import Path

import numpy as np


def _argument(sig: inspect.Signature, args, kwargs, name: str):
    return sig.bind(*args, **kwargs).arguments[name]


class Tracer:
    """Collects spans ``(op, parent, name, start_ns, end_ns)`` plus per-name
    self time, call counts and computed work counts.

    A span's self time is its duration minus the durations of its child
    spans.  Work counts are computed from the arguments after the span ends;
    the time that takes is kept out of every span's self time.
    """

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.self_ns: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self.top_level_ns = 0
        self.op = -1
        self._stack: list[list[int]] = []  # [span index, child ns]
        self._restore: list[tuple[object, str, object]] = []

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, name: str, fn, label=None, counters=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            full = name if label is None else f"{name}.{label(args, kwargs)}"
            parent = stack[-1][0] if stack else -1
            index = len(tracer.spans)
            tracer.spans.append(None)
            frame = [index, 0]
            stack.append(frame)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                duration = end - start
                tracer.spans[index] = (tracer.op, parent, full, start, end)
                tracer.self_ns[full] += duration - frame[1]
                tracer.calls[full] += 1
                if stack:
                    stack[-1][1] += duration
                else:
                    tracer.top_level_ns += duration
            if counters:
                begin = time.perf_counter_ns()
                for key, count in counters.items():
                    tracer.counts[f"{name}.{key}"] += count(args, kwargs)
                if stack:
                    stack[-1][1] += time.perf_counter_ns() - begin
            return result

        return traced

    def install(self) -> None:
        """Wrap every public function in every lplorentz namespace binding it."""
        import lplorentz

        modules = [
            importlib.import_module(f"lplorentz.{info.name}")
            for info in pkgutil.iter_modules(lplorentz.__path__)
        ]
        originals = {}
        for mod in modules:
            for attr, value in vars(mod).items():
                if inspect.isfunction(value) and value.__module__ == mod.__name__ and not attr.startswith("_"):
                    originals[id(value)] = (value, f"{mod.__name__.split('.')[-1]}.{attr}")
        special = self._special_cases()
        wrappers = {}
        for key, (fn, name) in originals.items():
            label, counters = special.get(name, (None, None))
            wrappers[key] = self._wrap(name, fn, label, counters)
        for ns in [lplorentz, *modules]:
            for attr, value in list(vars(ns).items()):
                if id(value) in originals and originals[id(value)][0] is value:
                    self._restore.append((ns, attr, value))
                    setattr(ns, attr, wrappers[id(value)])

    def uninstall(self) -> None:
        for ns, attr, value in reversed(self._restore):
            setattr(ns, attr, value)
        self._restore.clear()

    def _special_cases(self) -> dict:
        """Labels and computed work counts for the functions that get them."""
        from lplorentz import cli, inequalities, interpolation, norms, sharpness, spectral

        decompose_sig = inspect.signature(spectral.decompose)
        generate_sig = inspect.signature(inequalities.generate_field)
        rearrangement_sig = inspect.signature(norms.rearrangement)
        k_norm_sig = inspect.signature(interpolation.interpolation_norm_K)
        distribution_sig = inspect.signature(sharpness.atomic_distribution)
        emit_sig = inspect.signature(cli.emit_report)
        rearrangement = norms.rearrangement
        profile_type = norms.RearrangementProfile

        def decompose_points(args, kwargs):
            bound = decompose_sig.bind(*args, **kwargs).arguments
            blocks = bound["j_max"] - bound["j_min"] + 1
            return bound["f"].grid.num_points * (blocks + 2)

        def rearrangement_entries(args, kwargs):
            v = _argument(rearrangement_sig, args, kwargs, "v")
            return 0 if isinstance(v, profile_type) else v.values.size

        def k_norm_panels(args, kwargs):
            bound = k_norm_sig.bind(*args, **kwargs).arguments
            if bound["params"].r == math.inf:
                return 0
            cum = rearrangement(bound["v"]).cum_masses
            if cum.size < 2:
                return 0
            span = np.log(cum[1:]) - np.log(cum[:-1])
            return int(np.sum(np.maximum(1, np.ceil(span / math.log(2.0)))))

        def distribution_entries(args, kwargs):
            s = _argument(distribution_sig, args, kwargs, "s")
            return len(s.scales) * s.atom.rearrangement.values.size

        def report_bytes(args, kwargs):
            path = _argument(emit_sig, args, kwargs, "path")
            return 0 if path is None else Path(path).stat().st_size

        return {
            "spectral.decompose": (None, {"points": decompose_points}),
            "inequalities.generate_field": (
                lambda args, kwargs: _argument(generate_sig, args, kwargs, "generator"),
                None,
            ),
            "norms.rearrangement": (None, {"entries": rearrangement_entries}),
            "interpolation.interpolation_norm_K": (None, {"panels": k_norm_panels}),
            "sharpness.atomic_distribution": (None, {"entries": distribution_entries}),
            "cli.emit_report": (None, {"bytes": report_bytes}),
        }

    # -- results ------------------------------------------------------------

    def per_op(self, ops: int) -> dict[str, dict[str, float]]:
        """Self time (ms), calls and work counts per op, by span name.

        Labelled spans (``inequalities.generate_field.<generator>``) are
        also summed under their unlabelled name.
        """
        table: dict[str, dict[str, float]] = defaultdict(lambda: {"self_ms": 0.0, "calls": 0.0})
        for name, ns in self.self_ns.items():
            names = {name, ".".join(name.split(".")[:2])}
            for key in names:
                table[key]["self_ms"] += ns / 1e6 / ops
                table[key]["calls"] += self.calls[name] / ops
        for key, count in self.counts.items():
            base, what = key.rsplit(".", 1)
            table[base][what] = count / ops
        return dict(table)

    def write(self, path: Path) -> None:
        """Write every span as one CSV line: op, id, parent, name, start_ns, end_ns."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            out.write("op,id,parent,name,start_ns,end_ns\n")
            for index, (op, parent, name, start, end) in enumerate(self.spans):
                out.write(f"{op},{index},{parent},{name},{start},{end}\n")
