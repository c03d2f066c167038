"""Spans recorded from outside the program, by wrapping module attributes.

`xor3sdp.pipeline` calls its stages through names it imported into its own
namespace, so replacing those attributes puts a span around every call the
pipeline makes. Spans stay in memory as (name, start, end, parent) and are
turned into self times when the run ends. Names the program no longer has
are reported as absent and are not wrapped; a counter that no longer fits a
call's arguments or result is reported and skipped.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict

# (module, attribute, span name). The span name is the layer that defines
# the function, so a layer's figures do not depend on who imported it.
TRACED = (
    ("xor3sdp.pipeline", "two_round", "pipeline.two_round"),
    ("xor3sdp.pipeline", "bilinearize", "pipeline.bilinearize"),
    ("xor3sdp.pipeline", "condition", "pipeline.condition"),
    ("xor3sdp.pipeline", "instance_objective", "fourier.instance_objective"),
    ("xor3sdp.pipeline", "from_bilinear_poly", "sdp.from_bilinear_poly"),
    ("xor3sdp.pipeline", "solve_relaxation", "sdp.solve_relaxation"),
    ("xor3sdp.pipeline", "relaxation_value", "sdp.relaxation_value"),
    ("xor3sdp.pipeline", "cw_round", "sdp.cw_round"),
    ("xor3sdp.pipeline", "evaluate", "instances.evaluate"),
    ("xor3sdp.pipeline", "random_baseline", "instances.random_baseline"),
    ("xor3sdp.pipeline", "brute_force", "oracle.brute_force"),
    # the ascent's once-per-sweep call
    ("xor3sdp.sdp", "relaxation_value", "sdp.relaxation_value"),
    # build_instance's call when the benchmark builds composed-exact
    ("xor3sdp.pipeline", "compose", "gadget.compose"),
)


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


def _count_solve(args, kwargs, result, counts):
    sweeps = len(result.sweep_values) - 1
    counts["sdp.ascent.best_sweeps"] += sweeps
    counts["sdp.ascent.hit_max_sweeps"] += sweeps >= _arg(args, kwargs, 1, "cfg").max_sweeps


def _count_round(args, kwargs, result, counts):
    cfg = _arg(args, kwargs, 2, "cfg")
    counts["sdp.cw_round.candidates"] += cfg.trials * len(cfg.t_grid)


def _count_brute(args, kwargs, result, counts):
    counts["oracle.brute_force.assignments"] += 1 << _arg(args, kwargs, 0, "inst").n_vars


def _count_baseline(args, kwargs, result, counts):
    counts["instances.random_baseline.samples"] += _arg(args, kwargs, 1, "trials")


def _count_compose(args, kwargs, result, counts):
    counts["gadget.compose.constraints"] += len(result.constraints)


# Work counts read from a call's arguments and result.
COUNTERS = {
    "sdp.solve_relaxation": _count_solve,
    "sdp.cw_round": _count_round,
    "oracle.brute_force": _count_brute,
    "instances.random_baseline": _count_baseline,
    "gadget.compose": _count_compose,
}


class Tracer:
    """Wraps the traced names while installed; use as a context manager."""

    def __init__(self, traced=TRACED):
        self.traced = traced
        self.spans: list[tuple[str, float, float, int]] = []  # name, start, end, parent
        self.counts: defaultdict[str, int] = defaultdict(int)
        self.absent: list[str] = []
        self.uncounted: set[str] = set()  # spans whose counter no longer fits
        self._originals: list[tuple[object, str, object]] = []
        self._stack: list[int] = []

    def __enter__(self) -> "Tracer":
        self.absent = []
        for module_name, attr, span in self.traced:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                self.absent.append(f"{module_name}.{attr}")
                continue
            self._originals.append((module, attr, original))
            setattr(module, attr, self._wrap(original, span))
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)
        self._originals.clear()

    def _wrap(self, fn, name):
        spans, stack, counter = self.spans, self._stack, COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append((name, 0.0, 0.0, parent))
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if counter is not None:
                try:
                    counter(args, kwargs, result, self.counts)
                except (AttributeError, IndexError, KeyError, TypeError):
                    self.uncounted.add(name)
            return result

        return traced

    def self_times(self) -> dict[str, float]:
        """Per span name: summed duration minus the time its children cover."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: defaultdict[str, float] = defaultdict(float)
        for i, (name, start, end, _) in enumerate(self.spans):
            totals[name] += end - start - child_time[i]
        return dict(totals)

    def calls(self) -> dict[str, int]:
        out: defaultdict[str, int] = defaultdict(int)
        for name, *_ in self.spans:
            out[name] += 1
        return dict(out)
