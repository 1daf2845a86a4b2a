"""Outside-in tracing of the thermalecho layers, and the per-layer metrics.

``Tracer.install`` wraps every public (``__all__``) function of the layer
modules and rebinds each name in every ``thermalecho`` module that holds it,
so calls that go through an imported name (``stats.log_loschmidt``,
``averages.elliptic_e``, ``cli.mode_table``) are traced too.  Nothing under
``src/`` changes.  A span records its name, parent, thread, start and end;
spans stay in memory until the run ends.

A span opened on a worker thread with no open span of its own is a child of
the innermost span open on the tracing thread: the sampler's thread pool
runs ``echo.log_loschmidt`` on behalf of ``stats.sample_logle``.  Such
children overlap in time, so a span's self time subtracts the union of its
children's intervals, not the sum of their durations.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import sys
import threading
import time
from collections import defaultdict
from typing import NamedTuple

import numpy as np

LAYERS = ("model", "echo", "averages", "stats", "special", "oracle", "cli")


class Span(NamedTuple):
    id: int
    name: str
    parent: int | None
    thread: int
    start: float
    end: float
    failed: bool
    work: int


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _mode_times(args, kwargs, result):
    return _arg(args, kwargs, 0, "table").n_modes * int(np.size(_arg(args, kwargs, 1, "t")))


# work a call does, as a count: mode x time evaluations of the echo kernel,
# samples drawn, elliptic-integral arguments, modes built, dense echo times
_WORK = {
    "echo.loschmidt": _mode_times,
    "echo.log_loschmidt": _mode_times,
    "echo.linearized": _mode_times,
    "echo.bounds": _mode_times,
    "echo.echo_point": _mode_times,
    "stats.sample_logle": lambda a, k, r: int(_arg(a, k, 2, "n_samples")),
    "special.elliptic_e": lambda a, k, r: int(np.size(_arg(a, k, 0, "m"))),
    "model.mode_table": lambda a, k, r: r.n_modes,
    "oracle.exact_le": lambda a, k, r: int(np.size(_arg(a, k, 3, "t"))),
}

# calls whose arguments are kept, so the sampler can be replayed
_RECORD_ARGS = ("stats.sample_logle",)


class Tracer:
    """Wraps the layer functions while installed and collects their spans."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.calls: dict[str, list] = defaultdict(list)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []
        self._main_stack: list[int] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, name):
        work = _WORK.get(name)
        record = name in _RECORD_ARGS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                # on a worker thread, adopt the span open on the tracing thread
                main = self._main_stack
                parent = main[-1] if main else None
            sid = next(self._ids)
            stack.append(sid)
            if record:
                self.calls[name].append((args, kwargs))
            failed = True
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                failed = False
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                count = work(args, kwargs, result) if work and not failed else 0
                self.spans.append(Span(sid, name, parent, threading.get_ident(),
                                       start, end, failed, count))

        return traced

    def install(self) -> None:
        """Wrap the layer functions and rebind them everywhere they are bound."""
        self._main_stack = self._stack()
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"thermalecho.{layer}")
            for attr in module.__all__:
                fn = getattr(module, attr)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    wrappers[fn] = self._wrap(fn, f"{layer}.{attr}")
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "thermalecho" and not mod_name.startswith("thermalecho."):
                continue
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrappers[value])

    def uninstall(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {
        s.id: (s.end - s.start) - _covered(children.get(s.id, ()), s.start, s.end)
        for s in spans
    }


# functions whose own self time is reported, besides each layer's total
_SELF_TIMED = (
    "echo.loschmidt", "echo.log_loschmidt", "echo.linearized", "echo.bounds",
    "stats.sample_logle", "stats.histogram_peaks", "stats.classify",
    "averages.variance_le", "averages.avg_loschmidt",
    "oracle.spectral", "oracle.exact_le", "oracle.qubit_inequality_check",
    "oracle.q_function_scan",
)


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer self times and work counts of one traced run.

    A layer's self time is the sum of its spans' self times, so spans that
    run at once on worker threads add up to thread-seconds.
    """
    own = self_times(spans)
    agg = defaultdict(lambda: {"self": 0.0, "span": 0.0, "calls": 0, "work": 0, "failed": 0})
    for s in spans:
        a = agg[s.name]
        a["self"] += own[s.id]
        a["span"] += s.end - s.start
        a["calls"] += 1
        a["work"] += s.work
        a["failed"] += s.failed

    def layer_total(layer, key):
        return sum(a[key] for name, a in agg.items() if name.split(".", 1)[0] == layer)

    def ratio(num, den):
        return num / den if den > 0 else 0.0

    m = {f"{layer}.self_s": float(layer_total(layer, "self")) for layer in LAYERS}
    m.update({f"{name}.self_s": agg[name]["self"] for name in _SELF_TIMED})
    sampler = agg["stats.sample_logle"]
    m.update({
        "echo.calls": layer_total("echo", "calls"),
        "echo.mode_time_evals": layer_total("echo", "work"),
        "echo.evals_per_s": ratio(layer_total("echo", "work"), m["echo.self_s"]),
        "stats.samples": sampler["work"],
        "stats.samples_per_s": ratio(sampler["work"], sampler["span"]),
        "averages.variance_le.calls": agg["averages.variance_le"]["calls"],
        "averages.variance_le.failed": agg["averages.variance_le"]["failed"],
        "special.elliptic_e.args": agg["special.elliptic_e"]["work"],
        "model.mode_table.calls": agg["model.mode_table"]["calls"],
        "model.modes_built": agg["model.mode_table"]["work"],
        "oracle.exact_le.times": agg["oracle.exact_le"]["work"],
    })
    return m
