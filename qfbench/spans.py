"""In-memory span recorder for the traced benchmark run.

Spans come from outside the program: the tracer replaces module attributes
(``qfluid.cli.run`` and the like) with wrappers that open a span around the
original, and restores them afterwards. Nothing inside ``src/qfluid``
changes. A wrap target that no longer exists is recorded as absent and the
run goes on, so a refactor that moves a function loses one span, not the
benchmark.

Each span holds its name, layer, start, end, parent id and the counts made
while it was the innermost open span. Spans stay in memory until ``dump``.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time
from collections import Counter, defaultdict

import numpy as np

# (module, attribute, layer) wrapped as spans in a traced run. The span is
# named "<module without the package prefix>.<attribute>".
SPAN_TARGETS = (
    ("qfluid.cli", "build_initial_state", "scenario"),
    ("qfluid.cli", "run", "madelung"),
    ("qfluid.cli", "run_oracle", "schrodinger"),
    ("qfluid.cli", "compare", "schrodinger"),
    ("qfluid.cli", "write_run", "output"),
    ("qfluid.cli", "write_compare", "output"),
    ("qfluid.madelung", "diagnostics", "madelung"),
    ("qfluid.output", "quantum_potential", "madelung"),
    ("qfluid.verify", "run", "madelung"),
)

# (module, attribute, count key) wrapped as counters only.
COUNT_TARGETS = (
    ("qfluid.madelung", "rhs", "rhs_calls"),
)

FFT_FUNCS = ("fft", "ifft", "rfft", "irfft")


def _steps(state, cfg, *args, **kwargs) -> dict:
    """Step count of a ``run(state, cfg, ...)`` call, for steps per second."""
    return {"steps": int(round(cfg.t_end / cfg.dt))}


SPAN_ATTRS = {"cli.run": _steps, "verify.run": _steps}


class Tracer:
    def __init__(self):
        self.t0 = time.perf_counter()
        self.spans: list[dict] = []
        self.absent: list[str] = []
        self.counts: Counter = Counter()
        self._stack: list[dict] = []
        self._undo: list[tuple] = []

    @contextlib.contextmanager
    def span(self, name: str, layer: str, **attrs):
        rec = {"id": len(self.spans), "name": name, "layer": layer,
               "parent": self._stack[-1]["id"] if self._stack else None,
               "start": time.perf_counter(), "end": None,
               "counts": Counter(), **attrs}
        self.spans.append(rec)
        self._stack.append(rec)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def _count(self, key: str, amount: int = 1) -> None:
        self.counts[key] += amount
        if self._stack:
            self._stack[-1]["counts"][key] += amount

    def _replace(self, module: str, attr: str, make) -> None:
        try:
            mod = importlib.import_module(module)
            orig = getattr(mod, attr)
        except (ImportError, AttributeError):
            self.absent.append(f"{module}.{attr}")
            return
        setattr(mod, attr, functools.wraps(orig)(make(orig)))
        self._undo.append((mod, attr, orig))

    def install(self) -> None:
        """Wrap every span and count target, and count numpy.fft calls."""
        self.absent = []
        for module, attr, layer in SPAN_TARGETS:
            name = f"{module.split('.', 1)[-1]}.{attr}"
            self._replace(module, attr, self._span_wrapper(name, layer))
        for module, attr, key in COUNT_TARGETS:
            self._replace(module, attr, self._count_wrapper(key))
        self.count_fft()

    def count_fft(self) -> None:
        for attr in FFT_FUNCS:
            self._replace("numpy.fft", attr, self._fft_wrapper)

    def _span_wrapper(self, name, layer):
        attrs_of = SPAN_ATTRS.get(name)

        def make(orig):
            def traced(*args, **kwargs):
                attrs = {}
                if attrs_of is not None:
                    try:
                        attrs = attrs_of(*args, **kwargs)
                    except (AttributeError, TypeError, ZeroDivisionError):
                        attrs = {}
                with self.span(name, layer, **attrs):
                    return orig(*args, **kwargs)
            return traced
        return make

    def _count_wrapper(self, key):
        def make(orig):
            def counted(*args, **kwargs):
                self._count(key)
                return orig(*args, **kwargs)
            return counted
        return make

    def _fft_wrapper(self, orig):
        def counted(a, *args, **kwargs):
            out = orig(a, *args, **kwargs)
            self._count("fft_calls")
            self._count("fft_points", max(np.size(a), np.size(out)))
            return out
        return counted

    def restore(self) -> None:
        for mod, attr, orig in reversed(self._undo):
            setattr(mod, attr, orig)
        self._undo.clear()

    def dump(self, path) -> None:
        """Write every span once, times relative to the tracer's start."""
        out = [{**s, "start": s["start"] - self.t0, "end": s["end"] - self.t0,
                "counts": dict(s["counts"])} for s in self.spans]
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"absent": self.absent, "spans": out}, f)


def duration(span: dict) -> float:
    return span["end"] - span["start"]


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span duration minus the time its direct children cover."""
    child = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] += duration(s)
    return {s["id"]: duration(s) - child[s["id"]] for s in spans}

