"""Span recorder that wraps the duhamel pipeline from outside the program.

Each layer's public entry point is replaced where the pipeline looks it up
at call time: class attributes for ``Forcing`` and ``KernelApplication``
methods, and module attributes for functions imported by name (for example
``duhamel.cole_hopf.solve_controlled_heat``).  A span records its name,
start, end and parent; spans stay in memory until the run reads them.  The
n-D FFT entry points of ``numpy.fft`` and ``scipy.fft`` are counted, not
timed.  ``uninstall`` restores every attribute, so code run after it is the
unpatched program.
"""

from __future__ import annotations

import functools
import importlib
import json
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

# (module, attribute) -> span name; the module is where the caller finds it
_FUNCTION_SPANS = (
    ("duhamel.cli", "solve_controlled_heat", "series.solve"),
    ("duhamel.cli", "ceiling_check", "series.checks"),
    ("duhamel.cli", "termwise_factorial_check", "series.checks"),
    ("duhamel.cli", "write_trajectory", "io.write"),
    ("duhamel.cole_hopf", "solve_controlled_heat", "series.solve"),
    ("duhamel.cole_hopf", "ceiling_check", "series.checks"),
    ("duhamel.cole_hopf", "floor_check", "series.checks"),
    ("duhamel.cole_hopf", "potential_from_velocity", "cole_hopf.potential"),
    ("duhamel.cole_hopf", "velocity_from_field", "cole_hopf.velocity"),
    ("duhamel.cole_hopf", "nse_residual", "cole_hopf.residual"),
    ("duhamel.parabolic", "solve_controlled_heat", "series.solve"),
    ("duhamel.parabolic", "normalize", "parabolic.normalize"),
    ("duhamel.parabolic", "back_transform", "parabolic.back_transform"),
)
# (module, class, attribute) -> span name
_METHOD_SPANS = (
    ("duhamel.forcing", "Forcing", "from_expression", "forcing.build"),
    ("duhamel.forcing", "Forcing", "from_samples", "forcing.build"),
    ("duhamel.forcing", "Forcing", "sample", "forcing.sample"),
    ("duhamel.heat_kernel", "KernelApplication", "apply", "heat_kernel.apply"),
)
# (module, attribute) -> counter name
_COUNTED = (
    *(("numpy.fft", f, "fft.calls") for f in ("fftn", "ifftn", "rfftn", "irfftn")),
    *(("scipy.fft", f, "fft.calls") for f in ("fftn", "ifftn", "rfftn", "irfftn")),
    ("duhamel.cole_hopf", "curl_residual", "fields.curl_residual_calls"),
)

ROOT_SPAN = "solve"

# span name -> per-layer metric holding its self time; the root span's self
# time is the part of a solve no wrapped layer accounts for
SELF_TIME_METRICS = {
    "forcing.build": "forcing.build_s",
    "forcing.sample": "forcing.sample_s",
    "series.solve": "series.solve_self_s",
    "heat_kernel.apply": "heat_kernel.apply_s",
    "series.checks": "series.checks_s",
    "cole_hopf.potential": "cole_hopf.potential_s",
    "cole_hopf.velocity": "cole_hopf.velocity_s",
    "cole_hopf.residual": "cole_hopf.residual_s",
    "parabolic.normalize": "parabolic.normalize_s",
    "parabolic.back_transform": "parabolic.back_transform_s",
    "io.write": "io.write_s",
    ROOT_SPAN: "trace.unattributed_s",
}
# per-solve count -> unit
COUNT_METRICS = {
    "forcing.sample_calls": "count",
    "heat_kernel.apply_calls": "count",
    "series.orders": "count",
    "fft.calls": "count",
    "fields.curl_residual_calls": "count",
    "io.bytes_written": "bytes",
}


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    counts: Counter | None = None  # root spans only: counts of the whole solve


@dataclass
class SolveTrace:
    """One traced solve: its duration, self time per span name, and counts."""

    duration: float
    self_time: dict[str, float]
    counts: dict[str, int]


def _bytes_written(directory, stem) -> int:
    """Size of the trajectory index and every CSF1 file it lists."""
    index = Path(directory) / f"{stem}.json"
    total = index.stat().st_size
    for snap in json.loads(index.read_text())["snapshots"]:
        total += sum((Path(directory) / name).stat().st_size for name in snap["files"])
    return total


class Tracer:
    """Installs wrappers, records spans and counts, and summarises solves."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        counts = Counter() if parent is None else None
        self.spans.append(Span(name, perf_counter(), parent=parent, counts=counts))
        index = len(self.spans) - 1
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index].end = perf_counter()

    def _spanned(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if name == "series.solve":
                self._count("series.orders", result.truncation_depth + 1)
            elif name == "io.write":
                self._count("io.bytes_written", _bytes_written(*args[1:3]))
            return result
        return wrapper

    def _count(self, name: str, n: int = 1):
        if self._stack:  # calls outside a traced solve are not counted
            self.spans[self._stack[0]].counts[name] += n

    def _counted(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._count(name)
            return fn(*args, **kwargs)
        return wrapper

    # -- patching ------------------------------------------------------------

    def _replace(self, owner, attr: str, new):
        self._restore.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type)
                              else getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        for module, attr, name in _FUNCTION_SPANS:
            mod = importlib.import_module(module)
            self._replace(mod, attr, self._spanned(name, getattr(mod, attr)))
        for module, cls_name, attr, name in _METHOD_SPANS:
            cls = getattr(importlib.import_module(module), cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                self._replace(cls, attr, classmethod(self._spanned(name, raw.__func__)))
            else:
                self._replace(cls, attr, self._spanned(name, raw))
        for module, attr, name in _COUNTED:
            mod = importlib.import_module(module)
            self._replace(mod, attr, self._counted(name, getattr(mod, attr)))

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- summary -------------------------------------------------------------

    def solves(self) -> list[SolveTrace]:
        """Every root span with the self times of its subtree.

        A span's self time is its duration minus that of its direct
        children, so the self times of one solve, root included, sum to the
        root's duration.
        """
        self_time = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                self_time[s.parent] -= s.end - s.start
        out: list[SolveTrace] = []
        for s, t in zip(self.spans, self_time):
            if s.parent is None:
                if s.name != ROOT_SPAN:
                    raise RuntimeError(f"span {s.name!r} ran outside a traced solve")
                out.append(SolveTrace(s.end - s.start, {}, dict(s.counts)))
            trace = out[-1]
            trace.self_time[s.name] = trace.self_time.get(s.name, 0.0) + t
            if s.name in ("forcing.sample", "heat_kernel.apply"):
                key = f"{s.name}_calls"
                trace.counts[key] = trace.counts.get(key, 0) + 1
        return out
