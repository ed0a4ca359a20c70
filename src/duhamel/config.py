"""Run configuration schema: strict JSON with machine-readable errors.

Unknown keys are rejected at every level, so stale or misspelled options
never silently change a run.  ``load_config`` raises ``ConfigError`` whose
``errors`` list ({"path", "message"} records) is what the CLI serializes.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .expressions import Expression, ExpressionError, compile_expression
from .fields import ScalarField, VectorField
from .forcing import Forcing
from .grid import FreeSpaceTruncated, Grid, Periodic
from .series import SeriesOptions

__all__ = ["ConfigError", "RunConfig", "load_config"]

SCHEMA_VERSION = 1


class ConfigError(ValueError):
    def __init__(self, errors):
        self.errors = [
            e if isinstance(e, dict) else {"path": "", "message": str(e)} for e in errors
        ]
        super().__init__("; ".join(f"{e['path']}: {e['message']}" for e in self.errors))


class _Checker:
    def __init__(self):
        self.errors: list[dict] = []
        # the variables an expression may use: all of them until the grid parses
        self.variables = ("x", "y", "z", "t")

    def fail(self, path: str, message: str):
        self.errors.append({"path": path, "message": message})

    def section(self, obj, path: str, allowed: set[str], required: set[str]):
        if not isinstance(obj, dict):
            self.fail(path, "must be an object")
            return False
        for key in obj:
            if key not in allowed:
                self.fail(f"{path}.{key}" if path else key, "unknown key")
        ok = True
        for key in required:
            if key not in obj:
                self.fail(f"{path}.{key}" if path else key, "missing required key")
                ok = False
        return ok

    def number(self, obj, path: str, positive=False, nonneg=False):
        if not isinstance(obj, (int, float)) or isinstance(obj, bool):
            self.fail(path, "must be a number")
            return None
        v = float(obj)
        if not math.isfinite(v):
            self.fail(path, "must be finite")
            return None
        if positive and not v > 0:
            self.fail(path, "must be positive")
            return None
        if nonneg and v < 0:
            self.fail(path, "must be nonnegative")
            return None
        return v

    def integer(self, obj, path: str, minimum: int = 0):
        if not isinstance(obj, int) or isinstance(obj, bool):
            self.fail(path, "must be an integer")
            return None
        if obj < minimum:
            self.fail(path, f"must be at least {minimum}")
            return None
        return obj

    def numbers(self, obj, path: str, length: int | None = None, **kw):
        """A list of numbers (non-empty, or exactly ``length`` long), checked entrywise."""
        if not isinstance(obj, list) or not obj or (length is not None and len(obj) != length):
            size = "non-empty" if length is None else f"{length}-entry"
            self.fail(path, f"must be a {size} list of numbers")
            return None
        values = [self.number(v, f"{path}[{i}]", **kw) for i, v in enumerate(obj)]
        return None if None in values else values

    def expression(self, obj, path: str):
        if not isinstance(obj, str):
            self.fail(path, "must be an expression string")
            return None
        try:
            expr = compile_expression(obj)
        except ExpressionError as exc:
            self.fail(path, str(exc))
            return None
        missing = [v for v in expr.variables if v not in self.variables]
        if missing:
            self.fail(path, f"uses {', '.join(missing)}, which the grid does not have")
            return None
        return expr

    def number_or_expression(self, obj, path: str):
        """A float, or a valid expression string compiled."""
        if isinstance(obj, str):
            return self.expression(obj, path)
        if not isinstance(obj, (int, float)) or isinstance(obj, bool):
            self.fail(path, "must be a number or expression string")
            return None
        return self.number(obj, path)


@dataclass
class RunConfig:
    """Validated run description ready to execute."""

    kind: str
    grid: Grid
    series: SeriesOptions
    seed: int
    output_dir: str
    payload: dict = field(default_factory=dict)
    raw: dict = field(default_factory=dict)

    def _at_time_zero(self, expr: Expression, path: str) -> np.ndarray:
        """``expr`` on the grid at t = 0; its errors name ``path``."""
        return Forcing.from_expression(expr).labelled(path).sample(self.grid, (0.0,))[0]

    def initial_field(self) -> ScalarField:
        return ScalarField(self.grid, self._at_time_zero(self.payload["initial"], "initial"))

    def velocity_field(self) -> VectorField:
        return VectorField(self.grid, tuple(
            self._at_time_zero(expr, f"velocity[{i}]")
            for i, expr in enumerate(self.payload["velocity"])))

    def forcing(self, key: str) -> Forcing | None:
        """The forcing of leaf ``key``, labelled with it, or ``None`` if unset."""
        spec = self.payload.get(key)
        return None if spec is None else Forcing.make(spec).labelled(key)


_TOP_KEYS = {"schema", "kind", "grid", "series", "seed", "output_dir",
             "controlled_heat", "nse", "parabolic"}
_GRID_KEYS = {"points", "spacing", "extent", "origin", "boundary"}
_SERIES_KEYS = {"depth_max", "rel_tolerance", "time_steps", "output_times"}
_CH_KEYS = {"initial", "forcing", "horizon"}
_NSE_KEYS = {"velocity", "anchor", "anchor_value", "pressure_minus_force",
             "speed_bound", "horizon"}
_PARA_KEYS = {"A", "a", "c", "f", "initial", "horizon"}


def _parse_grid(obj, chk: _Checker) -> Grid | None:
    if not chk.section(obj, "grid", _GRID_KEYS, {"points", "origin"}):
        return None
    points = obj.get("points")
    if not isinstance(points, list) or not points or not all(
        isinstance(p, int) and not isinstance(p, bool) for p in points
    ):
        chk.fail("grid.points", "must be a list of integers")
        return None
    ndim = len(points)
    if ("spacing" in obj) == ("extent" in obj):
        chk.fail("grid", "give exactly one of spacing or extent")
        return None
    if "spacing" in obj:
        spacing = chk.numbers(obj["spacing"], "grid.spacing", ndim, positive=True)
    else:
        extent = chk.numbers(obj["extent"], "grid.extent", ndim, positive=True)
        # a zero count gets an infinite spacing here; Grid rejects the count first
        spacing = extent and [e / p if p else math.inf for e, p in zip(extent, points)]
    origin = chk.numbers(obj["origin"], "grid.origin", ndim)
    if spacing is None or origin is None:
        return None
    boundary_spec = obj.get("boundary", "periodic")
    if boundary_spec == "periodic":
        boundary = Periodic()
    elif isinstance(boundary_spec, dict) and set(boundary_spec) == {"free_space"}:
        if not chk.section(boundary_spec["free_space"], "grid.boundary.free_space", set(), set()):
            return None
        boundary = FreeSpaceTruncated()
    else:
        chk.fail("grid.boundary", "must be 'periodic' or {'free_space': {}}")
        return None
    try:
        return Grid(tuple(points), tuple(spacing), tuple(origin), boundary)
    except (TypeError, ValueError) as exc:
        chk.fail("grid", str(exc))
        return None


def _parse_series(obj, chk: _Checker) -> SeriesOptions | None:
    if obj is None:
        return SeriesOptions()
    if not chk.section(obj, "series", _SERIES_KEYS, set()):
        return None
    parsers = {
        "depth_max": chk.integer,
        "rel_tolerance": lambda v, path: chk.number(v, path, positive=True),
        "time_steps": lambda v, path: chk.integer(v, path, minimum=1),
        "output_times": lambda v, path: chk.numbers(v, path, nonneg=True),
    }
    kwargs = {key: parse(obj[key], f"series.{key}") for key, parse in parsers.items() if key in obj}
    if None in kwargs.values():
        return None
    try:
        return SeriesOptions(**kwargs)
    except ValueError as exc:
        chk.fail("series", str(exc))
        return None


def load_config(path) -> RunConfig:
    path = Path(path)
    chk = _Checker()
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    # ValueError: bad JSON, bytes or integer length; RecursionError: deep nesting
    except (OSError, ValueError, RecursionError) as exc:
        raise ConfigError([{"path": str(path), "message": f"cannot read config: {exc}"}])

    if not chk.section(raw, "", _TOP_KEYS, {"schema", "kind", "grid"}):
        raise ConfigError(chk.errors)
    if type(raw.get("schema")) is not int or raw["schema"] != SCHEMA_VERSION:
        chk.fail("schema", f"unsupported schema version {raw.get('schema')!r} (expected {SCHEMA_VERSION})")
    kind = raw.get("kind")
    if kind not in ("nse", "parabolic", "controlled-heat"):
        chk.fail("kind", "must be one of 'nse', 'parabolic', 'controlled-heat'")
        raise ConfigError(chk.errors)

    grid = _parse_grid(raw.get("grid"), chk)
    if grid is not None:
        chk.variables = ("x", "y", "z")[:grid.ndim] + ("t",)
    series = _parse_series(raw.get("series"), chk)

    seed = raw.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool):
        chk.fail("seed", "must be an integer")
    output_dir = raw.get("output_dir", "out")
    if not isinstance(output_dir, str):
        chk.fail("output_dir", "must be a string")

    payload: dict = {}
    section_key = {"nse": "nse", "parabolic": "parabolic", "controlled-heat": "controlled_heat"}[kind]
    body = raw.get(section_key)
    if body is None:
        chk.fail(section_key, f"kind '{kind}' requires a '{section_key}' section")
        raise ConfigError(chk.errors)

    if kind == "controlled-heat":
        if chk.section(body, section_key, _CH_KEYS, {"initial", "horizon"}):
            payload["horizon"] = chk.number(body["horizon"], f"{section_key}.horizon", positive=True)
            payload["initial"] = chk.expression(body["initial"], f"{section_key}.initial")
            if "forcing" in body:
                payload["forcing"] = chk.number_or_expression(body["forcing"], f"{section_key}.forcing")
    elif kind == "nse":
        if chk.section(body, section_key, _NSE_KEYS,
                       {"velocity", "anchor", "anchor_value", "speed_bound", "horizon"}):
            payload["horizon"] = chk.number(body["horizon"], f"{section_key}.horizon", positive=True)
            payload["speed_bound"] = chk.number(body["speed_bound"], f"{section_key}.speed_bound", positive=True)
            payload["anchor_value"] = chk.number(body["anchor_value"], f"{section_key}.anchor_value")
            ndim = grid.ndim if grid is not None else None
            anchor = chk.numbers(body["anchor"], f"{section_key}.anchor", ndim)
            if anchor is not None:
                payload["anchor"] = tuple(anchor)
            vel = body["velocity"]
            if not isinstance(vel, list) or (ndim is not None and len(vel) != ndim):
                chk.fail(f"{section_key}.velocity", "must be a list of one expression per axis")
            else:
                payload["velocity"] = [
                    chk.expression(v, f"{section_key}.velocity[{i}]") for i, v in enumerate(vel)
                ]
            if "pressure_minus_force" in body:
                payload["pressure_minus_force"] = chk.number_or_expression(
                    body["pressure_minus_force"], f"{section_key}.pressure_minus_force"
                )
    else:  # parabolic
        if chk.section(body, section_key, _PARA_KEYS, {"A", "a", "c", "f", "initial", "horizon"}):
            payload["horizon"] = chk.number(body["horizon"], f"{section_key}.horizon", positive=True)
            payload["initial"] = chk.expression(body["initial"], f"{section_key}.initial")
            for name in ("A", "a", "c", "f"):
                payload[name] = chk.number_or_expression(body[name], f"{section_key}.{name}")
            if grid is not None and (grid.ndim != 1 or grid.is_periodic):
                chk.fail("grid", "parabolic runs need a 1D free-space grid")

    horizon = payload.get("horizon")
    if series is not None and horizon is not None:
        try:
            series.output_indices(horizon)
        except ValueError as exc:
            chk.fail("series.output_times", str(exc))

    if chk.errors:
        raise ConfigError(chk.errors)
    return RunConfig(
        kind=kind,
        grid=grid,
        series=series,
        seed=seed,
        output_dir=output_dir,
        payload=payload,
        raw=raw,
    )
