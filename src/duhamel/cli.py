"""Command-line front end: solve, verify, bench, inspect.

Exit codes: 0 ok, 2 config or usage error (including an output directory
that cannot be written), 3 numerical failure (bound violation,
non-convergence, loss of positivity or overflow), 4 oracle mismatch.  Every
code-2 error, and an overflow or loss of positivity that stops a solve, is
printed as one JSON error list on stderr.  Solve runs write CSF1
trajectories, bound reports as JSON lines, and a manifest recording the
config hash, package and library versions, seed, kernel engine and padded
transform shape, the forcing envelope over the solver's node samples, the sup
norm of each emitted series order and why the series stopped, and timings;
with a fixed config and seed the field artifacts are byte identical across
runs.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import sys
import time
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .cole_hopf import CurlError, NSEProblem, PositivityError, solve_nse
from .config import ConfigError, RunConfig, load_config
from .forcing import Forcing
from .heat_kernel import convolve
from .io import read_field, write_trajectory
from .parabolic import ParabolicProblem, solve_parabolic
from .series import SeriesSolution, ceiling_check, solve_controlled_heat, termwise_factorial_check

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_ORACLE = 4


def _config_hash(raw: dict) -> str:
    canonical = json.dumps(raw, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def _write_report(report, path: Path):
    path.write_text(report.to_jsonl())


def _errors(code: int, *errors: dict) -> int:
    """Print ``{"errors": [...]}`` on stderr and return the exit ``code``."""
    print(json.dumps({"errors": list(errors)}, indent=2), file=sys.stderr)
    return code


def cmd_solve(args) -> int:
    try:
        cfg = load_config(args.config)
    except ConfigError as exc:
        return _errors(EXIT_CONFIG, *exc.errors)

    out_dir = Path(args.output or cfg.output_dir)
    manifest = {
        "config_hash": _config_hash(cfg.raw),
        "config_path": str(args.config),
        "config": cfg.raw,
        "kind": cfg.kind,
        "seed": cfg.seed,
        "versions": {
            "duhamel": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
        "artifacts": [],
        "timings": {},
    }

    t0 = time.perf_counter()
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        try:
            if cfg.kind == "controlled-heat":
                status = _solve_controlled_heat(cfg, out_dir, manifest)
            elif cfg.kind == "nse":
                status = _solve_nse(cfg, out_dir, manifest)
            else:
                status = _solve_parabolic(cfg, out_dir, manifest)
        except (PositivityError, ArithmeticError) as exc:
            # ArithmeticError: the series or an exponential envelope overflowed
            status = _errors(EXIT_NUMERICAL, {"path": cfg.kind, "message": str(exc)})
        manifest["timings"]["total_s"] = time.perf_counter() - t0
        manifest["exit_status"] = status
        (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    except CurlError as exc:
        return _errors(EXIT_CONFIG, {"path": cfg.kind, "message": str(exc), "curl_residual": exc.residual})
    except ValueError as exc:
        return _errors(EXIT_CONFIG, {"path": cfg.kind, "message": str(exc)})
    except OSError as exc:
        return _errors(EXIT_CONFIG, {"path": "output_dir", "message": f"cannot write the artifacts: {exc}"})
    return status


def _record_series(sol: SeriesSolution, manifest: dict):
    manifest["engine"] = sol.metadata["engine"]
    # the envelope of F over the node samples the solver and its checks used
    manifest["forcing"] = {"sup": sol.forcing_sup, "inf": sol.forcing_inf,
                           "nodes": sol.options.time_steps + 1}
    manifest["truncation_depth"] = sol.truncation_depth
    manifest["order_norms"] = sol.metadata["order_norms"]
    manifest["stop_reason"] = sol.metadata["stop_reason"]
    manifest["not_converged"] = sol.not_converged


def _solve_controlled_heat(cfg: RunConfig, out_dir: Path, manifest: dict) -> int:
    g0 = cfg.initial_field()
    forcing = cfg.forcing("forcing") or Forcing.zero()
    sol = solve_controlled_heat(g0, forcing, cfg.payload["horizon"], cfg.series)
    write_trajectory(sol.trajectory, out_dir, "G")
    manifest["artifacts"].append("G")
    _record_series(sol, manifest)
    manifest["estimated_truncation_error"] = sol.estimated_truncation_error
    ceiling = ceiling_check(sol, sol.forcing_abs_bound)
    termwise = termwise_factorial_check(sol, sol.forcing_abs_bound)
    _write_report(ceiling, out_dir / "ceiling.jsonl")
    _write_report(termwise, out_dir / "termwise.jsonl")
    manifest["artifacts"] += ["ceiling.jsonl", "termwise.jsonl"]
    if sol.not_converged or not (ceiling.passed and termwise.passed):
        return EXIT_NUMERICAL
    return EXIT_OK


def _solve_nse(cfg: RunConfig, out_dir: Path, manifest: dict) -> int:
    u0 = cfg.velocity_field()
    prob = NSEProblem(
        u0=u0,
        x0=cfg.payload["anchor"],
        a=cfg.payload["anchor_value"],
        pressure_minus_force=cfg.forcing("pressure_minus_force"),
        speed_bound=cfg.payload["speed_bound"],
        horizon=cfg.payload["horizon"],
    )
    sol = solve_nse(prob, cfg.series)
    write_trajectory(sol.series.trajectory, out_dir, "G")
    write_trajectory(sol.velocity, out_dir, "u")
    manifest["artifacts"] += ["G", "u"]
    _write_report(sol.floor_report, out_dir / "floor.jsonl")
    _write_report(sol.ceiling_report, out_dir / "ceiling.jsonl")
    manifest["artifacts"] += ["floor.jsonl", "ceiling.jsonl"]
    if sol.residual is not None:
        write_trajectory(sol.residual, out_dir, "residual")
        manifest["artifacts"].append("residual")
        manifest["max_residual"] = max(s.max_abs for _, s in sol.residual)
    _record_series(sol.series, manifest)
    ok = sol.floor_report.passed and sol.ceiling_report.passed and not sol.series.not_converged
    return EXIT_OK if ok else EXIT_NUMERICAL


def _solve_parabolic(cfg: RunConfig, out_dir: Path, manifest: dict) -> int:
    u0 = cfg.initial_field()
    # payload holds floats or compiled expressions; ParabolicProblem makes Forcings of both
    prob = ParabolicProblem(
        A=cfg.payload["A"],
        a=cfg.payload["a"],
        c=cfg.payload["c"],
        f=cfg.payload["f"],
        u0=u0,
        horizon=cfg.payload["horizon"],
        ellipticity_min=cfg.payload.get("ellipticity_min", ParabolicProblem.ellipticity_min),
    )
    sol = solve_parabolic(prob, cfg.series)
    write_trajectory(sol.v, out_dir, "v")
    write_trajectory(sol.u, out_dir, "u")
    manifest["artifacts"] += ["v", "u"]
    _record_series(sol.series, manifest)
    manifest["edge_clamped"] = sol.edge_clamped
    return EXIT_OK if not sol.series.not_converged else EXIT_NUMERICAL


def cmd_verify(args) -> int:
    # the suites import sympy, which a solve never needs
    from .suites import DEFAULT_SEED, run_suite

    seed = DEFAULT_SEED if args.seed is None else args.seed
    try:
        result = run_suite(args.suite, seed=seed,
                           inject_m_underestimate=args.inject_m_underestimate)
    except ValueError as exc:
        return _errors(EXIT_CONFIG, {"path": "suite", "message": str(exc)})
    for line in result.lines():
        print(line)
    if result.passed:
        return EXIT_OK
    return EXIT_NUMERICAL if args.suite == "bounds" else EXIT_ORACLE


def cmd_bench(args) -> int:
    try:
        cfg = load_config(args.config)
    except ConfigError as exc:
        return _errors(EXIT_CONFIG, *exc.errors)
    bench = cfg.payload.get("bench")
    if not bench:
        return _errors(EXIT_CONFIG, {"path": "bench", "message": "config has no bench sweep"})
    if cfg.kind != "controlled-heat":
        return _errors(EXIT_CONFIG, {"path": "bench", "message": "bench sweeps run controlled-heat configs"})

    rows = [("sweep_axis", "value", "wall_time_s", "term_count", "error_vs_oracle")]
    horizon = cfg.payload["horizon"]
    forcing = cfg.forcing("forcing") or Forcing.zero()
    try:
        for value in bench["values"]:
            grid = cfg.grid
            opts = cfg.series
            if bench["axis"] == "depth":
                opts = dataclasses.replace(opts, depth_max=value)
            elif bench["axis"] == "time_steps":
                opts = dataclasses.replace(opts, time_steps=value)
            else:  # grid sweep: value points on every axis, each keeping its extent
                grid = dataclasses.replace(grid, points=(value,) * grid.ndim, spacing=tuple(
                    grid.extent(d) / value for d in range(grid.ndim)))
            g0 = dataclasses.replace(cfg, grid=grid).initial_field()
            t0 = time.perf_counter()
            sol = solve_controlled_heat(g0, forcing, horizon, opts)
            wall = time.perf_counter() - t0
            error = _bench_error(sol, g0, forcing)
            rows.append((bench["axis"], value, wall, sol.truncation_depth + 1, error))
    except ArithmeticError as exc:  # the series or an exponential envelope overflowed
        return _errors(EXIT_NUMERICAL, {"path": "bench", "message": str(exc)})
    except ValueError as exc:
        return _errors(EXIT_CONFIG, {"path": "bench", "message": str(exc)})

    text = "\n".join(",".join(_csv_cell(v) for v in row) for row in rows) + "\n"
    if args.output:
        Path(args.output).write_text(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _csv_cell(v) -> str:
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def _bench_error(sol, g0, forcing: Forcing) -> float:
    """Error vs the analytic exponential for constant forcing, else vs CN."""
    t_final = sol.trajectory.times[-1]
    final = sol.trajectory.snapshots[-1].values
    if sol.forcing_sup == sol.forcing_inf:
        exact = math.exp(sol.forcing_sup * t_final) * convolve(g0, t_final).values
        return float(np.max(np.abs(final - exact)))
    from .verify import fd_controlled_heat

    cn = fd_controlled_heat(g0, forcing, t_final, t_final / max(2 * sol.options.time_steps, 64),
                            output_times=(t_final,))
    return float(np.max(np.abs(final - cn.snapshots[0].values)))


def cmd_inspect(args) -> int:
    path = Path(args.file)
    try:
        field = read_field(path)
    except (OSError, ValueError) as exc:
        return _errors(EXIT_CONFIG, {"path": str(path), "message": str(exc)})
    grid = field.grid
    print(f"file:     {path}")
    print(f"ndim:     {grid.ndim}")
    print(f"points:   {list(grid.points)}")
    print(f"spacing:  {list(grid.spacing)}")
    print(f"origin:   {list(grid.origin)}")
    print(f"boundary: {'periodic' if grid.is_periodic else 'free-space (truncated)'}")
    vals = field.values
    print(f"values:   min {vals.min():.17g}  max {vals.max():.17g}  mean {vals.mean():.17g}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="duhamel",
        description="Convolution-series PDE solver: controlled heat, potential-flow NSE, 1D parabolic.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="run a problem config and write artifacts")
    p_solve.add_argument("config", help="path to a JSON run config")
    p_solve.add_argument("-o", "--output", help="output directory (overrides config)")
    p_solve.set_defaults(fn=cmd_solve)

    p_verify = sub.add_parser("verify", help="run a property/acceptance suite")
    p_verify.add_argument("suite", help="bounds | oracles | burgers | parabolic | manufactured | all")
    p_verify.add_argument("--seed", type=int, help="default: the suites' fixed seed")
    p_verify.add_argument("--inject-m-underestimate", action="store_true",
                          help="self-test: run the ceiling check with an undersized bound")
    p_verify.set_defaults(fn=cmd_verify)

    p_bench = sub.add_parser("bench", help="sweep depth/grid/time_steps and emit a CSV timing table")
    p_bench.add_argument("config", help="controlled-heat config with a 'bench' section")
    p_bench.add_argument("-o", "--output", help="CSV output path (default stdout)")
    p_bench.set_defaults(fn=cmd_bench)

    p_inspect = sub.add_parser("inspect", help="print a CSF1 file header")
    p_inspect.add_argument("file")
    p_inspect.set_defaults(fn=cmd_inspect)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
