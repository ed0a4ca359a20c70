"""Command-line front end: solve, verify, inspect.

Exit codes: 0 ok, 2 config or usage error (including an output directory
that cannot be written), 3 numerical failure (bound violation,
non-convergence, loss of positivity, overflow or running out of memory), 4
oracle mismatch.  Every code-2 and code-3 exit of a solve prints one JSON
error list on stderr: a failed bound report names its check and its worst
failing record (signed violation, time and label), and a series that did
not converge gives ``depth_max`` and the estimated truncation error.  Solve
runs write CSF1 trajectories, bound reports as JSON lines, and a manifest
recording the config hash, the duhamel and numpy versions, the config's
seed (recorded only: no artifact depends on it), kernel engine and padded
transform shape, the forcing envelope over the solver's node samples, the
sup norm of each emitted series order, why the series stopped and its
estimated truncation error, timings, and the process's peak resident memory
when the solve ends; with a fixed config the field artifacts are byte
identical across runs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .cole_hopf import CurlError, NSEProblem, PositivityError, solve_nse
from .config import ConfigError, RunConfig, load_config
from .forcing import Forcing
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
        },
        "artifacts": [],
        "timings": {},
    }

    t0 = time.perf_counter()
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        try:
            # each kind returns its series, its trajectories by stem and its
            # bound reports by artifact name
            solve = {"controlled-heat": _solve_controlled_heat, "nse": _solve_nse,
                     "parabolic": _solve_parabolic}[cfg.kind]
            series, trajectories, reports = solve(cfg, manifest)
            for stem, trajectory in trajectories.items():
                write_trajectory(trajectory, out_dir, stem)
            for name, report in reports.items():
                (out_dir / f"{name}.jsonl").write_text(report.to_jsonl())
            manifest["artifacts"] += [*trajectories, *(f"{name}.jsonl" for name in reports)]
            _record_series(series, manifest)
            failures = _failures(cfg.kind, series, reports.values())
            status = _errors(EXIT_NUMERICAL, *failures) if failures else EXIT_OK
        except (PositivityError, ArithmeticError) as exc:
            # ArithmeticError: the series or an exponential envelope overflowed
            status = _errors(EXIT_NUMERICAL, {"path": cfg.kind, "message": str(exc)})
        except MemoryError as exc:
            detail = f": {exc}" if str(exc) else ""
            status = _errors(EXIT_NUMERICAL, {"path": cfg.kind, "message": "out of memory" + detail})
        manifest["timings"]["total_s"] = time.perf_counter() - t0
        # the process's high-water mark (ru_maxrss is in KiB on Linux)
        manifest["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        manifest["exit_status"] = status
        (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    except CurlError as exc:
        return _errors(EXIT_CONFIG, {"path": cfg.kind, "message": str(exc), "curl_residual": exc.residual})
    except ValueError as exc:
        return _errors(EXIT_CONFIG, {"path": cfg.kind, "message": str(exc)})
    except OSError as exc:
        return _errors(EXIT_CONFIG, {"path": "output_dir", "message": f"cannot write the artifacts: {exc}"})
    return status


def _failures(kind: str, sol: SeriesSolution, reports) -> list[dict]:
    """One error per failed bound report, and one if the series did not converge."""
    errors = []
    for report in reports:
        failed = [r for r in report.records if not r.ok]
        if failed:
            worst = max(failed, key=lambda r: r.max_violation)
            message = f"{report.check} check failed at {len(failed)} of {len(report.records)} records"
            errors.append({"path": kind, "message": message, "check": report.check,
                           "max_violation": worst.max_violation, "time": worst.time, "label": worst.label})
    if sol.not_converged:
        depth_max = sol.options.depth_max
        errors.append({"path": kind, "message": f"the series did not converge within depth_max = {depth_max}",
                       "depth_max": depth_max, "estimated_truncation_error": sol.estimated_truncation_error})
    return errors


def _record_series(sol: SeriesSolution, manifest: dict):
    manifest["engine"] = sol.metadata["engine"]
    # the envelope of F over the node samples the solver and its checks used
    manifest["forcing"] = {"sup": sol.forcing_sup, "inf": sol.forcing_inf,
                           "nodes": sol.options.time_steps + 1}
    manifest["truncation_depth"] = sol.truncation_depth
    manifest["order_norms"] = sol.metadata["order_norms"]
    manifest["stop_reason"] = sol.metadata["stop_reason"]
    manifest["windows"] = sol.metadata["windows"]
    manifest["not_converged"] = sol.not_converged
    manifest["estimated_truncation_error"] = sol.estimated_truncation_error


def _solve_controlled_heat(cfg: RunConfig, manifest: dict) -> tuple[SeriesSolution, dict, dict]:
    g0 = cfg.initial_field()
    forcing = cfg.forcing("forcing") or Forcing.zero()
    sol = solve_controlled_heat(g0, forcing, cfg.payload["horizon"], cfg.series)
    reports = {"ceiling": ceiling_check(sol, sol.forcing_abs_bound),
               "termwise": termwise_factorial_check(sol, sol.forcing_abs_bound)}
    return sol, {"G": sol.trajectory}, reports


def _solve_nse(cfg: RunConfig, manifest: dict) -> tuple[SeriesSolution, dict, dict]:
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
    trajectories = {"G": sol.series.trajectory, "u": sol.velocity}
    if sol.residual is not None:
        trajectories["residual"] = sol.residual
        manifest["max_residual"] = float(np.max(sol.residual.values))
    return sol.series, trajectories, {"floor": sol.floor_report, "ceiling": sol.ceiling_report}


def _solve_parabolic(cfg: RunConfig, manifest: dict) -> tuple[SeriesSolution, dict, dict]:
    u0 = cfg.initial_field()
    # payload holds floats or compiled expressions; ParabolicProblem makes Forcings of both
    prob = ParabolicProblem(
        A=cfg.payload["A"],
        a=cfg.payload["a"],
        c=cfg.payload["c"],
        f=cfg.payload["f"],
        u0=u0,
        horizon=cfg.payload["horizon"],
    )
    sol = solve_parabolic(prob, cfg.series)
    manifest["edge_clamped"] = sol.edge_clamped
    return sol.series, {"v": sol.series.trajectory, "u": sol.u}, {}


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
    p_verify.add_argument("--seed", type=int, help="seeds the random data of bounds and oracles; "
                          "the other suites ignore it (default: the suites' fixed seed)")
    p_verify.add_argument("--inject-m-underestimate", action="store_true",
                          help="self-test: run the ceiling check with an undersized bound")
    p_verify.set_defaults(fn=cmd_verify)

    p_inspect = sub.add_parser("inspect", help="print a CSF1 file header")
    p_inspect.add_argument("file")
    p_inspect.set_defaults(fn=cmd_inspect)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
