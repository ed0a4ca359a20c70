"""Config schema validation and the CLI surface."""

import dataclasses
import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import duhamel
from duhamel import Forcing, Grid, Trajectory, suites
from duhamel.cli import build_parser, main
from duhamel.config import ConfigError, load_config
from duhamel.io import read_trajectory, write_trajectory
from duhamel.series import BoundReport, ceiling_check
from duhamel.suites import DEFAULT_SEED, suite_bounds


def write_config(tmp_path, body, name="run.json"):
    path = tmp_path / name
    path.write_text(json.dumps(body))
    return str(path)


def controlled_heat_config(**overrides):
    cfg = {
        "schema": 1,
        "kind": "controlled-heat",
        "grid": {"points": [64], "extent": [6.283185307179586], "origin": [0.0]},
        "series": {"time_steps": 16, "output_times": [0.5, 1.0]},
        "controlled_heat": {"initial": "1 + 0.5*cos(x)", "forcing": 0.5, "horizon": 1.0},
    }
    cfg.update(overrides)
    return cfg


def nse_config():
    return {
        "schema": 1,
        "kind": "nse",
        "grid": {"points": [64], "extent": [6.283185307179586], "origin": [0.0]},
        "series": {"time_steps": 8, "output_times": [0.25, 0.5]},
        "nse": {"velocity": ["0.3*sin(x)"], "anchor": [0.0], "anchor_value": 0.0,
                "pressure_minus_force": "0.2*cos(x)", "speed_bound": 1.0, "horizon": 0.5},
    }


def parabolic_config():
    return {
        "schema": 1,
        "kind": "parabolic",
        "grid": {"points": [64], "extent": [16.0], "origin": [-8.0],
                 "boundary": {"free_space": {}}},
        "series": {"time_steps": 16, "output_times": [0.25, 0.5]},
        "parabolic": {"A": -1.0, "a": 0.0, "c": 0.4, "f": "0.25*exp(-x*x)",
                      "initial": "exp(-0.5*x*x)", "horizon": 0.5},
    }


CONFIGS = {"heat": controlled_heat_config, "nse": nse_config, "parabolic": parabolic_config}
SECTIONS = {"heat": "controlled_heat", "nse": "nse", "parabolic": "parabolic"}


def run_cli(*argv, python_flags=()):
    """``python -m duhamel.cli`` in a fresh interpreter, output captured as text."""
    src = str(Path(duhamel.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, *python_flags, "-m", "duhamel.cli", *argv], env=env,
                          capture_output=True, text=True)

# (config, keys to the replaced value, wrongly typed or out-of-range value, error path)
WRONG_LEAVES = [
    ("heat", ("schema",), True, "schema"),
    ("heat", ("kind",), 3, "kind"),
    ("heat", ("kind",), ["nse"], "kind"),  # unhashable kinds are rejected, not looked up
    ("heat", ("kind",), {"a": 1}, "kind"),
    ("heat", ("seed",), "a", "seed"),
    ("heat", ("output_dir",), 3, "output_dir"),
    ("heat", ("series",), None, "series"),  # a present section must parse; an absent one defaults
    ("heat", ("grid", "points"), ["a"], "grid.points"),
    ("heat", ("grid", "extent", 0), "a", "grid.extent[0]"),
    ("heat", ("grid", "points"), [0], "grid"),  # a zero count next to an extent
    ("heat", ("grid",), {"points": [64], "spacing": ["a"], "origin": [0.0]}, "grid.spacing[0]"),
    ("heat", ("grid", "origin", 0), "a", "grid.origin[0]"),
    ("heat", ("grid", "origin"), 0.0, "grid.origin"),
    ("heat", ("grid", "boundary"), 5, "grid.boundary"),
    ("heat", ("series", "depth_max"), "a", "series.depth_max"),
    ("heat", ("series", "rel_tolerance"), "a", "series.rel_tolerance"),
    ("heat", ("series", "time_steps"), 1.5, "series.time_steps"),
    ("heat", ("series", "output_times", 0), "x", "series.output_times[0]"),
    ("heat", ("controlled_heat", "initial"), 1, "controlled_heat.initial"),
    ("heat", ("controlled_heat", "forcing"), [1], "controlled_heat.forcing"),
    ("heat", ("controlled_heat", "horizon"), "a", "controlled_heat.horizon"),
    # an expression may use only t and the grid's axes
    ("heat", ("controlled_heat", "forcing"), "0.1*y", "controlled_heat.forcing"),
    ("heat", ("controlled_heat", "initial"), "1 + 0*z", "controlled_heat.initial"),
    ("nse", ("nse", "velocity", 0), 1, "nse.velocity[0]"),
    ("nse", ("nse", "anchor", 0), "a", "nse.anchor[0]"),
    ("nse", ("nse", "anchor", 0), 100.0, "nse"),  # outside the grid box
    ("nse", ("nse", "anchor_value"), "a", "nse.anchor_value"),
    ("nse", ("nse", "pressure_minus_force"), [1], "nse.pressure_minus_force"),
    ("nse", ("nse", "speed_bound"), "a", "nse.speed_bound"),
    ("nse", ("nse", "horizon"), None, "nse.horizon"),
    ("nse", ("nse", "pressure_minus_force"), "cos(y)", "nse.pressure_minus_force"),
    *(("parabolic", ("parabolic", name), [1], f"parabolic.{name}") for name in "Aacf"),
    ("parabolic", ("parabolic", "initial"), 1, "parabolic.initial"),
    ("parabolic", ("parabolic", "horizon"), "a", "parabolic.horizon"),
    ("parabolic", ("parabolic", "A"), "-1 - 0*y", "parabolic.A"),
    ("parabolic", ("parabolic", "ellipticity_min"), 1e-6, "parabolic.ellipticity_min"),  # unknown key
]


def _leaf_ids(rows):
    """``kind:path`` per row, with ``=value`` added where an earlier row has that leaf."""
    ids = []
    for kind, _, value, path in rows:
        leaf = f"{kind}:{path}"
        ids.append(f"{leaf}={value}" if leaf in ids else leaf)
    return ids


class TestConfigValidation:
    @pytest.mark.parametrize("kind, keys, value, path", WRONG_LEAVES, ids=_leaf_ids(WRONG_LEAVES))
    def test_wrongly_typed_leaf_exits_2(self, tmp_path, capsys, kind, keys, value, path):
        body = CONFIGS[kind]()
        node = body
        for key in keys[:-1]:
            node = node[key]
        node[keys[-1]] = value
        rc = main(["solve", write_config(tmp_path, body), "-o", str(tmp_path / "out")])
        assert rc == 2
        payload = json.loads(capsys.readouterr().err)
        assert path in [e["path"] for e in payload["errors"]]

    @pytest.mark.parametrize("key, value", [
        ("threads", 2),
        ("bench", {"axis": "depth", "values": [2]}),
        # a heat run admits no section of another run kind
        ("nse", {"bogus": 1}),
        ("parabolic", 5),
    ], ids=["threads", "bench", "nse-section", "parabolic-section"])
    def test_threads_is_an_unknown_key(self, tmp_path, capsys, key, value):
        rc = main(["solve", write_config(tmp_path, controlled_heat_config(**{key: value}))])
        assert rc == 2
        payload = json.loads(capsys.readouterr().err)
        assert payload["errors"] == [{"path": key, "message": "unknown key"}]

    def test_bench_is_an_unknown_command(self, tmp_path, capsys):
        body = controlled_heat_config(bench={"axis": "depth", "values": [2]})
        with pytest.raises(SystemExit) as exc:  # argparse's usage error is the exit status
            main(["bench", write_config(tmp_path, body)])
        assert exc.value.code == 2
        assert "invalid choice: 'bench'" in capsys.readouterr().err

    def test_nu_is_an_unknown_key(self, tmp_path, capsys):
        # every run kind has unit diffusivity; diffusivity nu is the time unit tau = nu t
        body = controlled_heat_config()
        body["series"]["nu"] = 0.5
        rc = main(["solve", write_config(tmp_path, body)])
        assert rc == 2
        payload = json.loads(capsys.readouterr().err)
        assert payload["errors"] == [{"path": "series.nu", "message": "unknown key"}]

    def test_valid_config_loads(self, tmp_path):
        cfg = load_config(write_config(tmp_path, controlled_heat_config()))
        assert cfg.kind == "controlled-heat"
        assert cfg.grid.points == (64,)
        assert cfg.series.time_steps == 16

    def test_unknown_top_level_key(self, tmp_path):
        with pytest.raises(ConfigError) as err:
            load_config(write_config(tmp_path, controlled_heat_config(bogus=1)))
        assert any(e["path"] == "bogus" for e in err.value.errors)

    def test_unknown_nested_key(self, tmp_path):
        body = controlled_heat_config()
        body["series"]["stray"] = 2
        with pytest.raises(ConfigError) as err:
            load_config(write_config(tmp_path, body))
        assert any("stray" in e["path"] for e in err.value.errors)

    def test_schema_version_checked(self, tmp_path):
        with pytest.raises(ConfigError) as err:
            load_config(write_config(tmp_path, controlled_heat_config(schema=99)))
        assert any(e["path"] == "schema" for e in err.value.errors)

    def test_bad_expression_reported_with_path(self, tmp_path):
        body = controlled_heat_config()
        body["controlled_heat"]["initial"] = "tan(x)"
        with pytest.raises(ConfigError) as err:
            load_config(write_config(tmp_path, body))
        assert any("initial" in e["path"] for e in err.value.errors)

    def test_spacing_xor_extent(self, tmp_path):
        body = controlled_heat_config()
        body["grid"]["spacing"] = [0.1]
        with pytest.raises(ConfigError) as err:
            load_config(write_config(tmp_path, body))
        assert any("spacing or extent" in e["message"] for e in err.value.errors)

    @pytest.mark.parametrize("grid, error", [
        ({"points": [64], "spacing": [0.1], "extent": [6.4], "origin": [0.0]},
         {"path": "grid", "message": "give exactly one of spacing or extent"}),
        ({"points": [64], "origin": [0.0]},
         {"path": "grid", "message": "give exactly one of spacing or extent"}),
        ({"points": [True], "extent": [6.4], "origin": [0.0]},
         {"path": "grid.points", "message": "must be a list of integers"}),
        ({"points": [64], "extent": [6.4], "origin": [0.0], "boundary": {"free_space": {}, "periodic": 1}},
         {"path": "grid.boundary", "message": "must be 'periodic' or {'free_space': {}}"}),
    ], ids=["spacing-and-extent", "neither", "boolean-points", "two-boundaries"])
    def test_grid_rules_exit_2(self, tmp_path, capsys, grid, error):
        rc = main(["solve", write_config(tmp_path, controlled_heat_config(grid=grid)),
                   "-o", str(tmp_path / "out")])
        assert rc == 2
        assert json.loads(capsys.readouterr().err)["errors"] == [error]

    @pytest.mark.parametrize("keys, value, error", [
        (("grid", "origin"), [10**400], {"path": "grid.origin[0]", "message": "must be finite"}),
        (("controlled_heat", "horizon"), 10**400,
         {"path": "controlled_heat.horizon", "message": "must be finite"}),
        (("grid", "points"), [10**400], {"path": "grid.points[0]", "message": "must be finite"}),
    ], ids=["origin", "horizon", "points"])
    def test_integer_beyond_double_range_exits_2(self, tmp_path, capsys, keys, value, error):
        # JSON integers have no size limit; float() of this one overflows
        body = controlled_heat_config()
        body[keys[0]][keys[1]] = value
        assert main(["solve", write_config(tmp_path, body), "-o", str(tmp_path / "out")]) == 2
        assert json.loads(capsys.readouterr().err)["errors"] == [error]

    @pytest.mark.parametrize("padding", ["big", [2], 0.5, True, 2.0, 9.0, float("inf")])
    def test_bad_padding_factor_exits_2(self, tmp_path, capsys, padding):
        # the free-space pad is fixed, so any padding_factor is an unknown key
        body = controlled_heat_config()
        body["grid"]["boundary"] = {"free_space": {"padding_factor": padding}}
        rc = main(["solve", write_config(tmp_path, body), "-o", str(tmp_path / "out")])
        assert rc == 2
        payload = json.loads(capsys.readouterr().err)
        assert payload["errors"] == [
            {"path": "grid.boundary.free_space.padding_factor", "message": "unknown key"}]

    def test_missing_kind_section(self, tmp_path):
        body = controlled_heat_config()
        del body["controlled_heat"]
        with pytest.raises(ConfigError):
            load_config(write_config(tmp_path, body))


class TestSolveCommand:
    def test_controlled_heat_artifacts(self, tmp_path, capsys):
        path = write_config(tmp_path, controlled_heat_config())
        rc = main(["solve", path, "-o", str(tmp_path / "out")])
        assert rc == 0
        names = {p.name for p in (tmp_path / "out").iterdir()}
        assert {"G.json", "G_0000.csf", "G_0001.csf", "ceiling.jsonl",
                "termwise.jsonl", "manifest.json"} <= names
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["exit_status"] == 0
        assert not manifest["not_converged"]

    def test_manifest_records_engine_and_padding(self, tmp_path):
        periodic = controlled_heat_config()
        free = controlled_heat_config()
        free["grid"] = {"points": [64], "extent": [16.0], "origin": [-8.0],
                        "boundary": {"free_space": {}}}
        free["controlled_heat"]["initial"] = "1 + exp(-x*x)"
        expected = (
            (periodic, {"name": "spectral-rfft", "padding": "none", "padded_shape": [64]}),
            (free, {"name": "spectral-rfft", "padding": "edge", "padded_shape": [128]}),
        )
        for i, (body, engine) in enumerate(expected):
            out = tmp_path / f"out{i}"
            assert main(["solve", write_config(tmp_path, body), "-o", str(out)]) == 0
            manifest = json.loads((out / "manifest.json").read_text())
            assert manifest["engine"] == engine
            # the engine stays out of the byte-compared artifacts
            assert "padd" not in (out / "G.json").read_text()

    def test_fast_oscillating_forcing_solves(self, tmp_path):
        body = controlled_heat_config()
        body["series"] = {"time_steps": 100, "output_times": [0.5, 1.0]}
        body["controlled_heat"]["forcing"] = "sin(40*t)"
        out = tmp_path / "out"
        assert main(["solve", write_config(tmp_path, body), "-o", str(out)]) == 0
        forcing = json.loads((out / "manifest.json").read_text())["forcing"]
        nodes = np.linspace(0.0, 1.0, 101)
        assert forcing == {"sup": float(np.max(np.sin(40 * nodes))),
                           "inf": float(np.min(np.sin(40 * nodes))), "nodes": 101}

    @pytest.mark.parametrize("kind", sorted(CONFIGS))
    def test_manifest_records_forcing_envelope(self, tmp_path, kind):
        out = tmp_path / "out"
        assert main(["solve", write_config(tmp_path, CONFIGS[kind]()), "-o", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert "threads" not in manifest
        forcing = manifest["forcing"]
        assert set(forcing) == {"sup", "inf", "nodes"}
        assert forcing["inf"] <= forcing["sup"]
        assert forcing["nodes"] == CONFIGS[kind]()["series"]["time_steps"] + 1

    @pytest.mark.parametrize("kind", sorted(CONFIGS))
    def test_checks_reuse_the_solver_propagation(self, tmp_path, monkeypatch, kind):
        # the kernel applies once per solve, to |G0| over the output times,
        # for the tail estimate (the zeroth order is a sweep); the checks read
        # that result and apply nothing
        from duhamel.heat_kernel import KernelApplication

        calls = []
        original = KernelApplication.apply
        monkeypatch.setattr(KernelApplication, "apply",
                            lambda self, field: calls.append(self.times) or original(self, field))
        body = CONFIGS[kind]()
        assert main(["solve", write_config(tmp_path, body), "-o", str(tmp_path / "o")]) == 0
        assert calls == [tuple(body["series"]["output_times"])]

    def test_zero_velocity_nse(self, tmp_path):
        body = {
            "schema": 1,
            "kind": "nse",
            "grid": {"points": [64], "extent": [6.283185307179586], "origin": [0.0]},
            "series": {"time_steps": 8, "output_times": [0.25, 0.5]},
            "nse": {"velocity": ["0"], "anchor": [0.0], "anchor_value": 0.0,
                    "speed_bound": 1.0, "horizon": 0.5},
        }
        path = write_config(tmp_path, body)
        rc = main(["solve", path, "-o", str(tmp_path / "out")])
        assert rc == 0
        u = read_trajectory(tmp_path / "out", "u")
        assert max(np.max(np.abs(s[0])) for _, s in u) < 1e-12

    def test_invalid_config_exits_2_with_payload(self, tmp_path, capsys):
        path = write_config(tmp_path, controlled_heat_config(bogus=True))
        rc = main(["solve", path])
        captured = capsys.readouterr()
        assert rc == 2
        payload = json.loads(captured.err)
        assert payload["errors"][0]["path"] == "bogus"

    def test_rotational_velocity_exits_2_with_residual(self, tmp_path, capsys):
        body = {
            "schema": 1,
            "kind": "nse",
            "grid": {"points": [48, 48], "extent": [6.283185307179586] * 2,
                     "origin": [0.0, 0.0]},
            "nse": {"velocity": ["-sin(y)", "sin(x)"], "anchor": [0.0, 0.0],
                    "anchor_value": 0.0, "speed_bound": 2.0, "horizon": 0.25},
        }
        path = write_config(tmp_path, body)
        rc = main(["solve", path, "-o", str(tmp_path / "out")])
        captured = capsys.readouterr()
        assert rc == 2
        payload = json.loads(captured.err)
        assert payload["errors"][0]["curl_residual"] > 1.0

    @pytest.mark.parametrize("n", (64, 128))
    @pytest.mark.parametrize("eps, code", [(0.0, 0), (1e-2, 2)], ids=["gradient", "rotational"])
    def test_free_space_potential_flow_exit_code(self, tmp_path, capsys, eps, code, n):
        # u0 = -2 grad a for a Gaussian bump a, whose stencil curl is far above
        # the fixed curl tolerance on this grid; eps adds a rotational part
        # eps (-d_y psi, d_x psi) with psi = exp(-(x - 1)^2 - y^2)
        bump = "exp(-(x*x + y*y))"
        psi = "exp(-((x - 1)*(x - 1) + y*y))"
        body = {
            "schema": 1,
            "kind": "nse",
            "grid": {"points": [n, n], "extent": [12.0, 12.0], "origin": [-6.0, -6.0],
                     "boundary": {"free_space": {}}},
            "series": {"time_steps": 4, "output_times": [0.125, 0.25]},
            "nse": {"velocity": [f"3.2*x*{bump} + {2 * eps}*y*{psi}",
                                 f"3.2*y*{bump} - {2 * eps}*(x - 1)*{psi}"],
                    "anchor": [0.0, 0.0], "anchor_value": 0.0, "speed_bound": 2.0,
                    "horizon": 0.25},
        }
        rc = main(["solve", write_config(tmp_path, body), "-o", str(tmp_path / "out")])
        captured = capsys.readouterr()
        assert rc == code
        if code:
            assert json.loads(captured.err)["errors"][0]["curl_residual"] > 3e-2

    def test_free_space_nse_writes_its_residual(self, tmp_path):
        bump = "exp(-(x*x + y*y))"
        body = {
            "schema": 1,
            "kind": "nse",
            "grid": {"points": [64, 64], "extent": [12.0, 12.0], "origin": [-6.0, -6.0],
                     "boundary": {"free_space": {}}},
            "series": {"time_steps": 4, "output_times": [0.0625, 0.125, 0.25]},
            "nse": {"velocity": [f"3.2*x*{bump}", f"3.2*y*{bump}"],
                    "anchor": [0.0, 0.0], "anchor_value": 0.0, "speed_bound": 2.0,
                    "horizon": 0.25},
        }
        out = tmp_path / "out"
        assert main(["solve", write_config(tmp_path, body), "-o", str(out)]) == 0
        residual = read_trajectory(out, "residual")
        assert residual.times == (0.125,)
        # on a free-space grid the residual is reported at interior nodes only
        ring = np.ones((64, 64), dtype=bool)
        ring[2:-2, 2:-2] = False
        assert not residual.values[0][ring].any()
        peak = float(np.max(residual.values))
        assert peak > 0.0
        assert json.loads((out / "manifest.json").read_text())["max_residual"] == peak

    def test_periodic_mean_flow_exits_2(self, tmp_path, capsys):
        body = nse_config()
        body["grid"]["points"] = [128]
        body["nse"]["velocity"] = ["0.5+0.3*sin(x)"]
        path = write_config(tmp_path, body)
        rc = main(["solve", path, "-o", str(tmp_path / "out")])
        captured = capsys.readouterr()
        assert rc == 2
        (error,) = json.loads(captured.err)["errors"]
        assert error["path"] == "nse"
        assert "mean" in error["message"]

    def test_mean_flow_is_reported_before_the_curl(self, tmp_path, capsys):
        # the velocity has both a mean flow and a curl; the mean is checked first
        body = nse_config()
        body["grid"] = {"points": [32, 32], "extent": [6.283185307179586] * 2, "origin": [0.0, 0.0]}
        body["nse"].update(velocity=["0.5 - sin(y)", "sin(x)"], anchor=[0.0, 0.0],
                           pressure_minus_force=0.0, speed_bound=2.0)
        assert main(["solve", write_config(tmp_path, body), "-o", str(tmp_path / "out")]) == 2
        captured = capsys.readouterr()
        assert "Warning" not in captured.err
        assert json.loads(captured.err)["errors"] == [{
            "path": "nse",
            "message": "velocity component 0 has mean 0.5 on a periodic grid; "
                       "a mean flow has no periodic potential"}]

    @pytest.mark.parametrize("velocity, points", [
        (["cos(x + 2*y) + 0.2*cos(x)*cos(y)", "2*cos(x + 2*y) - 0.2*sin(x)*sin(y)"], n)
        for n in ([8, 8], [12, 12], [16, 16])
    ] + [
        (["cos(x + 2*z) + 0.2*cos(x)*cos(z)", "-1.5*sin(3*y)",
          "2*cos(x + 2*z) - 0.2*sin(x)*sin(z)"], [16, 16, 16]),
    ], ids=["2d-8", "2d-12", "2d-16", "3d-16"])
    def test_band_limited_gradient_on_a_coarse_torus_solves(self, tmp_path, velocity, points):
        # the curl residual is at rounding level; no line integral is compared
        ndim = len(points)
        body = nse_config()
        body["grid"] = {"points": points, "extent": [6.283185307179586] * ndim, "origin": [0.0] * ndim}
        body["series"] = {"time_steps": 8, "output_times": [0.05, 0.1]}
        body["nse"] = {"velocity": velocity, "anchor": [0.3] * ndim, "anchor_value": 0.0,
                       "speed_bound": 5.0, "horizon": 0.1}
        out = tmp_path / "out"
        assert main(["solve", write_config(tmp_path, body), "-o", str(out)]) == 0
        assert read_trajectory(out, "G").times == (0.05, 0.1)
        assert read_trajectory(out, "u").values.shape == (2, ndim, *points)

    @pytest.mark.parametrize("reason", ["tolerance", "zero_tail", "depth_max"])
    def test_manifest_records_order_norms_and_stop_reason(self, tmp_path, reason):
        body = controlled_heat_config()
        if reason == "zero_tail":
            del body["controlled_heat"]["forcing"]
        elif reason == "depth_max":
            body["series"]["depth_max"] = 2
        out = tmp_path / "out"
        main(["solve", write_config(tmp_path, body), "-o", str(out)])
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["stop_reason"] == reason
        norms = manifest["order_norms"]
        assert len(norms) == manifest["truncation_depth"] + 1
        assert all(isinstance(v, float) and v > 0 for v in norms)

    def test_manifest_records_the_windows(self, tmp_path):
        # a 2-D periodic run, swept one node per transform call, restarts its
        # series on windows; the manifest alone records them
        body = controlled_heat_config()
        body["grid"] = {"points": [64, 64], "extent": [6.283185307179586] * 2, "origin": [0.0, 0.0]}
        body["series"] = {"time_steps": 32, "rel_tolerance": 1e-10, "output_times": [0.25, 1.0]}
        body["controlled_heat"].update(initial="1 + 0.5*cos(x)*sin(y)", forcing="1.5*sin(x)*cos(y)")
        out = tmp_path / "out"
        status = main(["solve", write_config(tmp_path, body), "-o", str(out)])
        manifest = json.loads((out / "manifest.json").read_text())
        assert status == manifest["exit_status"] == 0
        windows = manifest["windows"]
        assert len(windows) > 1
        assert [w["start"] for w in windows[1:]] == [w["end"] for w in windows[:-1]]
        assert windows[0]["start"] == 0.0 and windows[-1]["end"] == 1.0
        for w in windows:
            assert set(w) == {"start", "end", "depth", "order_norms", "stop_reason"}
            assert len(w["order_norms"]) == w["depth"] + 1
            assert w["stop_reason"] == "tolerance"
        assert manifest["truncation_depth"] == max(w["depth"] for w in windows)
        assert manifest["order_norms"] == [max(w["order_norms"][k] for w in windows if k <= w["depth"])
                                           for k in range(manifest["truncation_depth"] + 1)]
        # the trajectory index holds each snapshot's time and files, and nothing of the windows
        index = json.loads((out / "G.json").read_text())
        assert set(index) == {"snapshots", "stem"}
        assert [set(snap) for snap in index["snapshots"]] == [{"files", "kind", "time"}] * 2

    def test_windowed_termwise_rows_pass_at_every_node(self, tmp_path):
        # on windows of few nodes the quadrature's high orders exceed the
        # continuous (M tau)^k/k! envelope (at the two outputs of the test
        # above, k=8 at t=0.25 by 9.4e-12); the termwise check compares them
        # with the bound they obey, so this run exits 0 with every node an
        # output; the tolerance keeps its windows' series past k=8
        body = controlled_heat_config()
        body["grid"] = {"points": [64, 64], "extent": [6.283185307179586] * 2, "origin": [0.0, 0.0]}
        body["series"] = {"time_steps": 32, "rel_tolerance": 1e-12}
        body["controlled_heat"].update(initial="1 + 0.5*cos(x)*sin(y)", forcing="1.5*sin(x)*cos(y)")
        out = tmp_path / "out"
        assert main(["solve", write_config(tmp_path, body), "-o", str(out)]) == 0
        labels = {json.loads(line)["label"] for line in (out / "termwise.jsonl").read_text().splitlines()}
        assert "k=8" in labels

    @pytest.mark.parametrize("kind, keys, value", [
        ("heat", ("controlled_heat", "initial"), "1 + 1/(t - 0)"),
        ("nse", ("nse", "velocity", 0), "0.3*sin(x) + 1/t"),
        ("parabolic", ("parabolic", "initial"), "exp(-0.5*x*x)/t"),
        ("parabolic", ("parabolic", "c"), "0.4 + 1/(t - 0.25)"),
        ("heat", ("controlled_heat", "forcing"), "1/(t - 0.5)"),
        ("nse", ("nse", "pressure_minus_force"), "1/(t - 0.25)"),
        ("heat", ("controlled_heat", "initial"), "1/(1-1)"),
        ("heat", ("controlled_heat", "forcing"), "1/0"),
    ])
    def test_nonfinite_expression_exits_2(self, tmp_path, capsys, kind, keys, value):
        # time and the literals are numpy floats, so these divide to inf
        # instead of raising, constant expressions too, and the non-finite
        # check reports them without a numpy warning; the message starts with
        # the leaf, e.g. "velocity[0]: "
        body = CONFIGS[kind]()
        target = body
        for key in keys[:-1]:
            target = target[key]
        target[keys[-1]] = value
        rc = main(["solve", write_config(tmp_path, body), "-o", str(tmp_path / "out")])
        assert rc == 2
        payload = json.loads(capsys.readouterr().err)
        (error,) = payload["errors"]
        assert error["path"] == CONFIGS[kind]()["kind"]
        leaf = keys[1] + "".join(f"[{k}]" for k in keys[2:])
        assert error["message"].startswith(f"{leaf}: ")
        assert "non-finite" in error["message"]

    def test_negative_forcing_upper_bound_holds(self, tmp_path):
        # sup F = -1: the former exp(2 sup F t) K*G0 upper estimate fell below
        # G by 0.167 at t = 0.25 and the run exited 3
        body = nse_config()
        body["nse"]["pressure_minus_force"] = "-2.0"
        out = tmp_path / "out"
        assert main(["solve", write_config(tmp_path, body), "-o", str(out)]) == 0
        rows = [json.loads(line) for line in (out / "floor.jsonl").read_text().splitlines()]
        assert {row["label"] for row in rows} == {"floor", "upper"}
        assert all(row["max_violation"] <= 1e-9 for row in rows)

    def test_not_converged_exits_3(self, tmp_path):
        body = controlled_heat_config()
        body["series"]["depth_max"] = 1
        body["controlled_heat"]["forcing"] = "2 + sin(x)"
        path = write_config(tmp_path, body)
        rc = main(["solve", path, "-o", str(tmp_path / "out")])
        assert rc == 3
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["not_converged"]

    @pytest.mark.parametrize("kind", sorted(CONFIGS))
    def test_not_converged_explains_itself(self, tmp_path, kind):
        body = CONFIGS[kind]()
        body["series"]["depth_max"] = 1
        out = tmp_path / "out"
        proc = run_cli("solve", write_config(tmp_path, body), "-o", str(out))
        assert proc.returncode == 3
        # the JSON error is all of stderr
        (error,) = json.loads(proc.stderr)["errors"]
        est = error.pop("estimated_truncation_error")
        assert isinstance(est, float) and est > 0
        assert error == {"path": body["kind"], "depth_max": 1,
                         "message": "the series did not converge within depth_max = 1"}
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["not_converged"] and manifest["exit_status"] == 3
        assert est == manifest["estimated_truncation_error"]

    def test_failed_report_explains_itself(self, tmp_path, capsys, monkeypatch):
        def failing(sol, M):
            records = list(ceiling_check(sol, M).records)
            records[1] = dataclasses.replace(records[1], max_violation=0.5)
            return BoundReport("ceiling", tuple(records))

        monkeypatch.setattr("duhamel.cli.ceiling_check", failing)
        out = tmp_path / "out"
        assert main(["solve", write_config(tmp_path, controlled_heat_config()), "-o", str(out)]) == 3
        # the JSON error is all of stderr
        assert json.loads(capsys.readouterr().err)["errors"] == [{
            "path": "controlled-heat", "message": "ceiling check failed at 1 of 2 records",
            "check": "ceiling", "max_violation": 0.5, "time": 1.0, "label": ""}]
        rows = [json.loads(line) for line in (out / "ceiling.jsonl").read_text().splitlines()]
        assert rows[1]["max_violation"] == 0.5

    @pytest.mark.parametrize("kind", sorted(CONFIGS))
    @pytest.mark.parametrize("times, message", [
        ([0.3], "output time 0.3 is not a node of the s-grid"),
        ([2.0], "output time 2.0 is not a node of the s-grid"),
        ([0.5, 0.5], "output times must be strictly increasing s-grid nodes"),
    ], ids=["off-node", "beyond-horizon", "repeated"])
    def test_bad_output_times_name_their_leaf(self, tmp_path, capsys, kind, times, message):
        body = CONFIGS[kind]()
        body["series"] = {"time_steps": 8, "output_times": times}
        body[SECTIONS[kind]]["horizon"] = 1.0
        out = tmp_path / "out"
        assert main(["solve", write_config(tmp_path, body), "-o", str(out)]) == 2
        # the JSON error is all of stderr, and no solve started
        assert json.loads(capsys.readouterr().err)["errors"] == [
            {"path": "series.output_times", "message": message}]
        assert not out.exists()

    def test_huge_horizon_prints_only_the_error(self, tmp_path):
        # the quadrature weights see dt * |k|^2 near 1e300, whose square overflows
        body = controlled_heat_config()
        body["controlled_heat"]["horizon"] = 1e300
        body["series"] = {"time_steps": 16}
        proc = run_cli("solve", write_config(tmp_path, body), "-o", str(tmp_path / "out"))
        assert proc.returncode == 3
        (error,) = json.loads(proc.stderr)["errors"]
        assert error["path"] == "controlled-heat"
        assert error["message"].startswith("the series sum overflows")

    def test_overflowing_output_time_exits_2(self, tmp_path):
        # 1e300 / 1e-10 is inf, which no node index can hold
        body = controlled_heat_config()
        body["controlled_heat"]["horizon"] = 1e-10
        body["series"] = {"time_steps": 16, "output_times": [1e300]}
        proc = run_cli("solve", write_config(tmp_path, body), "-o", str(tmp_path / "out"))
        assert proc.returncode == 2
        # the JSON error is all of stderr: no traceback
        assert json.loads(proc.stderr)["errors"] == [
            {"path": "series.output_times", "message": "output time 1e+300 is not a node of the s-grid"}]

    @pytest.mark.parametrize("kind, points, keys, value, stage", [
        ("heat", 16, ("controlled_heat", "forcing"), "750", "tail estimate: exp(M t)"),
        ("heat", 16, ("controlled_heat", "forcing"), "800*cos(x)", "tail estimate: exp(M t)"),
        ("heat", 16, ("controlled_heat", "forcing"), "1e300*cos(x)", "the series sum overflows"),
        ("nse", 32, ("nse", "pressure_minus_force"), "1500", "tail estimate: exp(M t)"),
        # the source's reweight exp(-cbar s) overflows past s = 0.89
        ("parabolic", 64, ("parabolic", "c"), 800, "source reweight: exp(-cbar s) overflows at t=1"),
    ], ids=["heat-750", "heat-800cos", "heat-1e300cos", "nse-1500", "parabolic-800"])
    def test_series_overflow_exits_3(self, tmp_path, kind, points, keys, value, stage):
        body = CONFIGS[kind]()
        body["grid"]["points"] = [points]
        body["series"] = {"time_steps": 16 if kind == "parabolic" else 8, "depth_max": 64}
        body[keys[0]][keys[1]] = value
        body[keys[0]]["horizon"] = 1.0
        out = tmp_path / "out"
        proc = run_cli("solve", write_config(tmp_path, body), "-o", str(out))
        assert proc.returncode == 3
        # the JSON error is all of stderr: no numpy warning, no traceback
        errors = json.loads(proc.stderr)["errors"]
        assert [e["path"] for e in errors] == [body["kind"]]
        assert errors[0]["message"].startswith(stage)
        assert json.loads((out / "manifest.json").read_text())["exit_status"] == 3

    @pytest.mark.parametrize("keys, value, stage", [
        (("parabolic", "a"), -750, "normalize: g = f exp(rho) overflows at t=0"),
        (("parabolic", "a"), "exp(t*800)", "normalize: Q overflows at t=0.46875"),
        # psi_x = 1e-154: the knot spacing of psi squares to below double range
        (("parabolic", "A"), -1e308, "normalize: x(y) overflows at t=0"),
        # a valid grid, but the h^2/12 term of psi's quadrature overflows
        (("grid", "extent"), [1e300], "normalize: psi overflows at t=0"),
        # the y-knots of psi are 2e-155 apart, so the pullback's h^2 underflows
        (("parabolic", "A"), -1.7976931348623157e308, "back_transform: u = exp(-rho) v overflows at t=0.25"),
    ], ids=["g", "Q", "x(y)", "psi", "u"])
    def test_parabolic_reduction_overflow_exits_3(self, tmp_path, capsys, keys, value, stage):
        # a RuntimeWarning is an error under this suite, so the exit 3 also
        # shows that the reduction overflowed without one
        body = parabolic_config()
        body[keys[0]][keys[1]] = value
        out = tmp_path / "out"
        assert main(["solve", write_config(tmp_path, body), "-o", str(out)]) == 3
        assert json.loads(capsys.readouterr().err)["errors"] == [{"path": "parabolic", "message": stage}]
        assert json.loads((out / "manifest.json").read_text())["exit_status"] == 3

    @pytest.mark.parametrize("velocity, speed_bound, message", [
        ("1e200*sin(x)", 1e300, "potential reaches 1.998e+200 > 1400.0; exp(-phi/2) would underflow to zero"),
        ("exp(700)*sin(x)", 750, "initial speed 1.01301e+304 exceeds the declared bound 750"),
    ], ids=["1e200", "exp(700)"])
    def test_speed_whose_square_overflows(self, tmp_path, capsys, velocity, speed_bound, message):
        # the speed is finite although its square is not; a RuntimeWarning
        # is an error under this suite, so stderr holds only the JSON list
        body = nse_config()
        body["nse"].update(velocity=[velocity], speed_bound=speed_bound)
        assert main(["solve", write_config(tmp_path, body), "-o", str(tmp_path / "out")]) == 2
        assert json.loads(capsys.readouterr().err)["errors"] == [{"path": "nse", "message": message}]

    @pytest.mark.parametrize("velocity, message", [
        (["1e308*sin(x)"], "potential: the torus potential overflows"),
        (["1e306*sin(x)", "1e306*sin(y)"],
         "potential reaches -1.924e+304 < -1400.0; exp(-phi/2) would overflow"),
        (["5e307*sin(x)", "5e307*sin(y)"], "potential: the torus potential overflows"),
    ], ids=["1d-1e308", "2d-1e306", "2d-5e307"])
    def test_velocity_whose_node_sums_overflow(self, tmp_path, velocity, message):
        # every node is in double range but the node sums of the unscaled
        # velocity are not; stderr holds the JSON list and nothing else
        ndim = len(velocity)
        body = nse_config()
        body["grid"] = {"points": [64] * ndim, "extent": [6.283185307179586] * ndim,
                        "origin": [0.0] * ndim}
        body["series"] = {"time_steps": 4}
        body["nse"] = {"velocity": velocity, "anchor": [0.1] * ndim, "anchor_value": 0.0,
                       "speed_bound": 1.7e308, "horizon": 0.5}
        proc = run_cli("solve", write_config(tmp_path, body), "-o", str(tmp_path / "out"))
        assert proc.returncode == 2
        assert json.loads(proc.stderr) == {"errors": [{"path": "nse", "message": message}]}

    @pytest.mark.parametrize("kind, leaves, path, message", [
        # |k|^2 of the torus potential's lowest mode underflows to 0
        ("nse", {("grid", "spacing"): [1e300], ("nse", "velocity"): ["1e-300*sin(x)"]},
         "nse", "potential: the torus potential overflows, as |k|^2 underflows to 0"),
        # no node overflows on the way to rejecting 0.5 and 1.0; both lie within
        # the horizon-relative tolerance of node 0
        ("heat", {("controlled_heat", "horizon"): 1.7976931348623157e308, ("series", "time_steps"): 3},
         "series.output_times", "output times 0.5 and 1.0 both fall on s-grid node 0"),
    ], ids=["potential", "horizon"])
    def test_extreme_valid_leaves_exit_2_without_warning(self, tmp_path, capsys, kind, leaves, path, message):
        body = CONFIGS[kind]()
        for (section, key), value in leaves.items():
            body[section][key] = value
        if "spacing" in body["grid"]:
            del body["grid"]["extent"]
        assert main(["solve", write_config(tmp_path, body), "-o", str(tmp_path / "out")]) == 2
        errors = json.loads(capsys.readouterr().err)["errors"]
        assert [e["path"] for e in errors] == [path]
        assert message is None or errors[0]["message"] == message

    def test_time_steps_past_the_bound_exit_2_at_series(self, tmp_path):
        # a valid JSON integer far past any allocatable node grid
        body = controlled_heat_config()
        body["series"]["time_steps"] = 10**400
        proc = run_cli("solve", write_config(tmp_path, body), "-o", str(tmp_path / "out"))
        assert proc.returncode == 2
        assert json.loads(proc.stderr)["errors"] == [
            {"path": "series", "message": "time_steps must be in [1, 1000000]"}]

    @pytest.mark.parametrize("forcing, code, errors", [
        (0.5, 3, [{"path": "controlled-heat",
                   "message": "the series sum overflows at order 2 (sup |F| = 0.5)"}]),
        (None, 0, None),
    ], ids=["forced", "unforced"])
    def test_nodes_up_to_the_largest_double_sweep(self, tmp_path, forcing, code, errors):
        # 3 * dt rounds past double range, and the sweep still sees uniform nodes
        horizon = 1.7976931348623157e308
        body = controlled_heat_config()
        body["series"] = {"time_steps": 3, "output_times": [horizon]}
        body["controlled_heat"]["horizon"] = horizon
        if forcing is None:
            del body["controlled_heat"]["forcing"]
        proc = run_cli("solve", write_config(tmp_path, body), "-o", str(tmp_path / "out"))
        assert "Warning" not in proc.stderr
        assert proc.returncode == code
        assert (json.loads(proc.stderr)["errors"] if errors else proc.stderr) == (errors or "")

    @pytest.mark.parametrize("kind", ["heat", "parabolic"])
    def test_collapsed_grid_exits_2(self, tmp_path, capsys, kind):
        # 16 units of extent at -1e308: all 64 nodes round to one coordinate,
        # which on a heat run used to solve to a G constant over the grid
        body = CONFIGS[kind]()
        body["grid"] = {"points": [64], "extent": [16.0], "origin": [-1e308], "boundary": {"free_space": {}}}
        if kind == "heat":
            body["series"] = {"time_steps": 16, "output_times": [0.5]}
            body["controlled_heat"].update(forcing="0.3*cos(x)", horizon=0.5)
        rc = main(["solve", write_config(tmp_path, body), "-o", str(tmp_path / "out")])
        assert rc == 2
        assert json.loads(capsys.readouterr().err)["errors"] == [{
            "path": "grid",
            "message": "axis 0: spacing 0.25 does not separate node coordinates of size 1e+308 in floating point"}]

    def test_tail_estimate_overflow_is_named_in_strict_json(self, tmp_path):
        # the tail factor at t = 0.5 is finite; its product with
        # sup K*|G0| + source is not, and no Infinity token reaches stderr
        body = parabolic_config()
        body["series"] = {"time_steps": 16, "depth_max": 64, "output_times": [0.5]}
        body["parabolic"].update(c=800, horizon=1.0)
        proc = run_cli("solve", write_config(tmp_path, body), "-o", str(tmp_path / "out"))
        assert proc.returncode == 3

        def reject(token):
            raise ValueError(f"non-standard JSON constant {token}")

        errors = json.loads(proc.stderr, parse_constant=reject)["errors"]
        assert [e["path"] for e in errors] == ["parabolic"]
        assert errors[0]["message"].startswith("tail estimate: exp(M t)")

    def test_spacing_whose_square_overflows(self, tmp_path):
        # |k|^2 of the highest modes passes double range at spacings below
        # about 2e-154; those modes are damped to 0 at once, without warnings
        body = controlled_heat_config()
        body["grid"]["extent"] = [1e-153]
        out = tmp_path / "out"
        proc = run_cli("solve", write_config(tmp_path, body), "-o", str(out))
        assert (proc.returncode, proc.stderr) == (0, "")
        # G0 = 1 + 0.5 cos(x) is 1.5 on so short a period, and F = 0.5
        (t, g1) = list(read_trajectory(out, "G"))[-1]
        assert t == 1.0
        np.testing.assert_allclose(g1, 1.5 * np.exp(0.5), rtol=1e-12)

    @pytest.mark.parametrize("flags", [(), ("-W", "error")], ids=["default", "warnings-are-errors"])
    @pytest.mark.parametrize("kind, code", [("heat", 0), ("nse", 2)])
    def test_spacing_whose_wavenumber_overflows(self, tmp_path, kind, code, flags):
        # at spacing 1e-308 the highest wavenumbers 2 pi m / (n h) themselves
        # pass double range, and the zeroed Nyquist flag times that inf is nan
        body = CONFIGS[kind]()
        body["grid"] = {"points": [64], "spacing": [1e-308], "origin": [0.0]}
        proc = run_cli("solve", write_config(tmp_path, body), "-o", str(tmp_path / "out"),
                       python_flags=flags)
        assert proc.returncode == code
        if code == 0:
            assert proc.stderr == ""
        else:
            # the JSON error is all of stderr: no warning, no traceback
            assert json.loads(proc.stderr) == {"errors": [
                {"path": "nse", "message": "potential: the torus potential overflows"}]}

    @pytest.mark.parametrize("kind, keys, value, path, message", [
        ("heat", ("grid",), {"points": [0], "extent": [1.0], "origin": [0.0]}, "grid",
         "each dimension needs >= 8 points, got (0,)"),
        ("heat", ("controlled_heat", "forcing"), "+".join(["0.001*x"] * 5000),
         "controlled_heat.forcing", "expression nests too deeply to compile"),
        # G0 = exp(-phi/2) underflows to zero, from the anchor or from the velocity
        ("nse", ("nse", "anchor_value"), 3000.0, "nse",
         "potential reaches 3001 > 1400.0; exp(-phi/2) would underflow to zero"),
        ("nse", ("nse", "velocity"), ["1e3*sin(x)"], "nse",
         "potential reaches 1998 > 1400.0; exp(-phi/2) would underflow to zero"),
        ("nse", ("nse", "anchor_value"), -3000.0, "nse",
         "potential reaches -3000 < -1400.0; exp(-phi/2) would overflow"),
    ], ids=["zero-points", "5000-terms", "anchor-underflow", "velocity-underflow", "anchor-overflow"])
    def test_reported_without_traceback(self, tmp_path, kind, keys, value, path, message):
        body = CONFIGS[kind]()
        if kind == "nse":
            body["nse"]["speed_bound"] = 1e4  # room for the 1e3 velocity
        node = body
        for key in keys[:-1]:
            node = node[key]
        node[keys[-1]] = value
        proc = run_cli("solve", write_config(tmp_path, body), "-o", str(tmp_path / "out"))
        assert proc.returncode == 2
        # the JSON error is all of stderr: no traceback
        assert json.loads(proc.stderr)["errors"] == [{"path": path, "message": message}]

    @pytest.mark.parametrize("text", [
        b'{"seed": ' + b"7" * 5000 + b"}",
        b"[" * 100000 + b"]" * 100000,
        b'{"schema": 1, "kind": "caf\xe9"}',
    ], ids=["5000-digit-integer", "deep-nesting", "invalid-utf8"])
    def test_unparsable_file_reported_without_traceback(self, tmp_path, text):
        path = tmp_path / "run.json"
        path.write_bytes(text)
        proc = run_cli("solve", str(path), "-o", str(tmp_path / "out"))
        assert proc.returncode == 2
        (error,) = json.loads(proc.stderr)["errors"]
        assert error["path"] == str(path)
        assert error["message"].startswith("cannot read config: ")

    @pytest.mark.parametrize("kind", sorted(CONFIGS))
    def test_out_of_memory_exits_3(self, tmp_path, capsys, monkeypatch, kind):
        def exhausted(self, grid, times):
            raise MemoryError("Unable to allocate 64.0 GiB")

        monkeypatch.setattr(Forcing, "sample", exhausted)
        out = tmp_path / "out"
        assert main(["solve", write_config(tmp_path, CONFIGS[kind]()), "-o", str(out)]) == 3
        # the JSON error is all of stderr: no traceback
        errors = json.loads(capsys.readouterr().err)["errors"]
        assert errors == [{"path": CONFIGS[kind]()["kind"],
                           "message": "out of memory: Unable to allocate 64.0 GiB"}]
        assert json.loads((out / "manifest.json").read_text())["exit_status"] == 3

    @pytest.mark.parametrize("kind", sorted(CONFIGS))
    def test_manifest_records_peak_rss(self, tmp_path, kind):
        out = tmp_path / "out"
        assert main(["solve", write_config(tmp_path, CONFIGS[kind]()), "-o", str(out)]) == 0
        peak = json.loads((out / "manifest.json").read_text())["peak_rss_mb"]
        assert isinstance(peak, float) and peak > 0
        # the measurement stays out of the byte-compared artifacts
        artifacts = [p for p in out.iterdir() if p.name != "manifest.json"]
        assert {p.suffix for p in artifacts} >= {".csf", ".json"}
        assert not any(b"peak_rss" in p.read_bytes() for p in artifacts)

    def test_unwritable_output_exits_2(self, tmp_path, capsys):
        blocker = tmp_path / "some_file"
        blocker.write_text("")
        rc = main(["solve", write_config(tmp_path, controlled_heat_config()), "-o", str(blocker / "out")])
        assert rc == 2
        errors = json.loads(capsys.readouterr().err)["errors"]
        assert [e["path"] for e in errors] == ["output_dir"]
        assert "Not a directory" in errors[0]["message"]

    @pytest.mark.parametrize("kind", sorted(CONFIGS))
    def test_each_expression_compiled_once(self, tmp_path, monkeypatch, kind):
        # every compile, by the config check or by a Forcing, constructs an Expression
        import duhamel.expressions

        compiled = []
        init = duhamel.expressions.Expression.__init__

        def counted_init(self, source):
            compiled.append(source)
            init(self, source)

        monkeypatch.setattr(duhamel.expressions.Expression, "__init__", counted_init)
        body = CONFIGS[kind]()
        assert main(["solve", write_config(tmp_path, body), "-o", str(tmp_path / "out")]) == 0
        leaves = [v for value in body[SECTIONS[kind]].values()
                  for v in (value if isinstance(value, list) else [value]) if isinstance(v, str)]
        assert leaves and sorted(compiled) == sorted(leaves)


def test_traced_solve_counts_bytes_written(tmp_path, monkeypatch):
    # the benchmark's tracer reads (directory, stem) from write_trajectory's
    # positional arguments; installed as perfbench/run.py installs it
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    sys.modules.pop("spans", None)
    spans = importlib.import_module("spans")
    tracer = spans.Tracer()
    tracer.install()
    try:
        for kind, config in sorted(CONFIGS.items()):
            with tracer.span(spans.ROOT_SPAN):
                rc = main(["solve", write_config(tmp_path, config()), "-o", str(tmp_path / kind)])
            assert rc == 0
    finally:
        tracer.uninstall()
        sys.modules.pop("spans", None)
    solves = tracer.solves()
    assert len(solves) == len(CONFIGS)
    assert all(trace.counts["io.bytes_written"] > 0 for trace in solves)


class TestDeterminism:
    def test_byte_identical_reruns(self, tmp_path):
        body = {
            "schema": 1,
            "kind": "nse",
            "seed": 11,
            "grid": {"points": [128], "extent": [6.283185307179586], "origin": [0.0]},
            "series": {"time_steps": 16, "output_times": [0.25, 0.5]},
            "nse": {"velocity": ["sin(x)/(1+0.5*cos(x))"], "anchor": [0.0],
                    "anchor_value": 0.0, "speed_bound": 2.0, "horizon": 0.5},
        }
        path = write_config(tmp_path, body)
        for run in ("a", "b"):
            assert main(["solve", path, "-o", str(tmp_path / run)]) == 0
        names = sorted(p.name for p in (tmp_path / "a").iterdir() if p.suffix == ".csf")
        assert names
        for name in names:
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


class TestVerifyCommand:
    def test_unknown_suite_is_usage_error(self, capsys):
        assert main(["verify", "nonsense"]) == 2
        errors = json.loads(capsys.readouterr().err)["errors"]
        assert [e["path"] for e in errors] == ["suite"]
        assert "unknown suite 'nonsense'" in errors[0]["message"]

    def test_parabolic_suite_passes(self, capsys):
        rc = main(["verify", "parabolic"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "suite 'parabolic': PASS" in out

    @pytest.mark.parametrize("argv, seed", [([], DEFAULT_SEED), (["--seed", "5"], 5)])
    def test_seed_reaches_the_suite(self, monkeypatch, argv, seed):
        seen = []

        def fake_run_suite(name, seed, inject_m_underestimate):
            seen.append(seed)
            return suites.SuiteResult(name, (), 0.0)

        monkeypatch.setattr(suites, "run_suite", fake_run_suite)
        assert main(["verify", "bounds", *argv]) == 0
        assert seen == [seed]

    def test_help_names_every_suite(self):
        # cli cannot import suites (that loads sympy), so its help keeps its own list
        (subparsers,) = [a for a in build_parser()._actions if a.dest == "command"]
        (suite,) = [a for a in subparsers.choices["verify"]._actions if a.dest == "suite"]
        assert suite.help.split(" | ") == [*suites.SUITES, "all"]

    def test_injected_m_underestimate_fails(self, monkeypatch):
        monkeypatch.setattr(suites, "BOUND_TRIALS", 4)
        monkeypatch.setattr(suites, "BOUND_POTENTIALS", 0)
        result = suite_bounds(inject_m_underestimate=True)
        assert not result.passed
        ceiling = [c for c in result.checks if c.label.startswith("ceiling")]
        assert ceiling and not ceiling[0].passed


class TestImportCost:
    WATCHED = ("sympy", "scipy", "scipy.interpolate", "scipy.linalg", "scipy.fft", "scipy.special")

    @pytest.fixture(scope="class")
    def loaded(self, tmp_path_factory):
        """The watched modules loaded after importing the CLI, and after a parabolic solve.

        One fresh interpreter serves every check.  The import-time set is
        recorded before the solve runs, so a module that the solve imports
        shows up in the ``solve`` set only.
        """
        tmp_path = tmp_path_factory.mktemp("imports")
        path, out = write_config(tmp_path, parabolic_config()), tmp_path / "out"
        code = (
            "import json, sys, duhamel.cli\n"
            f"watched = {self.WATCHED!r}\n"
            "loaded = {'import': [m for m in watched if m in sys.modules]}\n"
            f"assert duhamel.cli.main(['solve', {path!r}, '-o', {str(out)!r}]) == 0\n"
            "loaded['solve'] = [m for m in watched if m in sys.modules]\n"
            "print(json.dumps(loaded))\n"
        )
        src = str(Path(duhamel.__file__).resolve().parents[1])
        proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                              capture_output=True, text=True, check=True)
        assert (out / "manifest.json").exists()
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def test_cli_import_leaves_sympy_out(self, loaded):
        # only the verify suites need sympy; a solve must not pay for importing it
        assert "sympy" not in loaded["import"]

    def test_cli_import_leaves_scipy_interpolate_out(self, loaded):
        # no run kind interpolates with scipy.interpolate
        assert "scipy.interpolate" not in loaded["import"]

    def test_cli_import_leaves_scipy_linalg_out(self, loaded):
        # no solve path makes a linear solve
        assert "scipy.linalg" not in loaded["import"]

    def test_parabolic_solve_leaves_scipy_interpolate_out(self, loaded):
        assert "scipy.interpolate" not in loaded["solve"]

    @pytest.mark.parametrize("stage", ("import", "solve"))
    def test_no_scipy_fft_or_special(self, loaded, stage):
        # every transform runs on numpy.fft
        assert not {"scipy.fft", "scipy.special"} & set(loaded[stage])

    @pytest.mark.parametrize("stage", ("import", "solve"))
    def test_no_scipy(self, loaded, stage):
        # the parabolic resampling takes its knot slopes from finite
        # differences, so no solve path needs scipy, nor the manifest its version
        assert "scipy" not in loaded[stage]


class TestPublicNames:
    def test_every_export_resolves(self):
        # a deleted name must not stay behind in an __all__; every library
        # module declares one (the command-line entry point has no exports)
        names = [m.name for m in pkgutil.iter_modules(duhamel.__path__)]
        assert "cli" in names
        for name in ["duhamel"] + [f"duhamel.{m}" for m in names if m != "cli"]:
            module = importlib.import_module(name)
            assert hasattr(module, "__all__"), f"{name} declares no __all__"
            for export in module.__all__:
                assert hasattr(module, export), f"{name}.__all__ names missing {export!r}"


class TestInspectCommand:
    def test_prints_header(self, tmp_path, capsys):
        path = write_config(tmp_path, controlled_heat_config())
        main(["solve", path, "-o", str(tmp_path / "out")])
        capsys.readouterr()
        rc = main(["inspect", str(tmp_path / "out" / "G_0000.csf")])
        out = capsys.readouterr().out
        assert rc == 0
        assert "ndim:     1" in out
        assert "periodic" in out

    def test_rejects_non_csf(self, tmp_path, capsys):
        path = tmp_path / "x.bin"
        path.write_bytes(b"garbage")
        assert main(["inspect", str(path)]) == 2
        errors = json.loads(capsys.readouterr().err)["errors"]
        assert [e["path"] for e in errors] == [str(path)]

    def test_rejects_truncated_header_and_missing_file(self, tmp_path, capsys):
        path = tmp_path / "x.csf"
        path.write_bytes(b"CSF1\x02\x00")
        assert main(["inspect", str(path)]) == 2
        assert main(["inspect", str(tmp_path / "missing.csf")]) == 2

    def _valid_file(self, tmp_path):
        write_trajectory(Trajectory(Grid((8,), (0.5,), (0.0,)), (0.0,), np.arange(8.0)[None]), tmp_path, "f")
        path = tmp_path / "f_0000.csf"
        assert main(["inspect", str(path)]) == 0
        return path, bytearray(path.read_bytes())

    def test_rejects_unknown_boundary_flag(self, tmp_path, capsys):
        path, raw = self._valid_file(tmp_path)
        raw[28] = 7  # flag byte of a 1-D header
        path.write_bytes(bytes(raw))
        assert main(["inspect", str(path)]) == 2
        assert "boundary flag 7" in capsys.readouterr().err

    def test_rejects_trailing_bytes(self, tmp_path, capsys):
        path, raw = self._valid_file(tmp_path)
        path.write_bytes(bytes(raw) + bytes(8))
        assert main(["inspect", str(path)]) == 2
        assert "trailing bytes" in capsys.readouterr().err

    def test_rejects_declared_size_beyond_the_file(self, tmp_path, capsys):
        # 4e9 points would ask for 32 GB before noticing the file is short
        path, raw = self._valid_file(tmp_path)
        raw[8:12] = (4_000_000_000).to_bytes(4, "little")
        path.write_bytes(bytes(raw))
        assert main(["inspect", str(path)]) == 2
        assert "truncated value block" in capsys.readouterr().err

    @pytest.mark.parametrize("offset, value, message", [
        (12, float("inf"), "spacings must be positive and finite"),
        (20, float("nan"), "origins must be finite"),
    ], ids=["inf-spacing", "nan-origin"])
    def test_rejects_nonfinite_geometry(self, tmp_path, capsys, offset, value, message):
        path, raw = self._valid_file(tmp_path)
        raw[offset:offset + 8] = np.array(value, dtype="<f8").tobytes()  # 1-D header: spacing, origin
        path.write_bytes(bytes(raw))
        capsys.readouterr()
        assert main(["inspect", str(path)]) == 2
        (error,) = json.loads(capsys.readouterr().err)["errors"]
        assert error["path"] == str(path)
        assert message in error["message"]

    def test_free_space_header(self, tmp_path, capsys):
        main(["solve", write_config(tmp_path, parabolic_config()), "-o", str(tmp_path / "out")])
        capsys.readouterr()
        assert main(["inspect", str(tmp_path / "out" / "u_0000.csf")]) == 0
        out = capsys.readouterr().out
        assert "points:   [64]" in out
        assert "spacing:  [0.25]" in out
        assert "free-space (truncated)" in out


class TestBurgersFixtureEndToEnd:
    def test_solver_artifacts_match_closed_form(self, tmp_path):
        body = {
            "schema": 1,
            "kind": "nse",
            "grid": {"points": [256], "extent": [6.283185307179586], "origin": [0.0]},
            "series": {"depth_max": 16, "rel_tolerance": 1e-12, "time_steps": 32,
                       "output_times": [0.25, 0.5]},
            "nse": {"velocity": ["sin(x)/(1+0.5*cos(x))"], "anchor": [0.0],
                    "anchor_value": 0.0, "speed_bound": 2.0, "horizon": 0.5},
        }
        path = write_config(tmp_path, body)
        assert main(["solve", path, "-o", str(tmp_path / "out")]) == 0
        u = read_trajectory(tmp_path / "out", "u")
        x = u.grid.coords(0)
        for t in (0.25, 0.5):
            got = u.at_time(t)[0]
            want = np.exp(-t) * np.sin(x) / (1 + 0.5 * np.exp(-t) * np.cos(x))
            assert np.max(np.abs(got - want)) <= 1e-4
