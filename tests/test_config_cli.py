"""Config schema validation and the CLI surface."""

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
from duhamel import Grid, ScalarField, suites
from duhamel.cli import main
from duhamel.config import ConfigError, load_config
from duhamel.io import read_trajectory, write_field
from duhamel.series import solve_controlled_heat
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


def run_cli(*argv):
    """``python -m duhamel.cli`` in a fresh interpreter, output captured as text."""
    src = str(Path(duhamel.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-m", "duhamel.cli", *argv], env=env,
                          capture_output=True, text=True)

# (config, keys to the replaced value, wrongly typed value, error path)
WRONG_LEAVES = [
    ("heat", ("schema",), True, "schema"),
    ("heat", ("kind",), 3, "kind"),
    ("heat", ("seed",), "a", "seed"),
    ("heat", ("output_dir",), 3, "output_dir"),
    ("heat", ("grid", "points"), ["a"], "grid.points"),
    ("heat", ("grid", "extent", 0), "a", "grid.extent[0]"),
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
    ("heat", ("bench",), {"axis": 3, "values": [1]}, "bench.axis"),
    ("heat", ("bench",), {"axis": "depth", "values": ["a"]}, "bench.values[0]"),
    ("heat", ("bench",), {"axis": "depth", "values": [4, 99]}, "bench.values[1]"),
    ("nse", ("nse", "velocity", 0), 1, "nse.velocity[0]"),
    ("nse", ("nse", "anchor", 0), "a", "nse.anchor[0]"),
    ("nse", ("nse", "anchor_value"), "a", "nse.anchor_value"),
    ("nse", ("nse", "pressure_minus_force"), [1], "nse.pressure_minus_force"),
    ("nse", ("nse", "speed_bound"), "a", "nse.speed_bound"),
    ("nse", ("nse", "horizon"), None, "nse.horizon"),
    *(("parabolic", ("parabolic", name), [1], f"parabolic.{name}") for name in "Aacf"),
    ("parabolic", ("parabolic", "initial"), 1, "parabolic.initial"),
    ("parabolic", ("parabolic", "horizon"), "a", "parabolic.horizon"),
    ("parabolic", ("parabolic", "ellipticity_min"), "a", "parabolic.ellipticity_min"),
]


class TestConfigValidation:
    @pytest.mark.parametrize("kind, keys, value, path", WRONG_LEAVES,
                             ids=[f"{k}:{p}" for k, _, _, p in WRONG_LEAVES])
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

    def test_threads_is_an_unknown_key(self, tmp_path, capsys):
        rc = main(["solve", write_config(tmp_path, controlled_heat_config(threads=2))])
        assert rc == 2
        payload = json.loads(capsys.readouterr().err)
        assert payload["errors"] == [{"path": "threads", "message": "unknown key"}]

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

    @pytest.mark.parametrize("padding", ["big", [2], 0.5, True, 9.0, float("inf")])
    def test_bad_padding_factor_exits_2(self, tmp_path, capsys, padding):
        body = controlled_heat_config()
        body["grid"]["boundary"] = {"free_space": {"padding_factor": padding}}
        rc = main(["solve", write_config(tmp_path, body), "-o", str(tmp_path / "out")])
        assert rc == 2
        payload = json.loads(capsys.readouterr().err)
        assert [e["path"] for e in payload["errors"]] == ["grid.boundary.free_space.padding_factor"]

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
                        "boundary": {"free_space": {"padding_factor": 1.5}}}
        free["controlled_heat"]["initial"] = "1 + exp(-x*x)"
        expected = (
            (periodic, {"name": "spectral-rfft", "padding": "none", "padded_shape": [64]}),
            (free, {"name": "spectral-rfft", "padding": "edge", "padded_shape": [96]}),
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

    @pytest.mark.parametrize("kind", ["heat", "nse"])
    def test_checks_reuse_the_solver_propagation(self, tmp_path, monkeypatch, kind):
        import duhamel.series

        calls = []
        original = duhamel.series.convolve_times
        monkeypatch.setattr(duhamel.series, "convolve_times",
                            lambda *args, **kw: calls.append(args) or original(*args, **kw))
        assert main(["solve", write_config(tmp_path, CONFIGS[kind]()), "-o", str(tmp_path / "o")]) == 0
        assert len(calls) == 1

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
        assert max(np.max(np.abs(s.components[0])) for _, s in u) < 1e-12

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

    @pytest.mark.parametrize("kind, keys, value", [
        ("heat", ("controlled_heat", "initial"), "1 + 1/(t - 0)"),
        ("nse", ("nse", "velocity", 0), "0.3*sin(x) + 1/t"),
        ("parabolic", ("parabolic", "initial"), "exp(-0.5*x*x)/t"),
        ("parabolic", ("parabolic", "c"), "0.4 + 1/(t - 0.25)"),
        ("heat", ("controlled_heat", "forcing"), "1/(t - 0.5)"),
        ("nse", ("nse", "pressure_minus_force"), "1/(t - 0.25)"),
    ])
    def test_nonfinite_expression_exits_2(self, tmp_path, capsys, kind, keys, value):
        # time is an array, so these divide to inf instead of raising, and
        # the non-finite check reports them without a numpy warning; the
        # message starts with the leaf, e.g. "velocity[0]: "
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

    @pytest.mark.parametrize("kind, points, keys, value, stage", [
        ("heat", 16, ("controlled_heat", "forcing"), "750", "tail estimate: exp(M t)"),
        ("heat", 16, ("controlled_heat", "forcing"), "800*cos(x)", "tail estimate: exp(M t)"),
        ("heat", 16, ("controlled_heat", "forcing"), "1e300*cos(x)", "the series sum overflows"),
        ("nse", 32, ("nse", "pressure_minus_force"), "1500", "tail estimate: exp(M t)"),
    ], ids=["heat-750", "heat-800cos", "heat-1e300cos", "nse-1500"])
    def test_series_overflow_exits_3(self, tmp_path, kind, points, keys, value, stage):
        body = CONFIGS[kind]()
        body["grid"]["points"] = [points]
        body["series"] = {"time_steps": 8, "depth_max": 64}
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

    def test_injected_m_underestimate_fails(self):
        result = suite_bounds(trials=4, potentials=0, inject_m_underestimate=True)
        assert not result.passed
        ceiling = [c for c in result.checks if c.label.startswith("ceiling")]
        assert ceiling and not ceiling[0].passed


class TestImportCost:
    def _imported_by_cli(self, module):
        src = str(Path(duhamel.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        code = f"import sys, duhamel.cli; print({module!r} in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True).stdout
        return out.strip() == "True"

    def test_cli_import_leaves_sympy_out(self):
        # only the verify suites need sympy; a solve must not pay for importing it
        assert not self._imported_by_cli("sympy")

    def test_cli_import_leaves_scipy_interpolate_out(self):
        # only parabolic runs interpolate; heat and NSE solves must not import it
        assert not self._imported_by_cli("scipy.interpolate")


class TestPublicNames:
    def test_every_export_resolves(self):
        names = [m.name for m in pkgutil.iter_modules(duhamel.__path__)]
        assert "cli" in names
        for name in ["duhamel"] + [f"duhamel.{m}" for m in names]:
            module = importlib.import_module(name)
            for export in getattr(module, "__all__", ()):
                assert hasattr(module, export), f"{name}.__all__ names missing {export!r}"


class TestBenchCommand:
    def test_depth_sweep_matches_tail(self, tmp_path):
        import math

        body = controlled_heat_config()
        body["controlled_heat"]["initial"] = "1"
        body["series"] = {"time_steps": 16, "output_times": [1.0], "rel_tolerance": 1e-14,
                          "depth_max": 20}
        body["bench"] = {"axis": "depth", "values": [1, 2, 4, 8, 12]}
        path = write_config(tmp_path, body)
        out_csv = tmp_path / "bench.csv"
        assert main(["bench", path, "-o", str(out_csv)]) == 0
        rows = out_csv.read_text().strip().split("\n")
        assert rows[0].split(",")[0] == "sweep_axis"
        for row in rows[1:]:
            _, value, _, terms, err = row.split(",")
            d = int(value)
            tail = math.exp(0.5) - sum(0.5**k / math.factorial(k) for k in range(d + 1))
            assert abs(float(err) - tail) <= 0.1 * tail
            assert int(terms) == d + 1

    def test_missing_sweep_is_usage_error(self, tmp_path, capsys):
        path = write_config(tmp_path, controlled_heat_config())
        assert main(["bench", path]) == 2

    def test_grid_sweep_monotone_timing_column_present(self, tmp_path):
        body = controlled_heat_config()
        body["bench"] = {"axis": "grid", "values": [64, 128]}
        path = write_config(tmp_path, body)
        out_csv = tmp_path / "bench.csv"
        assert main(["bench", path, "-o", str(out_csv)]) == 0
        rows = out_csv.read_text().strip().split("\n")[1:]
        times = [float(r.split(",")[2]) for r in rows]
        assert len(times) == 2 and all(t >= 0 for t in times)

    def test_grid_sweep_keeps_each_extent(self, tmp_path, monkeypatch):
        grids = []

        def record(g0, *args):
            grids.append(g0.grid)
            return solve_controlled_heat(g0, *args)

        monkeypatch.setattr("duhamel.cli.solve_controlled_heat", record)
        body = controlled_heat_config()
        body["grid"] = {"points": [16, 8], "extent": [2 * np.pi, np.pi], "origin": [0.0, 0.0]}
        body["controlled_heat"]["initial"] = "1 + 0.5*cos(x)*cos(2*y)"
        body["bench"] = {"axis": "grid", "values": [16, 32]}
        assert main(["bench", write_config(tmp_path, body), "-o", str(tmp_path / "b.csv")]) == 0
        assert [g.points for g in grids] == [(16, 16), (32, 32)]
        for g in grids:
            assert np.allclose([g.extent(0), g.extent(1)], [2 * np.pi, np.pi], rtol=1e-15)

    @pytest.mark.parametrize("grid, series, forcing, code, message", [
        ({}, {}, "1/(t - 0.5)", 2, "forcing: expression has non-finite values at t=0.5"),
        ({}, {"time_steps": 8, "depth_max": 64}, "1e300*cos(x)", 3, "the series sum overflows"),
        ({"points": [16, 16], "extent": [2 * np.pi] * 2, "origin": [0.0, 0.0]}, {}, "0.3*sin(y)",
         2, "the Crank-Nicolson oracle runs on periodic 1D grids"),
    ], ids=["nonfinite-forcing", "overflow", "oracle-2d"])
    def test_failed_sweep_is_one_json_error(self, tmp_path, capsys, grid, series, forcing, code,
                                            message):
        body = controlled_heat_config()
        body["grid"] = {"points": [32], "extent": [2 * np.pi], "origin": [0.0], **grid}
        body["series"].update(series)
        body["controlled_heat"]["forcing"] = forcing
        body["bench"] = {"axis": "depth", "values": [series.get("depth_max", 2)]}
        # a numpy RuntimeWarning is an error in this suite, so a clean return
        # means the JSON error is all of stderr
        assert main(["bench", write_config(tmp_path, body)]) == code
        captured = capsys.readouterr()
        errors = json.loads(captured.err)["errors"]
        assert [e["path"] for e in errors] == ["bench"]
        assert message in errors[0]["message"]
        assert captured.out == ""


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
        path = tmp_path / "f.csf"
        write_field(ScalarField(Grid((8,), (0.5,), (0.0,)), np.arange(8.0)), path)
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
            got = u.at_time(t).components[0]
            want = np.exp(-t) * np.sin(x) / (1 + 0.5 * np.exp(-t) * np.cos(x))
            assert np.max(np.abs(got - want)) <= 1e-4
