"""README examples run against the current API."""

import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np

import duhamel
from duhamel.cli import main
from duhamel.config import load_config
from duhamel.io import read_trajectory

README = Path(__file__).resolve().parents[1] / "README.md"


def fenced(lang: str) -> list[str]:
    return re.findall(rf"^```{lang}\n(.*?)^```$", README.read_text(), flags=re.M | re.S)


def test_python_quick_start_runs():
    (code,) = fenced("python")
    src = str(Path(duhamel.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "True"  # the ceiling check passes


def test_burgers_config_loads(tmp_path):
    (body,) = fenced("json")
    path = tmp_path / "burgers.json"
    path.write_text(body)
    cfg = load_config(path)
    assert cfg.kind == "nse"
    assert cfg.grid.points == (256,)


def test_burgers_config_solves(tmp_path):
    # u = exp(-t) sin(x) / (1 + exp(-t) cos(x) / 2) solves viscous Burgers
    (body,) = fenced("json")
    path = tmp_path / "burgers.json"
    path.write_text(body)
    out = tmp_path / "out"
    assert main(["solve", str(path), "-o", str(out)]) == 0
    u = read_trajectory(out, "u")
    assert u.times[-1] == 0.5
    x = u.grid.coords(0)
    e = np.exp(-0.5)
    exact = e * np.sin(x) / (1 + 0.5 * e * np.cos(x))
    assert np.max(np.abs(u.snapshots[-1].components[0] - exact)) < 1e-4
