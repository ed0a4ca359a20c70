"""Scoring of one `duhamel solve` output directory.

The CSF1 files are read here, not through the program's reader, and the
closed form is evaluated on node coordinates computed from the config, so a
defect in the program's I/O or grid code cannot hide its own error.
"""

from __future__ import annotations

import hashlib
import json
import struct
from pathlib import Path

import numpy as np
import sympy as sp

from workloads import T, Workload

# Relative slack of the program's own bound checks.  The reports carry the
# signed violation but not the local scale, so a line counts as violated when
# it exceeds this slack times the largest |G| the solve wrote.
REPORT_SLACK = 1e-9


def read_csf1(path: Path) -> np.ndarray:
    """Values of a CSF1 field file, shaped by its header."""
    data = path.read_bytes()
    if data[:4] != b"CSF1":
        raise ValueError(f"{path.name}: not a CSF1 file")
    (ndim,) = struct.unpack_from("<I", data, 4)
    dims = struct.unpack_from(f"<{ndim}I", data, 8)
    offset = 8 + 4 * ndim + 16 * ndim + 1
    values = np.frombuffer(data, dtype="<f8", offset=offset)
    if values.size != int(np.prod(dims)):
        raise ValueError(f"{path.name}: value block does not match the header")
    return values.reshape(dims)


def artifact_digests(out_dir: Path) -> dict[str, str]:
    """sha256 of every artifact that must repeat byte for byte.

    ``manifest.json`` holds wall-clock timings and is left out.
    """
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out_dir.iterdir())
        if p.is_file() and p.name != "manifest.json"
    }


def _trajectory_files(out_dir: Path, stem: str) -> list[tuple[float, list[str]]]:
    index = json.loads((out_dir / f"{stem}.json").read_text())
    return [(float(s["time"]), s["files"]) for s in index["snapshots"]]


def report_violations(out_dir: Path) -> list[str]:
    """Lines of the ceiling/termwise/floor reports that break their bound."""
    reports = sorted(out_dir.glob("*.jsonl"))
    if not reports:
        return []
    scale = max(
        float(np.max(np.abs(read_csf1(out_dir / name))))
        for _, files in _trajectory_files(out_dir, "G") for name in files
    )
    bad = []
    for path in reports:
        for line in path.read_text().splitlines():
            row = json.loads(line)
            if row["max_violation"] > REPORT_SLACK * scale:
                bad.append(f"{path.name}: {line}")
    return bad


class Scorer:
    """Max |output - closed form| of a workload's scored trajectory."""

    def __init__(self, workload: Workload):
        self.workload = workload
        grid = workload.config["grid"]
        axes = [
            o + (np.arange(n) + 0.5) * (e / n)
            for n, e, o in zip(grid["points"], grid["extent"], grid["origin"])
        ]
        self._mesh = np.meshgrid(*axes, indexing="ij")
        args = (*workload.space, T)
        self._fns = [sp.lambdify(args, f, "numpy") for f in workload.exact_fields()]
        self._exact: dict[float, list[np.ndarray]] = {}

    def _exact_at(self, t: float) -> list[np.ndarray]:
        if t not in self._exact:
            ones = np.ones(self._mesh[0].shape)
            self._exact[t] = [fn(*self._mesh, t) * ones for fn in self._fns]
        return self._exact[t]

    def max_error(self, out_dir: Path) -> float:
        """Max over every snapshot and component."""
        snapshots = _trajectory_files(out_dir, self.workload.scored)
        if not snapshots:
            raise ValueError("scored trajectory has no snapshots")
        error = 0.0
        for t, files in snapshots:
            exact = self._exact_at(t)
            if len(files) != len(exact):
                raise ValueError(f"snapshot at t={t} has {len(files)} components")
            for name, ref in zip(files, exact):
                error = max(error, float(np.max(np.abs(read_csf1(out_dir / name) - ref))))
        return error
