"""Binary CSF1 field files and trajectory directories.

CSF1 layout (little endian): magic ``CSF1``, u32 ndim, u32 dims[ndim],
f64 spacing[ndim], f64 origin[ndim], u8 boundary flag, f64 values row-major.
Flag 0 is periodic, 1 is truncated free space, so a header fixes its grid
exactly.

A trajectory is one CSF1 file per row of its node stack (per component for
a vector one) plus a JSON index, whose ``"snapshots"`` entries give each
row's time, kind and files.
"""

from __future__ import annotations

import json
import math
import os
import struct
from pathlib import Path

import numpy as np

from .fields import ScalarField, Trajectory
from .grid import FreeSpaceTruncated, Grid, Periodic

__all__ = [
    "read_field",
    "write_trajectory",
    "read_trajectory",
]

_MAGIC = b"CSF1"


def _header(grid: Grid) -> bytes:
    """The magic and header of a CSF1 file on ``grid``."""
    n = grid.ndim
    flag = 0 if grid.is_periodic else 1
    return _MAGIC + struct.pack(f"<I{n}I{n}d{n}dB", n, *grid.points, *grid.spacing, *grid.origin, flag)


def read_field(path) -> ScalarField:
    """Read a CSF1 file; a malformed, truncated or overlong file raises ``ValueError``."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != _MAGIC:
            raise ValueError(f"{path}: not a CSF1 file (magic {magic!r})")
        try:
            (ndim,) = struct.unpack("<I", fh.read(4))
            if not 1 <= ndim <= 3:
                raise ValueError(f"{path}: bad ndim {ndim}")
            dims = struct.unpack(f"<{ndim}I", fh.read(4 * ndim))
            spacing = struct.unpack(f"<{ndim}d", fh.read(8 * ndim))
            origin = struct.unpack(f"<{ndim}d", fh.read(8 * ndim))
            (flag,) = struct.unpack("<B", fh.read(1))
        except struct.error as exc:
            raise ValueError(f"{path}: truncated header ({exc})") from None
        if flag not in (0, 1):
            raise ValueError(f"{path}: bad boundary flag {flag}")
        grid = Grid(dims, spacing, origin, Periodic() if flag == 0 else FreeSpaceTruncated())
        # check the size the header declares before asking for that many bytes
        expected = 8 * math.prod(grid.points)
        remaining = os.fstat(fh.fileno()).st_size - fh.tell()
        if remaining < expected:
            raise ValueError(f"{path}: truncated value block")
        if remaining > expected:
            raise ValueError(f"{path}: {remaining - expected} trailing bytes after the value block")
        data = np.frombuffer(fh.read(expected), dtype="<f8")
    return ScalarField(grid, data.reshape(grid.shape))


def write_trajectory(traj: Trajectory, directory, stem: str) -> None:
    """One CSF1 file per row of the trajectory's stack plus a JSON index
    listing the times.

    A vector row is written one file per component.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    grid = traj.grid
    vector = traj.values.ndim == grid.ndim + 2
    header = _header(grid)  # every file of a trajectory has the same header
    entries = []
    for i, (t, row) in enumerate(traj):
        files = ({f"{stem}_{i:04d}_c{d}.csf": c for d, c in enumerate(row)} if vector
                 else {f"{stem}_{i:04d}.csf": row})
        for name, values in files.items():
            (directory / name).write_bytes(header + np.asarray(values, "<f8").tobytes())
        entries.append({"time": t, "kind": "vector" if vector else "scalar", "files": list(files)})
    manifest = {"stem": stem, "snapshots": entries}
    with open(directory / f"{stem}.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_trajectory(directory, stem: str) -> Trajectory:
    """The trajectory ``write_trajectory`` wrote; files on differing grids
    raise ``ValueError``."""
    directory = Path(directory)
    with open(directory / f"{stem}.json") as fh:
        manifest = json.load(fh)
    times, rows, grids = [], [], set()
    for entry in manifest["snapshots"]:
        fields = [read_field(directory / name) for name in entry["files"]]
        times.append(entry["time"])
        grids.update(f.grid for f in fields)
        values = [f.values for f in fields]
        rows.append(values if entry.get("kind", "scalar") == "vector" else values[0])
    if len(grids) != 1:
        raise ValueError(f"{directory / stem}: a trajectory needs files on one grid, got {len(grids)}")
    return Trajectory(grids.pop(), times, np.array(rows))
