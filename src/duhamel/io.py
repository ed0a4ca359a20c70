"""Binary CSF1 field files and trajectory directories.

CSF1 layout (little endian): magic ``CSF1``, u32 ndim, u32 dims[ndim],
f64 spacing[ndim], f64 origin[ndim], u8 boundary flag, f64 values row-major.
Flag 0 is periodic, 1 is truncated free space.  The padding factor is not
part of the format; free-space grids load with the default factor.
"""

from __future__ import annotations

import json
import math
import os
import struct
from pathlib import Path

import numpy as np

from .fields import ScalarField, Trajectory, VectorField
from .grid import FreeSpaceTruncated, Grid, Periodic

__all__ = [
    "write_field",
    "read_field",
    "write_trajectory",
    "read_trajectory",
]

_MAGIC = b"CSF1"


def write_field(field: ScalarField, path) -> None:
    grid = field.grid
    flag = 0 if grid.is_periodic else 1
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<I", grid.ndim))
        fh.write(struct.pack(f"<{grid.ndim}I", *grid.points))
        fh.write(struct.pack(f"<{grid.ndim}d", *grid.spacing))
        fh.write(struct.pack(f"<{grid.ndim}d", *grid.origin))
        fh.write(struct.pack("<B", flag))
        fh.write(np.ascontiguousarray(field.values, dtype="<f8").tobytes())


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
    """One CSF1 file per snapshot plus a JSON manifest listing the times.

    Vector snapshots are written one file per component.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    entries = []
    for i, (t, snap) in enumerate(traj):
        if isinstance(snap, ScalarField):
            name = f"{stem}_{i:04d}.csf"
            write_field(snap, directory / name)
            entries.append({"time": t, "kind": "scalar", "files": [name]})
        else:
            names = []
            for d in range(snap.grid.ndim):
                name = f"{stem}_{i:04d}_c{d}.csf"
                write_field(snap.component(d), directory / name)
                names.append(name)
            entries.append({"time": t, "kind": "vector", "files": names})
    manifest = {"stem": stem, "snapshots": entries}
    with open(directory / f"{stem}.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_trajectory(directory, stem: str) -> Trajectory:
    directory = Path(directory)
    with open(directory / f"{stem}.json") as fh:
        manifest = json.load(fh)
    times, snaps = [], []
    for entry in manifest["snapshots"]:
        fields = [read_field(directory / name) for name in entry["files"]]
        times.append(entry["time"])
        if entry.get("kind", "scalar") == "vector":
            snaps.append(VectorField(fields[0].grid, tuple(f.values for f in fields)))
        else:
            snaps.append(fields[0])
    return Trajectory(tuple(times), tuple(snaps))
