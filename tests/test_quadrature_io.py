"""Quadrature helpers and the CSF1/CSV serialization layer."""

import numpy as np
import pytest

from duhamel import FreeSpaceTruncated, Grid, ScalarField, Trajectory, VectorField
from duhamel.io import read_field, read_trajectory, write_field, write_trajectory
from duhamel.quadrature import corrected_cumulative_trapezoid


class TestCumulativeTrapezoid:
    def test_corrected_cubic_exact(self):
        x = np.linspace(0, 2, 41)
        f = x**3 - 2 * x**2 + x
        exact = x**4 / 4 - 2 * x**3 / 3 + x**2 / 2
        out = corrected_cumulative_trapezoid(f, x[1] - x[0])
        assert np.max(np.abs(out - exact)) < 1e-13

    def test_corrected_is_4th_order(self):
        errs = []
        for n in (32, 64, 128):
            x = np.linspace(0, 1, n + 1)
            out = corrected_cumulative_trapezoid(np.exp(x), x[1] - x[0])
            errs.append(np.max(np.abs(out - (np.exp(x) - 1.0))))
        order = np.log2(errs[0] / errs[1]), np.log2(errs[1] / errs[2])
        assert all(o > 3.5 for o in order)

    def test_multi_axis(self):
        x = np.linspace(0, 1, 17)
        f = np.outer(np.ones(3), x**2)
        out = corrected_cumulative_trapezoid(f, x[1] - x[0], axis=1)
        assert np.max(np.abs(out - x**3 / 3)) < 1e-14

    def test_needs_five_samples(self):
        # the endpoint slopes are five-point stencils
        assert np.max(np.abs(corrected_cumulative_trapezoid(np.arange(5.0), 1.0)
                             - np.arange(5.0) ** 2 / 2)) < 1e-14
        with pytest.raises(ValueError, match="at least 5 samples, got 4"):
            corrected_cumulative_trapezoid(np.ones((3, 4)), 0.1)
        with pytest.raises(ValueError, match="at least 5 samples, got 4"):
            corrected_cumulative_trapezoid(np.ones((4, 9)), 0.1, axis=0)


class TestCSF1:
    def _roundtrip(self, grid, tmp_path):
        rng = np.random.default_rng(11)
        field = ScalarField(grid, rng.normal(size=grid.shape))
        path = tmp_path / "f.csf"
        write_field(field, path)
        back = read_field(path)
        assert back.grid.points == grid.points
        assert back.grid.spacing == grid.spacing
        assert back.grid.origin == grid.origin
        assert back.grid.is_periodic == grid.is_periodic
        assert np.array_equal(back.values, field.values)
        return path

    def test_roundtrip_periodic_1d(self, tmp_path):
        self._roundtrip(Grid((32,), (0.1,), (0.0,)), tmp_path)

    def test_roundtrip_free_space_3d(self, tmp_path):
        g = Grid((8, 10, 12), (0.1, 0.2, 0.3), (-1.0, 0.0, 1.0), FreeSpaceTruncated(2.0))
        self._roundtrip(g, tmp_path)

    def test_header_layout(self, tmp_path):
        g = Grid((16,), (0.25,), (1.5,))
        path = self._roundtrip(g, tmp_path)
        raw = path.read_bytes()
        assert raw[:4] == b"CSF1"
        assert int.from_bytes(raw[4:8], "little") == 1  # ndim
        assert int.from_bytes(raw[8:12], "little") == 16  # dims[0]
        assert np.frombuffer(raw[12:20], "<f8")[0] == 0.25  # spacing
        assert np.frombuffer(raw[20:28], "<f8")[0] == 1.5  # origin
        assert raw[28] == 0  # periodic flag
        assert len(raw) == 29 + 16 * 8

    def test_rejects_bad_magic(self, tmp_path):
        path = tmp_path / "bad.csf"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(ValueError, match="magic"):
            read_field(path)


class TestTrajectoryIO:
    def test_scalar_trajectory_roundtrip(self, tmp_path):
        g = Grid((16,), (0.1,), (0.0,))
        rng = np.random.default_rng(5)
        times = (0.0, 0.5, 1.0)
        snaps = tuple(ScalarField(g, rng.normal(size=16)) for _ in times)
        traj = Trajectory(times, snaps)
        write_trajectory(traj, tmp_path, "G")
        back = read_trajectory(tmp_path, "G")
        assert back.times == times
        for a, b in zip(traj.snapshots, back.snapshots):
            assert np.array_equal(a.values, b.values)

    def test_vector_trajectory_roundtrip(self, tmp_path):
        g = Grid((8, 8), (0.1, 0.1), (0.0, 0.0))
        rng = np.random.default_rng(6)
        times = (0.25, 0.5)
        snaps = tuple(
            VectorField(g, (rng.normal(size=(8, 8)), rng.normal(size=(8, 8)))) for _ in times
        )
        write_trajectory(Trajectory(times, snaps), tmp_path, "u")
        back = read_trajectory(tmp_path, "u")
        assert isinstance(back.snapshots[0], VectorField)
        assert np.array_equal(back.snapshots[1].components[1], snaps[1].components[1])
