"""Grids, fields, and the shared differential operators."""

import numpy as np
import pytest
import scipy.fft

from duhamel import (
    FreeSpaceTruncated,
    Grid,
    ScalarField,
    Trajectory,
    VectorField,
    curl_residual,
    gradient,
    laplacian,
)
from duhamel.grid import padded_torus


def periodic_1d(n=256):
    return Grid((n,), (2 * np.pi / n,), (0.0,))


def free_space_1d(n=128, extent=8.0):
    return Grid((n,), (extent / n,), (-extent / 2,), FreeSpaceTruncated(2.0))


class TestGrid:
    def test_basic_properties(self):
        g = periodic_1d(64)
        assert g.ndim == 1
        assert g.is_periodic
        assert np.isclose(g.extent(0), 2 * np.pi)
        # cell-centered: first node half a cell in
        assert np.isclose(g.coords(0)[0], np.pi / 64)

    def test_validation(self):
        with pytest.raises(ValueError):
            Grid((4,), (0.1,), (0.0,))  # too few points
        with pytest.raises(ValueError):
            Grid((16,), (-0.1,), (0.0,))
        with pytest.raises(ValueError):
            Grid((16, 16, 16, 16), (0.1,) * 4, (0.0,) * 4)
        with pytest.raises(ValueError):
            FreeSpaceTruncated(0.5)

    def test_nearest_node(self):
        g = periodic_1d(8)
        h = 2 * np.pi / 8
        assert g.nearest_node((0.0,)) == (0,)
        assert g.nearest_node((h * 2.9,)) == (2,)  # nodes at (i + 1/2) h
        assert g.nearest_node((100.0,)) == (7,)

    def test_hashable_and_equal(self):
        assert periodic_1d() == periodic_1d()
        assert hash(periodic_1d()) == hash(periodic_1d())
        assert periodic_1d() != free_space_1d()


class TestFields:
    def test_scalar_validation(self):
        g = periodic_1d(16)
        with pytest.raises(ValueError):
            ScalarField(g, np.full(16, np.nan))
        with pytest.raises(ValueError):
            ScalarField(g, np.zeros(17))

    def test_immutability(self):
        f = ScalarField(periodic_1d(16), np.zeros(16))
        with pytest.raises(ValueError):
            f.values[0] = 1.0

    def test_vector_component_count(self):
        g = Grid((16, 16), (0.1, 0.1), (0.0, 0.0))
        with pytest.raises(ValueError):
            VectorField(g, (np.zeros((16, 16)),))

    def test_trajectory_validation(self):
        g = periodic_1d(16)
        f = ScalarField(g, np.zeros(16))
        with pytest.raises(ValueError):
            Trajectory((0.0, 0.0), (f, f))
        traj = Trajectory((0.0, 0.5, 1.0), (f, f, f))
        assert traj.is_uniform()
        assert traj.at_time(0.5) is traj.snapshots[1]
        with pytest.raises(KeyError):
            traj.at_time(0.7)


class TestGradient:
    def test_constant_is_zero(self):
        for g in (periodic_1d(), free_space_1d()):
            grad = gradient(ScalarField.constant(g, 3.7))
            assert np.max(np.abs(grad.components[0])) < 1e-12

    def test_periodic_sin(self):
        g = periodic_1d(256)
        x = g.coords(0)
        grad = gradient(ScalarField(g, np.sin(x)))
        assert np.max(np.abs(grad.components[0] - np.cos(x))) < 1e-6

    def test_free_space_linear_ramp_exact(self):
        g = free_space_1d()
        x = g.coords(0)
        grad = gradient(ScalarField(g, 2.5 * x))
        # polynomial below every scheme order: exact everywhere incl. edges
        assert np.max(np.abs(grad.components[0] - 2.5)) < 1e-11

    def test_free_space_cubic_exact_at_every_node(self):
        # the first derivative is 4th order at every node, the edges included
        n, extent = 32, 8.0
        g = Grid((n, n), (extent / n,) * 2, (-extent / 2,) * 2, FreeSpaceTruncated(2.0))
        x, y = g.meshgrid()
        grad = gradient(ScalarField(g, x**3 - 2 * x**2 + x + y**3))
        assert np.max(np.abs(grad.components[0] - (3 * x**2 - 4 * x + 1))) < 1e-10
        assert np.max(np.abs(grad.components[1] - 3 * y**2)) < 1e-10


def complex_fft_reference(values, grid):
    """Gradient and Laplacian by full complex FFTs, one axis at a time."""
    ks = [2 * np.pi * np.fft.fftfreq(n, h) for n, h in zip(grid.points, grid.spacing)]
    grad = []
    for d, k in enumerate(ks):
        symbol = 1j * k
        if len(k) % 2 == 0:
            symbol[len(k) // 2] = 0.0  # the unpaired Nyquist mode
        shape = [1] * grid.ndim
        shape[d] = len(k)
        spectrum = np.fft.fft(values, axis=d) * symbol.reshape(shape)
        grad.append(np.fft.ifft(spectrum, axis=d).real)
    k2 = sum(np.meshgrid(*(k**2 for k in ks), indexing="ij"))
    return grad, np.fft.ifftn(-k2 * np.fft.fftn(values)).real


class TestPrunedForward:
    # np.pad is the independent reference for the torus's edge padding
    @pytest.mark.parametrize("points", [(9,), (12,), (12, 9), (9, 12), (8, 11, 10), (9, 9, 12)])
    @pytest.mark.parametrize("factor", [1.0, 1.5, 2.0, 3.0])
    @pytest.mark.parametrize("batch", [(), (3,)], ids=["field", "batch"])
    def test_equals_rfftn_of_edge_padded_field(self, points, factor, batch):
        ndim = len(points)
        grid = Grid(points, (0.3,) * ndim, (0.0,) * ndim, FreeSpaceTruncated(factor))
        torus = padded_torus(grid)
        values = np.random.default_rng(4).normal(size=batch + points)
        lows = [(m - n) // 2 for m, n in zip(torus.shape, points)]
        pad = [(0, 0)] * len(batch) + [(lo, m - n - lo) for lo, m, n in zip(lows, torus.shape, points)]
        want = scipy.fft.rfftn(np.pad(values, pad, mode="edge"), axes=range(-ndim, 0))
        got = torus.forward(values)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


class TestPeriodicSpectral:
    @pytest.mark.parametrize("points", [(16, 12), (15, 13)], ids=["even", "odd"])
    def test_matches_complex_fft(self, points):
        g = Grid(points, (0.3, 0.5), (0.0, 0.0))
        vals = np.random.default_rng(8).normal(size=points)
        grad_ref, lap_ref = complex_fft_reference(vals, g)
        grad = gradient(ScalarField(g, vals))
        for got, want in zip(grad.components, grad_ref):
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(got))
        lap = laplacian(ScalarField(g, vals)).values
        assert np.max(np.abs(lap - lap_ref)) <= 1e-12 * np.max(np.abs(lap))


class TestLaplacian:
    def test_constant_is_zero(self):
        for g in (periodic_1d(), free_space_1d()):
            lap = laplacian(ScalarField.constant(g, -1.2))
            assert np.max(np.abs(lap.values)) < 1e-11

    def test_periodic_sin(self):
        g = periodic_1d(256)
        x = g.coords(0)
        lap = laplacian(ScalarField(g, np.sin(x)))
        assert np.max(np.abs(lap.values + np.sin(x))) < 1e-6

    def test_free_space_quadratic(self):
        g = free_space_1d()
        x = g.coords(0)
        lap = laplacian(ScalarField(g, x**2))
        inner = lap.values[2:-2]
        assert np.max(np.abs(inner - 2.0)) < 1e-9

    def test_periodic_mean_zero(self):
        g = periodic_1d(128)
        x = g.coords(0)
        rng = np.random.default_rng(3)
        vals = np.exp(np.sin(x) + 0.3 * np.cos(3 * x)) + rng.normal(0, 0.01, 128)
        lap = laplacian(ScalarField(g, vals))
        scale = np.max(np.abs(lap.values))
        assert abs(np.mean(lap.values)) < 1e-12 * max(scale, 1.0)


class TestLinearity:
    @pytest.mark.parametrize("op", [gradient, laplacian])
    def test_linear_combinations(self, op):
        g = periodic_1d(128)
        x = g.coords(0)
        a = ScalarField(g, np.sin(x) + 0.2 * np.cos(3 * x))
        b = ScalarField(g, np.exp(np.cos(x)))
        combo = ScalarField(g, 2.0 * a.values - 0.5 * b.values)
        lhs = op(combo)
        if op is gradient:
            lhs_vals = lhs.components[0]
            rhs_vals = 2.0 * op(a).components[0] - 0.5 * op(b).components[0]
        else:
            lhs_vals = lhs.values
            rhs_vals = 2.0 * op(a).values - 0.5 * op(b).values
        # k^2 symbol amplification keeps this at ~1e3 eps, still rounding-level
        scale = np.max(np.abs(rhs_vals))
        assert np.max(np.abs(lhs_vals - rhs_vals)) < 1e-12 * max(scale, 1.0)


class TestCurl:
    def grid2d(self, n=128):
        h = 2 * np.pi / n
        return Grid((n, n), (h, h), (0.0, 0.0))

    def test_1d_is_zero(self):
        g = periodic_1d(64)
        u = VectorField(g, (np.sin(g.coords(0)),))
        assert curl_residual(u) == 0.0

    def test_gradient_field_is_curl_free(self):
        g = self.grid2d()
        x, y = g.meshgrid()
        phi = ScalarField(g, np.sin(x) * np.sin(y))
        u = gradient(phi)
        assert curl_residual(u) < 1e-6

    def test_rotation_field(self):
        # u = (-y, x) has curl 2 everywhere; free-space grid, exact for linears
        n, extent = 32, 2.0
        h = extent / n
        g = Grid((n, n), (h, h), (-1.0, -1.0), FreeSpaceTruncated(2.0))
        x, y = g.meshgrid()
        u = VectorField(g, (-y, x))
        assert abs(curl_residual(u) - 2.0) < 1e-10

    def test_curl_of_sampled_gradient_any_smooth_potential(self):
        g = self.grid2d(96)
        x, y = g.meshgrid()
        phi = ScalarField(g, np.exp(0.3 * np.sin(x) + 0.2 * np.cos(2 * y)))
        assert curl_residual(gradient(phi)) < 1e-8
