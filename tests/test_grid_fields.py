"""Grids, fields, and the shared differential operators."""

import math

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
)
from duhamel.fields import _gradient, _gradient_and_laplacian, _spectral
from duhamel.grid import PaddedTorus, _fast_length, padded_torus


def periodic_1d(n=256):
    return Grid((n,), (2 * np.pi / n,), (0.0,))


def free_space_1d(n=128, extent=8.0):
    return Grid((n,), (extent / n,), (-extent / 2,), FreeSpaceTruncated())


def counted_transforms(monkeypatch) -> list[str]:
    """The names of the torus transforms called from here on, in call order."""
    calls = []
    for name in ("forward", "inverse"):
        def counted(self, *args, _method=getattr(PaddedTorus, name), _name=name, **kwargs):
            calls.append(_name)
            return _method(self, *args, **kwargs)

        monkeypatch.setattr(PaddedTorus, name, counted)
    return calls


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
        with pytest.raises(ValueError, match="finite"):
            Grid((16,), (np.inf,), (0.0,))
        with pytest.raises(ValueError, match="finite"):
            Grid((16,), (0.1,), (np.nan,))
        with pytest.raises(ValueError):
            Grid((16, 16, 16, 16), (0.1,) * 4, (0.0,) * 4)

    @pytest.mark.parametrize("points, spacing, origin", [
        ((64,), (0.25,), (-1e308,)),  # every node rounds to the origin
        ((16, 64), (0.1, 2.0**-52), (0.0, 1.0)),  # a step of one rounding step at 1
        ((32,), (1e307,), (0.0,)),  # the box end overflows
    ], ids=["collapsed", "one-ulp", "box-overflows"])
    def test_rejects_nodes_that_are_not_distinct(self, points, spacing, origin):
        with pytest.raises(ValueError, match=f"axis {len(points) - 1}: spacing .* does not separate"):
            Grid(points, spacing, origin)

    @pytest.mark.parametrize("spacing, origin", [((1e-155,), (0.0,)), ((2.0**-50,), (1.0,)),
                                                 ((1e300 / 64,), (-8.0,))])
    def test_accepts_distinct_extreme_nodes(self, spacing, origin):
        x = Grid((64,), spacing, origin).coords(0)
        assert np.all(np.diff(x) > 0)

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

    def test_max_norm_of_components_whose_squares_overflow(self):
        # 1e200 squared is past double range; the norm itself is not
        g = Grid((8, 8, 8), (0.1,) * 3, (0.0,) * 3)
        comps = [np.zeros(g.shape) for _ in range(3)]
        comps[0][1, 2, 3], comps[1][1, 2, 3], comps[2][4, 4, 4] = 1e200, -1e200, 1.2e200
        u = VectorField(g, tuple(comps))
        assert u.max_norm == pytest.approx(np.sqrt(2.0) * 1e200, rel=1e-15)
        assert VectorField(periodic_1d(16), (np.full(16, -1e200),)).max_norm == 1e200

    def test_trajectory_validation(self):
        g = periodic_1d(16)
        with pytest.raises(ValueError):
            Trajectory(g, (0.0, 0.0), np.zeros((2, 16)))
        traj = Trajectory(g, (0.0, 0.5, 1.0), np.arange(3.0)[:, None] * np.ones(16))
        assert np.array_equal(traj.at_time(0.5), traj.values[1])
        with pytest.raises(KeyError):
            traj.at_time(0.7)


class TestTrajectory:
    """One read-only node stack: (n, *grid.shape) or (n, ndim, *grid.shape)."""

    @pytest.mark.parametrize("times, shape", [
        ((0.0, 0.5), (2, 15)),  # wrong grid shape
        ((0.0, 0.5), (3, 16)),  # one row too many
        ((0.0, 0.5), (2, 2, 16)),  # a vector axis of the wrong length on a 1-D grid
        ((0.0, 0.5), (2, 1, 1, 16)),
    ], ids=["grid", "rows", "vector-axis", "extra-axis"])
    def test_rejects_a_wrong_shape(self, times, shape):
        with pytest.raises(ValueError, match="do not fit"):
            Trajectory(periodic_1d(16), times, np.zeros(shape))

    def test_rejects_a_vector_axis_of_the_wrong_length_in_2d(self):
        g = Grid((8, 8), (0.1, 0.1), (0.0, 0.0))
        Trajectory(g, (0.0,), np.zeros((1, 2, 8, 8)))
        with pytest.raises(ValueError, match="do not fit"):
            Trajectory(g, (0.0,), np.zeros((1, 3, 8, 8)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_values(self, bad):
        values = np.zeros((2, 16))
        values[1, 3] = bad
        with pytest.raises(ValueError, match="finite"):
            Trajectory(periodic_1d(16), (0.0, 0.5), values)

    @pytest.mark.parametrize("times, message", [
        ((), "at least one time"),
        ((0.0, 0.5, 0.5), "strictly increasing"),
        ((0.5, 0.25), "strictly increasing"),
        ((-0.1, 0.5), r"\[0, T\]"),
    ], ids=["empty", "repeated", "decreasing", "negative"])
    def test_rejects_bad_times(self, times, message):
        with pytest.raises(ValueError, match=message):
            Trajectory(periodic_1d(16), times, np.zeros((len(times), 16)))

    def test_rows_are_read_only(self):
        traj = Trajectory(Grid((8, 8), (0.1, 0.1), (0.0, 0.0)), (0.0, 0.5), np.ones((2, 2, 8, 8)))
        for t, row in traj:
            assert not row.flags.writeable
            with pytest.raises(ValueError):
                row[0, 0, 0] = 2.0
        with pytest.raises(ValueError):
            traj.at_time(0.5)[...] = 2.0

    def test_iterates_times_and_rows(self):
        values = np.arange(3.0)[:, None] * np.ones(16)
        traj = Trajectory(periodic_1d(16), [0, 0.5, 1], values)
        assert traj.times == (0.0, 0.5, 1.0) and len(traj) == 3
        assert [(t, row.tolist()) for t, row in traj] == [(t, v.tolist()) for t, v in zip(traj.times, values)]


class TestGradient:
    def test_constant_is_zero(self):
        for g in (periodic_1d(), free_space_1d()):
            grad = _gradient(g, ScalarField.constant(g, 3.7).values)
            assert np.max(np.abs(grad[0])) < 1e-12

    def test_periodic_sin(self):
        g = periodic_1d(256)
        x = g.coords(0)
        grad = _gradient(g, np.sin(x))
        assert np.max(np.abs(grad[0] - np.cos(x))) < 1e-6

    def test_free_space_linear_ramp_exact(self):
        g = free_space_1d()
        x = g.coords(0)
        grad = _gradient(g, 2.5 * x)
        # polynomial below every scheme order: exact everywhere incl. edges
        assert np.max(np.abs(grad[0] - 2.5)) < 1e-11

    def test_free_space_cubic_exact_at_every_node(self):
        # the first derivative is 4th order at every node, the edges included
        n, extent = 32, 8.0
        g = Grid((n, n), (extent / n,) * 2, (-extent / 2,) * 2, FreeSpaceTruncated())
        x, y = g.meshgrid()
        grad = _gradient(g, x**3 - 2 * x**2 + x + y**3)
        assert np.max(np.abs(grad[0] - (3 * x**2 - 4 * x + 1))) < 1e-10
        assert np.max(np.abs(grad[1] - 3 * y**2)) < 1e-10


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
    # np.pad is the independent reference for the torus's edge padding; the
    # grid lengths, ``points`` stretched by ``scale``, give odd and even pad
    # widths (9 -> 9, 11 -> 13, 17 -> 19, 22 -> 23; 8 -> 8, 12 -> 12, 14 -> 16)
    @pytest.mark.parametrize("points", [(9,), (12,), (12, 9), (9, 12), (8, 11, 10), (9, 9, 12)])
    @pytest.mark.parametrize("scale", [1.0, 1.5, 2.0, 3.0])
    @pytest.mark.parametrize("batch", [(), (3,)], ids=["field", "batch"])
    def test_equals_rfftn_of_edge_padded_field(self, points, scale, batch):
        ndim = len(points)
        points = tuple(math.ceil(scale * n) for n in points)
        grid = Grid(points, (0.3,) * ndim, (0.0,) * ndim, FreeSpaceTruncated())
        torus = padded_torus(grid)
        values = np.random.default_rng(4).normal(size=batch + points)
        lows = [(m - n) // 2 for m, n in zip(torus.shape, points)]
        pad = [(0, 0)] * len(batch) + [(lo, m - n - lo) for lo, m, n in zip(lows, torus.shape, points)]
        want = scipy.fft.rfftn(np.pad(values, pad, mode="edge"), axes=range(-ndim, 0))
        got = torus.forward(values)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


class TestTransformPair:
    def test_fast_length_is_scipys_real_fast_length(self):
        # the next 5-smooth length, as scipy.fft.next_fast_len(n, real=True)
        got = [_fast_length(n) for n in range(1, 4097)]
        assert got == [scipy.fft.next_fast_len(n, real=True) for n in range(1, 4097)]

    @pytest.mark.parametrize("grid, shape", [
        (Grid((33,), (0.3,), (0.0,), FreeSpaceTruncated()), (72,)),
        (Grid((15, 13), (0.4, 0.5), (0.0, 0.0)), (15, 13)),
        (Grid((9, 10, 11), (0.3, 0.3, 0.3), (0.0, 0.0, 0.0), FreeSpaceTruncated()), (18, 20, 24)),
    ], ids=["free-33", "periodic-15x13", "free-3d"])
    def test_round_trip_with_scale(self, grid, shape):
        # inverse is unnormalised; scale on the spectrum undoes prod(shape)
        torus = padded_torus(grid)
        assert torus.shape == shape and torus.scale == 1.0 / math.prod(shape)
        values = np.random.default_rng(6).normal(size=grid.shape)
        back = torus.inverse(torus.scale * torus.forward(values))
        assert np.max(np.abs(back - values)) <= 1e-15 * np.max(np.abs(values))

    @pytest.mark.parametrize("grid", [
        Grid((12,), (0.3,), (0.0,)),
        Grid((12,), (0.3,), (0.0,), FreeSpaceTruncated()),
        Grid((9, 12), (0.3, 0.4), (0.0, 0.0)),
        Grid((9, 12), (0.3, 0.4), (0.0, 0.0), FreeSpaceTruncated()),
        Grid((8, 11, 10), (0.3, 0.4, 0.5), (0.0, 0.0, 0.0)),
        Grid((8, 11, 10), (0.3, 0.4, 0.5), (0.0, 0.0, 0.0), FreeSpaceTruncated()),
    ], ids=["periodic-1d", "free-1d", "periodic-2d", "free-2d", "periodic-3d", "free-3d"])
    def test_inverse_leaves_the_spectrum_as_it_is(self, grid):
        # callers draw several inverses from one spectrum
        torus = padded_torus(grid)
        spectrum = torus.forward(np.random.default_rng(7).normal(size=grid.shape))
        before = spectrum.copy()
        values = torus.inverse(spectrum)
        assert spectrum.tobytes() == before.tobytes()
        assert values.shape == grid.shape and values.flags.c_contiguous


class TestPeriodicSpectral:
    @pytest.mark.parametrize("points", [(16, 12), (15, 13)], ids=["even", "odd"])
    def test_matches_complex_fft(self, points):
        g = Grid(points, (0.3, 0.5), (0.0, 0.0))
        vals = np.random.default_rng(8).normal(size=points)
        grad_ref, lap_ref = complex_fft_reference(vals, g)
        for got, want in zip(_gradient(g, vals), grad_ref):
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(got))
        lap = _gradient_and_laplacian(g, vals)[1]
        assert np.max(np.abs(lap - lap_ref)) <= 1e-12 * np.max(np.abs(lap))


class TestSharedTransform:
    def test_gradient_and_laplacian_from_one_forward_transform(self, monkeypatch):
        g = Grid((16, 12), (0.3, 0.5), (0.0, 0.0))
        values = np.random.default_rng(8).normal(size=g.shape)
        # each operator from a transform of its own
        grad, lap = _gradient(g, values), _spectral(g, values, (-padded_torus(g).k2,))[0]
        calls = counted_transforms(monkeypatch)
        comps, lap_values = _gradient_and_laplacian(g, values)
        assert calls == ["forward"] + ["inverse"] * 3
        assert all(a.tobytes() == b.tobytes() for a, b in zip(comps, grad))
        assert lap_values.tobytes() == lap.tobytes()


class TestLaplacian:
    def test_constant_is_zero(self):
        for g in (periodic_1d(), free_space_1d()):
            lap = _gradient_and_laplacian(g, ScalarField.constant(g, -1.2).values)[1]
            assert np.max(np.abs(lap)) < 1e-11

    def test_periodic_sin(self):
        g = periodic_1d(256)
        x = g.coords(0)
        lap = _gradient_and_laplacian(g, np.sin(x))[1]
        assert np.max(np.abs(lap + np.sin(x))) < 1e-6

    def test_free_space_quadratic(self):
        g = free_space_1d()
        x = g.coords(0)
        lap = _gradient_and_laplacian(g, x**2)[1]
        inner = lap[2:-2]
        assert np.max(np.abs(inner - 2.0)) < 1e-9

    def test_periodic_mean_zero(self):
        g = periodic_1d(128)
        x = g.coords(0)
        rng = np.random.default_rng(3)
        vals = np.exp(np.sin(x) + 0.3 * np.cos(3 * x)) + rng.normal(0, 0.01, 128)
        lap = _gradient_and_laplacian(g, vals)[1]
        scale = np.max(np.abs(lap))
        assert abs(np.mean(lap)) < 1e-12 * max(scale, 1.0)


class TestLinearity:
    @pytest.mark.parametrize("op", [
        lambda g, v: _gradient(g, v)[0],
        lambda g, v: _gradient_and_laplacian(g, v)[1],
    ], ids=["gradient", "laplacian"])
    def test_linear_combinations(self, op):
        g = periodic_1d(128)
        x = g.coords(0)
        a = np.sin(x) + 0.2 * np.cos(3 * x)
        b = np.exp(np.cos(x))
        lhs_vals = op(g, 2.0 * a - 0.5 * b)
        rhs_vals = 2.0 * op(g, a) - 0.5 * op(g, b)
        # k^2 symbol amplification keeps this at ~1e3 eps, still rounding-level
        scale = np.max(np.abs(rhs_vals))
        assert np.max(np.abs(lhs_vals - rhs_vals)) < 1e-12 * max(scale, 1.0)


class TestCurl:
    def grid2d(self, n=128):
        h = 2 * np.pi / n
        return Grid((n, n), (h, h), (0.0, 0.0))

    def test_1d_is_zero(self):
        for g in (periodic_1d(64), free_space_1d(64)):
            u = VectorField(g, (np.sin(g.coords(0)),))
            assert curl_residual(u) == (0.0, None)

    def test_gradient_field_is_curl_free(self):
        g = self.grid2d()
        x, y = g.meshgrid()
        phi = ScalarField(g, np.sin(x) * np.sin(y))
        u = VectorField(g, _gradient(g, phi.values))
        residual, estimate = curl_residual(u)
        assert residual < 1e-6
        assert estimate is None  # no Richardson estimate on a periodic grid

    def test_rotation_field(self):
        # u = (-y, x) has curl 2 everywhere; free-space grid, exact for linears
        n, extent = 32, 2.0
        h = extent / n
        g = Grid((n, n), (h, h), (-1.0, -1.0), FreeSpaceTruncated())
        x, y = g.meshgrid()
        u = VectorField(g, (-y, x))
        assert abs(curl_residual(u)[0] - 2.0) < 1e-10

    def test_curl_of_sampled_gradient_any_smooth_potential(self):
        g = self.grid2d(96)
        x, y = g.meshgrid()
        phi = ScalarField(g, np.exp(0.3 * np.sin(x) + 0.2 * np.cos(2 * y)))
        assert curl_residual(VectorField(g, _gradient(g, phi.values)))[0] < 1e-8

    def test_periodic_3d_one_transform_per_component_and_pair(self, monkeypatch):
        # u = (sin y, sin z, sin x): the pair curls are -cos y, -cos z and
        # cos x, so the residual is max |cos| over the node coordinates;
        # 3 forward and 3 inverse transforms
        n = 16
        g = Grid((n,) * 3, (2 * np.pi / n,) * 3, (0.0,) * 3)
        x, y, z = g.meshgrid()
        calls = counted_transforms(monkeypatch)
        residual, estimate = curl_residual(VectorField(g, (np.sin(y), np.sin(z), np.sin(x))))
        assert estimate is None
        assert abs(residual - np.max(np.abs(np.cos(g.coords(0))))) < 1e-13
        assert sorted(calls) == ["forward"] * 3 + ["inverse"] * 3


class TestCurlErrorEstimate:
    def free_2d(self, n):
        return Grid((n, n), (12.0 / n,) * 2, (-6.0, -6.0), FreeSpaceTruncated())

    def test_estimates_the_stencil_error_of_a_sampled_gradient(self):
        # c_h is the stencil error alone; the estimate is within 2x of it
        g = self.free_2d(64)
        x, y = g.meshgrid()
        bump = np.exp(-(x**2 + y**2))
        u = VectorField(g, (-2.0 * x * bump, -2.0 * y * bump))
        residual, estimate = curl_residual(u)
        assert residual > 0.0
        assert 0.5 * residual <= estimate <= 2.0 * residual

    def test_needs_a_free_space_subgrid_of_sixteen_points(self):
        # 30 points per axis leave a 15-point subgrid, 31 leave 16
        for n, estimated in ((30, False), (31, True)):
            g = self.free_2d(n)
            x, y = g.meshgrid()
            assert (curl_residual(VectorField(g, (-y, x)))[1] is not None) == estimated
        zero = VectorField(self.free_2d(31), (np.zeros((31, 31)),) * 2)
        assert curl_residual(zero) == (0.0, 0.0)
