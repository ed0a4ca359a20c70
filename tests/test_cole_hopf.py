"""Cole-Hopf pipeline: potential, initial field, velocity, residual, bounds."""

import math

import numpy as np
import pytest

from duhamel import (
    Forcing,
    FreeSpaceTruncated,
    Grid,
    ScalarField,
    SeriesOptions,
    Trajectory,
    VectorField,
    curl_residual,
    solve_controlled_heat,
)
from duhamel import cole_hopf
from duhamel.cole_hopf import (
    CurlError,
    NSEProblem,
    PositivityError,
    forcing_from_pressure,
    initial_field_from_potential,
    nse_residual,
    potential_from_velocity,
    solve_nse,
    velocity_from_field,
    worst_case_upper_bound,
)
from duhamel.fields import _gradient, _gradient_and_laplacian
from duhamel.grid import PaddedTorus
from duhamel.series import BoundRecord, BoundReport


def periodic_1d(n=256):
    return Grid((n,), (2 * np.pi / n,), (0.0,))


def periodic_2d(n=128):
    h = 2 * np.pi / n
    return Grid((n, n), (h, h), (0.0, 0.0))


class TestPotential:
    def test_zero_velocity(self):
        g = periodic_1d(64)
        u0 = VectorField(g, (np.zeros(64),))
        phi = potential_from_velocity(u0, (0.0,), 2.5)
        assert np.max(np.abs(phi.values - 2.5)) < 1e-14

    def test_constant_velocity_linear_potential(self):
        n, extent = 64, 8.0
        g = Grid((n,), (extent / n,), (0.0,), FreeSpaceTruncated())
        k = 1.3
        u0 = VectorField(g, (np.full(n, k),))
        phi = potential_from_velocity(u0, (0.0,), 0.5)
        x = g.coords(0)
        x0 = x[g.nearest_node((0.0,))[0]]
        assert np.max(np.abs(phi.values - (0.5 + k * (x - x0)))) < 1e-12

    def test_2d_product_potential(self):
        g = periodic_2d()
        x, y = g.meshgrid()
        phi_exact = ScalarField(g, np.sin(x) * np.sin(y))
        u0 = VectorField(g, _gradient(g, phi_exact.values))
        phi = potential_from_velocity(u0, (0.0, 0.0), 0.0)
        # the anchor value is imposed at the node nearest the origin
        i0 = g.nearest_node((0.0, 0.0))
        anchored = phi_exact.values - phi_exact.values[i0]
        assert np.max(np.abs(phi.values - anchored)) < 1e-6

    @pytest.mark.parametrize("points", [(32, 32), (31, 33), (16, 16, 16), (15, 17, 16)],
                             ids=["32x32", "31x33", "16x16x16", "15x17x16"])
    def test_torus_potential_is_exact(self, points):
        # a band-limited potential comes back to rounding from its spectral
        # gradient, on even lengths (zeroed Nyquist of i k) and odd ones
        g = Grid(points, tuple(2 * np.pi / n for n in points), (0.0,) * len(points))
        x, y, *rest = g.meshgrid()
        z = rest[0] if rest else y
        exact = np.sin(x + 2 * z) + 0.5 * np.cos(3 * y) + 0.2 * np.sin(x) * np.cos(z)
        u0 = VectorField(g, _gradient(g, exact))
        node = g.nearest_node((1.0,) * g.ndim)
        phi = potential_from_velocity(u0, (1.0,) * g.ndim, 0.7).values
        assert phi[node] == 0.7
        assert np.max(np.abs(phi - (exact - exact[node] + 0.7))) < 1e-12 * np.max(np.abs(exact))

    @pytest.mark.parametrize("where", ["first", "interior", "last"])
    def test_1d_anchor_node(self, where):
        # phi = sin(1.3x) + 0.2x^2 on [-4, 4]; each line is integrated once
        # and measured from the anchor, which may sit anywhere on it
        errors = []
        for n in (32, 64):
            g = Grid((n,), (8.0 / n,), (-4.0,), FreeSpaceTruncated())
            x = g.coords(0)
            i0 = {"first": 0, "interior": n // 3, "last": n - 1}[where]
            u0 = VectorField(g, (1.3 * np.cos(1.3 * x) + 0.4 * x,))
            phi = potential_from_velocity(u0, (x[i0],), 0.7).values
            assert phi[i0] == 0.7
            exact = np.sin(1.3 * x) + 0.2 * x * x
            errors.append(np.max(np.abs(phi - (exact - exact[i0] + 0.7))))
        assert errors[1] < 3e-6
        assert errors[0] / errors[1] > 12.0  # 4th order

    @pytest.mark.parametrize("node", [(0, 0), (8, 10), (23, 19)], ids=["first", "interior", "last"])
    def test_2d_anchor_node(self, node):
        # a cubic potential: the corrected trapezoid integrates every leg exactly
        g = Grid((24, 20), (0.25, 0.25), (-3.0, -2.5), FreeSpaceTruncated())
        x, y = g.meshgrid()
        exact = 0.3 * x * x + 0.2 * x * y - 0.1 * y * y + 0.05 * x**3
        u0 = VectorField(g, (0.6 * x + 0.2 * y + 0.15 * x * x, 0.2 * x - 0.2 * y))
        x0 = tuple(g.coords(d)[i] for d, i in enumerate(node))
        phi = potential_from_velocity(u0, x0, -1.5).values
        assert phi[node] == -1.5
        assert np.max(np.abs(phi - (exact - exact[node] - 1.5))) < 1e-13

    def test_anchor_outside_grid_box_rejected(self):
        # the same box check as NSEProblem's, not a snap to the edge node
        g = periodic_1d(64)
        u0 = VectorField(g, (np.cos(g.coords(0)),))
        with pytest.raises(ValueError, match="outside the grid box"):
            potential_from_velocity(u0, (100.0,), 0.0)

    def test_mean_flow_rejected_on_periodic_grid(self):
        # the same mean check as NSEProblem's: U.x is not periodic, so phi
        # would jump by U times the period across the wrap
        g = periodic_1d(128)
        u0 = VectorField(g, (0.5 + 0.3 * np.sin(g.coords(0)),))
        with pytest.raises(ValueError, match="mean 0.5"):
            potential_from_velocity(u0, (0.0,), 0.0)
        free = Grid(g.points, g.spacing, g.origin, FreeSpaceTruncated())
        phi = potential_from_velocity(VectorField(free, u0.components), (0.0,), 0.0)
        assert np.isfinite(phi.values).all()

    def test_rotational_data_rejected(self):
        g = periodic_2d(48)
        x, y = g.meshgrid()
        u0 = VectorField(g, (-np.sin(y), np.sin(x)))
        with pytest.raises(CurlError) as err:
            potential_from_velocity(u0, (0.0, 0.0), 0.0)
        assert err.value.residual > 1.0


# the heat benchmark's exponent a: Gaussian bumps (amplitude, width, centre)
HEAT_BUMPS = ((0.8, 1.0, (-1.0, 0.5)), (-0.6, 1.5, (1.2, -0.4)), (0.5, 2.0, (0.2, 1.3)))


def heat_exponent(x, y):
    return sum(amp * np.exp(-((x - cx) ** 2 + (y - cy) ** 2) / w)
               for amp, w, (cx, cy) in HEAT_BUMPS)


def heat_velocity(grid, eps=0.0):
    """u0 = -2 grad a on ``grid``, plus ``eps`` times the rotational field
    (-d_y psi, d_x psi) of psi = exp(-|x - (1, 0)|^2)."""
    x, y = grid.meshgrid()
    ux = sum(4.0 * amp / w * (x - cx) * np.exp(-((x - cx) ** 2 + (y - cy) ** 2) / w)
             for amp, w, (cx, cy) in HEAT_BUMPS)
    uy = sum(4.0 * amp / w * (y - cy) * np.exp(-((x - cx) ** 2 + (y - cy) ** 2) / w)
             for amp, w, (cx, cy) in HEAT_BUMPS)
    psi = np.exp(-((x - 1.0) ** 2 + y**2))
    return VectorField(grid, (ux + eps * 2.0 * y * psi, uy - eps * 2.0 * (x - 1.0) * psi))


def free_2d(n, extent=12.0):
    return Grid((n, n), (extent / n,) * 2, (-extent / 2,) * 2, FreeSpaceTruncated())


class TestFreeSpaceCurlCheck:
    # the 4th-order stencil curl of a sampled gradient is its truncation
    # error, far above the fixed tolerance at these sizes; the check scales
    # the tolerance by that error as estimated from the samples

    @pytest.mark.parametrize("n", (64, 128))
    def test_sampled_gradient_passes(self, n):
        g = free_2d(n)
        u0 = heat_velocity(g)
        assert curl_residual(u0)[0] > 4.0 * cole_hopf.default_curl_tolerance(u0.grid, u0.max_norm)
        phi = potential_from_velocity(u0, (0.0, 0.0), 0.0)
        x, y = g.meshgrid()
        a = heat_exponent(x, y)
        exact = -2.0 * (a - a[g.nearest_node((0.0, 0.0))])
        assert np.max(np.abs(phi.values - exact)) < 2e-4 * (64 / n) ** 4

    @pytest.mark.parametrize("n", (64, 128))
    def test_rotational_part_rejected(self, n):
        with pytest.raises(CurlError) as err:
            potential_from_velocity(heat_velocity(free_2d(n), eps=1e-2), (0.0, 0.0), 0.0)
        assert err.value.residual > 3e-2

    def test_3d_sampled_gradient_passes(self):
        n = 32
        g = Grid((n,) * 3, (12.0 / n,) * 3, (-6.0,) * 3, FreeSpaceTruncated())
        x, y, z = g.meshgrid()
        bump = 0.8 * np.exp(-(x**2 + y**2 + z**2))
        u0 = VectorField(g, (4.0 * x * bump, 4.0 * y * bump, 4.0 * z * bump))
        assert curl_residual(u0)[0] > 4.0 * cole_hopf.default_curl_tolerance(u0.grid, u0.max_norm)
        phi = potential_from_velocity(u0, (0.0, 0.0, 0.0), 0.0)
        exact = -2.0 * (bump - bump[g.nearest_node((0.0, 0.0, 0.0))])
        assert np.max(np.abs(phi.values - exact)) < 1e-2

    def test_path_order_check_fires_at_the_raised_tolerance(self, monkeypatch):
        # the path tolerance is 10 L times the curl tolerance, so on free-space
        # grids it rises with the estimate; with the curl check made to pass,
        # the two staircase orders still reject a rotational part of 0.1
        u0 = heat_velocity(free_2d(128), eps=0.1)
        estimate = curl_residual(u0)[1]
        assert 2.0 * estimate > 4.0 * cole_hopf.default_curl_tolerance(u0.grid, u0.max_norm)
        monkeypatch.setattr(cole_hopf, "curl_residual", lambda u: (0.0, estimate))
        with pytest.raises(CurlError, match="staircase path orders disagree"):
            potential_from_velocity(u0, (0.0, 0.0), 0.0)

    @pytest.mark.parametrize("n", (9, 16, 20))
    def test_small_grid_keeps_the_fixed_tolerance(self, n):
        # at h = 4/9 the stencil error swamps a rotational part of eps = 1e-2;
        # a Richardson estimate on these subgrids let that data through the
        # curl check for n = 9 to 20, so they are held to the fixed tolerance
        u0 = heat_velocity(free_2d(n, extent=4.0 * n / 9), eps=1e-2)
        with pytest.raises(CurlError, match="curl residual"):
            potential_from_velocity(u0, (0.0, 0.0), 0.0)


class TestInitialField:
    def test_zero_potential(self):
        g = periodic_1d(64)
        out = initial_field_from_potential(ScalarField.constant(g, 0.0))
        assert np.all(out.values == 1.0)

    def test_constant_potential(self):
        g = periodic_1d(64)
        a = 1.7
        out = initial_field_from_potential(ScalarField.constant(g, 2 * a))
        assert np.max(np.abs(out.values - math.exp(-a))) < 1e-15

    def test_inverse_log_identity(self):
        # phi = -2 log(1 + cos(x)/2)  =>  G0 = 1 + cos(x)/2
        g = periodic_1d()
        x = g.coords(0)
        phi = ScalarField(g, -2.0 * np.log(1 + 0.5 * np.cos(x)))
        out = initial_field_from_potential(phi)
        assert np.max(np.abs(out.values - (1 + 0.5 * np.cos(x)))) < 1e-14

    def test_overflow_rejected(self):
        g = periodic_1d(64)
        with pytest.raises(ValueError, match="overflow"):
            initial_field_from_potential(ScalarField.constant(g, -1500.0))

    def test_underflow_rejected(self):
        # exp(-750) is zero in doubles, so G0 would not be strictly positive
        g = periodic_1d(64)
        with pytest.raises(ValueError, match=r"reaches 1500 > 1400.0; exp\(-phi/2\) would underflow"):
            initial_field_from_potential(ScalarField.constant(g, 1500.0))


class TestForcingFromPressure:
    def test_zero(self):
        F = forcing_from_pressure(None)
        assert np.all(F.sample(periodic_1d(64), [0.3]) == 0.0)

    def test_constant_halved(self):
        F = forcing_from_pressure(Forcing.constant(2.0))
        g = periodic_1d(64)
        assert np.all(F.sample(g, [0.0]) == 1.0)

    def test_bounds_halved(self):
        # the envelope the solver takes from its node samples halves with F
        g = periodic_1d(64)
        raw = Forcing.from_callable(lambda t, x: 1.0 + 2.0 * np.sin(x))
        opts = SeriesOptions(depth_max=8, time_steps=4, output_times=(0.5,))
        G0 = ScalarField.constant(g, 1.0)
        full = solve_controlled_heat(G0, raw, 0.5, opts)
        half = solve_controlled_heat(G0, forcing_from_pressure(raw), 0.5, opts)
        assert half.forcing_sup == 0.5 * full.forcing_sup
        assert half.forcing_inf == 0.5 * full.forcing_inf
        assert half.forcing_inf < 0.0 < half.forcing_sup


class TestVelocityFromField:
    def test_constant_field_zero_velocity(self):
        g = periodic_1d(64)
        traj = Trajectory(g, (0.0, 0.5), np.full((2, 64), 2.0))
        u = velocity_from_field(traj)
        assert max(VectorField(g, row).max_norm for _, row in u) < 1e-13

    def test_gaussian_log_derivative(self):
        # G = e^{-x^2/(4(a+t))}  =>  u = -2 grad(log G) = x/(a+t)
        n, extent = 256, 24.0
        g = Grid((n,), (extent / n,), (-extent / 2,), FreeSpaceTruncated())
        x = g.coords(0)
        a = 2.0
        times = (0.0, 0.5)
        snaps = np.array([np.exp(-(x**2) / (4 * (a + t))) for t in times])
        u = velocity_from_field(Trajectory(g, times, snaps))
        for t, snap in u:
            # FD error on the log-derivative grows with the Gaussian decay
            # rate, so compare where G is well resolved
            core = np.abs(x) <= 6.0
            want = x[core] / (a + t)
            assert np.max(np.abs(snap[0][core] - want)) < 1e-5

    def test_burgers_fixture_field(self):
        g = periodic_1d()
        x = g.coords(0)
        times = (0.0, 0.25, 0.5)
        snaps = np.array([1 + 0.5 * np.exp(-t) * np.cos(x) for t in times])
        u = velocity_from_field(Trajectory(g, times, snaps))
        for t, snap in u:
            want = np.exp(-t) * np.sin(x) / (1 + 0.5 * np.exp(-t) * np.cos(x))
            assert np.max(np.abs(snap[0] - want)) < 1e-11

    def test_positivity_breach_is_hard_error(self):
        g = periodic_1d(64)
        x = g.coords(0)
        bad = np.cos(x)  # crosses zero
        with pytest.raises(PositivityError):
            velocity_from_field(Trajectory(g, (0.0,), bad[None]))

    def test_positivity_error_names_the_first_failing_time(self):
        g = periodic_1d(64)
        # rows 1 and 2 both fall below their floors; row 1 is the one named
        stack = np.stack([np.full(64, 1.0), np.full(64, 0.5), np.full(64, 2.0)])
        stack[1, 10] = -0.25
        stack[2, 20] = -1.0
        traj = Trajectory(g, (0.0, 0.25, 0.5), stack)
        first = "min G = -0.25 at t=0.25 is below the positivity floor 5e-13"
        with pytest.raises(PositivityError) as exc:
            velocity_from_field(traj)
        assert str(exc.value) == first
        report = BoundReport("floor", (BoundRecord(0.25, 0.035, 0), BoundRecord(0.5, 0.0125, 3)))
        with pytest.raises(PositivityError) as exc:
            velocity_from_field(traj, report)
        assert str(exc.value) == first + " (floor check worst violation 3.500e-02)"


class TestSolveNSE:
    def test_zero_problem(self):
        g = periodic_1d(64)
        u0 = VectorField(g, (np.zeros(64),))
        prob = NSEProblem(u0, (0.0,), 0.3, None, speed_bound=1.0, horizon=0.5)
        opts = SeriesOptions(time_steps=8, output_times=(0.25, 0.5))
        sol = solve_nse(prob, opts)
        assert max(VectorField(g, row).max_norm for _, row in sol.velocity) < 1e-12
        assert sol.floor_report.passed and sol.ceiling_report.passed

    def test_burgers_fixture(self):
        g = periodic_1d()
        x = g.coords(0)
        u0 = VectorField(g, (np.sin(x) / (1 + 0.5 * np.cos(x)),))
        prob = NSEProblem(u0, (0.0,), 0.0, None, speed_bound=2.0, horizon=0.5)
        opts = SeriesOptions(depth_max=16, rel_tolerance=1e-12, time_steps=32,
                             output_times=(0.25, 0.5))
        sol = solve_nse(prob, opts)
        want = np.exp(-0.5) * np.sin(x) / (1 + 0.5 * np.exp(-0.5) * np.cos(x))
        got = sol.velocity.at_time(0.5)[0]
        assert np.max(np.abs(got - want)) < 1e-4

    def test_gauge_invariance(self):
        g = periodic_1d()
        x = g.coords(0)
        u0 = VectorField(g, (np.sin(x) / (1 + 0.5 * np.cos(x)),))
        opts = SeriesOptions(depth_max=16, rel_tolerance=1e-12, time_steps=16, output_times=(0.5,))
        sols = [
            solve_nse(NSEProblem(u0, (0.0,), a, None, speed_bound=2.0, horizon=0.5), opts)
            for a in (0.0, 4.0)
        ]
        gap = np.max(np.abs(sols[0].velocity.at_time(0.5)[0]
                            - sols[1].velocity.at_time(0.5)[0]))
        assert gap < 1e-12
        # G itself scales by e^{-k/2}
        ratio = sols[1].series.trajectory.at_time(0.5) / sols[0].series.trajectory.at_time(0.5)
        assert np.max(np.abs(ratio - math.exp(-2.0))) < 1e-12

    def test_speed_bound_enforced(self):
        g = periodic_1d(64)
        u0 = VectorField(g, (np.full(64, 2.0),))
        with pytest.raises(ValueError, match="speed"):
            NSEProblem(u0, (0.0,), 0.0, None, speed_bound=1.0, horizon=0.5)

    def test_periodic_mean_flow_rejected(self):
        # phi = 0.5 x + (periodic part) is not periodic, so no torus G0 exists
        g = periodic_1d(128)
        u0 = VectorField(g, (0.5 + 0.3 * np.sin(g.coords(0)),))
        prob = NSEProblem(u0, (0.0,), 0.0, None, speed_bound=1.0, horizon=0.5)
        with pytest.raises(ValueError, match="mean 0.5"):
            solve_nse(prob)
        # a free-space grid has no wrap-around, so the same data stands
        free = Grid((128,), g.spacing, (0.0,), FreeSpaceTruncated())
        NSEProblem(VectorField(free, u0.components), (0.0,), 0.0, None, speed_bound=1.0, horizon=0.5)

    def test_positivity_invariant_holds(self):
        g = periodic_1d()
        x = g.coords(0)
        rng = np.random.default_rng(17)
        u0 = VectorField(g, (0.8 * np.sin(x + rng.uniform(0, 2 * np.pi)),))
        raw = Forcing.from_expression("0.6*cos(x)")
        prob = NSEProblem(u0, (0.0,), 0.0, raw, speed_bound=1.0, horizon=0.5)
        opts = SeriesOptions(depth_max=24, time_steps=32, output_times=(0.25, 0.5))
        sol = solve_nse(prob, opts)
        assert min(float(np.min(s)) for _, s in sol.series.trajectory) > 0.0


    def _curl_free_2d(self):
        g = periodic_2d(16)
        x, y = g.meshgrid()
        return VectorField(g, (0.3 * np.cos(x) * np.sin(y), 0.3 * np.sin(x) * np.cos(y)))

    @pytest.mark.parametrize("free", (False, True), ids=["periodic-2d", "free-space-2d"])
    def test_curl_checked_once_per_solve(self, monkeypatch, free):
        # a free-space field takes the same curl_residual call as a periodic one
        u0 = heat_velocity(free_2d(64)) if free else self._curl_free_2d()
        calls = []
        residual = cole_hopf.curl_residual

        def counted(u):
            calls.append(u)
            return residual(u)

        monkeypatch.setattr(cole_hopf, "curl_residual", counted)
        prob = NSEProblem(u0, (0.0, 0.0), 0.0, None, speed_bound=max(1.0, u0.max_norm),
                          horizon=0.25)
        sol = solve_nse(prob, SeriesOptions(time_steps=4, output_times=(0.125, 0.25)))
        assert sol.floor_report.passed
        assert len(calls) == 1

    def test_speed_read_once_per_entry_point(self, monkeypatch):
        # the problem's checks read the speed once, and so does the
        # potential reconstruction of a solve
        reads = []
        speed = VectorField.max_norm
        monkeypatch.setattr(VectorField, "max_norm", property(lambda u: reads.append(1) or speed.fget(u)))
        prob = NSEProblem(self._curl_free_2d(), (0.0, 0.0), 0.0, None, speed_bound=1.0,
                          horizon=0.25)
        assert len(reads) == 1
        solve_nse(prob, SeriesOptions(time_steps=4, output_times=(0.125, 0.25)))
        assert len(reads) == 2

    def test_rotational_data_rejected_by_solve(self):
        g = periodic_2d(32)
        x, y = g.meshgrid()
        u0 = VectorField(g, (-0.5 * np.sin(y), 0.5 * np.sin(x)))
        prob = NSEProblem(u0, (0.0, 0.0), 0.0, None, speed_bound=1.0, horizon=0.25)
        with pytest.raises(CurlError) as err:
            solve_nse(prob, SeriesOptions(time_steps=4))
        assert err.value.residual > 0.5


class TestNSEResidual:
    def test_zero_everything(self):
        g = periodic_1d(64)
        times = (0.0, 0.25, 0.5)
        u = Trajectory(g, times, np.zeros((3, 1, 64)))
        res = nse_residual(u, None)
        assert max(float(np.max(np.abs(s))) for _, s in res) == 0.0

    def test_needs_three_times(self):
        g = periodic_1d(64)
        u = Trajectory(g, (0.0, 0.5), np.zeros((2, 1, 64)))
        with pytest.raises(ValueError, match="3 output times"):
            nse_residual(u, None)

    def test_exact_solution_discretization_order(self):
        g = periodic_1d()
        x = g.coords(0)

        def exact(t):
            return np.exp(-t) * np.sin(x) / (1 + 0.5 * np.exp(-t) * np.cos(x))

        # uniform times, and times graded from 0.4x to 1.6x the mean step
        for grading in (0.0, -0.6):
            residuals = []
            for m in (8, 16):
                s = np.linspace(0.0, 1.0, m + 1)
                times = tuple(0.5 * (s + grading * s * (1 - s)))
                traj = Trajectory(g, times, np.array([[exact(t)] for t in times]))
                residuals.append(max(float(np.max(np.abs(r))) for _, r in nse_residual(traj, None)))
            # centered time differencing: one refinement shrinks it ~4x
            assert 2.5 < residuals[0] / residuals[1] < 6.0

    def test_forcing_sign_convention(self):
        # steady state u = 0 with p - f = 2 sin(x): residual must include
        # -grad(f - p) = grad(p - f) = 2 cos(x)
        g = periodic_1d(64)
        x = g.coords(0)
        times = (0.0, 0.25, 0.5)
        u = Trajectory(g, times, np.zeros((3, 1, 64)))
        raw = Forcing.from_expression("2*sin(x)")
        res = nse_residual(u, raw)
        want = np.abs(2.0 * np.cos(x))
        for _, snap in res:
            assert np.max(np.abs(snap - want)) < 1e-10

    def test_one_forward_transform_per_component(self, monkeypatch):
        # per interior time on a 3-D torus: the forcing gradient (1 forward,
        # 3 inverse), and each velocity component's gradient and Laplacian
        # from one forward transform (1 forward, 4 inverse)
        n = 8
        g = Grid((n,) * 3, (2 * np.pi / n,) * 3, (0.0,) * 3)
        x, y, z = g.meshgrid()
        times = (0.0, 0.25, 0.5, 0.75)
        u = Trajectory(g, times, np.array([(np.sin(y + t), np.sin(z), np.cos(x - t)) for t in times]))
        calls = []
        for name in ("forward", "inverse"):
            def counted(self, *args, _method=getattr(PaddedTorus, name), _name=name, **kwargs):
                calls.append(_name)
                return _method(self, *args, **kwargs)

            monkeypatch.setattr(PaddedTorus, name, counted)
        nse_residual(u, Forcing.from_expression("cos(x)*sin(t)"))
        assert calls.count("forward") == 2 * (1 + 3)
        assert calls.count("inverse") == 2 * (3 + 3 * 4)


def stack_grids():
    """A periodic 3-D grid and a free-space 2-D grid, with their meshes."""
    n = 16
    periodic = Grid((n,) * 3, (2 * np.pi / n,) * 3, (0.0,) * 3)
    free = Grid((24, 20), (0.4, 0.5), (-4.8, -5.0), FreeSpaceTruncated())
    return [pytest.param(periodic, id="periodic-3d"), pytest.param(free, id="free-2d")]


class TestStackPaths:
    """The trajectory operators act on whole stacks, row by row, and give
    the single-field operators' values bit for bit."""

    @staticmethod
    def _fields(grid, times):
        mesh = grid.meshgrid()
        G = np.array([1.5 + np.exp(-t) * np.cos(mesh[0]) * np.sin(mesh[-1] + t) for t in times])
        u = np.array([[np.sin(m + (d + 1) * t) * np.cos(mesh[0]) for d, m in enumerate(mesh)]
                      for t in times])
        return G, u

    @pytest.mark.parametrize("grid", stack_grids())
    def test_velocity_rows_match_the_single_field_gradient(self, grid):
        times = (0.0, 0.2, 0.5)
        G, _ = self._fields(grid, times)
        u = velocity_from_field(Trajectory(grid, times, G))
        assert u.values.shape == (3, grid.ndim, *grid.shape)
        for m, (t, row) in enumerate(u):
            want = [-2.0 * c / G[m] for c in _gradient(grid, G[m])]
            assert row.tobytes() == np.array(want).tobytes()

    @pytest.mark.parametrize("grid", stack_grids())
    @pytest.mark.parametrize("forced", (False, True), ids=["unforced", "forced"])
    def test_residual_matches_a_per_row_reference(self, grid, forced):
        times = (0.0, 0.1, 0.25, 0.45)
        _, values = self._fields(grid, times)
        p_minus_f = Forcing.from_expression("cos(x)*sin(t) + 0.5") if forced else None
        got = nse_residual(Trajectory(grid, times, values), p_minus_f)

        dudt = [np.gradient(np.stack([v[i] for v in values]), np.asarray(times), axis=0)
                for i in range(grid.ndim)]
        core = tuple(slice(None) if grid.is_periodic else slice(2, n - 2) for n in grid.shape)
        for j in range(1, len(times) - 1):
            u = [ScalarField(grid, c) for c in values[j]]
            if forced:
                force = _gradient(grid, p_minus_f.sample(grid, [times[j]])[0])
            worst = np.zeros(grid.shape)
            for i in range(grid.ndim):
                grad_ui = _gradient(grid, u[i].values)
                res = dudt[i][j]
                for l in range(grid.ndim):
                    res = res + u[l].values * grad_ui[l]
                res = res - _gradient_and_laplacian(grid, u[i].values)[1]
                if forced:
                    res = res + force[i]
                worst = np.maximum(worst, np.abs(res))
            want = np.zeros(grid.shape)
            want[core] = worst[core]
            assert got.times[j - 1] == times[j]
            assert got.values[j - 1].tobytes() == want.tobytes()


class TestWorstCaseBound:
    def test_small_c_limit(self):
        # r = 0, c -> 0+, a = 0: e^0 ((ct)^2/t + 2) -> 2 as ct^2 -> 0
        val = worst_case_upper_bound(0.0, 1.0, 1e-12, 0.0)
        assert abs(val - 2.0) < 1e-9

    def test_reference_point_high_precision(self):
        import mpmath

        mpmath.mp.dps = 40
        want = float(mpmath.e ** mpmath.mpf("0.75") * 6)
        got = worst_case_upper_bound(1.0, 1.0, 1.0, 0.0)
        assert abs(got - want) < 1e-12
        assert abs(got - 12.702000099676049) < 1e-12

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            worst_case_upper_bound(1.0, 0.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            worst_case_upper_bound(-1.0, 1.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            worst_case_upper_bound(1.0, 1.0, 0.0, 0.0)

    def test_lipschitz_potential_quadrature_below_bound(self):
        from duhamel import KernelApplication
        from duhamel.verify import random_lipschitz_potential

        n, extent = 48, 12.0
        h = extent / n
        g = Grid((n, n, n), (h, h, h), (-extent / 2,) * 3, FreeSpaceTruncated())
        mesh = g.meshgrid()
        rng = np.random.default_rng(55)
        for _ in range(3):
            c = rng.uniform(0.4, 1.2)
            a = rng.uniform(-0.5, 0.5)
            phi = random_lipschitz_potential(g, rng, c, a)
            field = ScalarField(g, np.exp(-0.5 * phi(*mesh)))
            for t, conv in zip((0.1, 0.4), KernelApplication(g, (0.1, 0.4)).apply(field)):
                for idx in ((24, 24, 24), (34, 28, 24), (40, 40, 40)):
                    r = math.sqrt(sum(mesh[d][idx] ** 2 for d in range(3)))
                    assert conv[idx] <= worst_case_upper_bound(r, t, c, a)
