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
    gradient,
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
        g = Grid((n,), (extent / n,), (0.0,), FreeSpaceTruncated(2.0))
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
        u0 = gradient(phi_exact)
        phi = potential_from_velocity(u0, (0.0, 0.0), 0.0)
        # the anchor value is imposed at the node nearest the origin
        i0 = g.nearest_node((0.0, 0.0))
        anchored = phi_exact.values - phi_exact.values[i0]
        assert np.max(np.abs(phi.values - anchored)) < 1e-6

    @pytest.mark.parametrize("where", ["first", "interior", "last"])
    def test_1d_anchor_node(self, where):
        # phi = sin(1.3x) + 0.2x^2 on [-4, 4]; each line is integrated once
        # and measured from the anchor, which may sit anywhere on it
        errors = []
        for n in (32, 64):
            g = Grid((n,), (8.0 / n,), (-4.0,), FreeSpaceTruncated(2.0))
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
        g = Grid((24, 20), (0.25, 0.25), (-3.0, -2.5), FreeSpaceTruncated(2.0))
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

    def test_rotational_data_rejected(self):
        g = periodic_2d(48)
        x, y = g.meshgrid()
        u0 = VectorField(g, (-np.sin(y), np.sin(x)))
        with pytest.raises(CurlError) as err:
            potential_from_velocity(u0, (0.0, 0.0), 0.0)
        assert err.value.residual > 1.0


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
        traj = Trajectory((0.0, 0.5), (ScalarField.constant(g, 2.0),) * 2)
        u = velocity_from_field(traj)
        assert max(s.max_norm for _, s in u) < 1e-13

    def test_gaussian_log_derivative(self):
        # G = e^{-x^2/(4(a+t))}  =>  u = -2 grad(log G) = x/(a+t)
        n, extent = 256, 24.0
        g = Grid((n,), (extent / n,), (-extent / 2,), FreeSpaceTruncated(2.0))
        x = g.coords(0)
        a = 2.0
        times = (0.0, 0.5)
        snaps = tuple(ScalarField(g, np.exp(-(x**2) / (4 * (a + t)))) for t in times)
        u = velocity_from_field(Trajectory(times, snaps))
        for t, snap in u:
            # FD error on the log-derivative grows with the Gaussian decay
            # rate, so compare where G is well resolved
            core = np.abs(x) <= 6.0
            want = x[core] / (a + t)
            assert np.max(np.abs(snap.components[0][core] - want)) < 1e-5

    def test_burgers_fixture_field(self):
        g = periodic_1d()
        x = g.coords(0)
        times = (0.0, 0.25, 0.5)
        snaps = tuple(ScalarField(g, 1 + 0.5 * np.exp(-t) * np.cos(x)) for t in times)
        u = velocity_from_field(Trajectory(times, snaps))
        for t, snap in u:
            want = np.exp(-t) * np.sin(x) / (1 + 0.5 * np.exp(-t) * np.cos(x))
            assert np.max(np.abs(snap.components[0] - want)) < 1e-11

    def test_positivity_breach_is_hard_error(self):
        g = periodic_1d(64)
        x = g.coords(0)
        bad = ScalarField(g, np.cos(x))  # crosses zero
        with pytest.raises(PositivityError):
            velocity_from_field(Trajectory((0.0,), (bad,)))


class TestSolveNSE:
    def test_zero_problem(self):
        g = periodic_1d(64)
        u0 = VectorField(g, (np.zeros(64),))
        prob = NSEProblem(u0, (0.0,), 0.3, None, speed_bound=1.0, horizon=0.5)
        opts = SeriesOptions(time_steps=8, output_times=(0.25, 0.5))
        sol = solve_nse(prob, opts)
        assert max(s.max_norm for _, s in sol.velocity) < 1e-12
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
        got = sol.velocity.at_time(0.5).components[0]
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
        gap = np.max(np.abs(sols[0].velocity.at_time(0.5).components[0]
                            - sols[1].velocity.at_time(0.5).components[0]))
        assert gap < 1e-12
        # G itself scales by e^{-k/2}
        ratio = sols[1].series.trajectory.at_time(0.5).values / sols[0].series.trajectory.at_time(0.5).values
        assert np.max(np.abs(ratio - math.exp(-2.0))) < 1e-12

    def test_speed_bound_enforced(self):
        g = periodic_1d(64)
        u0 = VectorField(g, (np.full(64, 2.0),))
        with pytest.raises(ValueError, match="speed"):
            NSEProblem(u0, (0.0,), 0.0, None, speed_bound=1.0, horizon=0.5)

    def test_positivity_invariant_holds(self):
        g = periodic_1d()
        x = g.coords(0)
        rng = np.random.default_rng(17)
        u0 = VectorField(g, (0.8 * np.sin(x + rng.uniform(0, 2 * np.pi)),))
        raw = Forcing.from_expression("0.6*cos(x)")
        prob = NSEProblem(u0, (0.0,), 0.0, raw, speed_bound=1.0, horizon=0.5)
        opts = SeriesOptions(depth_max=24, time_steps=32, output_times=(0.25, 0.5))
        sol = solve_nse(prob, opts)
        assert min(float(np.min(s.values)) for _, s in sol.series.trajectory) > 0.0


    def _curl_free_2d(self):
        g = periodic_2d(16)
        x, y = g.meshgrid()
        return VectorField(g, (0.3 * np.cos(x) * np.sin(y), 0.3 * np.sin(x) * np.cos(y)))

    def test_curl_checked_once_per_solve(self, monkeypatch):
        calls = []
        residual = cole_hopf.curl_residual

        def counted(u):
            calls.append(u)
            return residual(u)

        monkeypatch.setattr(cole_hopf, "curl_residual", counted)
        prob = NSEProblem(self._curl_free_2d(), (0.0, 0.0), 0.0, None, speed_bound=1.0,
                          horizon=0.25)
        sol = solve_nse(prob, SeriesOptions(time_steps=4, output_times=(0.125, 0.25)))
        assert sol.floor_report.passed
        assert len(calls) == 1

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
        u = Trajectory(times, tuple(VectorField(g, (np.zeros(64),)) for _ in times))
        res = nse_residual(u, None)
        assert max(s.max_abs for _, s in res) == 0.0

    def test_needs_three_times(self):
        g = periodic_1d(64)
        u = Trajectory((0.0, 0.5), (VectorField(g, (np.zeros(64),)),) * 2)
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
                traj = Trajectory(times, tuple(VectorField(g, (exact(t),)) for t in times))
                residuals.append(max(r.max_abs for _, r in nse_residual(traj, None)))
            # centered time differencing: one refinement shrinks it ~4x
            assert 2.5 < residuals[0] / residuals[1] < 6.0

    def test_forcing_sign_convention(self):
        # steady state u = 0 with p - f = 2 sin(x): residual must include
        # -grad(f - p) = grad(p - f) = 2 cos(x)
        g = periodic_1d(64)
        x = g.coords(0)
        times = (0.0, 0.25, 0.5)
        u = Trajectory(times, tuple(VectorField(g, (np.zeros(64),)) for _ in times))
        raw = Forcing.from_expression("2*sin(x)")
        res = nse_residual(u, raw)
        want = np.abs(2.0 * np.cos(x))
        for _, snap in res:
            assert np.max(np.abs(snap.values - want)) < 1e-10


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
        from duhamel import convolve
        from duhamel.verify import random_lipschitz_potential

        n, extent = 48, 12.0
        h = extent / n
        g = Grid((n, n, n), (h, h, h), (-extent / 2,) * 3, FreeSpaceTruncated(2.0))
        mesh = g.meshgrid()
        rng = np.random.default_rng(55)
        for _ in range(3):
            c = rng.uniform(0.4, 1.2)
            a = rng.uniform(-0.5, 0.5)
            phi = random_lipschitz_potential(g, rng, c, a)
            field = ScalarField(g, np.exp(-0.5 * phi(*mesh)))
            for t in (0.1, 0.4):
                conv = convolve(field, t)
                for idx in ((24, 24, 24), (34, 28, 24), (40, 40, 40)):
                    r = math.sqrt(sum(mesh[d][idx] ** 2 for d in range(3)))
                    assert conv.values[idx] <= worst_case_upper_bound(r, t, c, a)
