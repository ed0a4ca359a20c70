"""The oracle layer itself: FD steppers, manufactured cases, random test data."""

import math

import numpy as np
import pytest

from duhamel import Forcing, FreeSpaceTruncated, Grid, ScalarField
from duhamel.verify import (
    band_limited_field,
    fd_burgers,
    fd_controlled_heat,
    make_manufactured,
    random_lipschitz_potential,
)


def periodic_1d(n=256):
    return Grid((n,), (2 * np.pi / n,), (0.0,))


class TestCrankNicolson:
    def test_heat_mode(self):
        g = periodic_1d()
        x = g.coords(0)
        out = fd_controlled_heat(ScalarField(g, np.sin(x)), Forcing.zero(), 0.5, 0.5 / 256,
                                 output_times=(0.5,))
        err = np.max(np.abs(out.snapshots[0].values - math.exp(-0.5) * np.sin(x)))
        assert err < 5e-6

    def test_constant_forcing_exponential(self):
        g = periodic_1d(64)
        out = fd_controlled_heat(ScalarField.constant(g, 1.0), Forcing.constant(0.7), 0.5,
                                 0.5 / 128, output_times=(0.5,))
        assert np.max(np.abs(out.snapshots[0].values - math.exp(0.35))) < 1e-5

    def test_self_convergence_second_order(self):
        g = periodic_1d()
        x = g.coords(0)
        G0 = ScalarField(g, np.sin(x))
        exact = math.exp(-0.5) * np.sin(x)
        errs = []
        for n in (64, 128, 256):
            out = fd_controlled_heat(G0, Forcing.zero(), 0.5, 0.5 / n, output_times=(0.5,))
            errs.append(np.max(np.abs(out.snapshots[0].values - exact)))
        for a, b in zip(errs, errs[1:]):
            assert 4.0 * 0.7 <= a / b <= 4.0 * 1.3

    def test_requires_periodic_1d(self):
        g = Grid((64,), (0.1,), (0.0,))
        bad = Grid((64,), (0.1,), (0.0,), boundary=FreeSpaceTruncated(2.0))
        with pytest.raises(ValueError):
            fd_controlled_heat(ScalarField.constant(bad, 1.0), Forcing.zero(), 0.5, 0.1)
        with pytest.raises(ValueError):
            fd_controlled_heat(ScalarField.constant(g, 1.0), Forcing.zero(), 0.5, 0.3)


class TestBurgersOracle:
    def test_zero_stays_zero(self):
        g = periodic_1d(64)
        out = fd_burgers(ScalarField.constant(g, 0.0), 0.1, 0.001)
        assert max(s.max_abs for _, s in out) == 0.0

    def test_fixture_within_order_budget(self):
        g = periodic_1d()
        x = g.coords(0)
        h = g.spacing[0]
        u0 = ScalarField(g, np.sin(x) / (1 + 0.5 * np.cos(x)))
        steps = int(np.ceil(0.5 / (0.9 * h * h / 2)))
        dt = 0.5 / steps
        out = fd_burgers(u0, 0.5, dt, output_times=(0.5,))
        want = np.exp(-0.5) * np.sin(x) / (1 + 0.5 * np.exp(-0.5) * np.cos(x))
        err = np.max(np.abs(out.snapshots[0].values - want))
        assert err < 10 * (dt + h * h)

    def test_momentum_conserved(self):
        g = periodic_1d()
        x = g.coords(0)
        h = g.spacing[0]
        u0 = ScalarField(g, np.sin(x) / (1 + 0.5 * np.cos(x)))
        dt = 0.9 * h * h / 2
        out = fd_burgers(u0, 500 * dt, dt)
        m0 = float(np.sum(out.snapshots[0].values)) * h
        m1 = float(np.sum(out.snapshots[-1].values)) * h
        assert abs(m1 - m0) < 1e-8

    def test_cfl_rejection(self):
        g = periodic_1d(64)
        u0 = ScalarField(g, np.sin(g.coords(0)))
        with pytest.raises(ValueError, match="CFL"):
            fd_burgers(u0, 0.5, 0.01)


class TestManufactured:
    def test_exponential_gives_constant_forcing(self):
        g = periodic_1d(64)
        case = make_manufactured("exp(0.7*t)", g, 1.0)
        vals = case.F.sample(g, [0.33])
        assert np.max(np.abs(vals - 0.7)) < 1e-12
        assert np.max(np.abs(case.G0.values - 1.0)) < 1e-12

    def test_heat_mode_gives_zero_forcing(self):
        g = periodic_1d()
        case = make_manufactured("1 + 0.5*exp(-t)*cos(x)", g, 1.0)
        assert np.max(np.abs(case.F.sample(g, [0.0, 0.5, 1.0]))) < 1e-9

    def test_generic_case_solves(self):
        from duhamel import SeriesOptions, solve_controlled_heat

        g = periodic_1d(128)
        case = make_manufactured("exp(sin(x)*exp(-t))", g, 0.5)
        opts = SeriesOptions(depth_max=30, rel_tolerance=1e-12, time_steps=128,
                             output_times=(0.5,))
        sol = solve_controlled_heat(case.G0, case.F, 0.5, opts)
        err = np.max(np.abs(sol.trajectory.snapshots[0].values - case.exact_G(0.5).values))
        assert err < 5e-4

    def test_exact_velocity_is_log_derivative(self):
        g = periodic_1d()
        x = g.coords(0)
        case = make_manufactured("1 + 0.5*exp(-t)*cos(x)", g, 1.0)
        u = case.exact_u(0.3)
        want = np.exp(-0.3) * np.sin(x) / (1 + 0.5 * np.exp(-0.3) * np.cos(x))
        assert np.max(np.abs(u.components[0] - want)) < 1e-12

    def test_positivity_rejected_with_witness(self):
        g = periodic_1d(64)
        with pytest.raises(ValueError, match="strictly positive"):
            make_manufactured("cos(x)", g, 1.0)


class TestRandomData:
    def test_band_limited_bounds(self):
        g = periodic_1d()
        rng = np.random.default_rng(1)
        f = band_limited_field(g, rng, max_mode=3, amplitude=0.7, offset=2.0)
        assert np.max(np.abs(f.values - 2.0)) <= 0.7 + 1e-12

    def test_lipschitz_potential_certificates(self):
        h = 0.25
        g3 = Grid((8, 8, 8), (h, h, h), (-1.0, -1.0, -1.0), FreeSpaceTruncated(2.0))
        rng = np.random.default_rng(2)
        c, a = 0.9, 0.4
        phi = random_lipschitz_potential(g3, rng, c, a)
        assert abs(float(phi(0.0, 0.0, 0.0)) - a) < 1e-12
        # gradient bound via dense FD sampling
        xs = np.linspace(-1, 1, 21)
        X, Y, Z = np.meshgrid(xs, xs, xs, indexing="ij")
        vals = phi(X, Y, Z)
        gmax = np.max(np.sqrt(sum(np.gradient(vals, xs[1] - xs[0], axis=d) ** 2 for d in range(3))))
        assert gmax <= c * (1 + 1e-6)


class TestEndToEndOrders:
    def test_burgers_fixture_order_at_least_one(self):
        # combined grid+CFL refinement of the FD Burgers path vs closed form
        errs = []
        for n in (64, 128, 256):
            g = periodic_1d(n)
            x = g.coords(0)
            h = g.spacing[0]
            u0 = ScalarField(g, np.sin(x) / (1 + 0.5 * np.cos(x)))
            steps = int(np.ceil(0.25 / (0.9 * h * h / 2)))
            dt = 0.25 / steps
            out = fd_burgers(u0, 0.25, dt, output_times=(0.25,))
            want = np.exp(-0.25) * np.sin(x) / (1 + 0.5 * np.exp(-0.25) * np.cos(x))
            errs.append(float(np.max(np.abs(out.snapshots[0].values - want))))
        orders = [np.log2(a / b) for a, b in zip(errs, errs[1:])]
        assert all(o >= 1.0 for o in orders)

    def test_manufactured_never_plateaus_above_budget(self):
        # combined time/space refinement of the series on a manufactured case
        from duhamel import SeriesOptions, solve_controlled_heat

        errs, budgets = [], []
        for n, nt in ((64, 32), (128, 64), (256, 128)):
            g = periodic_1d(n)
            case = make_manufactured("exp(0.4*sin(x)*exp(-t))", g, 0.5)
            opts = SeriesOptions(depth_max=30, rel_tolerance=1e-12, time_steps=nt,
                                 output_times=(0.5,))
            sol = solve_controlled_heat(case.G0, case.F, 0.5, opts)
            err = float(np.max(np.abs(
                sol.trajectory.snapshots[0].values - case.exact_G(0.5).values)))
            errs.append(err)
            dt = 0.5 / nt
            budgets.append(sol.estimated_truncation_error + 10.0 * dt**2)
        assert all(b <= a for a, b in zip(errs, errs[1:]))
        assert all(e <= b for e, b in zip(errs, budgets))
