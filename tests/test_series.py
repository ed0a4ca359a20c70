"""Duhamel series solver: step operator, truncation, and invariants."""

import math
import tracemalloc

import numpy as np
import pytest

from duhamel import (
    Forcing,
    FreeSpaceTruncated,
    Grid,
    ScalarField,
    SeriesOptions,
    Trajectory,
    convolve,
    duhamel_step,
    solve_controlled_heat,
)
from duhamel.series import _f2, _phi1, _SpectralEngine
from duhamel.verify import fd_controlled_heat, make_manufactured


def periodic_1d(n=128):
    return Grid((n,), (2 * np.pi / n,), (0.0,))


def uniform_traj(grid, horizon, n_nodes, fn):
    times = np.linspace(0.0, horizon, n_nodes)
    snaps = tuple(ScalarField(grid, fn(t)) for t in times)
    return Trajectory(tuple(times), snaps)


class TestSeriesOptions:
    def test_validation(self):
        with pytest.raises(ValueError):
            SeriesOptions(depth_max=65)
        with pytest.raises(ValueError):
            SeriesOptions(rel_tolerance=1e-15)
        with pytest.raises(ValueError):
            SeriesOptions(time_steps=0)
        with pytest.raises(ValueError, match="empty"):
            SeriesOptions(output_times=())

    def test_output_times_must_be_nodes(self):
        opts = SeriesOptions(time_steps=10, output_times=(0.35,))
        with pytest.raises(ValueError, match="not a node"):
            opts.output_indices(1.0)
        opts_ok = SeriesOptions(time_steps=10, output_times=(0.3, 1.0))
        assert opts_ok.output_indices(1.0) == [3, 10]


class TestDuhamelStep:
    def test_zero_forcing_gives_zero(self):
        g = periodic_1d()
        traj = uniform_traj(g, 1.0, 9, lambda t: np.sin(g.coords(0)) * np.exp(-t))
        out = duhamel_step(traj, Forcing.zero())
        assert max(s.max_abs for _, s in out) == 0.0

    def test_constant_integrand_exact(self):
        # F = c with T == 1: constants pass through K, so T_next(t) = c t
        g = periodic_1d()
        traj = uniform_traj(g, 1.0, 17, lambda t: np.ones(128))
        out = duhamel_step(traj, Forcing.constant(0.7))
        worst = max(np.max(np.abs(s.values - 0.7 * t)) for t, s in out)
        assert worst < 1e-13

    def test_single_mode_analytic(self):
        # T = K*G0 with G0 = sin x and F = 1: the s-integrand e^{-(t-s)}e^{-s}
        # is constant in s, so the trapezoid rule is exact:
        # T_next(t) = t e^{-t} sin x
        g = periodic_1d()
        x = g.coords(0)
        traj = uniform_traj(g, 1.0, 65, lambda t: np.exp(-t) * np.sin(x))
        out = duhamel_step(traj, Forcing.constant(1.0))
        worst = max(np.max(np.abs(s.values - t * np.exp(-t) * np.sin(x))) for t, s in out)
        assert worst < 1e-6

    def test_free_space_path_matches_periodic(self):
        # same data under both application paths; budget covers quadrature
        n, extent = 64, 24.0
        h = extent / n
        gp = Grid((n,), (h,), (-extent / 2,))
        gf = Grid((n,), (h,), (-extent / 2,), FreeSpaceTruncated(2.0))
        x = gp.coords(0)

        def bump(t):
            return np.exp(-(x**2) / (4 * (0.5 + t)))

        tp = uniform_traj(gp, 0.5, 9, bump)
        tf = uniform_traj(gf, 0.5, 9, bump)
        F = Forcing.constant(1.0)
        op = duhamel_step(tp, F)
        of = duhamel_step(tf, F)
        gap = max(np.max(np.abs(a.values - b.values)) for (_, a), (_, b) in zip(op, of))
        assert gap < 1e-7

    def test_requires_uniform_grid_from_zero(self):
        g = periodic_1d()
        f = ScalarField.constant(g, 1.0)
        bad = Trajectory((0.1, 0.2), (f, f))
        with pytest.raises(ValueError, match="t = 0"):
            duhamel_step(bad, Forcing.zero())
        nonuniform = Trajectory((0.0, 0.1, 0.5), (f, f, f))
        with pytest.raises(ValueError, match="uniform"):
            duhamel_step(nonuniform, Forcing.zero())


class TestSolveControlledHeat:
    def test_zero_forcing_collapses_to_depth_zero(self):
        g = periodic_1d()
        x = g.coords(0)
        G0 = ScalarField(g, 1.0 + 0.5 * np.cos(x))
        opts = SeriesOptions(time_steps=16, output_times=(0.5,))
        sol = solve_controlled_heat(G0, Forcing.zero(), 0.5, opts)
        assert sol.truncation_depth == 0
        assert not sol.not_converged
        # the first order is exactly zero, so the series stops without it
        assert sol.metadata["stop_reason"] == "zero_tail"
        assert sol.metadata["order_norms"] == [float(np.max(np.abs(sol.terms[0][0].values)))]
        exact = convolve(G0, 0.5)
        assert np.max(np.abs(sol.trajectory.snapshots[0].values - exact.values)) < 1e-14

    def test_constant_forcing_exponential_terms(self):
        g = periodic_1d()
        c = 0.8
        opts = SeriesOptions(depth_max=20, rel_tolerance=1e-14, time_steps=16, output_times=(0.25, 1.0))
        sol = solve_controlled_heat(ScalarField.constant(g, 1.0), Forcing.constant(c), 1.0, opts)
        assert sol.metadata["stop_reason"] == "tolerance"
        assert sol.truncation_depth < 20
        for m, t in enumerate(sol.trajectory.times):
            assert np.max(np.abs(sol.trajectory.snapshots[m].values - math.exp(c * t))) < 1e-12
            for k, term in enumerate(sol.terms[m]):
                assert np.max(np.abs(term.values - (c * t) ** k / math.factorial(k))) < 1e-13

    def test_manufactured_solution(self):
        g = periodic_1d()
        case = make_manufactured("exp(0.4*sin(x)*exp(-t))", g, 0.5)
        opts = SeriesOptions(depth_max=30, rel_tolerance=1e-12, time_steps=96, output_times=(0.5,))
        sol = solve_controlled_heat(case.G0, case.F, 0.5, opts)
        err = np.max(np.abs(sol.trajectory.snapshots[0].values - case.exact_G(0.5).values))
        assert err < 5e-4

    def test_not_converged_flag(self):
        g = periodic_1d(64)
        opts = SeriesOptions(depth_max=2, rel_tolerance=1e-12, time_steps=8, output_times=(1.0,))
        sol = solve_controlled_heat(ScalarField.constant(g, 1.0), Forcing.constant(3.0), 1.0, opts)
        assert sol.not_converged
        assert sol.truncation_depth == 2
        assert sol.metadata["stop_reason"] == "depth_max"
        # one norm per emitted order, the sup over the output nodes
        assert sol.metadata["order_norms"] == [3.0**k / math.factorial(k) for k in range(3)]

    def test_rejects_bad_horizon(self):
        g = periodic_1d(64)
        with pytest.raises(ValueError):
            solve_controlled_heat(ScalarField.constant(g, 1.0), Forcing.zero(), 0.0)


class TestSeriesInvariants:
    def _solve(self, rel_tol=1e-12, time_steps=32, depth=24, out=(0.25, 0.5)):
        g = periodic_1d()
        x = g.coords(0)
        G0 = ScalarField(g, 1.0 + 0.4 * np.cos(x))
        F = Forcing.from_expression("0.6*sin(x) + 0.3*cos(2*x)*exp(-t)")
        opts = SeriesOptions(depth_max=depth, rel_tolerance=rel_tol, time_steps=time_steps,
                             output_times=out)
        return solve_controlled_heat(G0, F, 0.5, opts), G0, F

    def test_bitwise_reconstruction(self):
        sol, _, _ = self._solve()
        for m in range(len(sol.trajectory.times)):
            acc = sol.terms[m][0].values
            for term in sol.terms[m][1:]:
                acc = acc + term.values
            assert np.array_equal(acc, sol.trajectory.snapshots[m].values)

    def test_tail_estimate_honest_constant_case(self):
        g = periodic_1d(64)
        M = 1.1
        opts = SeriesOptions(depth_max=8, rel_tolerance=1e-14, time_steps=8, output_times=(1.0,))
        sol = solve_controlled_heat(ScalarField.constant(g, 1.0), Forcing.constant(M), 1.0, opts)
        d = sol.truncation_depth
        true_tail = math.exp(M) - sum(M**k / math.factorial(k) for k in range(d + 1))
        assert sol.estimated_truncation_error >= true_tail > 0

    def test_integral_equation_residual(self):
        # G - [K*G0 + int K*(F G)] stays within truncation + quadrature budget
        g = periodic_1d()
        x = g.coords(0)
        G0 = ScalarField(g, 1.0 + 0.4 * np.cos(x))
        F = Forcing.from_expression("0.6*sin(x)")
        nt = 64
        opts = SeriesOptions(depth_max=24, rel_tolerance=1e-12, time_steps=nt)
        sol = solve_controlled_heat(G0, F, 0.5, opts)
        dt = 0.5 / nt
        integral = duhamel_step(sol.trajectory, F)
        worst = 0.0
        for (t, gsnap), (_, integ) in zip(sol.trajectory, integral):
            recon = convolve(G0, t).values + integ.values
            worst = max(worst, float(np.max(np.abs(gsnap.values - recon))))
        quad_budget = 10.0 * dt**2
        assert worst <= sol.estimated_truncation_error + quad_budget

    def test_pde_residual_second_order(self):
        errs = []
        for nt in (16, 32, 64):
            sol, _, F = self._solve(time_steps=nt, out=None)
            times = np.asarray(sol.trajectory.times)
            vals = np.stack([s.values for s in sol.trajectory.snapshots])
            k2 = (2 * np.pi * np.fft.fftfreq(sol.grid.points[0], sol.grid.spacing[0])) ** 2
            worst = 0.0
            for j in range(1, len(times) - 1):
                dt = times[j + 1] - times[j]
                dgdt = (vals[j + 1] - vals[j - 1]) / (2 * dt)
                lap = np.fft.ifftn(-k2 * np.fft.fftn(vals[j])).real
                res = dgdt - lap - F.sample(sol.grid, [times[j]])[0] * vals[j]
                worst = max(worst, float(np.max(np.abs(res))))
            errs.append(worst)
        orders = [math.log2(a / b) for a, b in zip(errs, errs[1:])]
        assert all(1.4 <= o <= 2.6 for o in orders)

    def test_deeper_never_worse(self):
        g = periodic_1d()
        x = g.coords(0)
        G0 = ScalarField(g, 1.0 + 0.4 * np.cos(x))
        F = Forcing.from_expression("0.8*sin(x)")
        ref = solve_controlled_heat(
            G0, F, 0.5,
            SeriesOptions(depth_max=40, rel_tolerance=1e-14, time_steps=256, output_times=(0.5,)),
        ).trajectory.snapshots[0].values
        errs = []
        for depth in (2, 4, 8, 16):
            opts = SeriesOptions(depth_max=depth, rel_tolerance=1e-14, time_steps=256,
                                 output_times=(0.5,))
            sol = solve_controlled_heat(G0, F, 0.5, opts)
            errs.append(float(np.max(np.abs(sol.trajectory.snapshots[0].values - ref))))
        floor = 1e-11
        assert all(b <= a + floor for a, b in zip(errs, errs[1:]))

    def test_matches_cn_oracle(self):
        sol, G0, F = self._solve(time_steps=128, out=(0.5,))
        cn = fd_controlled_heat(G0, F, 0.5, 0.5 / 512, output_times=(0.5,))
        gap = np.max(np.abs(sol.trajectory.snapshots[0].values - cn.snapshots[0].values))
        assert gap / np.max(np.abs(cn.snapshots[0].values)) < 5e-3


class TestSourceTerm:
    def test_pure_source_integrates(self):
        # dG/dt = Lap G + S with S = 1, G0 = 0: G = t
        g = periodic_1d(64)
        opts = SeriesOptions(time_steps=16, output_times=(0.5, 1.0))
        sol = solve_controlled_heat(
            ScalarField.constant(g, 0.0), Forcing.zero(), 1.0, opts, source=Forcing.constant(1.0)
        )
        for t, snap in sol.trajectory:
            assert np.max(np.abs(snap.values - t)) < 1e-12

    def test_source_with_constant_forcing(self):
        # dG/dt = F G + S (flat in space): exact ODE solution via expm1
        g = periodic_1d(64)
        c, s = 0.7, 0.4
        opts = SeriesOptions(depth_max=30, rel_tolerance=1e-13, time_steps=64, output_times=(1.0,))
        sol = solve_controlled_heat(
            ScalarField.constant(g, 1.0), Forcing.constant(c), 1.0, opts, source=Forcing.constant(s)
        )
        exact = math.exp(c) + s / c * math.expm1(c)
        # the source stack is integrated at quadrature order, not gauge-exactly
        assert np.max(np.abs(sol.trajectory.snapshots[0].values - exact)) < 1e-4


class TestFreeSpaceConvergence:
    """Manufactured free-space solutions on the edge-padded torus."""

    # L_inf errors of the direct-quadrature engine this engine replaced,
    # at 16, 32 and 64 steps
    CASES = (
        (Grid((128,), (0.125,), (-8.0,), FreeSpaceTruncated(2.0)), (7.9e-5, 2.0e-5, 5.0e-6)),
        (Grid((48, 48), (0.25, 0.25), (-6.0, -6.0), FreeSpaceTruncated(2.0)),
         (2.2e-4, 5.9e-5, 1.4e-4)),
    )

    @pytest.mark.parametrize("grid,earlier", CASES, ids=("1d", "2d"))
    def test_gaussian_manufactured_second_order(self, grid, earlier):
        # G = exp(a), a = e^{-t} exp(-|x|^2/2) / 2 solves the controlled heat
        # equation with F = a_t - Lap a - |grad a|^2 = (n - 1 - r^2) a - r^2 a^2
        r2 = sum(m * m for m in grid.meshgrid())

        def a(t):
            return 0.5 * np.exp(-t) * np.exp(-r2 / 2)

        times = np.linspace(0.0, 0.5, 65)
        F = Forcing.from_samples(
            times, [ScalarField(grid, (grid.ndim - 1 - r2) * a(t) - r2 * a(t) ** 2) for t in times]
        )
        G0 = ScalarField(grid, np.exp(a(0.0)))
        errs = []
        for nt in (16, 32, 64):
            opts = SeriesOptions(depth_max=24, rel_tolerance=1e-12, time_steps=nt,
                                 output_times=(0.25, 0.5))
            sol = solve_controlled_heat(G0, F, 0.5, opts)
            errs.append(max(float(np.max(np.abs(snap.values - np.exp(a(t)))))
                            for t, snap in sol.trajectory))
        assert all(e <= b for e, b in zip(errs, earlier))
        orders = [math.log2(e0 / e1) for e0, e1 in zip(errs, errs[1:])]
        assert all(1.8 <= o <= 2.2 for o in orders)

    @pytest.mark.parametrize("ndim", (1, 2))
    def test_time_constant_gaussian_source(self, ndim):
        # G0 = 0, F = 0, S = exp(-|x|^2 / 4a): G(t) = int_0^t K(tau) * S dtau,
        # and K(tau) * S = (a / (a + tau))^(n/2) exp(-|x|^2 / 4(a + tau))
        from scipy.special import erfc, exp1

        a, horizon = 0.5, 0.5
        if ndim == 1:
            grid = Grid((128,), (0.125,), (-8.0,), FreeSpaceTruncated(2.0))
            r = np.abs(grid.coords(0))

            def antiderivative(s):
                c = r * r / 4
                return 2 * np.sqrt(s) * np.exp(-c / s) - np.sqrt(np.pi) * r * erfc(np.sqrt(c / s))

            def exact(t):
                return np.sqrt(a) * (antiderivative(a + t) - antiderivative(a))
        else:
            grid = Grid((48, 48), (0.25, 0.25), (-6.0, -6.0), FreeSpaceTruncated(2.0))
            x, y = grid.meshgrid()
            r2 = x * x + y * y

            def exact(t):
                return a * (exp1(r2 / (4 * (a + t))) - exp1(r2 / (4 * a)))

        r2_all = sum(m * m for m in grid.meshgrid())
        source = Forcing.from_samples((0.0, horizon), [ScalarField(grid, np.exp(-r2_all / (4 * a)))] * 2)
        for nt in (16, 32, 64):
            opts = SeriesOptions(time_steps=nt, output_times=(0.25, 0.5))
            sol = solve_controlled_heat(ScalarField.constant(grid, 0.0), Forcing.zero(), horizon, opts,
                                        source=source)
            err = max(float(np.max(np.abs(snap.values - exact(t)))) for t, snap in sol.trajectory)
            assert err < 1e-6


class TestQuadratureWeights:
    def test_weights_against_mpmath(self):
        # phi1(z) = 1F1(1; 2; -z) and f2(z) = 1F1(2; 3; -z) / 2 to 40 digits
        mpmath = pytest.importorskip("mpmath")
        z = np.concatenate([[0.0, 1e-300, 1e-12], np.logspace(-8, math.log10(50.0), 400),
                            [0.05, 0.051, np.nextafter(2.0, 0.0), 2.0, 50.0]])
        got_f2, got_phi1 = _f2(z), _phi1(z)
        with mpmath.workdps(40):
            for zi, f2, p1 in zip(z, got_f2, got_phi1):
                want_f2 = mpmath.hyp1f1(2, 3, -zi) / 2
                want_p1 = mpmath.hyp1f1(1, 2, -zi)
                assert abs(float(mpmath.mpf(float(f2)) / want_f2 - 1)) <= 1e-15, zi
                assert abs(float(mpmath.mpf(float(p1)) / want_p1 - 1)) <= 1e-15, zi


class TestEngineMemory:
    @pytest.mark.parametrize("boundary", (None, FreeSpaceTruncated(2.0)))
    def test_stored_nodes_own_their_memory(self, boundary):
        # each node stack must be a grid-sized real array, not a view of a
        # complex or padded buffer
        grid = periodic_1d(64) if boundary is None else Grid((64,), (0.25,), (-8.0,), boundary)
        engine = _SpectralEngine(grid, 0.05, 8)
        g = np.cos(grid.coords(0))
        stacks = (engine.propagate_initial(g), engine.sweep(np.stack([g] * 9)))
        for stack in stacks:
            assert stack.shape == (9, 64) and stack.dtype == np.float64
            owner = stack
            while owner.base is not None:
                owner = owner.base
            assert owner.nbytes == 9 * g.nbytes

    def test_memory_does_not_grow_with_depth_at_all_nodes(self):
        # going deeper may keep each new order at the output nodes (its term
        # and its gauge-centered order), never at all nodes
        n, steps = 64, 32
        g = Grid((n, n), (2 * np.pi / n,) * 2, (0.0, 0.0))
        x, y = g.meshgrid()
        G0 = ScalarField(g, 1.0 + 0.3 * np.cos(x) * np.sin(y))
        F = Forcing.from_expression("4*sin(x)*cos(y) + 2*cos(x + t)")
        out = (0.25, 0.5, 0.75, 1.0)

        def peak(depth):
            opts = SeriesOptions(depth_max=depth, rel_tolerance=1e-14, time_steps=steps,
                                 output_times=out)
            tracemalloc.start()
            try:
                sol = solve_controlled_heat(G0, F, 1.0, opts)
                return tracemalloc.get_traced_memory()[1], sol
            finally:
                tracemalloc.stop()

        shallow, sol3 = peak(3)
        deep, sol12 = peak(12)
        assert (sol3.truncation_depth, sol12.truncation_depth) == (3, 12)
        field_bytes = 8 * n * n
        allowed = 2 * (12 - 3) * len(out) * field_bytes + (steps + 1) * field_bytes
        assert deep - shallow <= allowed


class TestEngineStacking:
    @pytest.mark.parametrize("grid", [
        periodic_1d(64),
        Grid((64,), (0.25,), (-8.0,), FreeSpaceTruncated(2.0)),
        Grid((16, 12), (0.4, 0.5), (-3.0, -3.0), FreeSpaceTruncated(1.5)),
        Grid((8, 10, 9), (0.5, 0.4, 0.5), (-2.0, -2.0, -2.0), FreeSpaceTruncated(2.0)),
    ], ids=["periodic-1d", "free-1d", "free-2d", "free-3d"])
    def test_stacked_and_per_node_transforms_agree_bitwise(self, grid):
        engine = _SpectralEngine(grid, 0.05, 8)
        rng = np.random.default_rng(9)
        g0 = rng.normal(size=grid.shape)
        integrand = rng.normal(size=(9,) + grid.shape)
        factor = rng.normal(size=(9,) + grid.shape)
        results = {}
        for stacked in (True, False):
            engine.stacked = stacked
            results[stacked] = (engine.propagate_initial(g0), engine.sweep(integrand),
                                engine.sweep(integrand, factor))
        for a, b in zip(results[True], results[False]):
            assert a.tobytes() == b.tobytes()
        # the per-node path forms each node's product; it equals the whole product's sweep
        assert results[False][2].tobytes() == engine.sweep(factor * integrand).tobytes()


class TestStreaming:
    def _count_calls(self, monkeypatch):
        calls = {"sample": 0, "sweep": 0}
        sample, sweep = Forcing.sample, _SpectralEngine.sweep

        def counted_sample(self, grid, times):
            calls["sample"] += 1
            return sample(self, grid, times)

        def counted_sweep(self, *args):
            calls["sweep"] += 1
            return sweep(self, *args)

        monkeypatch.setattr(Forcing, "sample", counted_sample)
        monkeypatch.setattr(_SpectralEngine, "sweep", counted_sweep)
        return calls

    @pytest.mark.parametrize("depth_max", (4, 24))
    def test_one_sample_and_one_sweep_per_emitted_order(self, monkeypatch, depth_max):
        calls = self._count_calls(monkeypatch)
        g = periodic_1d()
        G0 = ScalarField(g, 1.0 + 0.4 * np.cos(g.coords(0)))
        F = Forcing.from_expression("0.6*sin(x) + 0.3*cos(2*x)*exp(-t)")
        opts = SeriesOptions(depth_max=depth_max, time_steps=32, output_times=(0.25, 0.5))
        sol = solve_controlled_heat(G0, F, 0.5, opts)
        assert sol.metadata["stop_reason"] == ("depth_max" if depth_max == 4 else "tolerance")
        assert calls == {"sample": 1, "sweep": sol.truncation_depth}

    def test_source_forcing_sampled_once(self, monkeypatch):
        calls = self._count_calls(monkeypatch)
        g = periodic_1d(64)
        source = Forcing.from_expression("cos(x)*exp(-t)")
        opts = SeriesOptions(time_steps=16, output_times=(0.5,))
        sol = solve_controlled_heat(ScalarField.constant(g, 1.0), Forcing.from_expression("0.5*sin(x)"),
                                    0.5, opts, source=source)
        assert calls["sample"] == 2
        # the source's zeroth order, then at most one sweep per recursion and order
        assert calls["sweep"] <= 1 + 2 * sol.truncation_depth

    def test_order_norms_are_term_sups(self):
        g = periodic_1d()
        G0 = ScalarField(g, 1.0 + 0.4 * np.cos(g.coords(0)))
        F = Forcing.from_expression("0.6*sin(x) + 0.3*cos(2*x)*exp(-t)")
        opts = SeriesOptions(time_steps=32, output_times=(0.25, 0.5))
        sol = solve_controlled_heat(G0, F, 0.5, opts)
        want = [max(float(np.max(np.abs(terms[k].values))) for terms in sol.terms)
                for k in range(sol.truncation_depth + 1)]
        assert sol.metadata["order_norms"] == want
