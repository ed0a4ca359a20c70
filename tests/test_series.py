"""Duhamel series solver: step operator, truncation, and invariants."""

import math
import tracemalloc

import numpy as np
import pytest

from duhamel import (
    Forcing,
    FreeSpaceTruncated,
    Grid,
    KernelApplication,
    ScalarField,
    SeriesOptions,
    Trajectory,
    solve_controlled_heat,
)
from duhamel import heat_kernel
from duhamel.grid import padded_torus
from duhamel.heat_kernel import _f2, _phi1
from duhamel.verify import fd_controlled_heat, make_manufactured


def duhamel_step(term_trajectory: Trajectory, F: Forcing) -> Trajectory:
    """Next series order from the full trajectory of the previous one: the
    reference quadrature the solver's ETD sweeps are checked against.

    ``T_next(t_j) = int_0^{t_j} K(t_j - s) * (F(s) T(s)) ds`` evaluated by
    the composite trapezoid over the trajectory nodes, each K(m dt) applied
    on the grid's torus; the s = t endpoint enters through the identity
    convolution.  The trajectory must start at t = 0 on a uniform node grid.
    The torus's ``scale`` rides on the step weight ``dt`` to normalise its
    inverse transform.
    """
    times = np.asarray(term_trajectory.times)
    if times[0] != 0.0:
        raise ValueError("term trajectory must start at t = 0")
    if len(times) < 2:
        raise ValueError("need at least two nodes for a Duhamel step")
    dt = float(times[1] - times[0])
    if np.max(np.abs(np.diff(times) - dt)) > 1e-9 * dt:
        raise ValueError("term trajectory must live on a uniform s-grid")
    grid = term_trajectory.grid
    torus = padded_torus(grid)
    decay = np.exp(-dt * torus.k2)
    f_stack = F.sample(grid, times)
    nodes = (torus.forward(fv * snap) for fv, snap in zip(f_stack, term_trajectory.values))
    first = next(nodes)
    run = first.copy()  # sum_i decay^(j-i) ghat_i, full weights
    symbol_j = np.ones_like(decay)
    out = [np.zeros(grid.shape)]
    for ghat in nodes:
        run = run * decay + ghat
        symbol_j = symbol_j * decay
        weighted = run - 0.5 * symbol_j * first - 0.5 * ghat
        out.append(torus.inverse((torus.scale * dt) * weighted))
    return Trajectory(grid, times, np.array(out))


def periodic_1d(n=128):
    return Grid((n,), (2 * np.pi / n,), (0.0,))


def uniform_traj(grid, horizon, n_nodes, fn):
    times = np.linspace(0.0, horizon, n_nodes)
    return Trajectory(grid, times, np.array([fn(t) for t in times]))


def swept(kernel, stack, factor=None, initial=None):
    """A copy of ``stack`` that ``kernel`` has swept in place."""
    out = stack.copy()
    kernel.sweep(out, factor, initial)
    return out


def sweep_kernel(grid):
    """The kernel over the nodes the engine tests sweep: 8 steps of 0.05."""
    return KernelApplication(grid, np.linspace(0.0, 0.4, 9))


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

    @pytest.mark.parametrize("bad", [float("inf"), float("nan")])
    def test_output_times_must_be_finite(self, bad):
        with pytest.raises(ValueError, match=rf"^output_times must be finite, got \[{bad}\]$"):
            SeriesOptions(output_times=(0.5, bad))

    def test_output_times_must_be_nodes(self):
        opts = SeriesOptions(time_steps=10, output_times=(0.35,))
        with pytest.raises(ValueError, match="not a node"):
            opts.output_indices(1.0)
        opts_ok = SeriesOptions(time_steps=10, output_times=(0.3, 1.0))
        assert opts_ok.output_indices(1.0) == [3, 10]

    @pytest.mark.parametrize("times, message", [
        # 1e-9 * horizon tolerance: both times match node 0
        ((0.5, 1.0), "output times 0.5 and 1.0 both fall on s-grid node 0"),
        ((0.5, 0.5), "output times must be strictly increasing s-grid nodes"),
        ((1.0, 0.5), "output times must be strictly increasing s-grid nodes"),
    ], ids=["one-node", "repeated", "decreasing"])
    def test_output_times_on_one_node_are_named(self, times, message):
        opts = SeriesOptions(time_steps=3, output_times=times)
        with pytest.raises(ValueError, match=f"^{message}$"):
            opts.output_indices(1.7976931348623157e308)

    def test_nodes_up_to_the_largest_double(self):
        # 3 * (horizon / 3) rounds past double range; the last node is the horizon itself
        horizon = np.finfo(float).max
        nodes = SeriesOptions(time_steps=3).nodes(horizon)
        assert np.isfinite(nodes).all() and nodes[-1] == horizon
        np.testing.assert_array_equal(nodes[:3], np.arange(3) * (horizon / 3))


class TestDuhamelStep:
    def test_zero_forcing_gives_zero(self):
        g = periodic_1d()
        traj = uniform_traj(g, 1.0, 9, lambda t: np.sin(g.coords(0)) * np.exp(-t))
        out = duhamel_step(traj, Forcing.zero())
        assert max(float(np.max(np.abs(s))) for _, s in out) == 0.0

    def test_constant_integrand_exact(self):
        # F = c with T == 1: constants pass through K, so T_next(t) = c t
        g = periodic_1d()
        traj = uniform_traj(g, 1.0, 17, lambda t: np.ones(128))
        out = duhamel_step(traj, Forcing.constant(0.7))
        worst = max(np.max(np.abs(s - 0.7 * t)) for t, s in out)
        assert worst < 1e-13

    def test_single_mode_analytic(self):
        # T = K*G0 with G0 = sin x and F = 1: the s-integrand e^{-(t-s)}e^{-s}
        # is constant in s, so the trapezoid rule is exact:
        # T_next(t) = t e^{-t} sin x
        g = periodic_1d()
        x = g.coords(0)
        traj = uniform_traj(g, 1.0, 65, lambda t: np.exp(-t) * np.sin(x))
        out = duhamel_step(traj, Forcing.constant(1.0))
        worst = max(np.max(np.abs(s - t * np.exp(-t) * np.sin(x))) for t, s in out)
        assert worst < 1e-6

    def test_free_space_path_matches_periodic(self):
        # same data under both application paths; budget covers quadrature
        n, extent = 64, 24.0
        h = extent / n
        gp = Grid((n,), (h,), (-extent / 2,))
        gf = Grid((n,), (h,), (-extent / 2,), FreeSpaceTruncated())
        x = gp.coords(0)

        def bump(t):
            return np.exp(-(x**2) / (4 * (0.5 + t)))

        tp = uniform_traj(gp, 0.5, 9, bump)
        tf = uniform_traj(gf, 0.5, 9, bump)
        F = Forcing.constant(1.0)
        op = duhamel_step(tp, F)
        of = duhamel_step(tf, F)
        gap = max(np.max(np.abs(a - b)) for (_, a), (_, b) in zip(op, of))
        assert gap < 1e-7

    def test_requires_uniform_grid_from_zero(self):
        g = periodic_1d()
        f = np.ones(g.shape)
        bad = Trajectory(g, (0.1, 0.2), [f, f])
        with pytest.raises(ValueError, match="t = 0"):
            duhamel_step(bad, Forcing.zero())
        nonuniform = Trajectory(g, (0.0, 0.1, 0.5), [f, f, f])
        with pytest.raises(ValueError, match="uniform"):
            duhamel_step(nonuniform, Forcing.zero())
        uniform = Trajectory(g, (0.0, 0.5, 1.0), [f, f, f])
        assert len(duhamel_step(uniform, Forcing.zero())) == 3


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
        assert sol.metadata["order_norms"] == [float(np.max(np.abs(sol.terms[0][0])))]
        exact = 1.0 + 0.5 * math.exp(-0.5) * np.cos(x)
        assert np.max(np.abs(sol.trajectory.values[0] - exact)) < 1e-14

    def test_constant_forcing_exponential_terms(self):
        g = periodic_1d()
        c = 0.8
        opts = SeriesOptions(depth_max=20, rel_tolerance=1e-14, time_steps=16, output_times=(0.25, 1.0))
        sol = solve_controlled_heat(ScalarField.constant(g, 1.0), Forcing.constant(c), 1.0, opts)
        assert sol.metadata["stop_reason"] == "tolerance"
        assert sol.truncation_depth < 20
        for m, t in enumerate(sol.trajectory.times):
            assert np.max(np.abs(sol.trajectory.values[m] - math.exp(c * t))) < 1e-12
            for k, term in enumerate(sol.terms):
                assert np.max(np.abs(term[m] - (c * t) ** k / math.factorial(k))) < 1e-13

    def test_manufactured_solution(self):
        g = periodic_1d()
        case = make_manufactured("exp(0.4*sin(x)*exp(-t))", g, 0.5)
        opts = SeriesOptions(depth_max=30, rel_tolerance=1e-12, time_steps=96, output_times=(0.5,))
        sol = solve_controlled_heat(case.G0, case.F, 0.5, opts)
        err = np.max(np.abs(sol.trajectory.values[0] - case.exact_G(0.5).values))
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
    def _solve(self, rel_tol=1e-12, time_steps=32, depth=24, out=(0.25, 0.5), source=None):
        g = periodic_1d()
        x = g.coords(0)
        G0 = ScalarField(g, 1.0 + 0.4 * np.cos(x))
        F = Forcing.from_expression("0.6*sin(x) + 0.3*cos(2*x)*exp(-t)")
        opts = SeriesOptions(depth_max=depth, rel_tolerance=rel_tol, time_steps=time_steps,
                             output_times=out)
        return solve_controlled_heat(G0, F, 0.5, opts, source=source), G0, F

    @staticmethod
    def _assert_terms_fold_to_trajectory(sol):
        # the terms, built from the stored orders on first access, left-fold
        # to the trajectory byte for byte
        assert sol.truncation_depth >= 3
        assert sol.terms is sol.terms
        for m in range(len(sol.trajectory.times)):
            acc = sol.terms[0][m]
            for term in sol.terms[1:]:
                acc = acc + term[m]
            assert acc.tobytes() == sol.trajectory.values[m].tobytes()

    def test_bitwise_reconstruction(self):
        sol, _, _ = self._solve()
        self._assert_terms_fold_to_trajectory(sol)

    def test_bitwise_reconstruction_with_source(self):
        sol, _, _ = self._solve(source=Forcing.from_expression("0.2*cos(x)*exp(-t)"))
        self._assert_terms_fold_to_trajectory(sol)

    def test_tail_estimate_honest_constant_case(self):
        g = periodic_1d(64)
        M = 1.1
        opts = SeriesOptions(depth_max=8, rel_tolerance=1e-14, time_steps=8, output_times=(1.0,))
        sol = solve_controlled_heat(ScalarField.constant(g, 1.0), Forcing.constant(M), 1.0, opts)
        d = sol.truncation_depth
        true_tail = math.exp(M) - sum(M**k / math.factorial(k) for k in range(d + 1))
        assert sol.estimated_truncation_error >= true_tail > 0

    @pytest.mark.parametrize("g0", (0.0, 1.0))
    def test_tail_estimate_bounds_source_truncation(self, g0):
        # dG/dt = F G + S with constant F and S: G = e^(F t) G0 + (S/F)(e^(F t) - 1)
        g = periodic_1d(64)
        F, S = 0.7, 0.4
        opts = SeriesOptions(depth_max=3, time_steps=512)
        sol = solve_controlled_heat(ScalarField.constant(g, g0), Forcing.constant(F), 1.0, opts,
                                    source=Forcing.constant(S))
        assert sol.metadata["stop_reason"] == "depth_max"
        error = max(float(np.max(np.abs(snap - (math.exp(F * t) * g0 + S / F * math.expm1(F * t)))))
                    for t, snap in sol.trajectory)
        assert sol.estimated_truncation_error >= error > 0

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
            recon = 1.0 + 0.4 * math.exp(-t) * np.cos(x) + integ
            worst = max(worst, float(np.max(np.abs(gsnap - recon))))
        quad_budget = 10.0 * dt**2
        assert worst <= sol.estimated_truncation_error + quad_budget

    def test_pde_residual_second_order(self):
        errs = []
        for nt in (16, 32, 64):
            sol, _, F = self._solve(time_steps=nt, out=None)
            times = np.asarray(sol.trajectory.times)
            vals = sol.trajectory.values
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
        ).trajectory.values[0]
        errs = []
        for depth in (2, 4, 8, 16):
            opts = SeriesOptions(depth_max=depth, rel_tolerance=1e-14, time_steps=256,
                                 output_times=(0.5,))
            sol = solve_controlled_heat(G0, F, 0.5, opts)
            errs.append(float(np.max(np.abs(sol.trajectory.values[0] - ref))))
        floor = 1e-11
        assert all(b <= a + floor for a, b in zip(errs, errs[1:]))

    def test_matches_cn_oracle(self):
        sol, G0, F = self._solve(time_steps=128, out=(0.5,))
        cn = fd_controlled_heat(G0, F, 0.5, 0.5 / 512, output_times=(0.5,))
        gap = np.max(np.abs(sol.trajectory.values[0] - cn.values[0]))
        assert gap / np.max(np.abs(cn.values[0])) < 5e-3


class TestSourceTerm:
    def test_pure_source_integrates(self):
        # dG/dt = Lap G + S with S = 1, G0 = 0: G = t
        g = periodic_1d(64)
        opts = SeriesOptions(time_steps=16, output_times=(0.5, 1.0))
        sol = solve_controlled_heat(
            ScalarField.constant(g, 0.0), Forcing.zero(), 1.0, opts, source=Forcing.constant(1.0)
        )
        for t, snap in sol.trajectory:
            assert np.max(np.abs(snap - t)) < 1e-12

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
        assert np.max(np.abs(sol.trajectory.values[0] - exact)) < 1e-4


class TestFreeSpaceConvergence:
    """Manufactured free-space solutions on the edge-padded torus."""

    # L_inf errors of the direct-quadrature engine this engine replaced,
    # at 16, 32 and 64 steps
    CASES = (
        (Grid((128,), (0.125,), (-8.0,), FreeSpaceTruncated()), (7.9e-5, 2.0e-5, 5.0e-6)),
        (Grid((48, 48), (0.25, 0.25), (-6.0, -6.0), FreeSpaceTruncated()),
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
        F = Forcing.from_samples(grid, times, [(grid.ndim - 1 - r2) * a(t) - r2 * a(t) ** 2 for t in times])
        G0 = ScalarField(grid, np.exp(a(0.0)))
        errs = []
        for nt in (16, 32, 64):
            opts = SeriesOptions(depth_max=24, rel_tolerance=1e-12, time_steps=nt,
                                 output_times=(0.25, 0.5))
            sol = solve_controlled_heat(G0, F, 0.5, opts)
            errs.append(max(float(np.max(np.abs(snap - np.exp(a(t)))))
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
            grid = Grid((128,), (0.125,), (-8.0,), FreeSpaceTruncated())
            r = np.abs(grid.coords(0))

            def antiderivative(s):
                c = r * r / 4
                return 2 * np.sqrt(s) * np.exp(-c / s) - np.sqrt(np.pi) * r * erfc(np.sqrt(c / s))

            def exact(t):
                return np.sqrt(a) * (antiderivative(a + t) - antiderivative(a))
        else:
            grid = Grid((48, 48), (0.25, 0.25), (-6.0, -6.0), FreeSpaceTruncated())
            x, y = grid.meshgrid()
            r2 = x * x + y * y

            def exact(t):
                return a * (exp1(r2 / (4 * (a + t))) - exp1(r2 / (4 * a)))

        r2_all = sum(m * m for m in grid.meshgrid())
        source = Forcing.from_samples(grid, (0.0, horizon), [np.exp(-r2_all / (4 * a))] * 2)
        for nt in (16, 32, 64):
            opts = SeriesOptions(time_steps=nt, output_times=(0.25, 0.5))
            sol = solve_controlled_heat(ScalarField.constant(grid, 0.0), Forcing.zero(), horizon, opts,
                                        source=source)
            err = max(float(np.max(np.abs(snap - exact(t)))) for t, snap in sol.trajectory)
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

    def test_f2_limit_past_overflow(self):
        # z * z overflows; the closed form's limit 0 comes without a warning,
        # also for the infinite z of a |k|^2 past double range
        assert _f2(np.array([1e200, np.inf])).tolist() == [0.0, 0.0]


class TestEngineMemory:
    @pytest.mark.parametrize("boundary", (None, FreeSpaceTruncated()))
    def test_stored_nodes_own_their_memory(self, boundary):
        # each node stack must be a grid-sized real array, not a view of a
        # complex or padded buffer
        grid = periodic_1d(64) if boundary is None else Grid((64,), (0.25,), (-8.0,), boundary)
        kernel = sweep_kernel(grid)
        g = np.cos(grid.coords(0))
        stack = swept(kernel, np.stack([g] * 9))
        assert stack.shape == (9, 64) and stack.dtype == np.float64
        # the propagated fields are one grid-sized array per node
        applied = kernel.apply(ScalarField(grid, g))
        for values, nodes in [(stack, 9), (applied, 9)]:
            owner = values
            while owner.base is not None:
                owner = owner.base
            assert owner.nbytes == nodes * g.nbytes

    @staticmethod
    def _traced_solve(G0, F, depth, steps, out, source=None):
        """(traced peak bytes, solution) of one solve."""
        opts = SeriesOptions(depth_max=depth, rel_tolerance=1e-14, time_steps=steps,
                             output_times=out)
        tracemalloc.start()
        try:
            sol = solve_controlled_heat(G0, F, 1.0, opts, source)
            return tracemalloc.get_traced_memory()[1], sol
        finally:
            tracemalloc.stop()

    def test_memory_does_not_grow_with_depth_at_all_nodes(self):
        # going deeper keeps each new order at the output nodes (its
        # gauge-centered order, once), never at all nodes
        n, steps = 64, 32
        g = Grid((n, n), (2 * np.pi / n,) * 2, (0.0, 0.0))
        x, y = g.meshgrid()
        G0 = ScalarField(g, 1.0 + 0.3 * np.cos(x) * np.sin(y))
        F = Forcing.from_expression("4*sin(x)*cos(y) + 2*cos(x + t)")
        out = (0.25, 0.5, 0.75, 1.0)
        shallow, sol3 = self._traced_solve(G0, F, 3, steps, out)
        deep, sol12 = self._traced_solve(G0, F, 12, steps, out)
        assert (sol3.truncation_depth, sol12.truncation_depth) == (3, 12)
        field_bytes = 8 * n * n
        allowed = 1 * (12 - 3) * len(out) * field_bytes + (steps + 1) * field_bytes
        assert deep - shallow <= allowed

    def test_peak_is_two_node_stacks_and_one_copy_per_order(self):
        # F and the latest order at all nodes, one output-node copy of each
        # order, and the reconstruction's running sum, term and product
        # buffer (three output-node fields each); 10% covers the sweep's
        # chunk buffers and the kernel's weights, on the 1-D grids, whose
        # chunks hold many nodes, as on the 3-D grid, whose chunks hold one.
        # The shallow solves bound the zeroth order, which is formed in the
        # order stack, with or without a source
        n = 16
        cube = Grid((n,) * 3, (2 * np.pi / n,) * 3, (0.0,) * 3)
        x, y, z = cube.meshgrid()
        cases = [(ScalarField(cube, 1.0 + 0.3 * np.cos(x) * np.sin(y) * np.cos(z)),
                  "4*sin(x)*cos(y) + 2*cos(z + t)", "cos(x)*sin(y)*exp(-t)", (16, 32))]
        for g in (periodic_1d(1024), Grid((1024,), (16.0 / 1024,), (-8.0,), FreeSpaceTruncated())):
            cases.append((ScalarField(g, 1.0 + 0.3 * np.cos(g.coords(0))),
                          "4*sin(x) + 2*cos(x + t)", "cos(x)*exp(-t)", (256, 256)))
        for G0, forcing, source_expr, (deep_steps, shallow_steps) in cases:
            F = Forcing.from_expression(forcing)
            source = Forcing.from_expression(source_expr)
            field_bytes = G0.values.nbytes
            self._traced_solve(G0, F, 1, 16, (1.0,))  # caches the torus before the measured solves
            for steps, depth, out, src in [(deep_steps, 12, (0.25, 0.5, 0.75, 1.0), None),
                                           (shallow_steps, 2, (1.0,), None),
                                           (shallow_steps, 2, (1.0,), source)]:
                peak, sol = self._traced_solve(G0, F, depth, steps, out, src)
                assert sol.truncation_depth == depth
                node_stack = (steps + 1) * field_bytes
                assert peak <= 1.1 * (2 * node_stack + (depth + 1 + 3) * len(out) * field_bytes)


def chunk_rows(monkeypatch, grid, rows):
    """Set the chunk budget to ``rows`` spectra of ``grid``'s torus; kernels
    built after it transform ``rows`` nodes or times per call."""
    spectrum_bytes = padded_torus(grid).k2.size * np.dtype(complex).itemsize
    monkeypatch.setattr(heat_kernel, "_CHUNK_BYTES", rows * spectrum_bytes)


STACKING_GRIDS = pytest.mark.parametrize("grid", [
    periodic_1d(64),
    Grid((64,), (0.25,), (-8.0,), FreeSpaceTruncated()),
    Grid((15, 11), (0.4, 0.5), (-3.0, -3.0), FreeSpaceTruncated()),
    Grid((8, 10, 9), (0.5, 0.4, 0.5), (-2.0, -2.0, -2.0), FreeSpaceTruncated()),
], ids=["periodic-1d", "free-1d", "free-2d", "free-3d"])


class TestEngineStacking:
    # the sweep kernel's 9 nodes: node 0, then chunks from node 1 of 1, 2 or
    # 3 nodes, or all 8 remaining nodes in one transform call
    CHUNKS = (1, 2, 3, 8)

    @STACKING_GRIDS
    def test_stacked_and_per_node_transforms_agree_bitwise(self, monkeypatch, grid):
        rng = np.random.default_rng(9)
        integrand = rng.normal(size=(9,) + grid.shape)
        factor = rng.normal(size=(9,) + grid.shape)
        initial = rng.normal(size=grid.shape)
        zeros = np.zeros_like(integrand)
        # zero nodes at the first row of a chunk ([1, 2] and [1, 2, 3]), at
        # the last row of one ([3, 4]), and across whole chunks ([5, 6] and
        # [4, 5, 6])
        holes = integrand.copy()
        holes[[1, 4, 5, 6]] = 0.0
        results = {}
        for rows in self.CHUNKS:
            chunk_rows(monkeypatch, grid, rows)
            kernel = sweep_kernel(grid)
            assert kernel._chunk == rows
            results[rows] = (swept(kernel, integrand), swept(kernel, integrand, factor),
                             swept(kernel, integrand, factor, initial),
                             swept(kernel, zeros, initial=initial), swept(kernel, holes),
                             swept(kernel, holes, factor, initial))
        for rows in self.CHUNKS[1:]:
            for a, b in zip(results[1], results[rows]):
                assert a.tobytes() == b.tobytes()
        # each chunk forms its own product; it equals the whole product's sweep
        assert results[2][1].tobytes() == swept(kernel, factor * integrand).tobytes()
        # a sweep of zeros from an initial value is the kernel applied to it
        # at every node, and the initial value's part adds to the integral's
        scale = np.max(np.abs(initial))
        free = results[1][3]
        applied = kernel.apply(ScalarField(grid, initial))
        assert np.max(np.abs(free - applied)) <= 1e-13 * scale
        assert np.max(np.abs(results[1][2] - results[1][1] - free)) <= 1e-13 * scale

    @pytest.mark.parametrize("rows", (8, 1, 2, 3), ids=["stacked", "per-node", "two-node", "three-node"])
    def test_zero_first_node_is_not_transformed(self, monkeypatch, rows):
        # a node whose integrand is zero has a zero spectrum and is not
        # transformed: node 0 of every order past the zeroth, zero nodes
        # inside the stack, and every node of a sourceless zeroth order,
        # which transforms its initial value only.  The rows forwarded are
        # the initial value, then exactly the live nodes in order
        grid = Grid((15, 11), (0.4, 0.5), (-3.0, -3.0), FreeSpaceTruncated())
        rng = np.random.default_rng(10)
        integrand = rng.normal(size=(9,) + grid.shape)
        integrand[0] = 0.0
        middle = integrand.copy()
        middle[[4, 6, 7]] = 0.0
        factor = rng.normal(size=integrand.shape)
        initial = rng.normal(size=grid.shape)
        cases = [(integrand, None, None), (middle, None, None), (middle, factor, initial),
                 (np.zeros_like(integrand), None, initial)]
        wants = [swept(sweep_kernel(grid), *case) for case in cases]
        chunk_rows(monkeypatch, grid, rows)
        kernel = sweep_kernel(grid)
        forwarded = []
        forward = type(kernel.torus).forward

        def recorded(self, values):
            forwarded.extend(values.reshape((-1,) + grid.shape).copy())
            return forward(self, values)

        monkeypatch.setattr(type(kernel.torus), "forward", recorded)
        for (stack, fac, init), want in zip(cases, wants):
            forwarded.clear()
            live = [node for node in (stack if fac is None else fac * stack) if node.any()]
            got = swept(kernel, stack, fac, init)
            want_rows = ([] if init is None else [init]) + live
            assert [row.tobytes() for row in forwarded] == [row.tobytes() for row in want_rows]
            assert got.tobytes() == want.tobytes()

    @STACKING_GRIDS
    def test_apply_inverts_in_chunks(self, monkeypatch, grid):
        # one forward transform and one inverse call per chunk of times; the
        # bytes do not depend on the chunk, and t = 0 rows are the field's own
        times = (0.0, 0.1, 0.0, 0.2, 0.3, 0.0, 0.5)
        field = ScalarField(grid, np.random.default_rng(11).normal(size=grid.shape))
        torus_type = type(padded_torus(grid))
        calls = []

        def counted(name):
            method = getattr(torus_type, name)
            return lambda self, values: calls.append(name) or method(self, values)

        for name in ("forward", "inverse"):
            monkeypatch.setattr(torus_type, name, counted(name))
        results = []
        for rows in (1, 2, 3, len(times)):
            chunk_rows(monkeypatch, grid, rows)
            calls.clear()
            results.append(KernelApplication(grid, times).apply(field))
            assert calls == ["forward"] + ["inverse"] * math.ceil(len(times) / rows)
        for out in results:
            assert out.tobytes() == results[0].tobytes()
            for t, row in zip(times, out):
                assert (row.tobytes() == field.values.tobytes()) == (t == 0.0)

    @pytest.mark.parametrize("rows", (1, 2, 8), ids=["per-node", "two-node", "stacked"])
    def test_leading_rows_sweep_to_leading_rows(self, monkeypatch, rows):
        # a window that sweeps the first m rows of a stack from an initial
        # value gets the first m rows of the whole stack's sweep, byte for byte
        grid = Grid((15, 11), (0.4, 0.5), (-3.0, -3.0), FreeSpaceTruncated())
        rng = np.random.default_rng(12)
        integrand = rng.normal(size=(9,) + grid.shape)
        factor = rng.normal(size=integrand.shape)
        initial = rng.normal(size=grid.shape)
        chunk_rows(monkeypatch, grid, rows)
        kernel = sweep_kernel(grid)
        whole = swept(kernel, integrand, factor, initial)
        for m in range(1, 10):
            part = swept(kernel, integrand[:m], factor[:m], initial)
            assert part.tobytes() == whole[:m].tobytes()


class TestSweepNodes:
    @pytest.mark.parametrize("times", [
        (0.0,), (0.1, 0.2, 0.3), (0.0, 0.1, 0.3), (0.0, 0.0, 0.0), np.linspace(0.0, 0.4, 9) ** 2,
    ], ids=["one-node", "not-from-zero", "uneven", "no-step", "squared"])
    def test_sweep_needs_uniform_nodes_from_zero(self, times):
        grid = periodic_1d(16)
        kernel = KernelApplication(grid, times)
        kernel.apply(ScalarField.constant(grid, 1.0))  # any times apply
        with pytest.raises(ValueError, match="uniform nodes"):
            kernel.sweep(np.ones((len(times),) + grid.shape))

    @pytest.mark.parametrize("times", [(math.inf,), (0.0, 0.5, math.inf), (math.nan,), (-0.5, 0.0)],
                             ids=["inf", "inf-last", "nan", "negative"])
    def test_times_must_be_finite_and_nonnegative(self, times):
        with pytest.raises(ValueError, match=r"^kernel times must be finite and >= 0, got \("):
            KernelApplication(periodic_1d(16), times)

    def test_apply_builds_no_sweep_weights(self):
        grid = periodic_1d(16)
        kernel = sweep_kernel(grid)
        kernel.apply(ScalarField.constant(grid, 1.0))
        assert "_weights" not in vars(kernel)
        kernel.sweep(np.ones((9,) + grid.shape))
        assert "_weights" in vars(kernel)


class TestStreaming:
    def _count_calls(self, monkeypatch):
        calls = {"sample": 0, "sweep": 0}
        sample, sweep = Forcing.sample, KernelApplication.sweep

        def counted_sample(self, grid, times):
            calls["sample"] += 1
            return sample(self, grid, times)

        def counted_sweep(self, *args, **kwargs):
            calls["sweep"] += 1
            return sweep(self, *args, **kwargs)

        monkeypatch.setattr(Forcing, "sample", counted_sample)
        monkeypatch.setattr(KernelApplication, "sweep", counted_sweep)
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
        # the zeroth order's sweep from G0, then one sweep per later order
        assert calls == {"sample": 1, "sweep": 1 + sol.truncation_depth}

    def test_source_forcing_sampled_once(self, monkeypatch):
        calls = self._count_calls(monkeypatch)
        g = periodic_1d(64)
        source = Forcing.from_expression("cos(x)*exp(-t)")
        opts = SeriesOptions(time_steps=16, output_times=(0.5,))
        sol = solve_controlled_heat(ScalarField.constant(g, 1.0), Forcing.from_expression("0.5*sin(x)"),
                                    0.5, opts, source=source)
        assert calls["sample"] == 2
        # the zeroth order's one sweep, source and G0 together, then one per later order
        assert calls["sweep"] == 1 + sol.truncation_depth

    def test_constant_forcing_sweeps_every_emitted_order(self, monkeypatch):
        # the centred orders past the zeroth are exact zeros; they are swept
        # like any other order, and the term test alone stops the series
        calls = self._count_calls(monkeypatch)
        g = periodic_1d(64)
        c = 0.8
        opts = SeriesOptions(depth_max=20, rel_tolerance=1e-14, time_steps=16, output_times=(0.25, 1.0))
        sol = solve_controlled_heat(ScalarField.constant(g, 1.0), Forcing.constant(c), 1.0, opts)
        assert sol.metadata["stop_reason"] == "tolerance"
        assert calls == {"sample": 1, "sweep": 1 + sol.truncation_depth}
        for m, t in enumerate(sol.trajectory.times):
            for k, term in enumerate(sol.terms):
                assert np.max(np.abs(term[m] - (c * t) ** k / math.factorial(k))) < 1e-13

    def test_order_norms_are_term_sups(self):
        g = periodic_1d()
        G0 = ScalarField(g, 1.0 + 0.4 * np.cos(g.coords(0)))
        F = Forcing.from_expression("0.6*sin(x) + 0.3*cos(2*x)*exp(-t)")
        opts = SeriesOptions(time_steps=32, output_times=(0.25, 0.5))
        sol = solve_controlled_heat(G0, F, 0.5, opts)
        want = [max(float(np.max(np.abs(term[m]))) for m in range(len(term)))
                for term in sol.terms]
        assert sol.metadata["order_norms"] == want
