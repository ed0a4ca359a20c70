"""Parabolic normalization: maps, reduced coefficients, solve, back transform."""

import math
from collections import Counter

import numpy as np
import pytest

from duhamel import Forcing, FreeSpaceTruncated, Grid, KernelApplication, ScalarField, SeriesOptions
from duhamel import parabolic
from duhamel.parabolic import (
    NormalizedProblem,
    ParabolicProblem,
    _splines,
    back_transform,
    normalize,
    solve_normalized,
    solve_parabolic,
)
from duhamel.series import solve_controlled_heat


def x_grid(n=128, extent=16.0):
    return Grid((n,), (extent / n,), (-extent / 2,), FreeSpaceTruncated())


def gaussian_u0(grid, width=1.0):
    x = grid.coords(0)
    return ScalarField(grid, np.exp(-0.5 * (x / width) ** 2))


def options(**kw):
    defaults = dict(depth_max=24, rel_tolerance=1e-12, time_steps=32, output_times=(0.25, 0.5))
    defaults.update(kw)
    return SeriesOptions(**defaults)


class TestCoefficient:
    """Parabolic coefficients are Forcings of (t, x), sampled as rows."""

    def test_make_variants(self):
        x = np.linspace(0, 1, 5)
        times = np.array([0.0, 2.0])
        const = Forcing.make(2.0).sample_rows(times, x)
        assert const.shape == (2, 5) and np.all(const == 2.0)
        assert np.allclose(Forcing.make("x*t").sample_rows(times, x), np.outer(times, x))
        assert np.allclose(Forcing.make(lambda t, x: x + t).sample_rows(times, x), x + times[:, None])

    @pytest.mark.parametrize("value, exact", [
        (0.7, lambda t, x: 0.7 + 0 * x),
        ("x*t + exp(-t)*sin(x)", lambda t, x: x * t + np.exp(-t) * np.sin(x)),
        ("cos(x)", lambda t, x: np.cos(x) + 0 * t),
        ("1 + t", lambda t, x: 1 + t + 0 * x),
    ])
    def test_one_row_per_time(self, value, exact):
        # row i of the stack is the coefficient at times[i] on x[i], bit for bit
        times = np.linspace(0.0, 1.0, 4)
        x = np.linspace(-1.0, 1.0, 20).reshape(4, 5)
        coeff = Forcing.make(value)
        stack = coeff.sample_rows(times, x)
        assert stack.shape == (4, 5)
        assert np.allclose(stack, exact(times[:, None], x), rtol=0, atol=1e-15)
        for i, t in enumerate(times):
            assert np.array_equal(stack[i], coeff.sample_rows([t], x[i])[0])

    def test_callable_called_once_per_time_with_float(self):
        seen = []

        def fn(t, xx):
            seen.append(t)
            return xx + t

        times = np.linspace(0.0, 0.5, 3)
        x = np.linspace(0, 1, 5)
        out = Forcing.make(fn).sample_rows(times, x)
        assert seen == [0.0, 0.25, 0.5] and all(type(t) is float for t in seen)
        assert np.array_equal(out, x + times[:, None])

    @pytest.mark.filterwarnings("ignore:divide by zero")
    def test_nonfinite_names_first_bad_time(self):
        times = np.linspace(0.0, 1.0, 5)
        with pytest.raises(ValueError, match=r"non-finite values at t=0\.5$"):
            Forcing.make("1/(t - 0.5) + 1/(t - 0.75)").sample_rows(times, np.linspace(0, 1, 3))

    @pytest.mark.filterwarnings("ignore:divide by zero")
    @pytest.mark.parametrize("name", ["A", "a", "c", "f"])
    def test_nonfinite_coefficient_names_itself(self, name):
        coeffs = dict(A=-1.0, a=0.0, c=0.0, f=0.0)
        coeffs[name] = f"{coeffs[name]} + 1/(t - 0.25)"
        prob = ParabolicProblem(**coeffs, u0=gaussian_u0(x_grid()), horizon=0.5)
        with pytest.raises(ValueError, match=rf"^{name}: expression has non-finite values at t=0\.25$"):
            normalize(prob, SeriesOptions(time_steps=4))

    def test_rejects_spatial_y(self):
        with pytest.raises(ValueError, match="only use x and t"):
            ParabolicProblem(A=-1.0, a="y + 1", c=0.0, f=0.0, u0=gaussian_u0(x_grid()), horizon=0.5)


def psi0(prob):
    """psi(0, x) at the x-nodes, as the reduction computes it."""
    return normalize(prob, SeriesOptions(time_steps=4)).psi_stack[0]


class TestCoordinateMap:
    def test_unit_diffusion_identity(self):
        prob = ParabolicProblem(A=-1.0, a=0.0, c=0.0, f=0.0, u0=gaussian_u0(x_grid()), horizon=0.5)
        x = prob.grid.coords(0)
        assert np.max(np.abs(psi0(prob) - (x - x[0]))) < 1e-13

    def test_constant_diffusion_scaling(self):
        # A = -4: psi_x = 1/2, psi = (x - x_left)/2
        prob = ParabolicProblem(A=-4.0, a=0.0, c=0.0, f=0.0, u0=gaussian_u0(x_grid()), horizon=0.5)
        x = prob.grid.coords(0)
        assert np.max(np.abs(psi0(prob) - (x - x[0]) / 2)) < 1e-13

    def test_asinh_profile(self):
        # A = -(1+x^2): psi_x = 1/sqrt(1+x^2), psi = asinh(x) - asinh(x_left)
        grid = x_grid(n=512)
        prob = ParabolicProblem(A="-(1 + x*x)", a=0.0, c=0.0, f=0.0,
                                u0=gaussian_u0(grid), horizon=0.5)
        x = grid.coords(0)
        exact = np.arcsinh(x) - np.arcsinh(x[0])
        assert np.max(np.abs(psi0(prob) - exact)) < 1e-8

    def test_pipeline_inverse_matches_exact(self):
        # x(0, y) on the y-grid is the inverse of psi = asinh(x) - asinh(x_left),
        # i.e. sinh(y + asinh(x_left)); the y-grid spans exactly the psi(0) image
        errors = []
        for n in (128, 512):
            grid = x_grid(n=n)
            prob = ParabolicProblem(A="-(1 + x*x)", a=0.0, c=0.0, f=0.0,
                                    u0=gaussian_u0(grid), horizon=0.5)
            norm = normalize(prob, SeriesOptions(time_steps=4))
            y = norm.y_grid.coords(0)
            exact = np.sinh(y + np.arcsinh(grid.coords(0)[0]))
            errors.append(float(np.max(np.abs(norm.x_of_y[0] - exact))))
        assert errors[0] < 2e-6 and errors[1] < 1e-8
        assert errors[0] / errors[1] > 100  # better than 3rd order in h

    def test_ellipticity_rejection_names_location(self):
        grid = x_grid()
        # positive diffusion in a neighborhood of x = 0
        prob = ParabolicProblem(A="-1 + 2*exp(-x*x)", a=0.0, c=0.0, f=0.0,
                                u0=gaussian_u0(grid), horizon=0.5)
        with pytest.raises(ValueError, match=r"A\(t=0, x=.*violates strict ellipticity"):
            normalize(prob, SeriesOptions(time_steps=8))

    def test_ellipticity_breach_after_start_names_its_time(self):
        # A = -1 + 3t crosses zero at t = 1/3; the first node past it is 0.375
        prob = ParabolicProblem(A="-1 + 3*t", a=0.0, c=0.0, f=0.0,
                                u0=gaussian_u0(x_grid()), horizon=0.5)
        with pytest.raises(ValueError, match=r"A\(t=0\.375, x=.*\) = 0\.125 violates strict ellipticity"):
            normalize(prob, SeriesOptions(time_steps=8))


class TestNormalize:
    def test_samples_on_the_series_nodes(self):
        prob = ParabolicProblem(A=-1.0, a=0.0, c=0.0, f=0.0, u0=gaussian_u0(x_grid()), horizon=0.5)
        opts = options(time_steps=12)
        norm = normalize(prob, opts)
        assert norm.t_nodes == tuple(opts.nodes(0.5))
        assert len(normalize(prob).t_nodes) == SeriesOptions().time_steps + 1

    def test_identity_reduction(self):
        c_val, f_val = 0.3, -0.2
        prob = ParabolicProblem(A=-1.0, a=0.0, c=c_val, f=f_val,
                                u0=gaussian_u0(x_grid()), horizon=0.5)
        norm = normalize(prob, SeriesOptions(time_steps=16))
        assert np.max(np.abs(norm.Q_stack - c_val)) < 1e-12
        assert np.max(np.abs(norm.g_stack - f_val)) < 1e-12
        assert np.max(np.abs(norm.rho_stack)) < 1e-12
        assert np.max(np.abs(norm.v0.values - prob.u0.values)) < 1e-13

    def test_constant_coefficients(self):
        k, c_val, f_val = 0.8, 0.4, 0.25
        prob = ParabolicProblem(A=-1.0, a=k, c=c_val, f=f_val,
                                u0=gaussian_u0(x_grid()), horizon=0.5)
        norm = normalize(prob, SeriesOptions(time_steps=16))
        y = norm.y_grid.coords(0)
        assert np.max(np.abs(norm.Q_stack - (k * k / 4 + c_val))) < 1e-8
        assert np.max(np.abs(norm.g_stack - f_val * np.exp(-k * y / 2))) < 1e-8

    def test_time_dependent_drift(self):
        # a(t) = k t: P = k t, so Q picks up the 1/2 int P_t dy = k y / 2 term
        k, c_val = 0.8, 0.4
        prob = ParabolicProblem(A=-1.0, a="0.8*t", c=c_val, f=0.0,
                                u0=gaussian_u0(x_grid()), horizon=0.5)
        norm = normalize(prob, SeriesOptions(time_steps=32))
        y = norm.y_grid.coords(0)
        t = np.asarray(norm.t_nodes)
        exact = (k * t[:, None]) ** 2 / 4 + k * y[None, :] / 2 + c_val
        assert np.max(np.abs(norm.Q_stack - exact)) < 1e-8


class TestSolveNormalized:
    def _normalized(self, Q=0.0, g=0.0, v0=None, grid=None):
        grid = grid or x_grid()
        v0 = v0 if v0 is not None else ScalarField.constant(grid, 1.0)
        t_nodes = tuple(np.linspace(0.0, 1.0, 17))
        n_t, n_y = len(t_nodes), grid.points[0]
        x = grid.coords(0)
        # identity map: the y-grid IS the x-grid, psi(x) = x
        return NormalizedProblem(
            y_grid=grid,
            t_nodes=t_nodes,
            Q_stack=np.full((n_t, n_y), float(Q)),
            g_stack=np.full((n_t, n_y), float(g)),
            rho_stack=np.zeros((n_t, n_y)),
            psi_stack=np.tile(x, (n_t, 1)),
            x_of_y=np.tile(x, (n_t, 1)),
            v0=v0,
            x_grid=grid,
        )

    def test_free_heat(self):
        grid = x_grid()
        v0 = gaussian_u0(grid)
        norm = self._normalized(v0=v0, grid=grid)
        out = solve_normalized(norm, options(time_steps=16, output_times=(0.5,))).trajectory
        # the spreading Gaussian: variance 1 + 2t
        want = np.exp(-grid.coords(0) ** 2 / 4.0) / math.sqrt(2.0)
        assert np.max(np.abs(out.values[0] - want)) < 1e-13

    def test_constant_potential_decay(self):
        # Q = q, g = 0, v0 = 1: v = e^{-q t}
        q = 0.9
        norm = self._normalized(Q=q)
        out = solve_normalized(norm, options(time_steps=16, output_times=(0.5, 1.0))).trajectory
        for t, snap in out:
            assert np.max(np.abs(snap - math.exp(-q * t))) < 1e-12

    def test_pure_source_gives_minus_t(self):
        # Q = 0, g = 1, v0 = 0: v = -t (the leading minus sign of the source)
        grid = x_grid()
        norm = self._normalized(g=1.0, v0=ScalarField.constant(grid, 0.0), grid=grid)
        out = solve_normalized(norm, options(time_steps=16, output_times=(0.5, 1.0))).trajectory
        for t, snap in out:
            assert np.max(np.abs(snap + t)) < 1e-12


class TestBackTransform:
    def test_identity_gauge(self):
        grid = x_grid()
        norm = TestSolveNormalized()._normalized(grid=grid)
        v0 = gaussian_u0(grid)
        from duhamel.fields import Trajectory

        traj = Trajectory(grid, (0.5,), v0.values[None])
        out, _ = back_transform(traj, norm)
        assert np.max(np.abs(out.values[0] - v0.values)) < 1e-12

    @pytest.mark.parametrize("t", [0.3, 0.25 + 1e-12])
    def test_time_off_the_nodes_is_rejected(self, t):
        grid = x_grid()
        norm = TestSolveNormalized()._normalized(grid=grid)
        from duhamel.fields import Trajectory

        with pytest.raises(ValueError, match=rf"^output time {t!r} is not a node of the normalized problem$"):
            back_transform(Trajectory(grid, (0.25, t), [gaussian_u0(grid).values] * 2), norm)

    def test_constant_coefficient_inverse_gauge(self):
        # from the constant-coefficient reduction, u = e^{k y / 2} v
        k = 0.8
        prob = ParabolicProblem(A=-1.0, a=k, c=0.0, f=0.0,
                                u0=gaussian_u0(x_grid()), horizon=0.5)
        norm = normalize(prob, SeriesOptions(time_steps=16))
        y = norm.y_grid.coords(0)
        from duhamel.fields import Trajectory

        v = ScalarField(norm.y_grid, np.exp(-0.2 * y))
        out, _ = back_transform(Trajectory(norm.y_grid, (0.25,), v.values[None]), norm)
        x = prob.grid.coords(0)
        want = np.exp(k * (x - x[0]) / 2) * np.exp(-0.2 * (x - x[0]))
        assert np.max(np.abs(out.values[0] - want)) < 1e-7


class TestEndToEnd:
    def test_identity_reduction_matches_direct_series(self):
        c_val, f_val = 0.4, 0.25
        u0 = gaussian_u0(x_grid())
        prob = ParabolicProblem(A=-1.0, a=0.0, c=c_val, f=f_val, u0=u0, horizon=0.5)
        opts = options()
        pipe = solve_parabolic(prob, opts)
        direct = solve_controlled_heat(u0, Forcing.constant(-c_val), 0.5, opts,
                                       source=Forcing.constant(-f_val))
        gap = max(
            float(np.max(np.abs(a - b)))
            for (_, a), (_, b) in zip(pipe.u, direct.trajectory)
        )
        assert gap <= 1e-10

    def test_pure_heat_round_trip(self):
        n, extent = 128, 16.0
        u0 = gaussian_u0(x_grid(n, extent))
        prob = ParabolicProblem(A=-1.0, a=0.0, c=0.0, f=0.0, u0=u0, horizon=0.5)
        sol = solve_parabolic(prob, options())
        periodic = Grid((n,), (extent / n,), (-extent / 2,))
        (ref,) = KernelApplication(periodic, (0.5,)).apply(ScalarField(periodic, u0.values))
        assert np.max(np.abs(sol.u.at_time(0.5) - ref)) < 1e-6

    def test_manufactured_variable_coefficients(self):
        # pick u_exact, derive f symbolically, solve, compare
        import sympy as sp

        x_s, t_s = sp.symbols("x t")
        u_exact = sp.exp(-t_s) * sp.exp(-x_s**2 / 4)
        A_expr = -(1 + sp.Rational(1, 2) * sp.cos(x_s) ** 2)
        a_expr = sp.Rational(1, 5) * sp.sin(x_s)
        c_expr = sp.Rational(3, 10)
        f_expr = sp.simplify(
            -(sp.diff(u_exact, t_s) + A_expr * sp.diff(u_exact, x_s, 2)
              + a_expr * sp.diff(u_exact, x_s) + c_expr * u_exact)
        )
        f_fn = sp.lambdify((t_s, x_s), f_expr, "numpy")
        u_fn = sp.lambdify((t_s, x_s), u_exact, "numpy")

        grid = x_grid(n=192, extent=20.0)
        x = grid.coords(0)
        prob = ParabolicProblem(
            A="-(1 + 0.5*cos(x)*cos(x))",
            a="0.2*sin(x)",
            c=0.3,
            f=lambda t, xx: f_fn(t, xx),
            u0=ScalarField(grid, u_fn(0.0, x)),
            horizon=0.4,
        )
        sol = solve_parabolic(prob, options(time_steps=48, output_times=(0.2, 0.4)))
        for t, snap in sol.u:
            err = np.max(np.abs(snap - u_fn(t, x)))
            assert err < 5e-4, f"t={t}: {err}"

    def test_window_shift_invariance(self):
        # shifting the x-window (hence x_left and psi's additive constant)
        # must not change u on the shared physical points
        n, extent = 128, 16.0
        h = extent / n
        u_fn = lambda x: np.exp(-0.5 * x**2)
        g1 = Grid((n,), (h,), (-extent / 2,), FreeSpaceTruncated())
        g2 = Grid((n,), (h,), (-extent / 2 - 8 * h,), FreeSpaceTruncated())
        # constant A keeps the y-resolution identical, so only the psi/rho
        # anchor (and the truncation strip) differs between the two windows
        opts = options(time_steps=16, output_times=(0.5,))
        outs = []
        for g in (g1, g2):
            prob = ParabolicProblem(A=-1.0, a="0.1*sin(x)", c=0.2, f=0.0,
                                    u0=ScalarField(g, u_fn(g.coords(0))), horizon=0.5)
            outs.append(solve_parabolic(prob, opts).u.values[0])
        # overlap: g1 nodes 0..n-9 coincide with g2 nodes 8..n-1
        a = outs[0][: n - 8]
        b = outs[1][8:]
        assert np.max(np.abs(a - b)) < 1e-8


class TestEdgeClamping:
    def test_growing_map_flags_back_transform(self):
        # A = -1/(1+t): psi_x = sqrt(1+t) > 1 for t > 0, so the x-window image
        # outgrows the t=0 y-grid and the pull-back clamps at the edge
        prob = ParabolicProblem(A="-1/(1 + t)", a=0.0, c=0.0, f=0.0,
                                u0=gaussian_u0(x_grid()), horizon=0.5)
        sol = solve_parabolic(prob, options(time_steps=8, output_times=(0.5,)))
        assert sol.edge_clamped

    def test_shrinking_map_flags_normalize(self):
        # A = -(1+t): psi_x < 1 for t > 0, so outer y-nodes leave the image
        # of the map and the coefficient resampling clamps
        prob = ParabolicProblem(A="-(1 + t)", a=0.0, c=0.0, f=0.0,
                                u0=gaussian_u0(x_grid()), horizon=0.5)
        norm = normalize(prob, SeriesOptions(time_steps=8))
        assert norm.edge_clamped

    def test_static_map_not_flagged(self):
        prob = ParabolicProblem(A=-1.0, a=0.0, c=0.0, f=0.0,
                                u0=gaussian_u0(x_grid()), horizon=0.5)
        assert not normalize(prob, SeriesOptions(time_steps=8)).edge_clamped


def manufactured_problem():
    """The parabolic-1d benchmark problem: u = exp(-(x - v t)^2/2 - kappa t)
    with variable diffusion, drift and potential; f makes u exact."""
    alpha, beta, gamma, v, kappa = 0.3, 0.3, 0.2, 0.5, 0.2
    A = f"-(1 + {alpha}*cos(x/2))"
    drift = f"{beta}*sin(x)*exp(-t)"
    c = f"{gamma}*cos(x)"
    s = f"(x - {v}*t)"
    u_text = f"exp(-{s}*{s}/2 - {kappa}*t)"
    f = f"-{u_text}*({v}*{s} - {kappa} + {A}*({s}*{s} - 1) - {drift}*{s} + {c})"
    grid = Grid((256,), (16.0 / 256,), (-8.0,), FreeSpaceTruncated())
    x = grid.coords(0)
    prob = ParabolicProblem(A=A, a=drift, c=c, f=f, u0=ScalarField(grid, np.exp(-x * x / 2)),
                            horizon=0.5)
    return prob, lambda t: np.exp(-((x - v * t) ** 2) / 2 - kappa * t)


class TestManufacturedAccuracy:
    def test_variable_coefficients_at_64_steps(self):
        # The resampling interpolant must not flatten the peak: a monotone
        # cubic leaves a 6.6e-4 error floor here.
        prob, exact = manufactured_problem()
        sol = solve_parabolic(prob, SeriesOptions(depth_max=24, rel_tolerance=1e-10, time_steps=64))
        error = max(float(np.max(np.abs(snap - exact(t)))) for t, snap in sol.u)
        assert error < 1e-5


class TestLatticeWork:
    """The reduction samples each coefficient once and resamples each stage in one ``_splines``
    call, whose cubic Hermite pieces take their knot slopes from finite differences along the
    knot index and solve no system (``TestImportCost`` checks that a solve loads no scipy)."""

    def _count(self, monkeypatch):
        calls = Counter()
        sample, splines = Forcing.sample_rows, parabolic._splines

        def counted_sample(self, times, x):
            calls["sample"] += 1
            return sample(self, times, x)

        def counted_splines(*args):
            calls["splines"] += 1
            return splines(*args)

        monkeypatch.setattr(Forcing, "sample_rows", counted_sample)
        monkeypatch.setattr(parabolic, "_splines", counted_splines)
        return calls

    def test_each_coefficient_sampled_once(self, monkeypatch):
        prob, _ = manufactured_problem()
        calls = self._count(monkeypatch)
        normalize(prob, SeriesOptions(time_steps=64))
        assert calls["sample"] == 4

    def test_one_resampling_call_per_stage(self, monkeypatch):
        # one call each for (x, P) over psi at all 65 time nodes, for u0 over
        # x, and for (v, rho) over y at all 65 outputs
        prob, _ = manufactured_problem()
        calls = self._count(monkeypatch)
        sol = solve_parabolic(prob, SeriesOptions(depth_max=24, rel_tolerance=1e-10, time_steps=64))
        assert len(sol.u) == 65
        assert calls["splines"] == 3
        assert calls["sample"] == 4


def cubic(z):
    return 0.3 - 1.2 * z + 0.7 * z**2 - 0.25 * z**3


class TestSplines:
    """``_splines`` against exact cubics and smooth functions."""

    @staticmethod
    def _knots(rng, rows, n):
        return np.cumsum(rng.uniform(0.02, 0.1, (rows, n)), axis=1) - 3.0

    def test_reproduces_cubics_on_shared_uniform_knots(self):
        # the knot slopes are exact for cubics, so the Hermite pieces are too
        rng = np.random.default_rng(10)
        knots, h = np.linspace(-2.0, 3.0, 40, retstep=True)
        values = np.stack([np.broadcast_to(cubic(knots), (5, 40)), np.ones((5, 40))], axis=-1)
        points = rng.uniform(knots[0], knots[-1], (5, 100))
        got = _splines(knots, values, points, h)
        exact = cubic(points)
        assert got.shape == (5, 100, 2)
        assert np.max(np.abs(got[..., 0] - exact)) <= 1e-12 * np.max(np.abs(exact))
        assert np.max(np.abs(got[..., 1] - 1.0)) <= 1e-12

    def test_reproduces_cubics_on_per_row_uniform_knots(self):
        rng = np.random.default_rng(11)
        start, h = rng.uniform(-3.0, -2.0, (6, 1)), rng.uniform(0.05, 0.15, (6, 1))
        knots = start + h * np.arange(48)
        values = cubic(knots)[..., None]
        points = rng.uniform(knots[:, :1], knots[:, -1:], (6, 120))
        got = _splines(knots, values, points, h)[..., 0]
        exact = cubic(points)
        assert np.max(np.abs(got - exact)) <= 1e-12 * np.max(np.abs(exact))

    def test_fourth_order_on_a_sinh_knot_map(self):
        # knots k = sinh(xi) on uniform xi, with the exact rate dk/di = cosh(xi) dxi
        def error(n):
            xi, dxi = np.linspace(-2.0, 2.0, n, retstep=True)
            knots = np.sinh(xi)
            points = np.linspace(knots[0], knots[-1], 1001)[None]
            got = _splines(knots, np.sin(2.0 * knots)[None, :, None], points, np.cosh(xi) * dxi)
            return float(np.max(np.abs(got[0, :, 0] - np.sin(2.0 * points[0]))))

        assert math.log(error(64) / error(256), 4) >= 3.8

    def test_outside_points_take_edge_values(self):
        rng = np.random.default_rng(11)
        knots = self._knots(rng, 4, 16)
        values = rng.standard_normal((4, 16, 3))
        below, above = knots[:, :1] - [[0.5, 1e-9]], knots[:, -1:] + [[1e-9, 7.0]]
        points = np.concatenate([below, above], axis=1)
        got = _splines(knots, values, points, np.gradient(knots, axis=1))
        assert np.array_equal(got[:, :2], np.repeat(values[:, :1], 2, axis=1))
        assert np.allclose(got[:, 2:], np.repeat(values[:, -1:], 2, axis=1), rtol=0, atol=1e-14)
