"""Forcing construction and sampling, and the envelope the solver takes from it."""

import numpy as np
import pytest

from duhamel import FreeSpaceTruncated, Forcing, Grid, ScalarField, SeriesOptions, solve_controlled_heat


def grid():
    return Grid((64,), (2 * np.pi / 64,), (0.0,))


def solve(F, g, horizon=1.0, time_steps=16):
    opts = SeriesOptions(depth_max=30, time_steps=time_steps, output_times=(horizon,))
    return solve_controlled_heat(ScalarField.constant(g, 1.0), F, horizon, opts)


class TestConstant:
    def test_values_and_bounds(self):
        F = Forcing.constant(1.5)
        g = grid()
        assert np.all(F.sample(g, 0.7) == 1.5)
        sol = solve(F, g)
        assert sol.forcing_sup == sol.forcing_inf == 1.5
        assert sol.forcing_abs_bound == 1.5
        assert sol.metadata["gauge_center"] == 1.5

    def test_abs_bound_uses_both_sides(self):
        F = Forcing.from_callable(lambda g, t: np.where(g.coords(0) < np.pi, 1.0, -3.0))
        sol = solve(F, grid(), horizon=0.1)
        assert (sol.forcing_inf, sol.forcing_sup) == (-3.0, 1.0)
        assert sol.forcing_abs_bound == 3.0
        assert sol.metadata["gauge_center"] == -1.0


class TestExpression:
    def test_evaluated_on_the_given_grid(self):
        F = Forcing.from_expression("sin(x)*exp(-t)")
        grids = (
            grid(),
            Grid((64,), (2 * np.pi / 64,), (5.0,), FreeSpaceTruncated()),
            Grid((32,), (0.3,), (-1.0,)),
        )
        for g in grids:
            assert np.array_equal(F.sample(g, 0.25), np.sin(g.coords(0)) * np.exp(-0.25))

    def test_evaluated_on_a_2d_grid(self):
        g = Grid((16, 24), (0.4, 0.25), (-3.0, 1.0))
        x, y = g.meshgrid()
        F = Forcing.from_expression("sin(x)*cos(y) + t")
        assert np.array_equal(F.sample(g, 0.5), np.sin(x) * np.cos(y) + 0.5)

    def test_space_constant_expression_fills_the_grid(self):
        g = grid()
        vals = Forcing.from_expression("sin(40*t)").sample(g, 0.04)
        assert vals.shape == g.shape
        assert np.all(vals == np.sin(40 * 0.04))

    def test_fast_time_oscillation_solves(self):
        g = grid()
        F = Forcing.from_expression("sin(40*t)")
        sol = solve(F, g, horizon=1.0, time_steps=100)
        nodes = sol.options.nodes(1.0)
        assert sol.forcing_sup == float(np.max(np.sin(40 * nodes)))
        assert sol.forcing_inf == float(np.min(np.sin(40 * nodes)))
        assert not sol.not_converged


class TestSampledStack:
    def test_linear_interpolation(self):
        g = grid()
        f0 = ScalarField.constant(g, 0.0)
        f1 = ScalarField.constant(g, 2.0)
        F = Forcing.from_samples((0.0, 1.0), (f0, f1))
        assert np.allclose(F.sample(g, 0.25), 0.5)
        assert np.allclose(F.sample(g, 1.0), 2.0)
        # constant extension beyond the sampled range
        assert np.allclose(F.sample(g, 5.0), 2.0)

    def test_bounds_are_stack_envelope(self):
        # with the stack times among the solver's nodes, the node envelope is
        # the stack's: linear interpolation never leaves it
        g = grid()
        x = g.coords(0)
        fields = [ScalarField(g, a * np.sin(x)) for a in (0.5, -1.5)]
        sol = solve(Forcing.from_samples((0.0, 1.0), fields), g)
        stack = np.stack([f.values for f in fields])
        assert sol.forcing_sup == float(stack.max())
        assert sol.forcing_inf == float(stack.min())

    def test_wrong_grid_rejected(self):
        g = grid()
        other = Grid((32,), (2 * np.pi / 32,), (0.0,))
        F = Forcing.from_samples((0.0, 1.0), (ScalarField.constant(g, 0), ScalarField.constant(g, 1)))
        with pytest.raises(ValueError, match="different grid"):
            F.sample(other, 0.5)

    def test_times_must_increase(self):
        g = grid()
        f = ScalarField.constant(g, 0.0)
        with pytest.raises(ValueError):
            Forcing.from_samples((0.0, 0.0), (f, f))


class TestTransforms:
    def test_halved(self):
        g = grid()
        F = Forcing.from_expression("2*cos(x)").halved()
        assert np.allclose(F.sample(g, 0.0), np.cos(g.coords(0)), atol=1e-12)

    def test_halved_bounds_linear(self):
        g = grid()
        fields = [ScalarField(g, np.full(g.shape, v)) for v in (3.0, -1.0)]
        F = Forcing.from_samples((0.0, 1.0), fields)
        full, half = solve(F, g), solve(F.halved(), g)
        assert (half.forcing_sup, half.forcing_inf) == (1.5, -0.5)
        assert (full.forcing_sup, full.forcing_inf) == (3.0, -1.0)

    def test_nonfinite_samples_rejected(self):
        g = grid()
        F = Forcing.from_callable(lambda grid, t: np.full(grid.shape, np.inf if t > 0.5 else 0.0))
        assert np.all(F.sample(g, 0.25) == 0.0)
        with pytest.raises(ValueError, match="non-finite"):
            F.sample(g, 0.75)
        with np.errstate(divide="ignore"), pytest.raises(ValueError, match="non-finite"):
            Forcing.from_expression("1/(t - 0.5)").sample(g, 0.5)
