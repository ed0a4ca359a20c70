"""Forcing construction and sampling, and the envelope the solver takes from it."""

import numpy as np
import pytest

from duhamel import FreeSpaceTruncated, Forcing, Grid, ScalarField, SeriesOptions, solve_controlled_heat
from duhamel.expressions import compile_expression
from duhamel.forcing import interpolate_in_time


def grid():
    return Grid((64,), (2 * np.pi / 64,), (0.0,))


def solve(F, g, horizon=1.0, time_steps=16):
    opts = SeriesOptions(depth_max=30, time_steps=time_steps, output_times=(horizon,))
    return solve_controlled_heat(ScalarField.constant(g, 1.0), F, horizon, opts)


class TestConstant:
    def test_values_and_bounds(self):
        F = Forcing.constant(1.5)
        g = grid()
        assert np.all(F.sample(g, [0.7]) == 1.5)
        sol = solve(F, g)
        assert sol.forcing_sup == sol.forcing_inf == 1.5
        assert sol.forcing_abs_bound == 1.5
        assert sol.metadata["gauge_center"] == 1.5

    def test_abs_bound_uses_both_sides(self):
        F = Forcing.from_callable(lambda t, x: np.where(x < np.pi, 1.0, -3.0))
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
            assert np.array_equal(F.sample(g, [0.25])[0], np.sin(g.coords(0)) * np.exp(-0.25))

    def test_evaluated_on_a_2d_grid(self):
        g = Grid((16, 24), (0.4, 0.25), (-3.0, 1.0))
        x, y = g.meshgrid()
        F = Forcing.from_expression("sin(x)*cos(y) + t")
        assert np.array_equal(F.sample(g, [0.5])[0], np.sin(x) * np.cos(y) + 0.5)

    def test_space_constant_expression_fills_the_grid(self):
        g = grid()
        vals = Forcing.from_expression("sin(40*t)").sample(g, [0.04])
        assert vals.shape == (1,) + g.shape
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
        vals = F.sample(g, [0.25, 1.0, 5.0])
        assert np.allclose(vals[0], 0.5)
        assert np.allclose(vals[1], 2.0)
        # constant extension beyond the sampled range
        assert np.allclose(vals[2], 2.0)

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
            F.sample(other, [0.5])

    def test_times_must_increase(self):
        g = grid()
        f = ScalarField.constant(g, 0.0)
        with pytest.raises(ValueError):
            Forcing.from_samples((0.0, 0.0), (f, f))


class TestTransforms:
    def test_halved(self):
        g = grid()
        F = Forcing.from_expression("2*cos(x)").halved()
        assert np.allclose(F.sample(g, [0.0])[0], np.cos(g.coords(0)), atol=1e-12)

    def test_halved_bounds_linear(self):
        g = grid()
        fields = [ScalarField(g, np.full(g.shape, v)) for v in (3.0, -1.0)]
        F = Forcing.from_samples((0.0, 1.0), fields)
        full, half = solve(F, g), solve(F.halved(), g)
        assert (half.forcing_sup, half.forcing_inf) == (1.5, -0.5)
        assert (full.forcing_sup, full.forcing_inf) == (3.0, -1.0)

    def test_nonfinite_samples_rejected(self):
        g = grid()
        F = Forcing.from_callable(lambda t, x: np.full(x.shape, np.inf if t > 0.5 else 0.0))
        assert np.all(F.sample(g, [0.25]) == 0.0)
        with pytest.raises(ValueError, match="non-finite values at t=0.75"):
            F.sample(g, [0.25, 0.75, 1.0])
        with np.errstate(divide="ignore"), pytest.raises(ValueError, match="at t=0.5"):
            Forcing.from_expression("1/(t - 0.5)").sample(g, [0.0, 0.25, 0.5])
        with np.errstate(divide="ignore"), pytest.raises(ValueError, match="non-finite"):
            Forcing.from_expression("1/(t - 0.5)").halved().sample(g, [0.5])
        # a label names the config leaf in front of the message, also once halved
        F = Forcing.from_expression("1/(t - 0.5)").labelled("pressure_minus_force")
        assert F.kind == "expression"
        with np.errstate(divide="ignore"), pytest.raises(
                ValueError, match=r"^pressure_minus_force: expression has non-finite values at t=0\.5$"):
            F.halved().sample(g, [0.5])


GRID_2D = Grid((12, 10), (0.5, 0.3), (-3.0, 1.0))
TIMES = np.linspace(-0.25, 1.25, 13)  # the sampled stack is constant beyond its ends


def per_time_expression(source):
    # the former sampling path: the whole mesh at one numpy-scalar time
    expr = compile_expression(source)
    x, y = GRID_2D.meshgrid()
    return lambda t: np.asarray(expr(x=x, y=y, t=np.float64(t)), dtype=float) * np.ones(GRID_2D.shape)


def sampled_forcing():
    times = (0.0, 0.4, 1.0)
    fields = [ScalarField(GRID_2D, np.cos(a * GRID_2D.meshgrid()[0])) for a in (0.5, 1.0, 2.0)]
    stack = np.stack([f.values for f in fields])
    return Forcing.from_samples(times, fields), lambda t: interpolate_in_time(np.asarray(times), stack, t)


def callable_forcing():
    fn = lambda t, x, y: np.sin(y - t) * np.exp(t)  # noqa: E731
    return Forcing.from_callable(fn), lambda t: fn(t, *GRID_2D.meshgrid())


def stack_cases():
    cases = {"constant": (Forcing.constant(-0.75), lambda t: np.full(GRID_2D.shape, -0.75))}
    for source in ("0.7*sin(x)*cos(3*t) + 0.2*cos(5*t) - exp(-y)*t",  # every variable
                   "sin(x)*cos(y)",  # no t
                   "exp(-t)*sin(2*x) + 1/3",  # no y
                   "cos(t)",  # no space
                   "2.5"):  # no variable
        cases[source] = (Forcing.from_expression(source), per_time_expression(source))
    cases["callable"] = callable_forcing()
    cases["sampled"] = sampled_forcing()
    for name in ("0.7*sin(x)*cos(3*t) + 0.2*cos(5*t) - exp(-y)*t", "sampled"):
        F, ref = cases[name]
        cases[f"halved {name}"] = (F.halved(), lambda t, ref=ref: 0.5 * ref(t))
    return cases


class TestStackSampling:
    @pytest.mark.parametrize("name", sorted(stack_cases()))
    def test_stack_equals_per_time_evaluation(self, name):
        F, ref = stack_cases()[name]
        stack = F.sample(GRID_2D, TIMES)
        assert stack.shape == (len(TIMES),) + GRID_2D.shape
        assert stack.flags.writeable and stack.dtype == np.float64
        want = np.stack([np.broadcast_to(ref(float(t)), GRID_2D.shape) for t in TIMES])
        assert stack.tobytes() == want.tobytes()

    def test_times_must_be_a_sequence(self):
        with pytest.raises(ValueError, match="1-D sequence"):
            Forcing.constant(1.0).sample(grid(), 0.5)


class TestRows:
    """``sample_rows`` shares the evaluator and the non-finite check of ``sample``."""

    @pytest.mark.parametrize("F", [
        Forcing.constant(-0.75),
        Forcing.from_expression("0.7*sin(x)*cos(3*t) + exp(-t)*x"),
        Forcing.from_callable(lambda t, x: np.sin(x - t) * np.exp(t)),
    ], ids=["constant", "expression", "callable"])
    def test_rows_on_the_grid_nodes_equal_the_grid_stack(self, F):
        g = grid()
        times = np.linspace(0.0, 1.0, 5)
        assert F.sample_rows(times, g.coords(0)).tobytes() == F.sample(g, times).tobytes()

    def test_sampled_stack_has_no_rows(self):
        g = grid()
        F = Forcing.from_samples((0.0, 1.0), (ScalarField.constant(g, 0), ScalarField.constant(g, 1)))
        with pytest.raises(ValueError, match="different grid"):
            F.sample_rows([0.5], g.coords(0))

    @pytest.mark.parametrize("value, kind", [
        (2, "constant"), (0.5, "constant"), ("x*t", "expression"),
        (compile_expression("x*t"), "expression"), (lambda t, x: x * t, "callable"),
    ], ids=["int", "float", "source", "compiled", "callable"])
    def test_make_accepts_each_kind(self, value, kind):
        F = Forcing.make(value)
        assert F.kind == kind
        x = np.linspace(0.0, 1.0, 4)
        want = np.full((2, 4), float(value)) if kind == "constant" else np.outer([0.5, 1.0], x)
        assert np.array_equal(F.sample_rows([0.5, 1.0], x), want)
        assert Forcing.make(F) is F
