"""Pointwise envelope checks: ceiling, termwise factorial, floor/upper."""

import dataclasses
import json

import numpy as np
import pytest

from duhamel import (
    Forcing,
    Grid,
    ScalarField,
    SeriesOptions,
    ceiling_check,
    floor_check,
    solve_controlled_heat,
    termwise_factorial_check,
)
from duhamel.heat_kernel import KernelApplication
from duhamel.verify import band_limited_field, random_bounded_forcing


def periodic_1d(n=128):
    return Grid((n,), (2 * np.pi / n,), (0.0,))


def solve(G0, F, horizon=0.5, **kw):
    opts = SeriesOptions(depth_max=30, rel_tolerance=1e-12, time_steps=48,
                         output_times=(horizon / 2, horizon), **kw)
    return solve_controlled_heat(G0, F, horizon, opts)


class TestCeiling:
    def test_zero_forcing_equality(self):
        g = periodic_1d()
        x = g.coords(0)
        G0 = ScalarField(g, 1.0 + 0.5 * np.cos(x))  # nonnegative
        sol = solve(G0, Forcing.zero())
        report = ceiling_check(sol, 0.0)
        assert report.passed
        # |G| = K*|G0| exactly when F = 0 and G0 >= 0: slack is rounding-level
        assert abs(report.worst) < 1e-12

    def test_saturated_constant_bound(self):
        g = periodic_1d(64)
        M = 0.9
        sol = solve(ScalarField.constant(g, 1.0), Forcing.constant(M))
        report = ceiling_check(sol, M)
        assert report.passed
        # e^{Mt} vs the truncated series: saturation up to the truncation tail
        assert abs(report.worst) <= sol.estimated_truncation_error + 1e-12

    def test_random_trials(self):
        g = periodic_1d()
        rng = np.random.default_rng(101)
        for _ in range(25):
            F = random_bounded_forcing(g, rng, 0.5, bound=rng.uniform(0.3, 2.0))
            G0 = band_limited_field(g, rng, amplitude=0.6, offset=1.0)
            sol = solve(G0, F)
            assert ceiling_check(sol, sol.forcing_abs_bound).passed

    def test_underestimated_bound_is_detected(self):
        g = periodic_1d(64)
        sol = solve(ScalarField.constant(g, 1.0), Forcing.constant(1.0), horizon=1.0)
        report = ceiling_check(sol, 0.25)
        assert not report.passed
        assert report.worst > 0


class TestTermwise:
    def test_order_zero_triangle_inequality(self):
        g = periodic_1d()
        x = g.coords(0)
        G0 = ScalarField(g, np.sin(x))  # signed initial data
        sol = solve(G0, Forcing.zero())
        assert termwise_factorial_check(sol, 0.0).passed

    def test_constant_case_zero_slack(self):
        g = periodic_1d(64)
        M = 1.2
        sol = solve(ScalarField.constant(g, 1.0), Forcing.constant(M))
        report = termwise_factorial_check(sol, M)
        assert report.passed
        assert abs(report.worst) < 1e-13  # terms saturate the envelope exactly

    def test_random_trials(self):
        g = periodic_1d()
        rng = np.random.default_rng(202)
        for _ in range(25):
            F = random_bounded_forcing(g, rng, 0.5, bound=rng.uniform(0.3, 2.0))
            G0 = band_limited_field(g, rng, amplitude=0.6, offset=1.0)
            sol = solve(G0, F)
            assert termwise_factorial_check(sol, sol.forcing_abs_bound).passed


class TestFloorAndUpper:
    def test_zero_forcing_equality(self):
        g = periodic_1d()
        phi = band_limited_field(g, np.random.default_rng(3), amplitude=0.8)
        G0 = ScalarField(g, np.exp(-0.5 * phi.values))
        sol = solve(G0, Forcing.zero())
        report = floor_check(sol)
        assert report.passed
        assert abs(report.worst) < 1e-12  # floor = ceiling = K * e^{-phi/2}

    def test_constant_forcing_flat_potential(self):
        # the upper envelope exp(sup F t) K*G0 equals G here as well
        g = periodic_1d(64)
        c = 0.6
        phi = ScalarField.constant(g, 0.4)
        G0 = ScalarField(g, np.exp(-0.5 * phi.values))
        sol = solve(G0, Forcing.constant(c))
        report = floor_check(sol)
        assert report.passed
        # floor e^{ct} K*G0 equals G exactly in the flat constant case
        floor_records = [r for r in report.records if r.label == "floor"]
        assert max(abs(r.max_violation) for r in floor_records) < 1e-12

    def test_random_trials(self):
        g = periodic_1d()
        rng = np.random.default_rng(303)
        for _ in range(25):
            F = random_bounded_forcing(g, rng, 0.5, bound=rng.uniform(0.3, 1.5))
            phi = band_limited_field(g, rng, amplitude=rng.uniform(0.3, 1.2))
            G0 = ScalarField(g, np.exp(-0.5 * phi.values))
            sol = solve(G0, F)
            assert floor_check(sol).passed


    def test_signed_initial_field_rejected(self):
        g = periodic_1d(64)
        G0 = ScalarField(g, np.sin(g.coords(0)))
        sol = solve(G0, Forcing.constant(0.3))
        assert not sol.g0_positive
        with pytest.raises(ValueError, match="strictly positive"):
            floor_check(sol)


class TestSolutionEnvelope:
    def test_forcing_envelope_is_node_sample_envelope(self):
        g = periodic_1d(64)
        F = Forcing.from_expression("0.7*sin(x)*cos(3*t) + 0.2*cos(5*t)")
        sol = solve(ScalarField.constant(g, 1.0), F, horizon=0.5)
        nodes = sol.options.nodes(0.5)
        samples = F.sample(g, nodes)
        assert sol.forcing_sup == float(np.max(samples))
        assert sol.forcing_inf == float(np.min(samples))

    def test_propagated_abs_g0_at_output_times(self):
        g = periodic_1d(64)
        G0 = ScalarField(g, np.sin(g.coords(0)))
        sol = solve(G0, Forcing.zero())
        want = KernelApplication(g, sol.trajectory.times).apply(ScalarField(g, np.abs(G0.values)))
        assert len(sol.propagated_abs_g0) == len(want)
        for got, ref in zip(sol.propagated_abs_g0, want):
            assert np.array_equal(got, ref)


class TestReportFormat:
    def test_jsonl_records(self):
        g = periodic_1d(64)
        G0 = ScalarField.constant(g, 1.0)
        sol = solve(G0, Forcing.constant(0.5))
        report = ceiling_check(sol, 0.5)
        lines = report.to_jsonl().strip().split("\n")
        assert len(lines) == len(sol.trajectory.times)
        for line, t in zip(lines, sol.trajectory.times):
            row = json.loads(line)
            assert set(row) >= {"time", "max_violation", "location"}
            assert row["time"] == t
            assert isinstance(row["location"], int)

    def test_termwise_labels(self):
        g = periodic_1d(64)
        G0 = ScalarField.constant(g, 1.0)
        sol = solve(G0, Forcing.constant(0.5))
        report = termwise_factorial_check(sol, 0.5)
        labels = {r.label for r in report.records}
        assert f"k={sol.truncation_depth}" in labels


class TestEnvelopeOverflow:
    """An envelope past double range raises, naming the stage, time and bound."""

    @pytest.mark.parametrize("check, message", [
        (lambda sol: ceiling_check(sol, 2000.0), r"ceiling check: exp\(M t\) overflows at t=0\.5 \(M = 2000\)"),
        (lambda sol: termwise_factorial_check(sol, 1e300),
         r"termwise factorial check: \(M t\)\^k/k! overflows at t=0\.25 \(M = 1e\+300\)"),
        (lambda sol: floor_check(dataclasses.replace(sol, forcing_sup=2000.0)),
         r"floor check: exp\(sup F t\) overflows at t=0\.5 \(sup F = 2000\)"),
    ], ids=["ceiling", "termwise", "floor"])
    def test_check_raises(self, check, message):
        sol = solve(ScalarField.constant(periodic_1d(16), 1.0), Forcing.constant(0.5))
        with pytest.raises(FloatingPointError, match=message):
            check(sol)
