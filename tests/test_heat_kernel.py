"""Heat-kernel convolution on periodic and padded free-space tori."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from duhamel import (
    FreeSpaceTruncated,
    Grid,
    KernelApplication,
    ScalarField,
)
from duhamel.fields import _gradient
from duhamel.grid import padded_torus


def kernel_eval(x, t: float) -> float:
    """Heat kernel density (4 pi t)^(-n/2) exp(-|x|^2 / (4 t)), the
    quadrature oracles' integrand.

    ``x`` may be a scalar (n = 1) or a length-n point.
    """
    if not t > 0:
        raise ValueError(f"kernel time must be positive, got {t}")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    r2 = float(np.dot(x, x))
    return (4.0 * math.pi * t) ** (-0.5 * x.size) * math.exp(-r2 / (4.0 * t))


def convolve(field, t):
    """K(., t) * field, one time through ``KernelApplication``."""
    (out,) = KernelApplication(field.grid, (t,)).apply(field)
    return ScalarField(field.grid, out)


def periodic_1d(n=256):
    return Grid((n,), (2 * np.pi / n,), (0.0,))


class TestKernelEval:
    def test_origin_value_any_dim(self):
        for n in (1, 2, 3):
            t = 0.37
            assert np.isclose(kernel_eval(np.zeros(n), t), (4 * math.pi * t) ** (-n / 2), rtol=1e-15)

    def test_normalizing_time(self):
        # (4 pi t)^{-1/2} = 1 exactly when t = 1/(4 pi)
        assert np.isclose(kernel_eval(0.0, 1 / (4 * math.pi)), 1.0, rtol=1e-15)

    def test_closed_form_point(self):
        # oracle: high-precision evaluation of (4 pi)^{-1/2} e^{-1}
        import mpmath

        mpmath.mp.dps = 30
        want = float(1 / mpmath.sqrt(4 * mpmath.pi) * mpmath.e**-1)
        assert np.isclose(kernel_eval(2.0, 1.0), want, rtol=1e-14)
        assert np.isclose(want, 0.1037769, atol=5e-8)

    def test_rejects_nonpositive_time(self):
        with pytest.raises(ValueError):
            kernel_eval(1.0, 0.0)
        with pytest.raises(ValueError):
            kernel_eval(1.0, -0.5)


class TestConvolve:
    def test_constant_preserved(self):
        g = periodic_1d(64)
        for t in (0.0, 0.01, 1.0, 10.0):
            out = convolve(ScalarField.constant(g, 3.25), t)
            assert np.max(np.abs(out.values - 3.25)) < 1e-12

    def test_identity_at_zero_time(self):
        g = periodic_1d(64)
        f = ScalarField(g, np.sin(g.coords(0)))
        (out,) = KernelApplication(g, (0.0,)).apply(f)
        assert out.tobytes() == f.values.tobytes()

    def test_gaussian_gaussian_identity_against_quadrature(self):
        # K(.,t) * e^{-x^2/4a} = sqrt(a/(a+t)) e^{-x^2/(4(a+t))}
        n, extent = 256, 32.0
        h = extent / n
        g = Grid((n,), (h,), (-extent / 2,), FreeSpaceTruncated())
        x = g.coords(0)
        a, t = 0.7, 0.4
        f = ScalarField(g, np.exp(-(x**2) / (4 * a)))
        out = convolve(f, t)
        closed = np.sqrt(a / (a + t)) * np.exp(-(x**2) / (4 * (a + t)))
        assert np.max(np.abs(out.values - closed)) < 1e-10

        # independent adaptive-quadrature oracle at a few node coordinates
        for xi in (-3.1, 0.0, 1.7):
            idx = int(np.argmin(np.abs(x - xi)))
            xn = x[idx]
            oracle, err = quad(
                lambda y: kernel_eval(xn - y, t) * math.exp(-(y**2) / (4 * a)),
                -extent / 2,
                extent / 2,
            )
            assert abs(out.values[idx] - oracle) < 1e-8 + 10 * err

    def test_rejects_negative_time(self):
        g = periodic_1d(64)
        with pytest.raises(ValueError, match=">= 0"):
            KernelApplication(g, (-0.1,))
        with pytest.raises(ValueError, match=">= 0"):
            KernelApplication(g, (0.2, -0.1))

    def test_rejects_field_on_another_grid(self):
        app = KernelApplication(periodic_1d(64), (0.1,))
        with pytest.raises(ValueError, match="grid"):
            app.apply(ScalarField.constant(periodic_1d(32), 1.0))

    def test_times_share_one_transform(self):
        g = Grid((64,), (0.25,), (-8.0,), FreeSpaceTruncated())
        f = ScalarField(g, np.exp(-g.coords(0) ** 2))
        outs = KernelApplication(g, (0.0, 0.1, 0.5)).apply(f)
        assert outs[0].tobytes() == f.values.tobytes()
        for t, out in zip((0.1, 0.5), outs[1:]):
            (alone,) = KernelApplication(g, (t,)).apply(f)
            assert np.array_equal(out, alone)

    def test_spectral_mass_preserving(self):
        g = periodic_1d(128)
        rng = np.random.default_rng(0)
        f = ScalarField(g, rng.normal(size=128))
        out = convolve(f, 0.63)
        assert abs(np.mean(out.values) - np.mean(f.values)) < 1e-14


class TestConvolveGrad:
    # the gradient of K * field, taken as the velocity pullback takes it:
    # _gradient(grid, K(., t) * field)

    def test_constant_gives_zero(self):
        g = periodic_1d(64)
        out = _gradient(g, convolve(ScalarField.constant(g, 5.0), 0.1).values)
        assert np.max(np.abs(out[0])) < 1e-13

    def test_heat_mode(self):
        g = periodic_1d(256)
        x = g.coords(0)
        out = _gradient(g, convolve(ScalarField(g, np.sin(x)), 0.35).values)
        assert np.max(np.abs(out[0] - math.exp(-0.35) * np.cos(x))) < 1e-12

    def test_dual_path_agreement(self):
        # differentiate after convolving vs convolve the derivative
        g = periodic_1d(256)
        x = g.coords(0)
        rng = np.random.default_rng(42)
        vals = 1.0 + sum(
            rng.normal(0, 0.3) * np.cos(k * x + rng.uniform(0, 2 * np.pi)) for k in range(1, 5)
        )
        f = ScalarField(g, vals)
        after = _gradient(g, convolve(f, 0.05).values)[0]
        before = convolve(ScalarField(g, _gradient(g, f.values)[0]), 0.05).values
        gap = np.max(np.abs(after - before))
        assert gap < 1e-8


class TestInvariants:
    def test_normalization_periodic(self):
        g = periodic_1d(128)
        one = ScalarField.constant(g, 1.0)
        for t in (1e-6, 0.1, 2.0):
            assert np.max(np.abs(convolve(one, t).values - 1.0)) < 1e-12

    def test_normalization_free_space(self):
        # edge replication keeps constants constant on the padded torus, for
        # even pad widths (128, 24, 40 points) and odd ones (33, 15, 11 points)
        for g in (
            Grid((128,), (0.125,), (-8.0,), FreeSpaceTruncated()),
            Grid((33,), (0.5,), (-8.0,), FreeSpaceTruncated()),
            Grid((24, 40), (0.5, 0.25), (-6.0, -5.0), FreeSpaceTruncated()),
            Grid((15, 11), (0.8, 1.0), (-6.0, -5.0), FreeSpaceTruncated()),
        ):
            one = ScalarField.constant(g, 1.0)
            for t in (1e-6, 0.5, 5.0):
                assert np.max(np.abs(convolve(one, t).values - 1.0)) < 1e-12

    def test_semigroup(self):
        g = periodic_1d(128)
        rng = np.random.default_rng(7)
        f = ScalarField(g, rng.normal(size=128))
        once = convolve(convolve(f, 0.2), 0.3)
        direct = convolve(f, 0.5)
        assert np.max(np.abs(once.values - direct.values)) < 1e-8

    def test_positivity(self):
        g = periodic_1d(128)
        x = g.coords(0)
        f = ScalarField(g, np.maximum(np.sin(x), 0.0))  # kinked, nonnegative
        out = convolve(f, 0.05)
        assert out.values.min() > -1e-12 * f.max_abs

    def test_sup_norm_non_increasing(self):
        g = periodic_1d(128)
        rng = np.random.default_rng(9)
        f = ScalarField(g, rng.normal(size=128))
        for t in (0.01, 0.1, 1.0):
            assert convolve(f, t).max_abs <= f.max_abs + 1e-12 * f.max_abs


class TestPaddedTorus:
    def test_padded_shape(self):
        assert padded_torus(periodic_1d(64)).shape == (64,)
        g = Grid((64, 45), (0.5, 0.5), (-16.0, -11.0), FreeSpaceTruncated())
        assert padded_torus(g).shape == (128, 90)
        g3 = Grid((33,), (0.5,), (-8.0,), FreeSpaceTruncated())
        assert padded_torus(g3).shape == (72,)  # next fast length >= 66

    def test_edge_padding_matches_quadrature(self):
        # a step keeps its edge values while the torus seam, where the two
        # edges meet, is far enough away from the grid
        g = Grid((128,), (0.125,), (-8.0,), FreeSpaceTruncated())
        x = g.coords(0)
        t = 0.5
        ref = convolve(ScalarField(g, np.tanh(x)), t).values
        # oracle: the edge-replicated step convolved by adaptive quadrature
        for xi in (-7.9, 0.3, 7.9):
            i = int(np.argmin(np.abs(x - xi)))
            oracle, _ = quad(
                lambda y: kernel_eval(x[i] - y, t) * math.tanh(min(max(y, x[0]), x[-1])),
                x[i] - 12, x[i] + 12, points=[x[0], x[-1]], limit=200,
            )
            assert abs(ref[i] - oracle) < 1e-8  # the edge kink costs O(h^2) * 1e-6

    def test_results_own_their_memory(self):
        # no result may be a view into a larger (padded or complex) array
        for g in (periodic_1d(64), Grid((64, 32), (0.25, 0.5), (-8.0, -8.0), FreeSpaceTruncated())):
            f = ScalarField(g, np.cos(g.meshgrid()[0]))
            owner = convolve(f, 0.3).values
            while owner.base is not None:
                owner = owner.base
            assert owner.nbytes == f.values.nbytes

    @pytest.mark.parametrize("grid", [
        periodic_1d(64),
        Grid((64,), (0.25,), (-8.0,), FreeSpaceTruncated()),
        Grid((16, 12), (0.4, 0.5), (0.0, 0.0)),
        Grid((15, 11), (0.4, 0.5), (-3.0, -3.0), FreeSpaceTruncated()),
    ], ids=["periodic-1d", "free-1d", "periodic-2d", "free-2d"])
    def test_leading_axes_are_a_batch(self, grid):
        # a stack transforms exactly as its fields one by one
        torus = padded_torus(grid)
        rng = np.random.default_rng(5)
        stack = rng.normal(size=(2, 3) + grid.shape)
        spectra = torus.forward(stack)
        for i in range(2):
            for j in range(3):
                one = torus.forward(stack[i, j])
                assert np.array_equal(spectra[i, j], one)
                assert np.array_equal(torus.inverse(spectra)[i, j], torus.inverse(one))
