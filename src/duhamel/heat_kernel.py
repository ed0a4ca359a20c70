"""The heat semigroup K(t) and its Duhamel integrals on a grid's torus.

Every grid convolves on a torus through its real Fourier transform
(``grid.padded_torus``, on ``numpy.fft``): the half-spectrum coefficients are
multiplied by exp(-|k|^2 t), the exact semigroup on the torus's discrete
modes, and by the torus's ``scale``, which normalises its inverse transform.
A periodic grid is its own torus.  A truncated free-space grid is extended by
edge replication to twice its extent per axis, rounded up to a fast transform
length; the convolution runs on that padded torus and is cropped back to the
grid.

``KernelApplication(grid, times)`` is the one engine that knows how K acts:
``apply`` gives the node stack of K(t) * field at the times, and ``sweep``
gives the Duhamel formula with an initial value, K(s_j) * initial +
int_0^{s_j} K(s_j - s) * g(s) ds over uniform nodes s_j, by an exponential
(ETD) product rule with g linear between nodes (Cox & Matthews, J. Comput.
Phys. 176, 2002), so the kernel stiffness never enters the quadrature error.
A sweep runs on the torus state, the normalised half spectrum of the swept
field, and hands back that of its last node; another sweep can start from
it, which is how the series restarts on its windows without padding a
cropped field again.  Every window has the same step, so one
``KernelApplication`` over all nodes sweeps each window's slice of them.
The series solver, its tail estimate, its termwise check and the 3-D
worst-case suite use it.

The kernel has unit diffusivity; a diffusivity D is the time unit tau = D t.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .fields import ScalarField
from .grid import Grid, padded_torus

__all__ = ["KernelApplication"]

# the spectra one transform call holds at most, unless one spectrum is larger
_CHUNK_BYTES = 64 * 1024


def _phi1(z: np.ndarray) -> np.ndarray:
    """(1 - exp(-z)) / z, stable down to z = 0."""
    out = np.ones_like(z)
    nz = z > 0
    out[nz] = -np.expm1(-z[nz]) / z[nz]
    return out


# Below the cutoff _f2 sums a positive series; 25 terms reach full double
# precision at z = 2, and above it the closed form cancels by at most 1.7x.
_F2_SERIES_CUTOFF = 2.0
_F2_SERIES = tuple(1.0 / math.factorial(m + 2) for m in range(25))


def _f2(z: np.ndarray) -> np.ndarray:
    """(1 - exp(-z)(1 + z)) / z^2 without cancellation.

    Small z use the equal form exp(-z) sum_m z^m / (m + 2)!, whose terms
    are all positive.
    """
    out = np.empty_like(z)
    small = z < _F2_SERIES_CUTOFF
    big = ~small
    # an infinite z (|k|^2 past double range) is clamped, so that z exp(-z)
    # is 0 rather than inf * 0; zb * zb overflows past 1.3e154, where inf
    # gives the limit value 0
    zb = np.minimum(z[big], 1e300)
    with np.errstate(over="ignore"):
        out[big] = (-np.expm1(-zb) - zb * np.exp(-zb)) / (zb * zb)
    zs = z[small]
    acc = np.full_like(zs, _F2_SERIES[-1])
    for c in reversed(_F2_SERIES[:-1]):
        acc = acc * zs + c
    out[small] = np.exp(-zs) * acc
    return out


class KernelApplication:
    """The heat kernel on one grid at each of ``times`` (finite, >= 0).

    ``apply(field)`` transforms the field once and returns the ``(len(times),
    *grid.shape)`` stack of K(., t) * field at the times; ``t = 0`` is the
    identity and gives the field's own values.  ``sweep`` needs ``times`` to
    be uniform nodes s_j = j dt from 0 and builds its weights on its first call.

    Both transform chunks of as many rows (times or nodes) as have spectra
    within ``_CHUNK_BYTES``, at least one: 15 on a 512-point torus, where
    call overhead dominates, and one on 64^2 and larger tori.  Batched rows
    transform bit for bit as single ones, so the chunk changes no result.
    """

    def __init__(self, grid: Grid, times):
        self.grid = grid
        self.times = tuple(float(t) for t in times)
        # an infinite time would weigh the k = 0 mode by exp(-inf * 0)
        if not all(math.isfinite(t) and t >= 0 for t in self.times):
            raise ValueError(f"kernel times must be finite and >= 0, got {self.times}")
        self.torus = padded_torus(grid)
        self._chunk = max(1, _CHUNK_BYTES // (self.torus.k2.size * np.dtype(complex).itemsize))

    def apply(self, field: ScalarField) -> np.ndarray:
        if field.grid != self.grid:
            raise ValueError("field grid does not match the kernel grid")
        torus, chunk = self.torus, self._chunk
        spectrum = torus.forward(field.values)
        times = np.reshape(self.times, (-1,) + (1,) * self.grid.ndim)
        out = np.empty((len(times), *self.grid.shape))
        # t |k|^2 past double range is inf, whose kernel weight is exactly 0;
        # at t = 0 it is nan, and those rows are replaced by the field
        with np.errstate(over="ignore", invalid="ignore"):
            for lo in range(0, len(times), chunk):
                out[lo:lo + chunk] = torus.inverse(
                    spectrum * (torus.scale * np.exp(-times[lo:lo + chunk] * torus.k2)))
        out[times.ravel() == 0.0] = field.values
        return out

    @functools.cached_property
    def _weights(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """One-step decay and the ETD weights of the old and new node."""
        s = np.asarray(self.times)
        dt = s[1] if len(s) > 1 else 0.0
        # s_j / dt against j: dt * j can round past double range
        if not (dt > 0 and s[0] == 0.0
                and np.max(np.abs(s / dt - np.arange(len(s)))) <= 1e-9 * (len(s) - 1)):
            raise ValueError(f"a sweep needs uniform nodes j * dt from 0, got {self.times}")
        with np.errstate(over="ignore"):
            z = dt * self.torus.k2
        f2 = _f2(z)
        # complex copies of real weights: the products with spectra take the
        # same values without casting the weights on every call.  The
        # quadrature weights carry the torus's scale, so the accumulated
        # spectra come out of its unnormalised inverse normalised.
        decay = np.exp(-z).astype(complex)
        w_old = (self.torus.scale * (dt * f2)).astype(complex)
        w_new = (self.torus.scale * (dt * (_phi1(z) - f2))).astype(complex)
        return decay, w_old, w_new

    def sweep(self, stack: np.ndarray, factor: np.ndarray | None = None,
              initial: np.ndarray | None = None, state: np.ndarray | None = None) -> np.ndarray:
        """Overwrite ``stack`` with K(s_j) * initial + int_0^{s_j} K(s_j - s) * g(s) ds.

        ``stack`` is the ``(n + 1, *grid.shape)`` stack of g at the nodes,
        between which g is linear; with a ``factor`` stack of the same
        shape, g is ``factor * stack``.  Node 0 becomes ``initial``, or
        zeros.  Each chunk is overwritten after its transform; a node whose
        g is zero everywhere is not transformed, so every order past the
        zeroth skips node 0 and a sweep of zeros is one forward transform,
        of ``initial``.  The first m rows of a stack sweep to the first m
        rows of the whole stack's sweep.

        The sweep runs on the torus state, the normalised half spectrum whose
        inverse is the swept field, and returns that of the last node as a
        new array.  ``state`` starts it in place of ``initial``'s transform:
        on a padded torus it carries the field beyond the grid, which the
        cropped ``initial`` has lost.
        """
        decay, w_old, w_new = self._weights
        torus, chunk = self.torus, self._chunk
        # node 0's accumulator is the last row, which each chunk overwrites last
        accs = np.zeros((chunk, *decay.shape), complex)
        acc = state
        if acc is None:
            acc = accs[-1] if initial is None else np.multiply(torus.scale, torus.forward(initial), out=accs[-1])
        g = stack[0] if factor is None else factor[0] * stack[0]
        prev = torus.forward(g) if g.any() else None
        for lo in range(1, len(stack), chunk):
            g = stack[lo:lo + chunk] if factor is None else factor[lo:lo + chunk] * stack[lo:lo + chunk]
            live = g.reshape(len(g), -1).any(axis=1).tolist()
            spectra = iter(torus.forward(g if all(live) else g[live]) if any(live) else ())
            del g  # the chunk's product is not held through its recurrence
            for i, alive in enumerate(live):
                cur = next(spectra) if alive else None
                acc = np.multiply(acc, decay, out=accs[i])
                if prev is not None:
                    acc += w_old * prev
                if cur is not None:
                    acc += w_new * cur
                prev = cur
            stack[lo:lo + chunk] = torus.inverse(accs[:len(live)])
        stack[0] = 0.0 if initial is None else initial
        return acc.copy()

    def majorants(self, offsets, depth: int, rate: float, initial: np.ndarray | None = None,
                  state: np.ndarray | None = None) -> np.ndarray:
        """The ``(len(offsets), depth + 1, *grid.shape)`` stack of e_0..e_depth
        at the nodes s_j, j in the increasing ``offsets``: e_0 = K(s) * |v|
        and e_b the sweep of ``rate`` e_(b-1) from zero.  v is ``initial``,
        padded as ``sweep`` pads it, or the torus field of ``state``, taken
        whole.

        Every ETD weight is a nonnegative mixture of heat kernels, so a sweep
        keeps |sweep(g)| <= sweep(|g|) up to the torus's truncation at
        Nyquist, and edge padding keeps |g| <= e on the grid true on the
        torus.  Order b swept from v, over a factor of modulus at most
        ``rate``, is then at most e_b; since each order is padded from its
        grid values, as the series pads it, e_b is swept and not recurred
        per mode.  An e_b past double range is inf or nan, without a warning.
        """
        torus = self.torus
        if state is None:
            # edge padding commutes with the modulus
            initial = np.abs(initial)
        else:
            axes = tuple(range(-self.grid.ndim, 0))
            field = np.abs(np.fft.irfftn(state, s=torus.shape, axes=axes, norm="forward"))
            state = torus.scale * np.fft.rfftn(field, axes=axes)
            del field
            initial = torus.inverse(state)
        stack = np.zeros((offsets[-1] + 1, *self.grid.shape))
        out = np.empty((len(offsets), depth + 1, *self.grid.shape))
        with np.errstate(over="ignore", invalid="ignore"):
            for b in range(depth + 1):
                if b:
                    stack *= rate
                    self.sweep(stack)
                else:
                    self.sweep(stack, initial=initial, state=state)
                out[:, b] = stack[offsets]
        return out
