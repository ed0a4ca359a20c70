"""Truncated convolution-series solver for the controlled heat equation.

The equation is ``dG/dt = Lap(G) + F * G + S`` with bounded forcing F
and optional source S.  Its solution is the iterated Duhamel series

    T_0(t) = K(t) * G0 + int_0^t K(t-s) * S(s) ds
    T_{k+1}(t) = int_0^t K(t-s) * (F(s) T_k(s)) ds,      G = sum_k T_k

computed order by order on a uniform time grid, which turns the d-fold
nested integrals into O(d * n_t) kernel sweeps.

Every order runs in Fourier space on the grid's torus (see ``heat_kernel``:
periodic grids as they are, free-space grids edge-padded to
``padding_factor`` times their extent).  The solver integrates each mode
against the exact kernel weight exp(-|k|^2 (t-s)) with the integrand
interpolated linearly between nodes, an exponential (ETD) product rule that
removes the kernel stiffness from the quadrature error entirely.

The solver works on node stacks: F and each order are
``(n_t + 1, *grid.shape)`` arrays, and F is sampled once per solve.  A
sweep runs the recurrence node by node on one accumulated spectrum; its
transforms go node by node too, each node's integrand F * T_k formed right
before its transform, except on 1-D grids, where one transform over the
whole integrand stack is faster.  The series is streamed: order k is swept
only when the reconstruction of the terms reaches k, so nothing past the
emitted depth is computed, and the sweeps stop with the series.  Each
recursion holds its latest order at all nodes; earlier orders are kept at
the output nodes only, which is all the reconstruction reads.  Memory is
O(n_t N + depth n_out N) for N grid points and n_out output times, instead
of O(depth n_t N).

``duhamel_step`` (the public single-order operator) is an independent
second quadrature for cross-checks: the composite trapezoid over prior
nodes with the identity convolution at the s = t endpoint.

Sup F and inf F are the envelope of the node samples of F, the values the
quadrature actually used; they are stored on the solution as
``forcing_sup`` and ``forcing_inf``.  Independently of the quadrature, the
forcing is gauge centered: with ``cbar = (sup F + inf F) / 2`` the solver
runs on ``F - cbar`` and restores the series of the original equation
through the exact identity
``T_k = sum_{a+b=k} (cbar t)^a / a! * T~_b``.  For spatially constant
forcing the computed terms are therefore exact to rounding.

The solution also keeps K(t) * |G0| at the output times, which the tail
estimate needs.  The ``*_check`` functions read it, with the forcing
envelope, to verify the pointwise ceiling, floor and termwise factorial
envelopes of the series; they tolerate a 1e-9 relative slack for spectral
ringing and quadrature noise.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .fields import ScalarField, Trajectory
from .forcing import Forcing
from .grid import Grid, padded_torus
from .heat_kernel import convolve_times

__all__ = [
    "SeriesOptions",
    "SeriesSolution",
    "BoundRecord",
    "BoundReport",
    "duhamel_step",
    "solve_controlled_heat",
    "ceiling_check",
    "termwise_factorial_check",
    "floor_check",
]

_DEPTH_LIMIT = 64
_RTOL_FLOOR = 1e-14
BOUND_SLACK = 1e-9


@dataclass(frozen=True)
class SeriesOptions:
    """Truncation and quadrature controls for the series solver."""

    depth_max: int = 24
    rel_tolerance: float = 1e-12
    time_steps: int = 64
    output_times: tuple[float, ...] | None = None

    def __post_init__(self):
        if not 0 <= self.depth_max <= _DEPTH_LIMIT:
            raise ValueError(f"depth_max must be in [0, {_DEPTH_LIMIT}]")
        if not self.rel_tolerance >= _RTOL_FLOOR:
            raise ValueError(f"rel_tolerance must be >= {_RTOL_FLOOR}")
        if self.time_steps < 1:
            raise ValueError("time_steps must be >= 1")
        if self.output_times is not None:
            object.__setattr__(self, "output_times", tuple(float(t) for t in self.output_times))
            if not self.output_times:
                raise ValueError("output_times must not be empty")

    def nodes(self, horizon: float) -> np.ndarray:
        return np.linspace(0.0, float(horizon), self.time_steps + 1)

    def output_indices(self, horizon: float) -> list[int]:
        """Indices of the requested output times on the uniform node grid."""
        nodes = self.nodes(horizon)
        if self.output_times is None:
            return list(range(len(nodes)))
        indices = []
        for t in self.output_times:
            j = int(round(t / horizon * self.time_steps))
            if not 0 <= j <= self.time_steps or abs(nodes[j] - t) > 1e-9 * max(horizon, 1.0):
                raise ValueError(f"output time {t} is not a node of the s-grid")
            indices.append(j)
        if len(set(indices)) != len(indices) or any(
            b <= a for a, b in zip(indices, indices[1:])
        ):
            raise ValueError("output times must be strictly increasing s-grid nodes")
        return indices


# ---------------------------------------------------------------------------
# quadrature engine


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
    zb = z[big]
    out[big] = (-np.expm1(-zb) - zb * np.exp(-zb)) / (zb * zb)
    zs = z[small]
    acc = np.full_like(zs, _F2_SERIES[-1])
    for c in reversed(_F2_SERIES[:-1]):
        acc = acc * zs + c
    out[small] = np.exp(-zs) * acc
    return out


class _SpectralEngine:
    """Order sweeps in Fourier space on the grid's torus, exact kernel weighting.

    On 1-D grids each transform runs once over the whole node stack: there a
    single transform is small, call overhead dominates, and the stacked
    transforms measured about 5x faster (512-point torus, 65 nodes).  So a
    1-D sweep forms its whole integrand stack (``factor * integrand``) and
    transforms it at once.  On 2-D and 3-D grids the per-node transforms
    measured faster, and they hold one spectrum at a time instead of n + 1;
    a sweep there forms each node's integrand right before that node's
    transform, so no integrand stack is allocated.
    """

    def __init__(self, grid: Grid, dt: float, n_steps: int):
        self.grid = grid
        self.n = n_steps
        self.torus = padded_torus(grid)
        self.stacked = grid.ndim == 1
        z = dt * self.torus.k2
        f2 = _f2(z)
        # complex copies of real weights: the products with spectra take the
        # same values without casting the weights on every call
        self.decay = np.exp(-z).astype(complex)
        self.w_old = (dt * f2).astype(complex)
        self.w_new = (dt * (_phi1(z) - f2)).astype(complex)

    def _nodes(self, first: np.ndarray | float, spectra) -> np.ndarray:
        """Node stack with ``first`` at node 0 and node j = inverse of spectrum j.

        ``spectra`` yields the spectra of nodes 1..n; each one is consumed
        before the next is produced.
        """
        out = np.empty((self.n + 1,) + self.grid.shape)
        out[0] = first
        if self.stacked:
            stack = np.empty((self.n,) + self.decay.shape, dtype=complex)
            for j, spec in enumerate(spectra):
                stack[j] = spec
            out[1:] = self.torus.inverse(stack)
        else:
            for j, spec in enumerate(spectra, 1):
                out[j] = self.torus.inverse(spec)
        return out

    def propagate_initial(self, g0_values: np.ndarray) -> np.ndarray:
        """K(s_j) * G0 at every node, by repeated one-step decay.

        Returns the ``(n + 1, *grid.shape)`` node stack.
        """
        def spectra():
            spec = self.torus.forward(g0_values)
            for _ in range(self.n):
                spec *= self.decay
                yield spec

        return self._nodes(g0_values, spectra())

    def sweep(self, integrand: np.ndarray, factor: np.ndarray | None = None) -> np.ndarray:
        """int_0^{s_j} K(s_j - s) * g(s) ds for all j, g piecewise linear.

        ``integrand`` is the ``(n + 1, *grid.shape)`` stack of g at the
        nodes, and so is the result.  With a ``factor`` stack of the same
        shape, g is ``factor * integrand``.
        """
        if self.stacked:
            nodes = iter(self.torus.forward(integrand if factor is None else factor * integrand))
        else:
            if factor is not None:
                integrand = map(np.multiply, factor, integrand)
            nodes = map(self.torus.forward, integrand)

        def spectra():
            prev = next(nodes)
            acc = np.zeros_like(prev)
            for cur in nodes:
                acc *= self.decay
                acc += self.w_old * prev
                acc += self.w_new * cur
                yield acc
                prev = cur

        return self._nodes(0.0, spectra())


# ---------------------------------------------------------------------------
# public single-order operator


def duhamel_step(term_trajectory: Trajectory, F: Forcing) -> Trajectory:
    """Next series order from the full trajectory of the previous one.

    ``T_next(t_j) = int_0^{t_j} K(t_j - s) * (F(s) T(s)) ds`` evaluated by
    the composite trapezoid over the trajectory nodes, each K(m dt) applied
    on the grid's torus; the s = t endpoint enters through the identity
    convolution.  The trajectory must start at t = 0 on a uniform node grid.
    """
    times = np.asarray(term_trajectory.times)
    if times[0] != 0.0:
        raise ValueError("term trajectory must start at t = 0")
    if not term_trajectory.is_uniform():
        raise ValueError("term trajectory must live on a uniform s-grid")
    grid = term_trajectory.grid
    n = len(times) - 1
    if n < 1:
        raise ValueError("need at least two nodes for a Duhamel step")
    dt = float(times[1] - times[0])
    torus = padded_torus(grid)
    decay = torus.damping(dt)
    f_stack = F.sample(grid, times)
    nodes = (torus.forward(fv * snap.values) for fv, snap in zip(f_stack, term_trajectory.snapshots))
    first = next(nodes)
    run = first.copy()  # sum_i decay^(j-i) ghat_i, full weights
    symbol_j = np.ones_like(decay)
    out = [np.zeros(grid.shape)]
    for ghat in nodes:
        run = run * decay + ghat
        symbol_j = symbol_j * decay
        out.append(torus.inverse(dt * (run - 0.5 * symbol_j * first - 0.5 * ghat)))
    return Trajectory(tuple(times), tuple(ScalarField(grid, v) for v in out))


# ---------------------------------------------------------------------------
# solver


@dataclass(frozen=True, eq=False)
class SeriesSolution:
    """Series solution with its term stack and truncation metadata.

    ``forcing_sup``/``forcing_inf`` are the envelope of F over the node
    samples the solver used, ``propagated_abs_g0`` holds K(t) * |G0| at the
    output times, and ``g0_positive`` records whether G0 > 0 everywhere.
    ``metadata`` holds the gauge centre, the engine summary, the sup norm of
    each emitted term over the output nodes (``order_norms``) and why the
    series stopped (``stop_reason``): ``tolerance`` (the newest term fell
    below ``rel_tolerance`` times the sum), ``zero_tail`` (the next term was
    exactly zero) or ``depth_max``.
    """

    trajectory: Trajectory
    terms: tuple[tuple[ScalarField, ...], ...]
    truncation_depth: int
    estimated_truncation_error: float
    not_converged: bool
    options: SeriesOptions
    forcing_sup: float
    forcing_inf: float
    propagated_abs_g0: tuple[np.ndarray, ...]
    g0_positive: bool
    metadata: dict = field(default_factory=dict)

    @property
    def grid(self) -> Grid:
        return self.trajectory.grid

    @property
    def forcing_abs_bound(self) -> float:
        return max(abs(self.forcing_sup), abs(self.forcing_inf))


def _power_series_row(x: float, kmax: int) -> np.ndarray:
    """x^a / a! for a = 0..kmax, by stable iterative products (in Python
    floats, so an entry past double range is inf without a warning)."""
    x = float(x)
    row = [1.0]
    for a in range(1, kmax + 1):
        row.append(row[-1] * x / a)
    return np.array(row)


def _exp(x: float) -> float:
    """math.exp, but inf where it overflows."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _representable(value, stage: str, form: str, t: float, bound: str, rate: float):
    """``value`` (the envelope ``form`` at ``t``) if finite, else ``FloatingPointError``."""
    if not np.all(np.isfinite(value)):
        raise FloatingPointError(f"{stage}: {form} overflows at t={t:g} ({bound} = {rate:g})")
    return value


def _sup_abs(values: np.ndarray) -> float:
    """max |values|, without an |values| temporary."""
    return max(float(values.max()), -float(values.min()))


def _orders(engine: _SpectralEngine, order: np.ndarray, forcing: np.ndarray,
            rel_tolerance: float, out_idx: list[int]):
    """Output-node slices of the orders of one series recursion, on demand.

    Order 0 is the node stack ``order``; order k + 1 is the sweep of
    ``forcing`` times order k.  Only the latest order is held at all nodes,
    and the next one is swept only when it is asked for.  The recursion ends
    after an order whose sup over all nodes is negligible next to order 0's.
    """
    negligible = rel_tolerance * 1e-3 * max(_sup_abs(order), 1e-300)
    while True:
        yield order[out_idx]
        if _sup_abs(order) <= negligible:
            return
        order = engine.sweep(order, forcing)


def solve_controlled_heat(
    G0: ScalarField,
    F: Forcing,
    horizon: float,
    opts: SeriesOptions | None = None,
    source=None,
) -> SeriesSolution:
    """Solve dG/dt = Lap(G) + F G (+ source) by the truncated series.

    ``source``, when given, is a Forcing-like object sampled at the time
    nodes and absorbed into the zeroth term.  Terms are appended until the
    relative sup norm of the newest term drops below ``rel_tolerance`` or
    ``depth_max`` is reached; the latter sets ``not_converged``.  Each order
    is swept only when its term is reconstructed, so no order past the
    emitted depth is computed.  A sum that overflows double precision
    raises ``FloatingPointError``, and so does an exponential envelope that
    does (in the tail estimate here or in the ``*_check`` functions), with
    a message naming the stage, the time and the bound.
    """
    if not horizon > 0:
        raise ValueError("horizon must be positive")
    opts = opts or SeriesOptions()
    grid = G0.grid
    nodes = opts.nodes(horizon)
    n = opts.time_steps
    dt = float(nodes[1] - nodes[0])
    out_idx = opts.output_indices(horizon)
    engine = _SpectralEngine(grid, dt, n)

    f_stack = F.sample(grid, nodes)
    f_sup = float(np.max(f_stack))
    f_inf = float(np.min(f_stack))
    cbar = 0.5 * (f_sup + f_inf)

    # homogeneous part, gauge centered; source part, direct recursion in the
    # uncentered forcing
    hom = _orders(engine, engine.propagate_initial(G0.values), f_stack - cbar,
                  opts.rel_tolerance, out_idx)
    src = iter(())
    if source is not None:
        src = _orders(engine, engine.sweep(source.sample(grid, nodes)), f_stack,
                      opts.rel_tolerance, out_idx)
    del f_stack  # the recursions hold the stacks they use

    # reconstruct the series of the original forcing at the output nodes:
    # T_k = sum_{a+b=k} (cbar t)^a / a! * T~_b
    out_times = [float(nodes[j]) for j in out_idx]
    n_out = len(out_idx)
    pow_rows = np.array([_power_series_row(cbar * t, opts.depth_max) for t in out_times])
    pow_rows = pow_rows.reshape(pow_rows.shape + (1,) * grid.ndim)
    hom_out: list[np.ndarray] = []
    src_first = None
    terms: list[np.ndarray] = []  # term k at the output nodes
    order_norms: list[float] = []
    total = None  # literal left-fold sum of the emitted terms
    stop_reason = "depth_max"
    # an order past double range turns into inf and nan without warnings;
    # the finite check on the sum reports it
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(opts.depth_max + 1):
            hom_k = next(hom, None)
            if hom_k is not None:
                hom_out.append(hom_k)
            tk = np.zeros((n_out,) + grid.shape)
            for b, hom_b in enumerate(hom_out):
                tk = tk + pow_rows[:, k - b] * hom_b
            src_k = next(src, None)
            if src_k is not None:
                tk = tk + src_k
                if k == 0:
                    src_first = src_k
            term_norm = float(np.max(np.abs(tk)))
            if k >= 1 and term_norm == 0.0:
                stop_reason = "zero_tail"  # the series has collapsed
                break
            terms.append(tk)
            order_norms.append(term_norm)
            total = tk if total is None else total + tk
            g_scale = max(float(np.max(np.abs(total))), 1e-300)
            if not math.isfinite(g_scale):
                raise FloatingPointError(
                    f"the series sum overflows at order {k} (sup |F| = {max(f_sup, -f_inf):.3g})"
                )
            if k >= 1 and term_norm < opts.rel_tolerance * g_scale:
                stop_reason = "tolerance"
                break
    depth = len(terms) - 1
    snapshots = [ScalarField(grid, g) for g in total]
    term_fields = tuple(tuple(ScalarField(grid, tk[m]) for tk in terms) for m in range(n_out))

    # factorial tail estimate at the emitted depth
    m_abs = max(abs(f_sup), abs(f_inf))
    kg0 = tuple(f.values for f in
                convolve_times(ScalarField(grid, np.abs(G0.values)), out_times))
    est = 0.0
    for m in range(n_out):
        t = out_times[m]
        tail = _exp(m_abs * t) * float(_power_series_row(m_abs * t, depth + 1)[depth + 1])
        _representable(tail, "tail estimate", f"exp(M t) (M t)^{depth + 1}/{depth + 1}!", t, "M", m_abs)
        scale = float(np.max(kg0[m]))
        if src_first is not None:
            scale += float(np.max(np.abs(src_first[m])))
        est = max(est, tail * scale)

    # g_scale is still that of the full sum: every exit from the loop follows
    # its last update
    not_converged = bool(stop_reason == "depth_max" and est > opts.rel_tolerance * g_scale)

    metadata = {"gauge_center": cbar, "engine": engine.torus.summary(),
                "order_norms": order_norms, "stop_reason": stop_reason}

    return SeriesSolution(
        trajectory=Trajectory(tuple(out_times), tuple(snapshots)),
        terms=term_fields,
        truncation_depth=depth,
        estimated_truncation_error=float(est),
        not_converged=not_converged,
        options=opts,
        forcing_sup=f_sup,
        forcing_inf=f_inf,
        propagated_abs_g0=kg0,
        g0_positive=bool(np.all(G0.values > 0)),
        metadata=metadata,
    )


# ---------------------------------------------------------------------------
# bound verification


@dataclass(frozen=True)
class BoundRecord:
    time: float
    max_violation: float
    location: int
    label: str = ""
    tolerance: float = 0.0

    @property
    def ok(self) -> bool:
        return self.max_violation <= self.tolerance


@dataclass(frozen=True)
class BoundReport:
    """Pointwise bound verification outcome across output times."""

    check: str
    records: tuple[BoundRecord, ...]

    @property
    def passed(self) -> bool:
        return all(r.ok for r in self.records)

    @property
    def worst(self) -> float:
        return max((r.max_violation for r in self.records), default=float("-inf"))

    def to_jsonl(self) -> str:
        lines = []
        for r in self.records:
            row = {"time": r.time, "max_violation": r.max_violation, "location": r.location}
            if r.label:
                row["label"] = r.label
            lines.append(json.dumps(row))
        return "\n".join(lines) + "\n"


def _compare(lhs: np.ndarray, rhs: np.ndarray, time: float, slack: float, label: str = "") -> BoundRecord:
    """Record of max(lhs - rhs) with the local-scale tolerance at that point."""
    diff = lhs - rhs
    loc = int(np.argmax(diff))
    scale = np.maximum(np.abs(lhs), np.abs(rhs))
    margin = diff - slack * scale
    worst_loc = int(np.argmax(margin))
    # report the point that is worst relative to its own tolerance
    loc = worst_loc if margin.flat[worst_loc] > 0 else loc
    return BoundRecord(
        time=time,
        max_violation=float(diff.flat[loc]),
        location=loc,
        label=label,
        tolerance=float(slack * scale.flat[loc]),
    )


def ceiling_check(sol: SeriesSolution, M: float) -> BoundReport:
    """Verify |G(x,t)| <= exp(M t) K(t) * |G0| pointwise at output times."""
    records = []
    for (t, snap), kg in zip(sol.trajectory, sol.propagated_abs_g0):
        rhs = _representable(_exp(M * t), "ceiling check", "exp(M t)", t, "M", M) * kg
        records.append(_compare(np.abs(snap.values).ravel(), rhs.ravel(), t, BOUND_SLACK))
    return BoundReport("ceiling", tuple(records))


def termwise_factorial_check(sol: SeriesSolution, M: float) -> BoundReport:
    """Verify |T_k(x,t)| <= (M t)^k / k! K(t) * |G0| for every emitted term."""
    records = []
    for m, (t, _) in enumerate(sol.trajectory):
        env = _representable(_power_series_row(M * t, sol.truncation_depth),
                             "termwise factorial check", "(M t)^k/k!", t, "M", M)
        for k, term in enumerate(sol.terms[m]):
            rhs = env[k] * sol.propagated_abs_g0[m]
            records.append(
                _compare(np.abs(term.values).ravel(), rhs.ravel(), t, BOUND_SLACK, label=f"k={k}")
            )
    return BoundReport("termwise_factorial", tuple(records))


def floor_check(sol: SeriesSolution) -> BoundReport:
    """Verify the positivity floor and matching upper estimate.

    For a strictly positive G0 (the Cole-Hopf G0 = exp(-phi/2)) the
    comparison principle gives, for either sign of inf F and sup F,
      G(x,t) >= exp(inf F * t) [K(t) * G0]   and
      G(x,t) <= exp(sup F * t) [K(t) * G0].
    """
    if not sol.g0_positive:
        raise ValueError("the floor check needs a strictly positive G0")
    records = []
    for (t, snap), kg in zip(sol.trajectory, sol.propagated_abs_g0):
        floor = _representable(_exp(sol.forcing_inf * t), "floor check", "exp(inf F t)", t,
                               "inf F", sol.forcing_inf) * kg
        upper = _representable(_exp(sol.forcing_sup * t), "floor check", "exp(sup F t)", t,
                               "sup F", sol.forcing_sup) * kg
        g = snap.values.ravel()
        records.append(_compare(floor.ravel(), g, t, BOUND_SLACK, label="floor"))
        records.append(_compare(g, upper.ravel(), t, BOUND_SLACK, label="upper"))
    return BoundReport("floor_and_upper", tuple(records))
