"""Truncated convolution-series solver for the controlled heat equation.

The equation is ``dG/dt = Lap(G) + F * G + S`` with bounded forcing F
and optional source S.  Its solution is the iterated Duhamel series

    T_0(t) = K(t) * G0 + int_0^t K(t-s) * S(s) ds
    T_{k+1}(t) = int_0^t K(t-s) * (F(s) T_k(s)) ds,      G = sum_k T_k

computed order by order on a uniform time grid, which turns the d-fold
nested integrals into O(d * n_t) kernel sweeps.

Every order, the zeroth included, is one ``sweep`` of a
``heat_kernel.KernelApplication`` over the nodes, from G0 for the zeroth
order and from zero after it, so this module calls no transform.  The
solver works on ``(n_t + 1, *grid.shape)`` node stacks, samples F once per
solve and streams the series with one stopping rule, the term test of
``solve_controlled_heat``: each order is swept in place over the one before
it right before its term is due, so nothing past the emitted depth is
computed.  A solve holds two node stacks, F - cbar and the latest order,
plus one copy of every order at the output nodes, which is all the
reconstruction reads and from which the solution builds ``terms`` on first
access.  The sum of the terms is the solution's ``Trajectory``, one
``(n_out, *grid.shape)`` stack like every term.  Memory is
O(n_t N + depth n_out N) for N grid points and n_out output times, instead
of O(depth n_t N).

Sup F and inf F are the envelope of the node samples of F, the values the
quadrature actually used; they are stored on the solution as
``forcing_sup`` and ``forcing_inf``.  Independently of the quadrature, the
equation is gauge centered: with ``cbar = (sup F + inf F) / 2``,
G = exp(cbar t) H and dH/dt = Lap(H) + (F - cbar) H + exp(-cbar t) S.  H's
zeroth order is the sweep of the reweighted source from G0, and the
exact identity ``T_k = sum_{a+b=k} (cbar t)^a / a! * H_b`` restores the
series of the original equation.  For spatially constant forcing the
computed terms are therefore exact to rounding; with a source they sum to G,
but the source integral is spread over all of them instead of T_0 alone.

The solution also keeps the stack of K(t) * |G0| at the output times, which
the tail estimate needs, from the ``apply`` of a ``KernelApplication`` over
those times.
The ``*_check`` functions read it, with the forcing envelope, to verify the
pointwise ceiling, floor and termwise factorial envelopes of the series;
they tolerate a 1e-9 relative slack for spectral ringing and quadrature
noise.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .fields import ScalarField, Trajectory
from .forcing import Forcing
from .grid import Grid
from .heat_kernel import KernelApplication

__all__ = [
    "SeriesOptions",
    "SeriesSolution",
    "BoundRecord",
    "BoundReport",
    "solve_controlled_heat",
    "ceiling_check",
    "termwise_factorial_check",
    "floor_check",
]

_DEPTH_LIMIT = 64
# a solve holds two node stacks of time_steps + 1 rows: a million steps take
# 16 MB per grid point
_STEPS_LIMIT = 10**6
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
        if not 1 <= self.time_steps <= _STEPS_LIMIT:
            raise ValueError(f"time_steps must be in [1, {_STEPS_LIMIT}]")
        if self.output_times is not None:
            object.__setattr__(self, "output_times", tuple(float(t) for t in self.output_times))
            if not self.output_times:
                raise ValueError("output_times must not be empty")
            bad = [t for t in self.output_times if not math.isfinite(t)]
            if bad:
                raise ValueError(f"output_times must be finite, got {bad}")

    def nodes(self, horizon: float) -> np.ndarray:
        # linspace sets the last node to the horizon; only the n * (horizon/n)
        # it overwrites can round past double range
        with np.errstate(over="ignore"):
            return np.linspace(0.0, float(horizon), self.time_steps + 1)

    def output_indices(self, horizon: float) -> list[int]:
        """Indices of the requested output times on the uniform node grid."""
        nodes = self.nodes(horizon)
        if self.output_times is None:
            return list(range(len(nodes)))
        tol = 1e-9 * max(horizon, 1.0)
        indices = []
        for t in self.output_times:
            # a time off [0, horizon] is rejected before t / horizon can overflow
            j = int(round(t / horizon * self.time_steps)) if -tol <= t <= horizon + tol else -1
            if not 0 <= j <= self.time_steps or abs(nodes[j] - t) > tol:
                raise ValueError(f"output time {t} is not a node of the s-grid")
            indices.append(j)
        for m in range(1, len(indices)):
            if indices[m] <= indices[m - 1]:
                s, t = self.output_times[m - 1 : m + 1]
                # increasing times can still round to one node within tol
                if s < t:
                    raise ValueError(f"output times {s} and {t} both fall on s-grid node {indices[m]}")
                raise ValueError("output times must be strictly increasing s-grid nodes")
        return indices


# ---------------------------------------------------------------------------
# solver


@dataclass(frozen=True, eq=False)
class SeriesSolution:
    """Series solution with its orders and truncation metadata.

    ``orders`` holds the gauge-centered orders H_0..H_depth, the source's
    part included in H_0, each as an ``(n_out, *grid.shape)`` stack at the
    output nodes; ``terms`` builds the series terms from them on first
    access.
    ``forcing_sup``/``forcing_inf`` are the envelope of F over the node
    samples the solver used, ``propagated_abs_g0`` holds K(t) * |G0| at the
    output times as an ``(n_out, *grid.shape)`` stack, and ``g0_positive``
    records whether G0 > 0 everywhere.
    ``metadata`` holds the gauge centre, the engine summary, the sup norm of
    each emitted term over the output nodes (``order_norms``) and why the
    series stopped (``stop_reason``): ``tolerance`` (the newest term fell
    below ``rel_tolerance`` times the sum), ``zero_tail`` (the next term was
    exactly zero) or ``depth_max``.
    """

    trajectory: Trajectory
    orders: tuple[np.ndarray, ...]
    truncation_depth: int
    estimated_truncation_error: float
    not_converged: bool
    options: SeriesOptions
    forcing_sup: float
    forcing_inf: float
    propagated_abs_g0: np.ndarray
    g0_positive: bool
    metadata: dict = field(default_factory=dict)

    @property
    def grid(self) -> Grid:
        return self.trajectory.grid

    @property
    def forcing_abs_bound(self) -> float:
        return max(abs(self.forcing_sup), abs(self.forcing_inf))

    @functools.cached_property
    def terms(self) -> tuple[np.ndarray, ...]:
        """``terms[k]``: term k of the series at the output nodes, an
        ``(n_out, *grid.shape)`` stack of the values the solver summed."""
        pow_rows = _pow_rows(self.metadata["gauge_center"], self.trajectory.times,
                             self.truncation_depth, self.grid.ndim)
        return tuple(_term(k, pow_rows, self.orders) for k in range(self.truncation_depth + 1))


def _power_series_row(x: float, kmax: int) -> np.ndarray:
    """x^a / a! for a = 0..kmax, by stable iterative products (in Python
    floats, so an entry past double range is inf without a warning)."""
    x = float(x)
    row = [1.0]
    for a in range(1, kmax + 1):
        row.append(row[-1] * x / a)
    return np.array(row)


def _pow_rows(cbar: float, times, kmax: int, ndim: int) -> np.ndarray:
    """(cbar t)^a / a! for a = 0..kmax at each time, shaped to broadcast
    against ``(n_out, *grid.shape)`` stacks."""
    rows = np.array([_power_series_row(cbar * t, kmax) for t in times])
    return rows.reshape(rows.shape + (1,) * ndim)


def _term(k: int, pow_rows: np.ndarray, orders) -> np.ndarray:
    """Term k of the original forcing's series at the output nodes: the left
    fold T_k = sum_{a+b=k} (cbar t)^a / a! * H_b over the gauge-centered
    orders ``orders``."""
    tk = np.zeros_like(orders[0])
    product = np.empty_like(tk)
    for b, order_b in enumerate(orders[:k + 1]):
        tk += np.multiply(pow_rows[:, k - b], order_b, out=product)
    return tk


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
    """max |values|, without an |values| temporary (nan if any value is)."""
    return abs(max(float(values.max()), -float(values.min())))


def solve_controlled_heat(
    G0: ScalarField,
    F: Forcing,
    horizon: float,
    opts: SeriesOptions | None = None,
    source=None,
) -> SeriesSolution:
    """Solve dG/dt = Lap(G) + F G (+ source) by the truncated series.

    ``source``, when given, is a Forcing-like object S sampled at the time
    nodes; exp(-cbar s) S is swept into the zeroth gauge-centered order, and
    the tail estimate adds t times its largest sup over the nodes up to each
    output time t to sup K(t) * |G0|.  Terms are appended until the
    relative sup norm of the newest term drops below ``rel_tolerance``, the
    newest term is exactly zero, or ``depth_max`` is reached; the last sets
    ``not_converged``.  A sum that overflows double precision raises
    ``FloatingPointError``, and so does an exponential envelope that does
    (the source reweight or the tail estimate here, or a ``*_check``), with
    a message naming the stage, the time and the bound.
    """
    if not horizon > 0:
        raise ValueError("horizon must be positive")
    opts = opts or SeriesOptions()
    grid = G0.grid
    nodes = opts.nodes(horizon)
    out_idx = opts.output_indices(horizon)
    kernel = KernelApplication(grid, nodes)

    f_stack = F.sample(grid, nodes)
    f_sup = float(np.max(f_stack))
    f_inf = float(np.min(f_stack))
    cbar = 0.5 * (f_sup + f_inf)

    # the one recursion, gauge centered: H_0 is the sweep of exp(-cbar s) S from
    # G0, and H_k that of (F - cbar) H_{k-1} from zero
    f_stack -= cbar
    # reconstruct the series of the original forcing at the output nodes
    out_times = [float(nodes[j]) for j in out_idx]
    pow_rows = _pow_rows(cbar, out_times, opts.depth_max, grid.ndim)
    # an order past double range turns into inf and nan without warnings, and
    # the finite check on the sum reports it; the reweight exp(-cbar s) is
    # checked at the last output time, and an inf past it reaches no output
    with np.errstate(over="ignore", invalid="ignore"):
        if source is None:
            order = np.zeros(f_stack.shape)
            src_sup = np.zeros(len(nodes))
        else:
            _representable(_exp(-cbar * out_times[-1]), "source reweight", "exp(-cbar s)",
                           out_times[-1], "cbar", cbar)
            order = source.sample(grid, nodes)
            order *= np.exp(-cbar * nodes).reshape((-1,) + (1,) * grid.ndim)
            # sup |H_0 - K * G0| at s_j <= s_j max_{s <= s_j} sup |integrand|:
            # the ETD weights are nonnegative kernel mixtures of total dt
            src_sup = nodes * np.maximum.accumulate([_sup_abs(s) for s in order])
        orders: list[np.ndarray] = []
        order_norms: list[float] = []
        total = None  # literal left-fold sum of the emitted terms
        stop_reason = "depth_max"
        for k in range(opts.depth_max + 1):
            kernel.sweep(order, f_stack if k else None, None if k else G0.values)
            orders.append(order[out_idx])
            tk = _term(k, pow_rows, orders)
            term_norm = _sup_abs(tk)
            if k >= 1 and term_norm == 0.0:
                stop_reason = "zero_tail"  # the series has collapsed
                break
            order_norms.append(term_norm)
            if total is None:
                total = tk
            else:
                total += tk
            del tk  # only its sum is kept
            g_scale = max(_sup_abs(total), 1e-300)
            if not math.isfinite(g_scale):
                raise FloatingPointError(
                    f"the series sum overflows at order {k} (sup |F| = {max(f_sup, -f_inf):.3g})"
                )
            if k >= 1 and term_norm < opts.rel_tolerance * g_scale:
                stop_reason = "tolerance"
                break
    del order, f_stack  # frees the node stacks before the tail estimate
    depth = len(order_norms) - 1

    # factorial tail estimate at the emitted depth
    m_abs = max(abs(f_sup), abs(f_inf))
    kg0 = KernelApplication(grid, out_times).apply(ScalarField(grid, np.abs(G0.values)))
    est = 0.0
    for m, t in enumerate(out_times):
        tail = _exp(m_abs * t) * float(_power_series_row(m_abs * t, depth + 1)[depth + 1])
        tail *= float(np.max(kg0[m])) + float(src_sup[out_idx[m]])
        form = f"exp(M t) (M t)^{depth + 1}/{depth + 1}! times sup K*|G0| + source"
        est = max(est, _representable(tail, "tail estimate", form, t, "M", m_abs))

    # g_scale is still that of the full sum: every exit from the loop follows
    # its last update
    not_converged = bool(stop_reason == "depth_max" and est > opts.rel_tolerance * g_scale)

    metadata = {"gauge_center": cbar, "engine": kernel.torus.summary(),
                "order_norms": order_norms, "stop_reason": stop_reason}

    return SeriesSolution(
        trajectory=Trajectory(grid, out_times, total),
        orders=tuple(orders[:depth + 1]),
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
    for (t, g), kg in zip(sol.trajectory, sol.propagated_abs_g0):
        rhs = _representable(_exp(M * t), "ceiling check", "exp(M t)", t, "M", M) * kg
        records.append(_compare(np.abs(g).ravel(), rhs.ravel(), t, BOUND_SLACK))
    return BoundReport("ceiling", tuple(records))


def termwise_factorial_check(sol: SeriesSolution, M: float) -> BoundReport:
    """Verify |T_k(x,t)| <= (M t)^k / k! K(t) * |G0| for every emitted term."""
    records = []
    for m, (t, kg) in enumerate(zip(sol.trajectory.times, sol.propagated_abs_g0)):
        env = _representable(_power_series_row(M * t, sol.truncation_depth),
                             "termwise factorial check", "(M t)^k/k!", t, "M", M)
        for k, term in enumerate(sol.terms):
            rhs = env[k] * kg
            records.append(
                _compare(np.abs(term[m]).ravel(), rhs.ravel(), t, BOUND_SLACK, label=f"k={k}")
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
    for (t, g), kg in zip(sol.trajectory, sol.propagated_abs_g0):
        floor = _representable(_exp(sol.forcing_inf * t), "floor check", "exp(inf F t)", t,
                               "inf F", sol.forcing_inf) * kg
        upper = _representable(_exp(sol.forcing_sup * t), "floor check", "exp(sup F t)", t,
                               "sup F", sol.forcing_sup) * kg
        g = g.ravel()
        records.append(_compare(floor.ravel(), g, t, BOUND_SLACK, label="floor"))
        records.append(_compare(g, upper.ravel(), t, BOUND_SLACK, label="upper"))
    return BoundReport("floor_and_upper", tuple(records))
