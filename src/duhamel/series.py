"""Truncated convolution-series solver for the controlled heat equation.

The equation is ``dG/dt = Lap(G) + F * G + S`` with bounded forcing F
and optional source S.  Its solution is the iterated Duhamel series

    T_0(t) = K(t) * G0 + int_0^t K(t-s) * S(s) ds
    T_{k+1}(t) = int_0^t K(t-s) * (F(s) T_k(s)) ds,      G = sum_k T_k

computed order by order on a uniform time grid, which turns the d-fold
nested integrals into O(d * n_t) kernel sweeps.

The series converges like (M t)^k / k!, M = sup |F|, so one series over
the whole horizon needs the depth of the longest time.  The heat semigroup
lets it restart: on windows t_w <= t <= t_w+1 of whole node counts, the
series of the same equation from G(t_w) in tau = t - t_w needs only the
depth its window's length asks for (the windowed Picard iteration of
waveform relaxation; Lelarasmee, Ruehli & Sangiovanni-Vincentelli, IEEE
TCAD 1, 1982).  ``_windows`` picks the window count W, a power of two up
to n_t, with no setting of its own: it minimises the sweep work
sum_w (2 n_w + B)(d_w + 1) over windows of n_w steps: each order
transforms each live node forward (F H) and back (the accumulator), and
its calls of B rows, the kernel's chunk, add about one chunk of call
overhead; d_w is the depth the tail estimate's form predicts at
x = M n_w dt, capped at ``depth_max``.  It reads nothing
but B, ``rel_tolerance``, ``depth_max``, M and dt, and where the cap binds
it takes one window.  The windows past the last output time are not swept.

Every order, the zeroth included, is one ``sweep`` of a
``heat_kernel.KernelApplication`` over a window's slice of the nodes, from
G(t_w) for the zeroth order and from zero after it, so this module calls
no transform.  A window restarts from the torus state of the previous
window's last node, not from its grid values: each sweep returns the
normalised half spectrum of its last node, and sum_b (sum_{a <= d-b}
(cbar tau)^a / a!) times order b's spectrum is the torus state of
T_0 + ... + T_d there.  On a padded free-space torus the cropped grid
values would be padded again, which moves G; on a periodic one the two
agree to rounding.  The solver samples F once per solve and streams each
window's series with one stopping rule, the term test of
``solve_controlled_heat``: each order is swept in place over the one before
it right before its term is due, so nothing past the emitted depth is
computed.  A solve holds the node stack of F - cbar and a stack of the
latest order, over the longest window's nodes without a source and over all
nodes with one (its samples), the spectra of the window's orders at its
last node, and one copy of every order at the output nodes, which is all
the reconstruction reads and from which the solution builds ``terms`` on
first access.  The sum of the terms is the solution's ``Trajectory``, one
``(n_out, *grid.shape)`` stack like every term.  Memory is
O(n_t N + depth n_out N) for N grid points and n_out output times, instead
of O(depth n_t N).

Sup F and inf F are the envelope of the node samples of F, the values the
quadrature actually used; they are stored on the solution as
``forcing_sup`` and ``forcing_inf``.  Independently of the quadrature, the
equation is gauge centered, with one centre for all windows: with
``cbar = (sup F + inf F) / 2``, G = exp(cbar t) H and dH/dt = Lap(H) +
(F - cbar) H + exp(-cbar t) S, a linear equation, so in each window
H = exp(-cbar tau) G solves it from G(t_w) with source exp(-cbar tau) S.
H's zeroth order is the sweep of the reweighted source from G(t_w), and
the exact identity ``T_k = sum_{a+b=k} (cbar tau)^a / a! * H_b`` restores
the series of the original equation.  One centre keeps the discrete
problem that of a single window, so the windows move G only by the
truncation.  For spatially constant forcing the computed terms are
therefore exact to rounding; with a source they sum to G, but the source
integral is spread over all of them instead of T_0 alone.

The solution also keeps the stack of K(t) * |G0| at the output times, which
the tail estimate needs, from the ``apply`` of a ``KernelApplication`` over
those times.
The ceiling and floor checks read it, with the forcing envelope, to verify
the solution's global pointwise envelopes.  The termwise check verifies each
window's own terms against the paper's (M tau)^k / k! K(tau) * |G(t_w)| in
the form the computed terms obey, swept by the solver's own quadrature from
what the window started from; the continuous envelope is exceeded by the
quadrature's high orders on windows of few nodes.  The checks tolerate a
1e-9 relative slack for spectral ringing and quadrature noise.
"""

from __future__ import annotations

import bisect
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

    The series restarts on windows of the nodes (``solve_controlled_heat``),
    so each output row has its own window, which starts at t_w, and its own
    depth.  ``orders`` holds the gauge-centered orders H_0..H_depth of each
    row's window, the source's part included in H_0, each as an
    ``(n_out, *grid.shape)`` stack at the output nodes, zero in the rows of
    a window whose depth is less; ``terms`` builds the series terms from
    them on first access.
    ``forcing_sup``/``forcing_inf`` are the envelope of F over the node
    samples the solver used, ``propagated_abs_g0`` holds K(t) * |G0| at the
    output times as an ``(n_out, *grid.shape)`` stack, and ``g0_positive``
    records whether G0 > 0 everywhere.
    ``row_windows`` holds each output row's window and its node offset in
    it, and ``window_starts`` what each window that owns an output row
    started from, G0's values in the first and the torus state of G(t_w)
    after it (None in the others), with the node step ``time_step``: the
    termwise check's inputs.
    ``metadata`` holds the gauge centre, the engine summary and the windows
    (``windows``: the ``start`` and ``end`` time of each, its ``depth``, the
    sup norm of each of its terms over the rows it tested, ``order_norms``,
    and why its series stopped, ``stop_reason``: ``tolerance``, when the
    newest term fell below ``rel_tolerance`` times the sum, ``zero_tail``,
    when the next term was exactly zero, or ``depth_max``).  Its own
    ``order_norms`` are the largest of the windows' for each k, and its
    ``stop_reason`` is ``depth_max`` if any window's is, else ``tolerance``
    if any window's is, else ``zero_tail``.  ``truncation_depth`` is the
    largest window depth.
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
    time_step: float
    row_windows: tuple[tuple[int, int], ...]
    window_starts: tuple
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
        ``(n_out, *grid.shape)`` stack of the values the solver summed.  Row
        m is term k of output m's own window at tau = t - t_w, and zero past
        that window's depth."""
        windows = [self.metadata["windows"][w] for w, _ in self.row_windows]
        taus = [t - w["start"] for t, w in zip(self.trajectory.times, windows)]
        pow_rows = _pow_rows(self.metadata["gauge_center"], taus, self.truncation_depth, self.grid.ndim)
        depths = np.array([w["depth"] for w in windows])
        terms = []
        for k in range(self.truncation_depth + 1):
            tk = _term(k, pow_rows, self.orders)
            tk[depths < k] = 0.0
            terms.append(tk)
        return tuple(terms)


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


def _windows(steps: int, chunk: int, m_abs: float, dt: float, rel_tolerance: float,
             depth_max: int) -> list[int]:
    """Node indices 0 = j_0 < j_1 < ... < j_W = ``steps`` that bound the
    series' windows.

    W is the power of two up to ``steps`` whose W windows of n_w = steps // W
    or one more steps minimise the sweep work sum_w (2 n_w + chunk) (d_w + 1):
    each order transforms each of its window's n_w live nodes forward and
    back, and its transform calls of ``chunk`` rows add about one chunk of
    call overhead; d_w is the depth the tail estimate predicts, the least d
    with exp(x) x^(d+1)/(d+1)! <= ``rel_tolerance`` at x = ``m_abs`` n_w
    ``dt``, capped at ``depth_max``.  Where the cap binds at every W, more
    windows only add calls, so the rule picks one.
    """
    def depth(n_w):
        x = m_abs * (n_w * dt)
        growth, tail = _exp(x), 1.0
        for d in range(depth_max):
            tail *= x / (d + 1)  # x^(d+1)/(d+1)!, in Python floats: inf past range
            if growth * tail <= rel_tolerance:
                return d
        return depth_max

    def work(count):
        short, longer = divmod(steps, count)
        return ((count - longer) * (2 * short + chunk) * (depth(short) + 1)
                + longer * (2 * (short + 1) + chunk) * (depth(short + 1) + 1))

    count = min((2**e for e in range(steps.bit_length())), key=work)
    return [w * steps // count for w in range(count + 1)]


def solve_controlled_heat(
    G0: ScalarField,
    F: Forcing,
    horizon: float,
    opts: SeriesOptions | None = None,
    source=None,
) -> SeriesSolution:
    """Solve dG/dt = Lap(G) + F G (+ source) by the truncated series.

    The nodes are split into the windows of ``_windows``, and each window's
    series starts from the solution at the window's first node t_w, which is
    G0 in the first window and the sum of the previous window's terms at its
    last node after it.  ``source``, when given, is a Forcing-like object S
    sampled at the time nodes; exp(-cbar tau) S, tau = s - t_w, is swept into
    each window's zeroth gauge-centered order.  In each window, terms are
    appended until the relative sup norm of the newest term over the rows it
    tests (its output nodes and, but in the last window, its last node)
    drops below ``rel_tolerance``, the newest term is exactly zero, or
    ``depth_max`` is reached; the last sets ``not_converged`` when the tail
    estimate exceeds ``rel_tolerance`` times the sup of the solution.  The
    tail estimate at an output time t adds the window's own factorial tail
    exp(M tau) (M tau)^(d+1)/(d+1)! times sup K(tau) * |G(t_w)| plus tau
    times the window's largest source sup, and the tails of the windows
    before it, each carried forward from its end t_e by exp(M (t - t_e));
    sup K(tau) * |G(t_w)| is sup K(t) * |G0| in the first window and is
    bounded by sup |G(t_w)| after it.  A sum that overflows double precision
    raises ``FloatingPointError``, and so does an exponential envelope that
    does (the source reweight or the tail estimate here, or a ``*_check``),
    with a message naming the stage, the time and the bound.
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
    m_abs = max(abs(f_sup), abs(f_inf))
    cbar = 0.5 * (f_sup + f_inf)

    # the one recursion, gauge centered: in each window H_0 is the sweep of
    # exp(-cbar tau) S from G(t_w), and H_k that of (F - cbar) H_{k-1} from zero
    f_stack -= cbar
    bounds = _windows(opts.time_steps, kernel._chunk, m_abs, float(nodes[1]),
                      opts.rel_tolerance, opts.depth_max)
    # output j lies in the window (j_w, j_w+1], node 0 in the first; the
    # windows past the last output's reach no output and are not swept
    owner = [max(bisect.bisect_left(bounds, j) - 1, 0) for j in out_idx]
    n_windows = owner[-1] + 1
    # the rows each window tests: its output nodes, then, but in the last
    # window, its last node, from which the next window restarts
    tested = [[] for _ in range(n_windows)]
    for j, w in zip(out_idx, owner):
        tested[w].append(j - bounds[w])
    owned = [len(rows) for rows in tested]
    for w, rows in enumerate(tested[:-1]):
        if rows[-1:] != [bounds[w + 1] - bounds[w]]:
            rows.append(bounds[w + 1] - bounds[w])
    # an order past double range turns into inf and nan without warnings, and
    # the finite check on the sum reports it; the reweight exp(-cbar tau) is
    # checked at each window's last tested row, and an inf past the last
    # output reaches no output
    with np.errstate(over="ignore", invalid="ignore"):
        if source is None:
            # the orders need only the window's rows
            order = np.empty((max(np.diff(bounds[:n_windows + 1])) + 1, *grid.shape))
        else:
            for w, rows in enumerate(tested):
                t = float(nodes[bounds[w] + rows[-1]])
                _representable(_exp(-cbar * (t - float(nodes[bounds[w]]))), "source reweight",
                               "exp(-cbar s)", t, "cbar", cbar)
            order = source.sample(grid, nodes)
        parts = []  # each window's orders and sum at its output rows
        windows = []
        tails = []  # each window's tail-estimate inputs
        initial, state = G0.values, None
        starts = []  # what each window that owns an output row starts from
        for w, rows in enumerate(tested):
            starts.append(None if not owned[w] else state if w else initial)
            lo, hi = bounds[w], bounds[w + 1]
            last = w == n_windows - 1
            factor = f_stack[lo:hi + 1]
            taus = nodes[lo:hi + 1] - nodes[lo]
            if source is None:
                stack = order[:hi - lo + 1]
                stack[...] = 0.0
                src_sup = np.zeros(len(taus))
            else:
                stack = order[lo:hi + 1]
                if w:
                    stack[0] = restart_source
                if not last:
                    restart_source = stack[-1].copy()
                stack *= np.exp(-cbar * taus).reshape((-1,) + (1,) * grid.ndim)
                # sup |H_0 - K * G(t_w)| at tau_j <= tau_j max_{tau <= tau_j} sup
                # |integrand|: the ETD weights are nonnegative kernel mixtures of total dt
                src_sup = taus * np.maximum.accumulate([_sup_abs(s) for s in stack])
            pow_rows = _pow_rows(cbar, taus[rows], opts.depth_max, grid.ndim)
            orders: list[np.ndarray] = []
            accs = []  # the last node's torus state of each order
            order_norms: list[float] = []
            total = None  # literal left-fold sum of the emitted terms
            stop_reason = "depth_max"
            for k in range(opts.depth_max + 1):
                acc = kernel.sweep(stack, factor if k else None, None if k else initial,
                                   None if k else state)
                if not last:
                    accs.append(acc)
                orders.append(stack[rows])
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
            depth = len(order_norms) - 1
            own = owned[w]
            windows.append({"start": float(nodes[lo]), "end": float(nodes[hi]), "depth": depth,
                            "order_norms": order_norms, "stop_reason": stop_reason})
            tails.append((_sup_abs(initial), taus[rows[:own]], src_sup[rows[:own]],
                          float(taus[-1]), float(src_sup[-1])))
            if not last:
                # the torus state of T_0 + ... + T_depth at the last node: H_b
                # weighs sum_{a <= depth - b} (cbar tau)^a / a!
                weights = np.cumsum(_power_series_row(cbar * taus[-1], depth))
                state = weights[depth] * accs[0]
                for b in range(1, depth + 1):
                    state += weights[depth - b] * accs[b]
                initial = total[-1].copy()
            if own < len(rows):  # a view of the output rows would keep the restart row's
                orders, total = [h[:own].copy() for h in orders], total[:own].copy()
            parts.append((orders[:depth + 1], total))
            del orders, accs, total, stack, factor
    del order, f_stack  # frees the node stacks before the tail estimate
    depth = max(wd["depth"] for wd in windows)
    orders, values = _stacked(parts, depth)
    g_scale = max(_sup_abs(values), 1e-300)

    # factorial tail estimate at the emitted depths
    out_times = [float(nodes[j]) for j in out_idx]
    kg0 = KernelApplication(grid, out_times).apply(ScalarField(grid, np.abs(G0.values)))
    est = 0.0
    carried = 0.0  # the tails of the earlier windows, carried to the window's start
    m = 0
    for w, (g_start, taus, src_sup, tau_end, src_end) in enumerate(tails):
        d = windows[w]["depth"]
        form = f"exp(M t) (M t)^{d + 1}/{d + 1}! times sup K*|G0| + source"
        for tau, src in zip(taus.tolist(), src_sup.tolist()):
            t = out_times[m]
            tail = _exp(m_abs * tau) * float(_power_series_row(m_abs * tau, d + 1)[d + 1])
            tail *= (float(np.max(kg0[m])) if w == 0 else g_start) + float(src)
            if carried:
                tail += _exp(m_abs * tau) * carried
            est = max(est, _representable(tail, "tail estimate", form, t, "M", m_abs))
            m += 1
        carried = _exp(m_abs * tau_end) * (
            float(_power_series_row(m_abs * tau_end, d + 1)[d + 1]) * (g_start + src_end) + carried)

    stop_reasons = {wd["stop_reason"] for wd in windows}
    stop_reason = next(r for r in ("depth_max", "tolerance", "zero_tail") if r in stop_reasons)
    not_converged = bool(stop_reason == "depth_max" and est > opts.rel_tolerance * g_scale)
    order_norms = [max(wd["order_norms"][k] for wd in windows if k <= wd["depth"])
                   for k in range(depth + 1)]

    metadata = {"gauge_center": cbar, "engine": kernel.torus.summary(),
                "order_norms": order_norms, "stop_reason": stop_reason, "windows": windows}

    return SeriesSolution(
        trajectory=Trajectory(grid, out_times, values),
        orders=orders,
        truncation_depth=depth,
        estimated_truncation_error=float(est),
        not_converged=not_converged,
        options=opts,
        forcing_sup=f_sup,
        forcing_inf=f_inf,
        propagated_abs_g0=kg0,
        g0_positive=bool(np.all(G0.values > 0)),
        time_step=float(nodes[1]),
        row_windows=tuple((w, j - bounds[w]) for j, w in zip(out_idx, owner)),
        window_starts=tuple(starts),
        metadata=metadata,
    )


def _stacked(parts, depth: int) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
    """The windows' orders H_0..H_depth and sums at their output rows, as
    ``(n_out, *grid.shape)`` stacks; an order past a window's depth is zero
    in its rows.  One window's parts are the stacks; otherwise each order is
    stacked and its parts are released before the next."""
    if len(parts) == 1:
        (orders, total), = parts
        return tuple(orders), total
    total = np.concatenate([t for _, t in parts])
    orders = []
    for b in range(depth + 1):
        rows = []
        for window_orders, t in parts:
            if b < len(window_orders):
                rows.append(window_orders[b])
                window_orders[b] = None
            else:
                rows.append(np.zeros_like(t))
        orders.append(np.concatenate(rows))
    return tuple(orders), total


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
    """Verify |T_k(x,t)| <= B_k(x,t) for every term k of each output's window.

    B_k is the paper's (M tau)^k / k! K(tau) * |G(t_w)|, tau = t - t_w, in
    the form the computed terms obey: built by the solver's own quadrature
    (``KernelApplication.majorants``).  With M split into the gauge centre's
    part c = min(|cbar|, M) and the rest m = M - c, B_k = sum_{a+b=k}
    (c tau)^a / a! e_b, where e_0 = K(tau) * |G(t_w)| and e_b is the sweep of
    m e_(b-1) from zero.  When M bounds |F|, m bounds |F - cbar|, so each
    centred order has |H_b| <= e_b and each term |T_k| <= B_k; in
    continuous time e_b is (m tau)^b / b! K(tau) * |G(t_w)| and B_k the
    paper's envelope.  The continuous envelope is not what the numbers obey:
    on a window of few nodes the quadrature's excess over it grows with k.
    G(t_w) is G0 in the first window, which makes B_k the paper's bound of
    the series from G0, and after it the torus state the window restarted
    from, taken whole; the ceiling check ties G to G0.
    A solve with a source is not covered: its zeroth order holds the source.
    """
    cbar = sol.metadata["gauge_center"]
    gauge = min(abs(cbar), M)
    kernel = KernelApplication(sol.grid, (0.0, sol.time_step))  # a sweep reads only the step
    rows_of: dict[int, list[tuple[int, int]]] = {}
    for m, (w, offset) in enumerate(sol.row_windows):
        rows_of.setdefault(w, []).append((m, offset))
    records = []
    for w, rows in rows_of.items():
        window = sol.metadata["windows"][w]
        depth, start = window["depth"], sol.window_starts[w]
        majorants = kernel.majorants([offset for _, offset in rows], depth, M - gauge,
                                     **{"state" if w else "initial": start})
        for (m, _), e in zip(rows, majorants):
            t = sol.trajectory.times[m]
            pow_row = _pow_rows(gauge, [t - window["start"]], depth, sol.grid.ndim)
            for k in range(depth + 1):
                with np.errstate(over="ignore", invalid="ignore"):
                    rhs = _term(k, pow_row, e[:, None])[0]
                rhs = _representable(rhs, "termwise factorial check", "(M t)^k/k!", t, "M", M)
                records.append(
                    _compare(np.abs(sol.terms[k][m]).ravel(), rhs.ravel(), t, BOUND_SLACK, label=f"k={k}")
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
