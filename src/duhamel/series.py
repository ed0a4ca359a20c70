"""Truncated convolution-series solver for the controlled heat equation.

The equation is ``dG/dt = nu * Lap(G) + F * G + S`` with bounded forcing F
and optional source S.  Its solution is the iterated Duhamel series

    T_0(t) = K(t) * G0 + int_0^t K(t-s) * S(s) ds
    T_{k+1}(t) = int_0^t K(t-s) * (F(s) T_k(s)) ds,      G = sum_k T_k

computed order by order on a uniform time grid, which turns the d-fold
nested integrals into O(d * n_t) kernel sweeps.

Every order runs in Fourier space on the grid's torus (see ``heat_kernel``:
periodic grids as they are, free-space grids edge-padded to
``padding_factor`` times their extent).  The solver integrates each mode
against the exact kernel weight exp(-nu |k|^2 (t-s)) with the integrand
interpolated linearly between nodes, an exponential (ETD) product rule that
removes the kernel stiffness from the quadrature error entirely.  Each sweep
transforms the integrand node by node and keeps only the previous spectrum.

``duhamel_step`` (the public single-order operator) is an independent
second quadrature for cross-checks: the composite trapezoid over prior
nodes with the identity convolution at the s = t endpoint.

The solver samples F once at every time node.  Sup F and inf F are the
envelope of those samples, the values the quadrature actually used; they are
stored on the solution as ``forcing_sup`` and ``forcing_inf``.  Independently
of the quadrature, the forcing is gauge centered: with
``cbar = (sup F + inf F) / 2`` the solver runs on ``F - cbar`` and restores
the series of the original equation through the exact identity
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
from .grid import Grid
from .heat_kernel import convolve_times, padded_torus

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
    nu: float = 1.0

    def __post_init__(self):
        if not 0 <= self.depth_max <= _DEPTH_LIMIT:
            raise ValueError(f"depth_max must be in [0, {_DEPTH_LIMIT}]")
        if not self.rel_tolerance >= _RTOL_FLOOR:
            raise ValueError(f"rel_tolerance must be >= {_RTOL_FLOOR}")
        if self.time_steps < 1:
            raise ValueError("time_steps must be >= 1")
        if self.nu <= 0:
            raise ValueError("viscosity must be positive")
        if self.output_times is not None:
            object.__setattr__(self, "output_times", tuple(float(t) for t in self.output_times))

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
    """Order sweeps in Fourier space on the grid's torus, exact kernel weighting."""

    def __init__(self, grid: Grid, dt: float, n_steps: int, nu: float):
        self.grid = grid
        self.n = n_steps
        self.torus = padded_torus(grid)
        z = nu * dt * self.torus.k2
        f2 = _f2(z)
        self.decay = np.exp(-z)
        self.w_old = dt * f2
        self.w_new = dt * (_phi1(z) - f2)

    def propagate_initial(self, g0_values: np.ndarray) -> list[np.ndarray]:
        """K(s_j) * G0 at every node, by repeated one-step decay."""
        spec = self.torus.forward(g0_values)
        out = [g0_values.astype(float)]
        for _ in range(self.n):
            spec = spec * self.decay
            out.append(self.torus.inverse(spec))
        return out

    def sweep(self, integrand) -> list[np.ndarray]:
        """int_0^{s_j} K(s_j - s) * g(s) ds for all j, g piecewise linear.

        ``integrand`` yields g at the n + 1 nodes in order; each node is
        transformed when it arrives and only the previous spectrum is kept.
        """
        nodes = iter(integrand)
        prev = self.torus.forward(next(nodes))
        acc = np.zeros_like(prev)
        out = [np.zeros(self.grid.shape)]
        for g in nodes:
            cur = self.torus.forward(g)
            acc = acc * self.decay + self.w_old * prev + self.w_new * cur
            out.append(self.torus.inverse(acc))
            prev = cur
        return out


# ---------------------------------------------------------------------------
# public single-order operator


def duhamel_step(term_trajectory: Trajectory, F: Forcing, nu: float = 1.0) -> Trajectory:
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
    decay = torus.damping(nu * dt)
    nodes = (torus.forward(F.sample(grid, t) * snap.values) for t, snap in term_trajectory)
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
    horizon: float
    metadata: dict = field(default_factory=dict)

    @property
    def grid(self) -> Grid:
        return self.trajectory.grid

    @property
    def forcing_abs_bound(self) -> float:
        return max(abs(self.forcing_sup), abs(self.forcing_inf))

    def term_stack(self, time_index: int) -> tuple[ScalarField, ...]:
        return self.terms[time_index]


def _power_series_row(x: float, kmax: int) -> np.ndarray:
    """x^a / a! for a = 0..kmax, by stable iterative products."""
    row = np.empty(kmax + 1)
    row[0] = 1.0
    for a in range(1, kmax + 1):
        row[a] = row[a - 1] * x / a
    return row


def solve_controlled_heat(
    G0: ScalarField,
    F: Forcing,
    horizon: float,
    opts: SeriesOptions | None = None,
    source=None,
) -> SeriesSolution:
    """Solve dG/dt = nu Lap(G) + F G (+ source) by the truncated series.

    ``source``, when given, is a Forcing-like object sampled at the time
    nodes and absorbed into the zeroth term.  Terms are appended until the
    relative sup norm of the newest term drops below ``rel_tolerance`` or
    ``depth_max`` is reached; the latter sets ``not_converged``.
    """
    if not horizon > 0:
        raise ValueError("horizon must be positive")
    opts = opts or SeriesOptions()
    grid = G0.grid
    nodes = opts.nodes(horizon)
    n = opts.time_steps
    dt = float(nodes[1] - nodes[0])
    out_idx = opts.output_indices(horizon)
    engine = _SpectralEngine(grid, dt, n, opts.nu)

    f_samples = [F.sample(grid, t) for t in nodes]
    f_sup = max(float(np.max(fv)) for fv in f_samples)
    f_inf = min(float(np.min(fv)) for fv in f_samples)
    cbar = 0.5 * (f_sup + f_inf)
    f_centered = [fv - cbar for fv in f_samples]

    # homogeneous part, gauge centered
    hom_stack = [engine.propagate_initial(G0.values)]
    ref_scale = max(max(np.max(np.abs(v)) for v in hom_stack[0]), 1e-300)
    negligible = opts.rel_tolerance * 1e-3 * ref_scale
    for _ in range(opts.depth_max):
        prev = hom_stack[-1]
        if max(np.max(np.abs(v)) for v in prev) <= negligible:
            break
        nxt = engine.sweep(fc * v for fc, v in zip(f_centered, prev))
        hom_stack.append(nxt)

    # source part, direct recursion in the uncentered forcing
    src_stack = []
    if source is not None:
        s_samples = [np.asarray(source.sample(grid, t), dtype=float) for t in nodes]
        src_stack.append(engine.sweep(s_samples))
        src_scale = max(max(np.max(np.abs(v)) for v in src_stack[0]), 1e-300)
        for _ in range(opts.depth_max):
            prev = src_stack[-1]
            if max(np.max(np.abs(v)) for v in prev) <= opts.rel_tolerance * 1e-3 * src_scale:
                break
            src_stack.append(engine.sweep(fv * v for fv, v in zip(f_samples, prev)))

    # reconstruct the series of the original forcing at the output nodes
    out_times = [float(nodes[j]) for j in out_idx]
    n_out = len(out_idx)
    terms: list[list[np.ndarray]] = [[] for _ in range(n_out)]
    partial = [np.zeros(grid.shape) for _ in range(n_out)]
    pow_rows = [_power_series_row(cbar * t, opts.depth_max) for t in out_times]

    depth = 0
    tolerance_met = False
    for k in range(opts.depth_max + 1):
        candidates = []
        for m, j in enumerate(out_idx):
            tk = np.zeros(grid.shape)
            for b in range(min(k, len(hom_stack) - 1) + 1):
                tk = tk + pow_rows[m][k - b] * hom_stack[b][j]
            if k < len(src_stack):
                tk = tk + src_stack[k][j]
            candidates.append(tk)
        term_norm = max(float(np.max(np.abs(tk))) for tk in candidates)
        if k >= 1 and term_norm == 0.0:
            tolerance_met = True  # exact-zero tail: the series has collapsed
            break
        for m, tk in enumerate(candidates):
            terms[m].append(tk)
            partial[m] = partial[m] + tk
        depth = k
        g_scale = max(max(float(np.max(np.abs(p))) for p in partial), 1e-300)
        if k >= 1 and term_norm < opts.rel_tolerance * g_scale:
            tolerance_met = True
            break

    # G snapshots are the literal left-fold sums of the emitted terms
    snapshots = []
    term_fields = []
    for m in range(n_out):
        acc = terms[m][0]
        for tk in terms[m][1:]:
            acc = acc + tk
        snapshots.append(ScalarField(grid, acc))
        term_fields.append(tuple(ScalarField(grid, tk) for tk in terms[m]))

    # factorial tail estimate at the emitted depth
    m_abs = max(abs(f_sup), abs(f_inf))
    kg0 = tuple(f.values for f in
                convolve_times(ScalarField(grid, np.abs(G0.values)), out_times, opts.nu))
    est = 0.0
    for m, j in enumerate(out_idx):
        t = out_times[m]
        tail = math.exp(m_abs * t) * _power_series_row(m_abs * t, depth + 1)[depth + 1]
        scale = float(np.max(kg0[m]))
        if src_stack:
            scale += float(np.max(np.abs(src_stack[0][j])))
        est = max(est, tail * scale)

    g_scale = max(max(float(np.max(np.abs(s.values))) for s in snapshots), 1e-300)
    not_converged = bool((not tolerance_met) and est > opts.rel_tolerance * g_scale)

    metadata = {"gauge_center": cbar, "engine": engine.torus.summary()}

    traj = Trajectory(tuple(out_times), tuple(snapshots), metadata=dict(metadata))
    return SeriesSolution(
        trajectory=traj,
        terms=tuple(term_fields),
        truncation_depth=depth,
        estimated_truncation_error=float(est),
        not_converged=not_converged,
        options=opts,
        forcing_sup=f_sup,
        forcing_inf=f_inf,
        propagated_abs_g0=kg0,
        g0_positive=bool(np.all(G0.values > 0)),
        horizon=float(horizon),
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
    slack: float = BOUND_SLACK

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
        rhs = math.exp(M * t) * kg
        records.append(_compare(np.abs(snap.values).ravel(), rhs.ravel(), t, BOUND_SLACK))
    return BoundReport("ceiling", tuple(records))


def termwise_factorial_check(sol: SeriesSolution, M: float) -> BoundReport:
    """Verify |T_k(x,t)| <= (M t)^k / k! K(t) * |G0| for every emitted term."""
    records = []
    for m, (t, _) in enumerate(sol.trajectory):
        env = _power_series_row(M * t, sol.truncation_depth)
        for k, term in enumerate(sol.terms[m]):
            rhs = env[k] * sol.propagated_abs_g0[m]
            records.append(
                _compare(np.abs(term.values).ravel(), rhs.ravel(), t, BOUND_SLACK, label=f"k={k}")
            )
    return BoundReport("termwise_factorial", tuple(records))


def floor_check(sol: SeriesSolution) -> BoundReport:
    """Verify the positivity floor and matching upper estimate.

    For a strictly positive G0 (the Cole-Hopf G0 = exp(-phi/2)):
      G(x,t) >= exp(inf F * t) [K(t) * G0]   and
      G(x,t) <= exp(2 sup F * t) [K(t) * G0].
    """
    if not sol.g0_positive:
        raise ValueError("the floor check needs a strictly positive G0")
    records = []
    for (t, snap), kg in zip(sol.trajectory, sol.propagated_abs_g0):
        floor = math.exp(sol.forcing_inf * t) * kg
        upper = math.exp(2.0 * sol.forcing_sup * t) * kg
        g = snap.values.ravel()
        records.append(_compare(floor.ravel(), g, t, BOUND_SLACK, label="floor"))
        records.append(_compare(g, upper.ravel(), t, BOUND_SLACK, label="upper"))
    return BoundReport("floor_and_upper", tuple(records))
