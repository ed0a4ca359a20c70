"""Seeded workload generators: one `duhamel solve` config per run kind.

Each generator turns a seed into a config whose expressions use only the
program's grammar (``+ - * /``, ``sin cos exp``, no powers) and keeps the
manufactured closed-form solution as a sympy expression.  The program sees
only the config; the benchmark scores its output against the closed form.

The seed changes the inputs but not the sizes that set the cost and the
error (grid, steps, amplitudes, wavenumber magnitudes), so solve time and
error stay comparable from seed to seed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import sympy as sp

X, Y, Z, T = sp.symbols("x y z t")
SPACE = (X, Y, Z)


@dataclass(frozen=True)
class Workload:
    """A generated config plus what the benchmark needs to score it.

    ``kind`` selects the PDE the self-check verifies.  ``closed`` is the
    manufactured exponent ``a`` (G = exp(a)) for ``nse`` and
    ``controlled-heat``, and the solution ``u`` itself for ``parabolic``.
    ``scored`` names the trajectory stem compared against ``exact_fields``,
    and a solve whose error exceeds ``accuracy_ceiling`` counts as failed;
    each ceiling is 10-20x the error the solver reaches on its workload.
    """

    name: str
    kind: str
    config: dict
    closed: sp.Expr
    ndim: int
    scored: str
    accuracy_ceiling: float

    @property
    def space(self):
        return SPACE[: self.ndim]

    def exact_fields(self) -> list[sp.Expr]:
        """Closed forms of the scored trajectory's components over (space, t)."""
        if self.kind == "nse":
            return [-2 * sp.diff(self.closed, s) for s in self.space]
        if self.kind == "controlled-heat":
            return [sp.exp(self.closed)]
        return [self.closed]


def _num(v: float) -> str:
    """A literal in the grammar: full precision, negatives parenthesised."""
    text = repr(float(v))
    return f"({text})" if v < 0 else text


def _sum(terms: list[str]) -> str:
    return "(" + " + ".join(terms) + ")" if terms else "0"


def _linear(k, theta: float) -> str:
    """k . (x, y, z) + theta, with integer k."""
    parts = [f"{_num(kd)}*{name}" for kd, name in zip(k, "xyz") if kd]
    return "(" + " + ".join(parts + [_num(theta)]) + ")"


# ---------------------------------------------------------------------------
# nse-periodic-3d and heat-freespace-2d
#
# The seed maps a fixed base problem through a symmetry of the grid (an axis
# permutation with sign flips), and on the free-space grid also shifts it by
# whole cells.  The inputs differ from seed to seed while the work and the
# error stay those of the base problem, which keeps the spread of solve_s and
# max_error across seeds small.


def _grid_symmetry(rng: random.Random, ndim: int):
    """(perm, signs): the map x -> R x with (R x)_d = signs[d] * x[perm[d]]."""
    perm = list(range(ndim))
    rng.shuffle(perm)
    return perm, [rng.choice((-1, 1)) for _ in range(ndim)]


def _pull_back_wavevector(k, perm, signs):
    """k' with k' . x = k . (R x)."""
    out = [0] * len(k)
    for d, (p, s) in enumerate(zip(perm, signs)):
        out[p] = s * k[d]
    return out


def _pull_back_point(p, perm, signs, shift):
    """p' with R p' + shift = p."""
    out = [0.0] * len(p)
    for d, (q, s) in enumerate(zip(perm, signs)):
        out[q] = s * (p[d] - shift[d])
    return out


_NSE_POINTS = 32
# |k|^2 = 1, 2, 3 with fixed amplitudes and phases
_NSE_MODES = (((1, 0, 0), 0.5, 0.3), ((1, 1, 0), 0.35, 1.7), ((1, 1, 1), 0.25, 4.1))
_NSE_EPS = 1.5


def nse_periodic_3d(seed: int) -> Workload:
    """G = exp(a), a = eps e^{-t} sum_m c_m cos(k_m . x + theta_m) on [0, 2 pi)^3.

    Cole-Hopf gives u = -2 grad a, and the heat equation for G fixes
    p - f = 2 (a_t - Lap a - |grad a|^2).
    """
    rng = random.Random(seed)
    n, extent = _NSE_POINTS, 2.0 * math.pi
    perm, signs = _grid_symmetry(rng, 3)
    # x -> -x maps node i to node n - 1 - i, so R maps the grid onto itself;
    # cos(k . R x + theta) = cos(k' . x + theta)
    modes = [(_pull_back_wavevector(k, perm, signs), c, th) for k, c, th in _NSE_MODES]
    # the potential is integrated along grid lines from the anchor, and the
    # path's ends at the first and last node are fixed by the grid: the anchor
    # follows the field (node 0 of the base problem) so that the integration
    # error stays that of the base problem
    h = extent / n
    anchor_idx = [0] * 3
    for d, (q, s) in enumerate(zip(perm, signs)):
        anchor_idx[q] = 0 if s > 0 else n - 1
    anchor = [(i + 0.5) * h for i in anchor_idx]
    eps = _NSE_EPS

    a = eps * sp.exp(-T) * sum(
        c * sp.cos(sum(kd * s for kd, s in zip(k, SPACE)) + th) for k, c, th in modes
    )

    # grad a = -eps e^{-t} sum_m c_m k_m sin(phase_m); the sign drops out of |grad a|^2
    sines = [
        _sum([f"{_num(c * k[d])}*sin{_linear(k, th)}" for k, c, th in modes if k[d]])
        for d in range(3)
    ]
    linear_part = _sum([
        f"{_num(c * (sum(kd * kd for kd in k) - 1))}*cos{_linear(k, th)}"
        for k, c, th in modes
    ])
    grad_sq = " + ".join(f"{s}*{s}" for s in sines)
    pmf = (f"{_num(2 * eps)}*exp(-t)*{linear_part}"
           f" - {_num(2 * eps * eps)}*exp(-2*t)*({grad_sq})")
    velocity = [f"{_num(2 * eps)}*{s}" if s != "0" else "0" for s in sines]

    anchor_value = -2.0 * eps * sum(
        c * math.cos(sum(kd * xd for kd, xd in zip(k, anchor)) + th) for k, c, th in modes
    )
    speed_bound = 2.0 * eps * sum(c * math.sqrt(sum(kd * kd for kd in k)) for k, c, _ in modes)
    config = {
        "schema": 1,
        "kind": "nse",
        "seed": seed,
        "grid": {"points": [n, n, n], "extent": [extent] * 3, "origin": [0.0, 0.0, 0.0],
                 "boundary": "periodic"},
        "series": {"depth_max": 24, "rel_tolerance": 1e-10, "time_steps": 32,
                   "output_times": [0.125, 0.25, 0.375, 0.5]},
        "nse": {"velocity": velocity, "anchor": anchor, "anchor_value": anchor_value,
                "pressure_minus_force": pmf, "speed_bound": speed_bound, "horizon": 0.5},
    }
    return Workload("nse-periodic-3d", "nse", config, a, 3, "u", accuracy_ceiling=1e-3)


_HEAT_POINTS, _HEAT_EXTENT = 64, 12.0
# (amplitude A, width w in exp(-r^2 / w), centre)
_HEAT_BUMPS = ((0.8, 1.0, (-1.0, 0.5)), (-0.6, 1.5, (1.2, -0.4)), (0.5, 2.0, (0.2, 1.3)))
_HEAT_EPS = 1.0
_HEAT_MAX_SHIFT = 3  # cells; the bumps stay well inside the box


def heat_freespace_2d(seed: int) -> Workload:
    """G = exp(a), a = eps e^{-t} sum_m A_m exp(-|x - x_m|^2 / w_m) on [-6, 6]^2.

    The forcing F = a_t - Lap a - |grad a|^2 makes G solve G_t = Lap G + F G.
    """
    rng = random.Random(seed)
    h = _HEAT_EXTENT / _HEAT_POINTS
    perm, signs = _grid_symmetry(rng, 2)
    shift = [rng.randint(-_HEAT_MAX_SHIFT, _HEAT_MAX_SHIFT) * h for _ in range(2)]
    bumps = [(amp, w, *_pull_back_point(centre, perm, signs, shift))
             for amp, w, centre in _HEAT_BUMPS]
    eps = _HEAT_EPS

    a = eps * sp.exp(-T) * sum(
        amp * sp.exp(-((X - cx) ** 2 + (Y - cy) ** 2) / w) for amp, w, cx, cy in bumps
    )

    def dx(c):
        return f"(x - {_num(c)})"

    def dy(c):
        return f"(y - {_num(c)})"

    def bump(w, cx, cy):
        return f"exp(-({dx(cx)}*{dx(cx)} + {dy(cy)}*{dy(cy)})/{_num(w)})"

    # Lap b = (4 r^2 / w^2 - 4 / w) b and a_t = -a, so the linear part of -F is
    # eps e^{-t} sum A (1 + 4 r^2 / w^2 - 4 / w) b
    linear = _sum([
        f"{_num(amp)}*({_num(1.0 - 4.0 / w)} + {_num(4.0 / (w * w))}*"
        f"({dx(cx)}*{dx(cx)} + {dy(cy)}*{dy(cy)}))*{bump(w, cx, cy)}"
        for amp, w, cx, cy in bumps
    ])
    # grad a = -eps e^{-t} sum A (2 (x - x_m) / w) b
    gx = _sum([f"{_num(2.0 * amp / w)}*{dx(cx)}*{bump(w, cx, cy)}" for amp, w, cx, cy in bumps])
    gy = _sum([f"{_num(2.0 * amp / w)}*{dy(cy)}*{bump(w, cx, cy)}" for amp, w, cx, cy in bumps])
    forcing = (f"-{_num(eps)}*exp(-t)*{linear}"
               f" - {_num(eps * eps)}*exp(-2*t)*({gx}*{gx} + {gy}*{gy})")
    initial = "exp(" + _num(eps) + "*" + _sum(
        [f"{_num(amp)}*{bump(w, cx, cy)}" for amp, w, cx, cy in bumps]) + ")"

    config = {
        "schema": 1,
        "kind": "controlled-heat",
        "seed": seed,
        "grid": {"points": [_HEAT_POINTS] * 2, "extent": [_HEAT_EXTENT] * 2,
                 "origin": [-0.5 * _HEAT_EXTENT] * 2,
                 "boundary": {"free_space": {}}},
        "series": {"depth_max": 24, "rel_tolerance": 1e-10, "time_steps": 32,
                   "output_times": [0.25, 0.5]},
        "controlled_heat": {"initial": initial, "forcing": forcing, "horizon": 0.5},
    }
    return Workload("heat-freespace-2d", "controlled-heat", config, a, 2, "G",
                    accuracy_ceiling=1e-2)


# ---------------------------------------------------------------------------
# parabolic-1d

# alpha, beta, gamma, |v|, kappa
_PARABOLIC_BASE = (0.3, 0.3, 0.2, 0.5, 0.2)


def parabolic_1d(seed: int) -> Workload:
    """u = exp(-(x - v t)^2 / 2 - kappa t) for
    u_t + A u_xx + a u_x + c u + f = 0 on [-8, 8].

    A = -(1 + alpha cos(x/2)), a = beta sin(x) e^{-t}, c = gamma cos(x), and
    f is whatever makes u exact.
    """
    rng = random.Random(seed)
    # x -> -x maps the problem onto the one with -v; the other coefficients
    # only jitter by 0.5% around their base values
    alpha, beta, gamma, speed, kappa = (
        base * rng.uniform(0.995, 1.005) for base in _PARABOLIC_BASE)
    v = speed * rng.choice((-1, 1))

    u = sp.exp(-(X - v * T) ** 2 / 2 - kappa * T)

    A = f"-(1 + {_num(alpha)}*cos(x/2))"
    drift = f"{_num(beta)}*sin(x)*exp(-t)"
    c = f"{_num(gamma)}*cos(x)"
    s = f"(x - {_num(v)}*t)"
    u_text = f"exp(-{s}*{s}/2 - {_num(kappa)}*t)"
    # u_t = (v s - kappa) u, u_x = -s u, u_xx = (s^2 - 1) u
    f = (f"-{u_text}*({_num(v)}*{s} - {_num(kappa)} + {A}*({s}*{s} - 1)"
         f" - {drift}*{s} + {c})")

    config = {
        "schema": 1,
        "kind": "parabolic",
        "seed": seed,
        "grid": {"points": [256], "extent": [16.0], "origin": [-8.0],
                 "boundary": {"free_space": {}}},
        "series": {"depth_max": 24, "rel_tolerance": 1e-10, "time_steps": 64},
        "parabolic": {"A": A, "a": drift, "c": c, "f": f, "initial": "exp(-x*x/2)",
                      "horizon": 0.5},
    }
    return Workload("parabolic-1d", "parabolic", config, u, 1, "u", accuracy_ceiling=1e-2)


GENERATORS = {
    "nse-periodic-3d": nse_periodic_3d,
    "heat-freespace-2d": heat_freespace_2d,
    "parabolic-1d": parabolic_1d,
}
