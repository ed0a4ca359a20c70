"""Property and acceptance suites shared by the CLI and the test suite.

Each suite builds its own fixtures (seeded), runs the relevant checks, and
returns a ``SuiteResult`` whose one-line entries say what was measured and
against which budget.  The CLI maps suite names onto these functions;
``tests/test_acceptance.py`` asserts them criterion by criterion.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .cole_hopf import NSEProblem, nse_residual, solve_nse, worst_case_upper_bound
from .fields import ScalarField, Trajectory, VectorField
from .forcing import Forcing
from .grid import FreeSpaceTruncated, Grid
from .heat_kernel import KernelApplication
from .parabolic import ParabolicProblem, normalize, solve_parabolic
from .series import (
    SeriesOptions,
    ceiling_check,
    floor_check,
    solve_controlled_heat,
    termwise_factorial_check,
)
from .verify import (
    band_limited_field,
    fd_burgers,
    fd_controlled_heat,
    make_manufactured,
    random_bounded_forcing,
    random_lipschitz_potential,
)

__all__ = ["SuiteCheck", "SuiteResult", "SUITES", "run_suite",
           "suite_bounds", "suite_oracles", "suite_burgers",
           "suite_parabolic", "suite_manufactured"]

DEFAULT_SEED = 20260810
# seeded forcing/initial-state pairs in the oracle-equivalence suite
ORACLE_CASES = 20
# seeded 1D series solves and 3D Lipschitz potentials in the bounds suite
BOUND_TRIALS = 100
BOUND_POTENTIALS = 50


@dataclass(frozen=True)
class SuiteCheck:
    label: str
    passed: bool
    detail: str

    def line(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        return f"[{mark}] {self.label}: {self.detail}"


@dataclass(frozen=True)
class SuiteResult:
    name: str
    checks: tuple[SuiteCheck, ...]
    elapsed: float

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def lines(self) -> list[str]:
        rows = [c.line() for c in self.checks]
        rows.append(f"suite '{self.name}': {'PASS' if self.passed else 'FAIL'} ({self.elapsed:.1f}s)")
        return rows


def _timed(name: str, checks: list[SuiteCheck], start: float) -> SuiteResult:
    return SuiteResult(name, tuple(checks), time.perf_counter() - start)


# ---------------------------------------------------------------------------


def constant_forcing_case() -> tuple[SuiteCheck, ...]:
    """Spatially constant forcing collapses the series onto exp(c t)."""
    start = time.perf_counter()
    grid = Grid((128,), (2 * np.pi / 128,), (0.0,))
    opts = SeriesOptions(depth_max=16, rel_tolerance=1e-14, time_steps=64, output_times=(1.0,))
    sol = solve_controlled_heat(ScalarField.constant(grid, 1.0), Forcing.constant(0.5), 1.0, opts)
    elapsed = time.perf_counter() - start
    g_err = float(np.max(np.abs(sol.trajectory.values[0] - math.exp(0.5))))
    term_err = max(
        float(np.max(np.abs(term[0] - 0.5**k / math.factorial(k))))
        for k, term in enumerate(sol.terms)
    )
    # forward tail sum: exp(0.5) - partial cancels catastrophically in floats
    true_tail, term = 0.0, 0.5 ** (sol.truncation_depth + 1) / math.factorial(sol.truncation_depth + 1)
    k = sol.truncation_depth + 1
    while term > 1e-40:
        true_tail += term
        k += 1
        term *= 0.5 / k
    return (
        SuiteCheck("constant-F solution", g_err <= 1e-10, f"|G(1) - e^0.5| = {g_err:.2e} (<= 1e-10)"),
        SuiteCheck("constant-F terms", term_err <= 1e-12,
                   f"max_k |T_k - (t/2)^k/k!| = {term_err:.2e} (<= 1e-12, depth {sol.truncation_depth})"),
        SuiteCheck("constant-F tail estimate", sol.estimated_truncation_error >= true_tail,
                   f"estimate {sol.estimated_truncation_error:.2e} >= true tail {true_tail:.2e}"),
        SuiteCheck("constant-F runtime", elapsed < 1.0, f"{elapsed:.3f}s (< 1s)"),
    )


def suite_oracles(seed: int = DEFAULT_SEED) -> SuiteResult:
    """Series vs Crank-Nicolson on random bounded forcings, plus order checks."""
    start = time.perf_counter()
    checks = list(constant_forcing_case())
    grid = Grid((256,), (2 * np.pi / 256,), (0.0,))
    horizon = 0.25
    rng = np.random.default_rng(seed)
    worst_gap = 0.0
    orders = []
    for _ in range(ORACLE_CASES):
        F = random_bounded_forcing(grid, rng, horizon, bound=2.0)
        G0 = band_limited_field(grid, rng, amplitude=0.5, offset=1.0)
        gaps = []
        for n_series, n_cn in ((256, 128), (512, 256)):
            opts = SeriesOptions(depth_max=24, rel_tolerance=1e-12,
                                 time_steps=n_series, output_times=(horizon,))
            s = solve_controlled_heat(G0, F, horizon, opts).trajectory.values[0]
            cn = fd_controlled_heat(G0, F, horizon, horizon / n_cn,
                                    output_times=(horizon,)).values[0]
            gaps.append(float(np.max(np.abs(s - cn)) / max(np.max(np.abs(s)), 1e-300)))
        worst_gap = max(worst_gap, gaps[0])
        orders.append(math.log2(gaps[0] / gaps[1]))
    checks.append(SuiteCheck(
        f"oracle gap ({ORACLE_CASES} seeded cases)", worst_gap <= 5e-3,
        f"worst rel L_inf gap {worst_gap:.2e} (<= 5e-3)"))
    checks.append(SuiteCheck(
        "oracle refinement order", all(1.4 <= o <= 2.6 for o in orders),
        f"orders in [{min(orders):.2f}, {max(orders):.2f}] (must be 2 +/- 30%)"))
    return _timed("oracles", checks, start)


def suite_burgers(seed: int = DEFAULT_SEED) -> SuiteResult:
    """Cole-Hopf fixture: solver vs closed form, FD oracle, residual checks."""
    start = time.perf_counter()
    checks = []
    n = 256
    grid = Grid((n,), (2 * np.pi / n,), (0.0,))
    x = grid.coords(0)
    horizon = 0.5
    u0 = VectorField(grid, (np.sin(x) / (1.0 + 0.5 * np.cos(x)),))
    out_times = tuple(np.linspace(0.0, horizon, 9))
    opts = SeriesOptions(depth_max=16, rel_tolerance=1e-12, time_steps=32, output_times=out_times)
    prob = NSEProblem(u0, (0.0,), 0.0, None, speed_bound=2.0, horizon=horizon)
    t0 = time.perf_counter()
    sol = solve_nse(prob, opts)
    solve_seconds = time.perf_counter() - t0

    def closed_form(t):
        return np.exp(-t) * np.sin(x) / (1.0 + 0.5 * np.exp(-t) * np.cos(x))

    u_err = float(np.max(np.abs(sol.velocity.at_time(0.5)[0] - closed_form(0.5))))
    checks.append(SuiteCheck("burgers solver vs closed form", u_err <= 1e-4,
                             f"L_inf error {u_err:.2e} at t=0.5 (<= 1e-4)"))
    checks.append(SuiteCheck("burgers runtime", solve_seconds < 5.0,
                             f"{solve_seconds:.2f}s (< 5s)"))

    h = grid.spacing[0]
    steps = int(np.ceil(horizon / (0.9 * h * h / 2.0)))
    dt = horizon / steps
    fd = fd_burgers(ScalarField(grid, u0.components[0]), horizon, dt, output_times=(horizon,))
    fd_err = float(np.max(np.abs(fd.values[0] - closed_form(horizon))))
    budget = 10.0 * (dt + h * h)
    checks.append(SuiteCheck("burgers FD oracle vs closed form", fd_err <= budget,
                             f"L_inf error {fd_err:.2e} (<= 10*(dt+h^2) = {budget:.2e})"))

    # momentum-equation residual: solver output within 10x of the sampled
    # exact solution's residual, and decreasing under refinement
    exact_traj = Trajectory(grid, out_times, np.array([[closed_form(t)] for t in out_times]))
    res_solver = float(np.max(sol.residual.values))
    res_exact = float(np.max(nse_residual(exact_traj, None).values))
    checks.append(SuiteCheck("nse residual vs sampled exact", res_solver <= 10.0 * res_exact,
                             f"solver {res_solver:.2e} vs exact-sampled {res_exact:.2e} (<= 10x)"))

    fine_times = tuple(np.linspace(0.0, horizon, 17))
    opts_fine = SeriesOptions(depth_max=16, rel_tolerance=1e-12, time_steps=48,
                              output_times=fine_times)
    sol_fine = solve_nse(prob, opts_fine)
    res_fine = float(np.max(sol_fine.residual.values))
    checks.append(SuiteCheck("nse residual refinement", res_fine < res_solver,
                             f"refined residual {res_fine:.2e} < {res_solver:.2e}"))
    return _timed("burgers", checks, start)


def suite_bounds(seed: int = DEFAULT_SEED, inject_m_underestimate: bool = False) -> SuiteResult:
    """Ceiling/termwise/floor envelopes plus the 3D worst-case bound."""
    start = time.perf_counter()
    checks = []
    grid = Grid((128,), (2 * np.pi / 128,), (0.0,))
    horizon = 0.5
    rng = np.random.default_rng(seed)
    violations = {"ceiling": 0, "termwise": 0, "floor/upper": 0}
    worst = {name: -np.inf for name in violations}
    for _ in range(BOUND_TRIALS):
        bound = rng.uniform(0.2, 2.0)
        # zero-mean stacks with |F| <= bound, so sup F > 0 > inf F; the floor
        # check's upper estimate exp(sup F t) K(t)*G0 holds for either sign
        F = random_bounded_forcing(grid, rng, horizon, bound=bound)
        phi = band_limited_field(grid, rng, amplitude=rng.uniform(0.2, 1.5))
        G0 = ScalarField(grid, np.exp(-0.5 * phi.values))
        opts = SeriesOptions(depth_max=30, rel_tolerance=1e-12, time_steps=48,
                             output_times=(horizon / 4, horizon / 2, horizon))
        sol = solve_controlled_heat(G0, F, horizon, opts)
        m_used = sol.forcing_abs_bound * (0.25 if inject_m_underestimate else 1.0)
        reports = {
            "ceiling": ceiling_check(sol, m_used),
            "termwise": termwise_factorial_check(sol, m_used),
            "floor/upper": floor_check(sol),
        }
        for name, rep in reports.items():
            if not rep.passed:
                violations[name] += 1
            worst[name] = max(worst[name], rep.worst)
    for name, count in violations.items():
        checks.append(SuiteCheck(f"{name} bound ({BOUND_TRIALS} seeded trials)", count == 0,
                                 f"{count} violating trials (worst signed excess {worst[name]:.2e})"))

    # 3D closed-form envelope on random Lipschitz potentials
    t0 = time.perf_counter()
    n, extent = 48, 12.0
    h = extent / n
    grid3 = Grid((n, n, n), (h, h, h), (-extent / 2,) * 3, FreeSpaceTruncated())
    mesh = grid3.meshgrid()
    bad = 0
    min_ratio = np.inf
    for _ in range(BOUND_POTENTIALS):
        c = rng.uniform(0.3, 1.5)
        a = rng.uniform(-1.0, 1.0)
        phi_fn = random_lipschitz_potential(grid3, rng, c, a)
        field = ScalarField(grid3, np.exp(-0.5 * phi_fn(*mesh)))
        times = (0.1, 0.25, 0.5)
        for t, conv in zip(times, KernelApplication(grid3, times).apply(field)):
            for idx in ((24, 24, 24), (31, 24, 24), (36, 30, 26), (40, 40, 40), (6, 24, 24)):
                r = math.sqrt(sum(mesh[d][idx] ** 2 for d in range(3)))
                bound = worst_case_upper_bound(r, t, c, a)
                val = float(conv[idx])
                min_ratio = min(min_ratio, bound / val)
                if val > bound:
                    bad += 1
    elapsed3 = time.perf_counter() - t0
    checks.append(SuiteCheck(f"3d worst-case bound ({BOUND_POTENTIALS} seeded potentials)", bad == 0,
                             f"{bad} exceedances, min bound/value ratio {min_ratio:.2f}"))
    checks.append(SuiteCheck("3d worst-case runtime", elapsed3 < 60.0, f"{elapsed3:.1f}s (< 60s)"))
    return _timed("bounds", checks, start)


def suite_parabolic(seed: int = DEFAULT_SEED) -> SuiteResult:
    """Identity reduction, symbolic coefficient oracle, pure-heat round trip."""
    start = time.perf_counter()
    checks = []
    n, extent = 128, 16.0
    h = extent / n
    xgrid = Grid((n,), (h,), (-extent / 2,), FreeSpaceTruncated())
    x = xgrid.coords(0)
    u0 = ScalarField(xgrid, np.exp(-0.5 * x**2))
    opts = SeriesOptions(depth_max=24, rel_tolerance=1e-12, time_steps=32,
                         output_times=(0.25, 0.5))

    # identity reduction equals the direct series call
    c_val, f_val = 0.4, 0.25
    prob = ParabolicProblem(A=-1.0, a=0.0, c=c_val, f=f_val, u0=u0, horizon=0.5)
    pipe = solve_parabolic(prob, opts)
    direct = solve_controlled_heat(u0, Forcing.constant(-c_val), 0.5, opts,
                                   source=Forcing.constant(-f_val))
    gap = float(np.max(np.abs(pipe.u.values - direct.trajectory.values)))
    checks.append(SuiteCheck("identity reduction", gap <= 1e-10,
                             f"pipeline vs direct series gap {gap:.2e} (<= 1e-10)"))

    # constant-coefficient reduction against the hand formulas
    k = 0.8
    norm = normalize(ParabolicProblem(A=-1.0, a=k, c=c_val, f=f_val, u0=u0, horizon=0.5), opts)
    y = norm.y_grid.coords(0)
    q_err = float(np.max(np.abs(norm.Q_stack - (k * k / 4.0 + c_val))))
    g_err = float(np.max(np.abs(norm.g_stack - f_val * np.exp(-k * y / 2.0))))
    worst = max(q_err, g_err)
    checks.append(SuiteCheck("constant-coefficient normalize", worst <= 1e-8,
                             f"max |Q - (k^2/4+c)|, |g - f e^(-ky/2)| = {worst:.2e} (<= 1e-8)"))

    # time-dependent drift picks up the int P_t dy term
    tnorm = normalize(ParabolicProblem(A=-1.0, a="0.8*t", c=c_val, f=0.0, u0=u0, horizon=0.5), opts)
    tn = np.asarray(tnorm.t_nodes)
    q_exact = (0.8 * tn[:, None]) ** 2 / 4.0 + 0.8 * y[None, :] / 2.0 + c_val
    qt_err = float(np.max(np.abs(tnorm.Q_stack - q_exact)))
    checks.append(SuiteCheck("time-dependent drift normalize", qt_err <= 1e-8,
                             f"Q error vs symbolic {qt_err:.2e} (<= 1e-8)"))

    # end-to-end round trip (normalize, series, back transform) on the pure heat
    # equation vs its closed form exp(-x^2/(2(1+2t)))/sqrt(1+2t)
    pure = solve_parabolic(ParabolicProblem(A=-1.0, a=0.0, c=0.0, f=0.0, u0=u0, horizon=0.5), opts)
    spread = [1.0 + 2.0 * t for t in pure.u.times]
    rt_err = max(float(np.max(np.abs(u - np.exp(-x**2 / (2.0 * s)) / math.sqrt(s))))
                 for s, u in zip(spread, pure.u.values))
    checks.append(SuiteCheck("pure-heat round trip", rt_err <= 1e-12,
                             f"vs closed form {rt_err:.2e} (<= 1e-12)"))
    return _timed("parabolic", checks, start)


def suite_manufactured(seed: int = DEFAULT_SEED) -> SuiteResult:
    """Manufactured-solution exactness for the series and NSE layers."""
    start = time.perf_counter()
    checks = []
    grid = Grid((128,), (2 * np.pi / 128,), (0.0,))
    x = grid.coords(0)
    horizon = 0.5

    case = make_manufactured("exp(0.4*sin(x)*exp(-t))", grid, horizon)
    opts = SeriesOptions(depth_max=30, rel_tolerance=1e-12, time_steps=96, output_times=(horizon,))
    sol = solve_controlled_heat(case.G0, case.F, horizon, opts)
    err = float(np.max(np.abs(sol.trajectory.values[0] - case.exact_G(horizon).values)))
    checks.append(SuiteCheck("manufactured controlled heat", err <= 5e-4,
                             f"L_inf error {err:.2e} (<= 5e-4)"))

    # fixture from the inverse-log identity: G0 = 1 + cos(x)/2 is exactly
    # exp(-phi/2) for phi = -2 log(1 + cos(x)/2)
    case2 = make_manufactured("1 + 0.5*exp(-t)*cos(x)", grid, horizon)
    f_vals = case2.F.sample(grid, [0.3])[0]
    checks.append(SuiteCheck("heat-equation substitution fixture", float(np.max(np.abs(f_vals))) <= 1e-9,
                             f"derived F for the heat-mode fixture: max |F| = {np.max(np.abs(f_vals)):.2e}"))

    sol2 = solve_controlled_heat(case2.G0, case2.F, horizon, opts)
    err2 = float(np.max(np.abs(sol2.trajectory.values[0] - case2.exact_G(horizon).values)))
    checks.append(SuiteCheck("manufactured heat mode", err2 <= 1e-8,
                             f"L_inf error {err2:.2e} (<= 1e-8)"))

    # manufactured 2D NSE case: residual at the oracle tolerance
    grid2 = Grid((48, 48), (2 * np.pi / 48, 2 * np.pi / 48), (0.0, 0.0))
    case3 = make_manufactured("exp(0.3*exp(-t)*(sin(x)+cos(y)))", grid2, 0.3)
    opts2 = SeriesOptions(depth_max=24, rel_tolerance=1e-11, time_steps=48,
                          output_times=tuple(np.linspace(0.0, 0.3, 7)))
    sol3 = solve_controlled_heat(case3.G0, case3.F, 0.3, opts2)
    u_err = 0.0
    for t in (0.15, 0.3):
        got = sol3.trajectory.at_time(t)
        u_err = max(u_err, float(np.max(np.abs(got - case3.exact_G(t).values))))
    checks.append(SuiteCheck("manufactured 2d case", u_err <= 5e-4,
                             f"G error {u_err:.2e} (<= 5e-4)"))
    return _timed("manufactured", checks, start)


def run_suite(name: str, seed: int = DEFAULT_SEED, inject_m_underestimate: bool = False) -> SuiteResult:
    if name == "all":
        start = time.perf_counter()
        checks = []
        for sub in SUITES:
            checks.extend(run_suite(sub, seed=seed,
                                    inject_m_underestimate=inject_m_underestimate).checks)
        return _timed("all", checks, start)
    if name == "bounds":
        return suite_bounds(seed=seed, inject_m_underestimate=inject_m_underestimate)
    try:
        fn = SUITES[name]
    except KeyError:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)} or 'all'")
    return fn(seed=seed)


SUITES = {
    "bounds": suite_bounds,
    "oracles": suite_oracles,
    "burgers": suite_burgers,
    "parabolic": suite_parabolic,
    "manufactured": suite_manufactured,
}
