"""Checks that a generated config really manufactures its closed form.

The config strings are parsed with sympy, independently of the program's
expression compiler, and every PDE the run kind solves is evaluated term by
term at seeded sample points with the closed form differentiated
symbolically.  A residual above 1e-9 of the terms' size is a generator bug,
so ``max_error`` measures the solver and not the generator.

Run ``python3 perfbench/selfcheck.py`` to check every workload on a few
seeds.
"""

from __future__ import annotations

import random
import sys

import sympy as sp

from workloads import GENERATORS, SPACE, T, Workload

_TOLERANCE = 1e-9
_LOCALS = {"x": SPACE[0], "y": SPACE[1], "z": SPACE[2], "t": T,
           "pi": sp.pi, "sin": sp.sin, "cos": sp.cos, "exp": sp.exp}


def _parse(text: str) -> sp.Expr:
    if "**" in text:
        raise ValueError(f"power operator outside the grammar: {text[:60]}")
    return sp.sympify(text, locals=_LOCALS)


def _lap(expr, space):
    return sum(sp.diff(expr, s, 2) for s in space)


def _equations(w: Workload) -> list[tuple[str, list[sp.Expr]]]:
    """(label, terms) pairs whose terms must sum to zero."""
    space = w.space
    if w.kind == "nse":
        body = w.config["nse"]
        a = w.closed
        u = [-2 * sp.diff(a, s) for s in space]
        pmf = _parse(body["pressure_minus_force"])
        eqs = []
        for i, s in enumerate(space):
            eqs.append((f"velocity[{i}] = u_{i}(t=0)",
                        [_parse(body["velocity"][i]), -u[i].subs(T, 0)]))
            eqs.append((f"momentum {i}", [
                sp.diff(u[i], T),
                *(u[l] * sp.diff(u[i], space[l]) for l in range(len(space))),
                -_lap(u[i], space),
                sp.diff(pmf, s),
            ]))
        x0 = dict(zip(space, body["anchor"]))
        eqs.append(("anchor_value = -2 a(x0, 0)",
                    [sp.Float(body["anchor_value"]), 2 * a.subs(T, 0).subs(x0)]))
        return eqs
    if w.kind == "controlled-heat":
        body = w.config["controlled_heat"]
        g = sp.exp(w.closed)
        forcing = _parse(body["forcing"])
        return [
            ("initial = G(t=0)", [_parse(body["initial"]), -g.subs(T, 0)]),
            ("G_t = Lap G + F G", [sp.diff(g, T), -_lap(g, space), -forcing * g]),
        ]
    body = w.config["parabolic"]
    u = w.closed
    x = space[0]
    A, drift, c, f = (_parse(body[k]) for k in ("A", "a", "c", "f"))
    return [
        ("initial = u(t=0)", [_parse(body["initial"]), -u.subs(T, 0)]),
        ("u_t + A u_xx + a u_x + c u + f = 0",
         [sp.diff(u, T), A * sp.diff(u, x, 2), drift * sp.diff(u, x), c * u, f]),
    ]


def check(w: Workload, points: int = 16, seed: int = 0) -> list[str]:
    """Failure messages, empty when every equation holds at every point."""
    grid = w.config["grid"]
    horizon = w.config[{"nse": "nse", "controlled-heat": "controlled_heat",
                        "parabolic": "parabolic"}[w.kind]]["horizon"]
    rng = random.Random(seed)
    samples = []
    for _ in range(points):
        pt = {s: o + rng.random() * e
              for s, o, e in zip(w.space, grid["origin"], grid["extent"])}
        pt[T] = rng.random() * horizon
        samples.append(pt)
    args = (*w.space, T)
    failures = []
    for label, terms in _equations(w):
        fns = [sp.lambdify(args, term, "math") for term in terms]
        for pt in samples:
            values = [float(fn(*(pt[s] for s in args))) for fn in fns]
            residual = abs(sum(values))
            scale = 1.0 + sum(abs(v) for v in values)
            if not residual <= _TOLERANCE * scale:
                failures.append(f"{w.name}: {label} off by {residual:.3e} at "
                                f"{ {str(s): round(v, 4) for s, v in pt.items()} }")
                break
    return failures


def main() -> int:
    failures = []
    for name, make in GENERATORS.items():
        for seed in range(3):
            failures += check(make(seed))
    for line in failures:
        print(line, file=sys.stderr)
    print("selfcheck:", "FAIL" if failures else "ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
