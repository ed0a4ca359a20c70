"""Benchmark of record for duhamel: one workload per run kind.

Usage (from the root of a source checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The program is imported from ``./src`` and driven in-process through
``duhamel.cli.main(["solve", ...])`` on a config generated from ``--seed``;
the benchmark keeps the closed-form solution and scores every solve.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics:

* ``setup_s``: median over fresh interpreters of ``import duhamel.cli`` plus
  ``load_config``, which every ``duhamel solve`` pays;
* ``solve_s``: median time of one ``duhamel solve`` after an untimed
  warm-up, over as many solves as fit in ``--seconds``;
* ``peak_rss_mb``: high-water resident set of this process;
* ``max_error``: max |output - closed form| over output times and nodes.

Times are scaled to a reference machine speed by ``clock.py``; the raw wall
times are printed alongside.  ``--trace 1`` runs half the time untraced and
half with the span recorder of ``spans.py`` installed, and reports the
per-layer metrics (self times and counts per solve, see README.md).

A solve fails when it exits non-zero, when a bound report it writes shows a
violation, when its ``max_error`` exceeds the workload's accuracy ceiling,
or when its artifacts differ byte for byte from those of the warm-up solve.
"""

import os

# One BLAS/OpenMP thread in this process and in the setup probes it starts,
# set before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

from check import Scorer, artifact_digests, report_violations  # noqa: E402
from clock import Clock  # noqa: E402
from selfcheck import check as selfcheck  # noqa: E402
from spans import COUNT_METRICS, ROOT_SPAN, SELF_TIME_METRICS, Tracer  # noqa: E402
from workloads import GENERATORS  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 3
SETUP_TIMEOUT_S = 120
# largest share by which the root spans may differ from the clock's wall time
TRACE_WALL_TOLERANCE = 0.01


def log(message: str):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def measure_setup(clock: Clock, config: Path) -> tuple[list[float], list[float]]:
    """Scaled (import_s, load_s) samples, each from a fresh interpreter."""
    imports, loads = [], []
    argv = [sys.executable, str(HERE / "setup_probe.py"), str(SRC), str(config)]
    for _ in range(SETUP_SAMPLES):
        proc, _, scale = clock.time(lambda: subprocess.run(
            argv, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S))
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed:\n{proc.stderr}")
        sample = json.loads(proc.stdout.strip().splitlines()[-1])
        imports.append(sample["import_s"] * scale)
        loads.append(sample["load_s"] * scale)
    return imports, loads


class Session:
    """Runs solves of one generated config and accounts for failures."""

    def __init__(self, workload, cli, work: Path, clock: Clock):
        self.workload = workload
        self.cli = cli
        self.clock = clock
        self.config = work / "config.json"
        self.config.write_text(json.dumps(workload.config, indent=1) + "\n")
        self.out = work / "out"
        self.scorer = Scorer(workload)
        self.reference: dict[str, str] | None = None
        self.attempted = 0
        self.failed = 0
        self.max_error = 0.0

    def _main(self, tracer: Tracer | None):
        argv = ["solve", str(self.config), "-o", str(self.out)]
        try:
            if tracer is None:
                return self.cli.main(argv)
            with tracer.span(ROOT_SPAN):
                return self.cli.main(argv)
        except Exception:  # a traceback is a failed solve, not a failed benchmark
            traceback.print_exc()
            return "traceback"

    def solve(self, tracer: Tracer | None = None) -> tuple[float, float]:
        """(wall seconds, scale) of one `duhamel solve`, checked after."""
        shutil.rmtree(self.out, ignore_errors=True)
        gc.collect()
        self.attempted += 1
        code, wall, scale = self.clock.time(lambda: self._main(tracer))
        problems = self._check(code)
        if problems:
            self.failed += 1
            log(f"solve {self.attempted} failed: " + "; ".join(problems))
        return wall, scale

    def _check(self, code) -> list[str]:
        if code != 0:
            return [f"exit status {code}"]
        try:
            problems = report_violations(self.out)
            error = self.scorer.max_error(self.out)
            digests = artifact_digests(self.out)
        except (OSError, ValueError, KeyError) as exc:
            return [f"unreadable output: {exc!r}"]
        self.max_error = max(self.max_error, error)
        if not error <= self.workload.accuracy_ceiling:
            problems.append(f"max_error {error:.3e} above the ceiling "
                            f"{self.workload.accuracy_ceiling:.1e}")
        if self.reference is None:
            self.reference = digests
        elif digests != self.reference:
            changed = sorted(name for name in digests.keys() | self.reference.keys()
                             if digests.get(name) != self.reference.get(name))
            problems.append(f"artifacts differ from the warm-up solve: {changed[:5]}")
        return problems

    def timed(self, seconds: float, tracer: Tracer | None = None) -> list[tuple[float, float]]:
        """Solve repeatedly until ``seconds`` have passed; at least once."""
        samples: list[tuple[float, float]] = []
        deadline = perf_counter() + seconds
        while not samples or perf_counter() < deadline:
            samples.append(self.solve(tracer))
        return samples


def _describe(name: str, values: list[float]):
    q = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    print(f"{name}: median {q[1]:.4f} s of {len(values)} (quartiles {q[0]:.4f}, {q[2]:.4f})")


def end_to_end(session: Session, seconds: float, setup) -> dict:
    session.solve()  # warm-up: caches, lazy imports, reference artifacts
    samples = session.timed(seconds)
    scaled = [w * k for w, k in samples]
    _describe("solve wall", [w for w, _ in samples])
    _describe("solve scaled", scaled)
    return {
        "setup_s": (statistics.median(i + l for i, l in zip(*setup)), "s"),
        "solve_s": (statistics.median(scaled), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "max_error": (session.max_error, "absolute"),
    }


def per_layer(session: Session, seconds: float, setup) -> tuple[dict, list[str]]:
    session.solve()  # warm-up, unpatched
    untraced = session.timed(seconds / 2)
    tracer = Tracer()
    tracer.install()
    try:
        traced = session.timed(seconds / 2, tracer)
    finally:
        tracer.uninstall()
    solves = tracer.solves()
    scales = [k for _, k in traced]
    n = len(solves)

    problems = []
    counts = solves[0].counts
    if any(s.counts != counts for s in solves):
        problems.append("counts differ between traced solves of one config")
    # The self times of a solve sum to its root span by construction; what
    # can go wrong is a root span that misses part of the solve, so compare
    # it with the wall time the clock measured around the same solves.
    traced_s = sum(s.duration * k for s, k in zip(solves, scales)) / n
    wall_s = sum(w * k for w, k in traced) / len(traced)
    if n != len(traced) or abs(traced_s - wall_s) > TRACE_WALL_TOLERANCE * wall_s:
        problems.append(f"{n} root spans of mean {traced_s:.4f} s do not cover the "
                        f"{len(traced)} traced solves of mean {wall_s:.4f} s")
    self_time = {
        metric: sum(s.self_time.get(span, 0.0) * k for s, k in zip(solves, scales)) / n
        for span, metric in SELF_TIME_METRICS.items()
    }
    untraced_s = sum(w * k for w, k in untraced) / len(untraced)
    print(f"traced {n} solves, untraced {len(untraced)}")

    metrics = {
        "cli.import_s": (statistics.median(setup[0]), "s"),
        "config.load_s": (statistics.median(setup[1]), "s"),
    }
    metrics.update({m: (v, "s") for m, v in self_time.items()})
    metrics.update({m: (counts.get(m, 0), unit) for m, unit in COUNT_METRICS.items()})
    metrics["trace.solve_s"] = (traced_s, "s")
    metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
    return metrics, problems


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "duhamel" / "cli.py").is_file():
        log(f"no duhamel sources under {SRC}; run from the root of a source checkout")
        return 2
    sys.path.insert(0, str(SRC))
    from duhamel import cli

    if Path(cli.__file__).resolve().parent != SRC / "duhamel":
        log(f"imported {cli.__file__} instead of the checkout's sources")
        return 2

    workload = GENERATORS[args.workload](args.seed)
    problems = selfcheck(workload, seed=args.seed)

    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        session = Session(workload, cli, work, Clock())
        setup = measure_setup(session.clock, session.config)
        if args.trace:
            metrics, trace_problems = per_layer(session, args.seconds, setup)
            problems += trace_problems
        else:
            metrics = end_to_end(session, args.seconds, setup)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    for line in problems:
        log(line)
    _describe("clock calibration", session.clock.calibrations)
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    result = {
        "correct": session.failed == 0 and not problems,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
