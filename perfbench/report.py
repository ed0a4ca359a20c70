"""Runs every workload once and prints its end-to-end metrics side by side.

Usage (from the root of a source checkout):

    python3 perfbench/report.py

Each workload runs once through ``run.py --trace 0`` with seed ``SEED`` for
``SECONDS`` seconds.  The table holds the end-to-end metrics plus
``failed_ratio`` (failed solves over solves attempted).  Per-layer metrics
come from ``run.py --trace 1``.  Exits non-zero if any run fails or reports
``correct: false``.
"""

import json
import subprocess
import sys
from pathlib import Path

from workloads import GENERATORS

HERE = Path(__file__).resolve().parent
SEED = 0
SECONDS = 30


def run(workload: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(SEED),
         "--seconds", str(SECONDS), "--trace", "0"],
        capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload}: exit status {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    results = {w: run(w) for w in GENERATORS}
    rows: dict[str, dict[str, str]] = {}
    for workload, result in results.items():
        for name, metric in result["metrics"].items():
            rows.setdefault(f"{name} ({metric['unit']})", {})[workload] = f"{metric['value']:.6g}"
        rows.setdefault("failed_ratio (1)", {})[workload] = (
            f"{result['failed'] / result['attempted']:.6g} of {result['attempted']}")

    width = max(len(r) for r in rows)
    print(" " * width + "".join(f"  {w:>20}" for w in results))
    for label, cells in rows.items():
        print(label.ljust(width) + "".join(f"  {cells.get(w, '-'):>20}" for w in results))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
