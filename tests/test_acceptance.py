"""Acceptance criteria, one test and one printed pass/fail line each.

Criteria that share fixtures (the bound suites, the Burgers pipeline) reuse
one session-scoped suite run and assert their own checks from it.
"""

import json

import pytest

from duhamel.cli import main
from duhamel.suites import (
    DEFAULT_SEED,
    constant_forcing_case,
    suite_bounds,
    suite_burgers,
    suite_oracles,
    suite_parabolic,
)


def report(number, title, checks):
    passed = all(c.passed for c in checks)
    print(f"\nACCEPTANCE {number} ({title}): {'PASS' if passed else 'FAIL'}")
    for c in checks:
        print("   " + c.line())
    assert passed, f"acceptance criterion {number} failed"


@pytest.fixture(scope="module")
def bounds_result():
    return suite_bounds(seed=DEFAULT_SEED)


@pytest.fixture(scope="module")
def burgers_result():
    return suite_burgers(seed=DEFAULT_SEED)


@pytest.fixture(scope="module")
def oracles_result():
    return suite_oracles(seed=DEFAULT_SEED)


def test_acceptance_1_constant_forcing_exponential():
    report(1, "constant-forcing exponential", constant_forcing_case())


def test_acceptance_2_burgers_cole_hopf_fixture(burgers_result):
    checks = [c for c in burgers_result.checks if c.label.startswith("burgers")]
    report(2, "Burgers/Cole-Hopf fixture", checks)


def test_acceptance_3_oracle_equivalence(oracles_result):
    checks = [c for c in oracles_result.checks if c.label.startswith("oracle")]
    report(3, "oracle equivalence, 20 seeded cases", checks)


def test_acceptance_4_bound_suites(bounds_result):
    checks = [
        c for c in bounds_result.checks
        if c.label.startswith(("ceiling", "termwise", "floor"))
    ]
    report(4, "ceiling/termwise/floor bound suites, 100 seeded trials", checks)


def test_acceptance_5_worst_case_3d(bounds_result):
    checks = [c for c in bounds_result.checks if c.label.startswith("3d")]
    report(5, "3D worst-case envelope, 50 seeded potentials", checks)


def test_acceptance_6_nse_residual(burgers_result):
    checks = [c for c in burgers_result.checks if c.label.startswith("nse residual")]
    report(6, "NSE momentum residual", checks)


def test_acceptance_7_parabolic_normalization():
    result = suite_parabolic(seed=DEFAULT_SEED)
    report(7, "1D parabolic normalization", list(result.checks))


def test_acceptance_8_determinism(tmp_path):
    body = {
        "schema": 1,
        "kind": "nse",
        "seed": 1234,
        "grid": {"points": [256], "extent": [6.283185307179586], "origin": [0.0]},
        "series": {"depth_max": 16, "rel_tolerance": 1e-12, "time_steps": 32,
                   "output_times": [0.125, 0.25, 0.375, 0.5]},
        "nse": {"velocity": ["sin(x)/(1+0.5*cos(x))"], "anchor": [0.0],
                "anchor_value": 0.0, "speed_bound": 2.0, "horizon": 0.5},
    }
    cfg = tmp_path / "fixture.json"
    cfg.write_text(json.dumps(body))
    for run in ("a", "b"):
        assert main(["solve", str(cfg), "-o", str(tmp_path / run)]) == 0
    names = sorted(
        p.name for p in (tmp_path / "a").iterdir() if p.suffix in (".csf", ".jsonl")
    )
    assert names, "solve produced no artifacts"
    identical = all(
        (tmp_path / "a" / n).read_bytes() == (tmp_path / "b" / n).read_bytes() for n in names
    )
    print(f"\nACCEPTANCE 8 (determinism): {'PASS' if identical else 'FAIL'}")
    print(f"   [{'PASS' if identical else 'FAIL'}] byte-identical reruns: "
          f"{len(names)} artifacts compared")
    assert identical
