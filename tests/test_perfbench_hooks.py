"""The benchmark's tracer patches program attributes by name.

A refactor that moves or renames one of them breaks ``perfbench/spans.py``;
this installs and uninstalls the tracer against the package as it is.
"""

import importlib
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def spans(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    sys.modules.pop("spans", None)
    yield importlib.import_module("spans")
    sys.modules.pop("spans", None)


def hooked_attributes(spans) -> dict:
    """Every attribute the tracer replaces, keyed by where it lives."""
    out = {}
    for module, attr, _ in (*spans._FUNCTION_SPANS, *spans._COUNTED):
        out[module, attr] = getattr(importlib.import_module(module), attr)
    for module, cls_name, attr, _ in spans._METHOD_SPANS:
        cls = getattr(importlib.import_module(module), cls_name)
        out[module, cls_name, attr] = cls.__dict__[attr]
    return out


def test_tracer_patches_and_restores_every_hook(spans):
    before = hooked_attributes(spans)
    tracer = spans.Tracer()
    tracer.install()
    try:
        patched = hooked_attributes(spans)
        assert [key for key in before if patched[key] is before[key]] == []
    finally:
        tracer.uninstall()
    after = hooked_attributes(spans)
    assert [key for key in before if after[key] is not before[key]] == []
