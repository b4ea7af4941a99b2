"""The benchmark's tracer must find every function it is told to wrap.

``perfbench/layers.py`` names softpu functions by module and attribute; a
renamed or removed function would otherwise fail only the benchmark's own
test run. The file is imported read-only: no bytecode is written next to it.
"""

import importlib
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def layers(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    for name in ("layers", "spans"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    module = importlib.import_module("layers")
    assert Path(module.__file__).resolve().parent == PERFBENCH
    yield module
    for name in ("layers", "spans"):
        sys.modules.pop(name, None)


def test_every_target_resolves_to_a_softpu_function(layers):
    assert layers.TARGETS
    for target in layers.TARGETS:
        module_name, _, class_name = target.owner.partition(":")
        assert module_name.startswith("softpu."), target
        owner = importlib.import_module(module_name)
        if class_name:
            owner = getattr(owner, class_name)
        assert callable(getattr(owner, target.attr, None)), target
