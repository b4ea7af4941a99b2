"""The benchmark's tracer must find every function it is told to wrap,
and count what it is told to count.

``perfbench/layers.py`` names softpu functions by module and attribute and
reads work counts from their arguments; a renamed or removed function, or
a call whose arguments no longer fit, would otherwise fail only the
benchmark's own test run. The file is imported read-only: no bytecode is
written next to it.
"""

import importlib
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from softpu import training
from softpu.dataset import SoftDataset

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


def test_traced_train_counts_every_batch(layers):
    # the benchmark counts kernels.mlp_epochs batches from the kernel's
    # positional order (its shape) and batch size
    spans = importlib.import_module("spans")
    n, epochs, batch_size = 203, 3, 32
    rng = np.random.default_rng(37)
    data = SoftDataset(features=rng.standard_normal((n, 2)), soft_labels=rng.random(n))
    cfg = training.TrainConfig(learning_rate=0.5, epochs=epochs, batch_size=batch_size, seed=0)
    tracer = spans.Tracer(layers.TARGETS, "softpu")
    tracer.install()
    try:
        tracer.begin_op(0)
        training.train(data, training.ARCH_MLP, cfg, hidden_width=4)
        tracer.end_op(0.0)
    finally:
        tracer.uninstall()
    op = tracer.op_stats()[0]
    assert op.calls["kernels.mlp_epochs"] == 1
    assert op.counters["kernels.mlp_epochs.batches"] == epochs * math.ceil(n / batch_size)
    assert op.counters["training.order_bytes"] == epochs * n * 8
    assert not any(op.errors.values())
