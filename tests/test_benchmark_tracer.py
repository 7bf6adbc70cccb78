"""The benchmark's traced run wraps ecgkd functions by name; a renamed or
removed function must fail here, not only under ``perfbench/run.py --trace 1``."""

import importlib
import os

import numpy as np
import pytest

from ecgkd import cli, training
from ecgkd.autodiff import Tensor
from ecgkd.distill import KdConfig, kd_loss_batch
from ecgkd.models import build_student
from ecgkd.optim import Adam

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def _tracer(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    return importlib.import_module("tracer").Tracer()


def test_tracer_installs_and_restores(monkeypatch):
    tracer = _tracer(monkeypatch)
    originals = (training.run_fold, training.run_grid, cli.main)
    try:
        tracer.install()
        assert training.run_fold is not originals[0]
        assert training.run_grid is not originals[1]
    finally:
        tracer.restore()
    assert (training.run_fold, training.run_grid, cli.main) == originals


@pytest.mark.parametrize("kind", ["cnn1d", "resnet1d"])
def test_traced_train_step(kind, monkeypatch):
    """One forward, KD loss, backward and Adam step through the wrapped ops."""
    tracer = _tracer(monkeypatch)
    rng = np.random.default_rng(0)
    model = build_student(kind, seed=0)
    adam = Adam([t for _, t in model.parameters()], lr=1e-3)
    try:
        tracer.install()
        tracer.begin_pass("timed")
        logits = model.forward(Tensor(rng.standard_normal((4, 1, 256))), train=True)
        loss = kd_loss_batch(logits, rng.standard_normal(4), np.array([0, 1, 0, 1]), KdConfig(0.5, 2.0))
        adam.zero_grad()
        loss.backward()
        adam.step()
    finally:
        tracer.restore()
    metrics = tracer.layer_metrics("timed")
    n_batchnorm = sum(name.endswith("running_mean") for name, _ in model.state_items())
    assert metrics["autodiff.batchnorm1d.calls"][0] == n_batchnorm > 0
    assert metrics["autodiff.batchnorm1d.bwd_s"][0] > 0
    assert metrics["optim.adam.steps"][0] == 1
