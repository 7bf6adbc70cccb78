"""The benchmark's traced run wraps ecgkd functions by name; a renamed or
removed function must fail here, not only under ``perfbench/run.py --trace 1``."""

import importlib
import os

from ecgkd import cli, training

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def test_tracer_installs_and_restores(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    tracer = importlib.import_module("tracer").Tracer()
    originals = (training.run_fold, training.run_grid, cli.main)
    try:
        tracer.install()
        assert training.run_fold is not originals[0]
        assert training.run_grid is not originals[1]
    finally:
        tracer.restore()
    assert (training.run_fold, training.run_grid, cli.main) == originals
