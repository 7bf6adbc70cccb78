import gc
import json
import os
import re
import weakref

import numpy as np
import pytest

from ecgkd import training
from ecgkd.distill import KdConfig
from ecgkd.evalkit import stratified_kfold
from ecgkd.synthetic import SynthSpec, generate_windows
from ecgkd.training import (
    ConfigError,
    LatentScaler,
    RunConfig,
    config_from_dict,
    derive_seed,
    encode_latents,
    model_logits,
    prepare_ae_folds,
    run_grid,
    train_autoencoder,
    train_kd_student,
    train_teacher,
    train_vqc,
)


@pytest.fixture(scope="module")
def tiny_dataset():
    X, y = generate_windows(SynthSpec(n_windows=80, balance=0.5, noise_sigma=0.15, seed=21))
    teacher_z = (2 * y - 1) * 5.0
    return X, y, teacher_z


def test_config_validation_errors():
    with pytest.raises(ConfigError):
        config_from_dict({"dataset": "x.csv"})  # missing seed
    with pytest.raises(ConfigError):
        config_from_dict({"dataset": "x.csv", "seed": 1, "alpha": 1.5})
    with pytest.raises(ConfigError):
        config_from_dict({"dataset": "x.csv", "seed": 1, "temperature": 0})
    with pytest.raises(ConfigError):
        config_from_dict({"dataset": "x.csv", "seed": 1, "folds": 1})
    with pytest.raises(ConfigError):
        config_from_dict({"dataset": "x.csv", "seed": 1, "quantum_volume": 2})
    with pytest.raises(ConfigError, match="ae_learning_rate"):
        config_from_dict({"dataset": "x.csv", "seed": 1, "ae_learning_rate": 1e-3})
    cfg = config_from_dict({"dataset": "x.csv", "seed": 1, "epochs_overrides": {"resnet1d": 1}})
    assert cfg.epochs_for("resnet1d") == 1
    assert cfg.epochs_for("cnn1d") == cfg.epochs


@pytest.mark.parametrize("doc", [3, None] + [{"dataset": "x.csv", "seed": 1, **fields} for fields in (
    {"dataset": 0},
    {"teacher_logits": 3},
    {"output_dir": None},
    {"seed": True},
    {"seed": -1},
    {"folds": 2.5},
    {"spsa_batch": 1.5},
    {"epochs": "3"},
    {"learning_rate": "0.1"},
    {"learning_rate": float("nan")},
    {"temperature": float("inf")},
    {"alpha": True},
    {"students": []},
    {"alphas": []},
    {"temperatures": []},
    {"alphas": 0.5},
    {"temperatures": ["2"]},
    {"students": ["cnn1d", "ae_vqc", "cnn1d"]},
    {"alphas": [0.5, 0.5]},
    {"temperatures": [2.0, 4.0, 2]},
    {"epochs_overrides": {"ae_vqc": 2}},
    {"epochs_overrides": {"cnn1d": 0}},
    {"epochs_overrides": {"resnet1d": 1.5}},
    {"epochs_overrides": [1]},
)], ids=repr)
def test_config_rejects_mistyped_values(doc):
    with pytest.raises(ConfigError):
        config_from_dict(doc)


def test_readme_configs_validate():
    readme = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")
    with open(readme, encoding="utf-8") as fh:
        blocks = re.findall(r"```json\n(.*?)```", fh.read(), re.S)
    assert len(blocks) == 2
    for block in blocks:
        config_from_dict(json.loads(block))


def test_derive_seed_stable():
    assert derive_seed(7, 1, 2) == derive_seed(7, 1, 2)
    assert derive_seed(7, 1, 2) != derive_seed(7, 2, 1)


def test_train_kd_student_learns_supervised(tiny_dataset):
    X, y, tz = tiny_dataset
    kd = KdConfig(alpha=1.0, temperature=1.0)
    idx = np.arange(len(y))
    model = train_kd_student("cnn1d", X, y, tz, idx, kd, epochs=6, batch_size=16,
                             learning_rate=2e-3, seed=5)
    logits = model_logits(model, X)
    acc = np.mean((logits >= 0).astype(int) == y)
    assert acc >= 0.9


def test_training_deterministic(tiny_dataset):
    X, y, tz = tiny_dataset
    kd = KdConfig(alpha=0.5, temperature=2.0)
    idx = np.arange(len(y))
    out = []
    for _ in range(2):
        model = train_kd_student("cnn1d", X, y, tz, idx, kd, epochs=1, batch_size=16,
                                 learning_rate=1e-3, seed=13)
        out.append(model_logits(model, X))
    assert np.array_equal(out[0], out[1])


def test_alpha_one_ignores_teacher(tiny_dataset):
    X, y, tz = tiny_dataset
    kd = KdConfig(alpha=1.0, temperature=2.0)
    idx = np.arange(len(y))
    a = train_kd_student("cnn1d", X, y, tz, idx, kd, epochs=1, batch_size=16,
                         learning_rate=1e-3, seed=3)
    b = train_kd_student("cnn1d", X, y, -tz * 3.7, idx, kd, epochs=1, batch_size=16,
                         learning_rate=1e-3, seed=3)
    assert np.array_equal(model_logits(a, X), model_logits(b, X))


def test_fitted_models_hold_no_gradients(tiny_dataset):
    X, y, tz = tiny_dataset
    idx = np.arange(len(y))
    models = [
        train_teacher(X, y, epochs=1, batch_size=32, seed=2),
        train_kd_student("cnn1d", X, y, tz, idx, KdConfig(alpha=0.5, temperature=2.0), epochs=1,
                         batch_size=32, learning_rate=1e-3, seed=2),
        train_autoencoder(X, idx, epochs=1, batch_size=32, learning_rate=2e-3, seed=2),
    ]
    for model in models:
        assert all(t.grad is None for _, t in model.parameters())


def test_latent_scaler_standardizes():
    rng = np.random.default_rng(0)
    latents = rng.normal(3.0, 2.5, (200, 6))
    scaler = LatentScaler.fit(latents)
    out = scaler(latents)
    assert np.allclose(out.mean(axis=0), 0.0, atol=1e-12)
    assert np.allclose(out.std(axis=0), 1.0 / 16.0, atol=1e-9)


def test_train_vqc_counts_evaluations(tiny_dataset):
    X, y, tz = tiny_dataset
    ae = train_autoencoder(X, np.arange(60), epochs=2, batch_size=16, learning_rate=2e-3, seed=1)
    latents = LatentScaler.fit(encode_latents(ae, X)[:60])(encode_latents(ae, X))
    kd = KdConfig(alpha=0.5, temperature=2.0)
    theta, diag = train_vqc(latents, y, tz, np.arange(60), kd, steps=10, batch_size=16, seed=2)
    assert theta.shape == (36,)
    assert diag["loss_evaluations"] == 2 * 10
    assert diag["init_evaluations"] == 32
    assert diag["calibration_evaluations"] == 12  # 10 noise probes + one pair


def test_train_vqc_deterministic(tiny_dataset):
    X, y, tz = tiny_dataset
    ae = train_autoencoder(X, np.arange(60), epochs=2, batch_size=16, learning_rate=2e-3, seed=1)
    latents = LatentScaler.fit(encode_latents(ae, X)[:60])(encode_latents(ae, X))
    kd = KdConfig(alpha=0.5, temperature=2.0)
    a, _ = train_vqc(latents, y, tz, np.arange(60), kd, steps=5, batch_size=16, seed=4)
    b, _ = train_vqc(latents, y, tz, np.arange(60), kd, steps=5, batch_size=16, seed=4)
    assert np.array_equal(a, b)


def test_prepare_ae_folds_no_leakage_inputs(tiny_dataset):
    X, y, _ = tiny_dataset
    cfg = RunConfig(dataset="d", seed=3, ae_epochs=1, batch_size=16, folds=2)
    splits = stratified_kfold(y, 2, seed=3)
    cache = prepare_ae_folds(X, splits, cfg)
    assert set(cache) == {0, 1}
    for fold, (ae, scaler, latents) in cache.items():
        assert latents.shape == (len(y), 6)


def test_run_grid_tiny_end_to_end(tiny_dataset):
    X, y, tz = tiny_dataset
    cfg = RunConfig(
        dataset="d", seed=5, students=("cnn1d",), alphas=(0.5,), temperatures=(2.0,),
        epochs=1, batch_size=16, folds=2, ae_epochs=1, spsa_steps=3, spsa_batch=16,
    )
    reports, diagnostics = run_grid(X, y, tz, cfg, "tiny")
    assert len(reports) == 1
    assert len(reports[0].folds) == 2
    assert set(reports[0].mean) == {"accuracy", "precision", "recall", "f1"}
    again, _ = run_grid(X, y, tz, cfg, "tiny")
    assert reports[0].to_entry() == again[0].to_entry()


def test_run_grid_cardinality_small(tiny_dataset):
    X, y, tz = tiny_dataset
    cfg = RunConfig(
        dataset="d", seed=6, students=("cnn1d", "ae_vqc"), alphas=(0.3, 0.7),
        temperatures=(2.0,), epochs=1, batch_size=16, folds=2, ae_epochs=1,
        spsa_steps=3, spsa_batch=16,
    )
    reports, diagnostics = run_grid(X, y, tz, cfg, "tiny")
    assert len(reports) == 4
    vqc_diag = diagnostics[("ae_vqc", 0.3, 2.0)]
    assert all(d["loss_evaluations"] == 2 * cfg.spsa_steps for d in vqc_diag)


def test_run_grid_parallel_matches_serial(tiny_dataset):
    X, y, tz = tiny_dataset
    base = dict(
        dataset="d", seed=8, temperatures=(2.0,), epochs=1, batch_size=16, folds=2, ae_epochs=1,
        spsa_steps=3, spsa_batch=16,
    )
    # two cnn1d cells, then one cell each of the two backprop students at
    # full size (resnet1d has 3.85M parameters)
    for cells in (dict(students=("cnn1d",), alphas=(0.3, 0.7)),
                  dict(students=("cnn1d", "resnet1d"), alphas=(0.5,))):
        serial, _ = run_grid(X, y, tz, RunConfig(**base, **cells, jobs=1), "tiny")
        parallel, _ = run_grid(X, y, tz, RunConfig(**base, **cells, jobs=2), "tiny")
        assert len(serial) == 2
        assert [r.to_entry() for r in serial] == [r.to_entry() for r in parallel]


def test_run_grid_keeps_at_most_one_fold_model_alive(tiny_dataset, tmp_path, monkeypatch):
    # A resnet1d fold model is tens of MB; a saved fold's model must be freed
    # before the next fold trains.
    X, y, tz = tiny_dataset
    train = training.train_kd_student
    earlier = []

    def tracked(*args, **kwargs):
        gc.collect()
        assert all(ref() is None for ref in earlier), "an earlier fold's model is still alive"
        model = train(*args, **kwargs)
        earlier.append(weakref.ref(model))
        return model

    monkeypatch.setattr(training, "train_kd_student", tracked)
    cfg = RunConfig(dataset="d", seed=4, students=("cnn1d",), alphas=(0.5,), temperatures=(2.0,),
                    epochs=1, batch_size=16, folds=3)
    run_grid(X, y, tz, cfg, "tiny", save_dir=str(tmp_path))
    assert len(earlier) == 3
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fold0.ckpt", "fold1.ckpt", "fold2.ckpt"]
