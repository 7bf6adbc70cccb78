"""Training loops for the distillation pipeline.

Classical students and the autoencoder train with Adam on the tape
engine; the circuit student trains its 36 angles with SPSA on the same
mixed objective, with the autoencoder frozen after reconstruction
pretraining.  Every loop is deterministic given the run seed.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import quantum
from .autodiff import Tensor, mean_all, mul
from .distill import KdConfig, kd_loss_batch, kd_loss_vector
from .evalkit import (
    DEFAULT_ALPHAS,
    DEFAULT_TEMPERATURES,
    MetricsReport,
    binary_metrics,
    stratified_kfold,
)
from .models import ConvAutoencoder, WideCnnTeacher, build_student, save_model
from .optim import Adam, Spsa, spsa_calibrate

GRID_STUDENTS = ("cnn1d", "resnet1d", "ae_vqc")
AE_LEARNING_RATE = 2e-3
EVAL_CHUNK = 512  # rows per eval-mode forward pass
INIT_DRAWS = 32  # random angle vectors screened before SPSA starts


class ConfigError(Exception):
    pass


@dataclass
class RunConfig:
    """Validated settings for distill and grid runs."""

    dataset: str
    seed: int
    teacher_logits: str = ""
    student: str = "cnn1d"
    students: tuple = GRID_STUDENTS
    alpha: float = 0.5
    temperature: float = 2.0
    alphas: tuple = DEFAULT_ALPHAS
    temperatures: tuple = DEFAULT_TEMPERATURES
    epochs: int = 3
    epochs_overrides: dict = field(default_factory=dict)
    batch_size: int = 32
    learning_rate: float = 2e-3
    ae_epochs: int = 20
    spsa_steps: int = 400
    spsa_batch: int = 96
    spsa_restarts: int = 1
    folds: int = 5
    shot_noise: int = 0
    output_dir: str = "."
    jobs: int = 1

    def validate(self):
        for name in ("dataset", "teacher_logits", "output_dir"):
            if not isinstance(getattr(self, name), str):
                raise ConfigError(f"{name} must be a string path")
        for name in _COUNT_FIELDS:
            if not _is_int(getattr(self, name)):
                raise ConfigError(f"{name} must be an integer, got {getattr(self, name)!r}")
        for name in ("alpha", "temperature", "learning_rate", "alphas", "temperatures"):
            value = getattr(self, name)
            if not all(_is_number(v) for v in (value if isinstance(value, tuple) else (value,))):
                raise ConfigError(f"{name} must be a finite number, got {value!r}")
        for name in ("students", "alphas", "temperatures"):
            if not getattr(self, name):
                raise ConfigError(f"{name} must be a non-empty list")
        if self.student not in GRID_STUDENTS:
            raise ConfigError(f"student must be one of {GRID_STUDENTS}, got {self.student!r}")
        for s in self.students:
            if s not in GRID_STUDENTS:
                raise ConfigError(f"unknown student {s!r} in students")
        if not isinstance(self.epochs_overrides, dict) or not all(
            kind in ("cnn1d", "resnet1d") and _is_int(n) and n >= 1 for kind, n in self.epochs_overrides.items()
        ):
            raise ConfigError(f"epochs_overrides must map cnn1d or resnet1d to an integer >= 1, "
                              f"got {self.epochs_overrides!r}")
        for a in (self.alpha, *self.alphas):
            if not 0.0 <= a <= 1.0:
                raise ConfigError(f"alpha must be in [0, 1], got {a}")
        for t in (self.temperature, *self.temperatures):
            if not t > 0:
                raise ConfigError(f"temperature must be positive, got {t}")
        for name in ("students", "alphas", "temperatures"):
            values = getattr(self, name)
            if len(set(values)) < len(values):
                raise ConfigError(f"{name} must not repeat an entry, got {list(values)}")
        for name in ("epochs", "batch_size", "ae_epochs", "spsa_steps", "spsa_batch",
                     "spsa_restarts", "jobs"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        if self.folds < 2:
            raise ConfigError("folds must be >= 2")
        if self.learning_rate <= 0:
            raise ConfigError("learning_rate must be positive")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.shot_noise < 0:
            raise ConfigError("shot_noise must be 0 (exact) or a positive shot count")
        return self

    def epochs_for(self, kind):
        return self.epochs_overrides.get(kind, self.epochs)


_COUNT_FIELDS = ("seed", "epochs", "batch_size", "ae_epochs", "spsa_steps", "spsa_batch",
                 "spsa_restarts", "folds", "shot_noise", "jobs")


def _is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


def config_from_dict(doc) -> RunConfig:
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    known = {f.name for f in RunConfig.__dataclass_fields__.values()}
    unknown = set(doc) - known
    if unknown:
        raise ConfigError(f"unknown config fields: {sorted(unknown)}")
    if "dataset" not in doc or "seed" not in doc:
        raise ConfigError("config requires at least 'dataset' and 'seed'")
    doc = dict(doc)
    for key in ("students", "alphas", "temperatures"):
        if key in doc:
            if not isinstance(doc[key], list):
                raise ConfigError(f"{key} must be a non-empty list")
            doc[key] = tuple(doc[key])
    cfg = RunConfig(**doc)
    return cfg.validate()


def derive_seed(*keys) -> int:
    """Stable child seed from a tuple of integer keys."""
    return int(np.random.SeedSequence(list(keys)).generate_state(1, dtype=np.uint64)[0] >> 1)


# ---------------------------------------------------------------------------
# Classical training
# ---------------------------------------------------------------------------


def _eval_chunks(fn, windows):
    """``fn`` applied to an [N, 256] window array EVAL_CHUNK rows at a time."""
    return np.concatenate([
        fn(Tensor(windows[start : start + EVAL_CHUNK][:, None, :])).data
        for start in range(0, len(windows), EVAL_CHUNK)
    ])


def model_logits(model, windows):
    """Eval-mode logits for an [N, 256] window array."""
    return _eval_chunks(lambda xb: model.forward(xb, train=False), windows)


def _fit_adam(model, train_idx, batch_loss, epochs, batch_size, learning_rate, seed):
    """The Adam minibatch loop every backprop model trains with.

    Each epoch draws one permutation of ``train_idx`` from
    ``default_rng([seed, 7])``; each minibatch of dataset rows ``idx`` takes
    one Adam step on ``batch_loss(idx)``.  Gradients are dropped after the
    last step, so a fitted model holds only its parameters.
    """
    adam = Adam([t for _, t in model.parameters()], lr=learning_rate)
    rng = np.random.default_rng([seed, 7])
    n = len(train_idx)
    for _ in range(epochs):
        order = rng.permutation(n)
        for start in range(0, n, batch_size):
            loss = batch_loss(train_idx[order[start : start + batch_size]])
            adam.zero_grad()
            loss.backward()
            adam.step()
    adam.zero_grad()
    return model


def _kd_batch_loss(model, windows, labels, teacher_z, kd: KdConfig):
    def batch_loss(idx):
        logits = model.forward(Tensor(windows[idx][:, None, :]), train=True)
        return kd_loss_batch(logits, teacher_z[idx], labels[idx], kd)

    return batch_loss


def train_kd_student(kind, windows, labels, teacher_z, train_idx, kd: KdConfig,
                     epochs, batch_size, learning_rate, seed):
    """Train one backprop student on a fold's training indices."""
    model = build_student(kind, seed=seed)
    batch_loss = _kd_batch_loss(model, windows, labels, teacher_z, kd)
    return _fit_adam(model, train_idx, batch_loss, epochs, batch_size, learning_rate, seed)


def train_teacher(windows, labels, epochs=20, batch_size=64, learning_rate=1e-3, seed=0):
    """Train the wide proxy teacher with plain label supervision."""
    model = WideCnnTeacher(seed=seed)
    n = len(windows)
    batch_loss = _kd_batch_loss(model, windows, labels, np.zeros(n), KdConfig(alpha=1.0, temperature=1.0))
    return _fit_adam(model, np.arange(n), batch_loss, epochs, batch_size, learning_rate, seed)


# ---------------------------------------------------------------------------
# Autoencoder + circuit training
# ---------------------------------------------------------------------------


def train_autoencoder(windows, train_idx, epochs, batch_size, learning_rate, seed):
    """Reconstruction-only pretraining; the latent is frozen afterwards."""
    ae = ConvAutoencoder(seed=seed)

    def batch_loss(idx):
        xb = Tensor(windows[idx][:, None, :])
        diff = ae.forward(xb, train=True) - xb
        return mean_all(mul(diff, diff))

    return _fit_adam(ae, train_idx, batch_loss, epochs, batch_size, learning_rate, seed)


@dataclass(frozen=True)
class LatentScaler:
    """Per-dimension standardization of the frozen encoder's latents,
    shrunk well inside one phase period of the feature map.

    The 1/16 spread keeps the encoding in the near-linear small-angle
    regime, which measured best for the downstream circuit; wider spreads
    wrap the pairwise interaction phases and scramble the geometry.
    """

    mean: np.ndarray
    scale: np.ndarray

    @classmethod
    def fit(cls, latents):
        mean = latents.mean(axis=0)
        std = latents.std(axis=0)
        return cls(mean=mean, scale=1.0 / (16.0 * np.maximum(std, 1e-6)))

    def __call__(self, latents):
        return (latents - self.mean) * self.scale


def encode_latents(ae, windows):
    """Frozen-encoder latents for an [N, 256] window array."""
    return _eval_chunks(ae.encode, windows)


def train_vqc(latents, labels, teacher_z, train_idx, kd: KdConfig, steps, batch_size, seed, shots=0):
    """SPSA training of the 36 circuit angles on the mixed objective.

    Initialization screens INIT_DRAWS random angle vectors on one minibatch
    and starts from the best.  After gain calibration each SPSA step makes
    exactly two loss evaluations on one shared minibatch; ``shots`` 0
    reads the circuit exactly.  Returns (theta, diagnostics).
    """
    rng = np.random.default_rng([seed, 13])
    shot_rng = np.random.default_rng([seed, 17]) if shots else None
    n = len(train_idx)
    take = min(batch_size, n)
    holder = {"idx": train_idx[rng.choice(n, size=take, replace=False)]}
    counter = {"evals": 0}

    def loss_fn(angles):
        counter["evals"] += 1
        idx = holder["idx"]
        z = quantum.vqc_forward_batch(latents[idx], angles, shots=shots, rng=shot_rng)
        return kd_loss_vector(z, teacher_z[idx], labels[idx], kd)

    candidates = rng.uniform(-np.pi, np.pi, size=(INIT_DRAWS, quantum.THETA_LENGTH))
    theta = min(candidates, key=loss_fn)
    init_evals = counter["evals"]
    a, c, big_a = spsa_calibrate(loss_fn, theta, iterations=steps, seed=derive_seed(seed, 19))
    calibration_evals = counter["evals"] - init_evals
    spsa = Spsa(a=a, c=c, A=big_a, seed=derive_seed(seed, 23))
    for _ in range(steps):
        holder["idx"] = train_idx[rng.choice(n, size=take, replace=False)]
        theta = spsa.step(theta, loss_fn)
    diagnostics = {
        "steps": steps,
        "loss_evaluations": spsa.evaluations,
        "calibration_evaluations": calibration_evals,
        "init_evaluations": init_evals,
        "spsa_a": a,
        "spsa_c": c,
        "spsa_A": big_a,
    }
    return theta, diagnostics


def train_vqc_restarts(latents, labels, teacher_z, train_idx, kd: KdConfig, steps,
                       batch_size, seed, shots=0, restarts=1):
    """Best of several independent SPSA runs, chosen by training-set loss.

    The optimizer's stochastic trajectory occasionally stalls in a poor
    basin; a couple of restarts with the winner picked on the training
    split recovers most of that variance.  Diagnostics aggregate the loss
    evaluation count across restarts.
    """
    best = None
    for r in range(restarts):
        theta, diag = train_vqc(latents, labels, teacher_z, train_idx, kd, steps, batch_size,
                                derive_seed(seed, 31, r), shots=shots)
        z = quantum.vqc_forward_batch(latents[train_idx], theta)
        train_loss = kd_loss_vector(z, teacher_z[train_idx], labels[train_idx], kd)
        if best is None or train_loss < best[0]:
            best = (train_loss, theta, diag, r)
    train_loss, theta, diag, winner = best
    diag = dict(diag)
    diag["restarts"] = restarts
    diag["winning_restart"] = winner
    diag["train_loss"] = float(train_loss)
    return theta, diag


# ---------------------------------------------------------------------------
# Fold / grid orchestration
# ---------------------------------------------------------------------------


def prepare_ae_folds(windows, splits, cfg: RunConfig):
    """Per-fold frozen autoencoders: {fold: (autoencoder, scaler, scaled
    latents for the whole dataset)}, the scaler fitted on each fold's
    training split only."""
    cache = {}
    for split in splits:
        seed = derive_seed(cfg.seed, 900, split.fold_index)
        ae = train_autoencoder(
            windows, split.train_indices, cfg.ae_epochs, cfg.batch_size, AE_LEARNING_RATE, seed
        )
        raw = encode_latents(ae, windows)
        scaler = LatentScaler.fit(raw[split.train_indices])
        cache[split.fold_index] = (ae, scaler, scaler(raw))
    return cache


def run_fold(student, windows, labels, teacher_z, split, kd: KdConfig, cfg: RunConfig,
             latents=None):
    """Train one grid cell on one fold; returns (metrics, diagnostics,
    trained), where ``trained`` is the student model, or for ae_vqc its
    angles (``latents`` is then the fold's scaled latents)."""
    seed = derive_seed(
        cfg.seed,
        GRID_STUDENTS.index(student),
        int(round(kd.alpha * 1000)),
        int(round(kd.temperature * 1000)),
        split.fold_index,
    )
    if student == "ae_vqc":
        trained, diagnostics = train_vqc_restarts(
            latents, labels, teacher_z, split.train_indices, kd,
            cfg.spsa_steps, cfg.spsa_batch, seed, shots=cfg.shot_noise, restarts=cfg.spsa_restarts,
        )
        val_logits = quantum.vqc_forward_batch(latents[split.val_indices], trained)
        diagnostics["theta"] = trained.tolist()
    else:
        epochs = cfg.epochs_for(student)
        trained = train_kd_student(
            student, windows, labels, teacher_z, split.train_indices, kd,
            epochs, cfg.batch_size, cfg.learning_rate, seed,
        )
        val_logits = model_logits(trained, windows[split.val_indices])
        diagnostics = {"epochs": epochs}
    # sigmoid(z) >= 0.5 is exactly z >= 0
    metrics = binary_metrics((val_logits >= 0.0).astype(np.int64), labels[split.val_indices])
    return metrics, diagnostics, trained


def _save_fold(save_dir, fold, student, trained, diagnostics, ae_fold, seed):
    """Write one fold's student: ``fold{i}.ckpt``, or for ae_vqc the frozen
    autoencoder ``fold{i}.ae.ckpt`` and the angles with the fold's latent
    scaler ``fold{i}.theta.json``."""
    stem = os.path.join(save_dir, f"fold{fold}")
    if student != "ae_vqc":
        save_model(f"{stem}.ckpt", trained)
        return
    ae, scaler, _ = ae_fold
    save_model(f"{stem}.ae.ckpt", ae)
    quantum.save_theta(
        f"{stem}.theta.json",
        trained,
        seed=seed,
        extra={
            "loss_evaluations": diagnostics["loss_evaluations"],
            "steps": diagnostics["steps"],
            "latent_mean": scaler.mean.tolist(),
            "latent_scale": scaler.scale.tolist(),
        },
    )


def _grid_cell(args):
    student, alpha, temperature, windows, labels, teacher_z, splits, cfg, ae_folds, save_dir = args
    kd = KdConfig(alpha=alpha, temperature=temperature)
    fold_metrics = []
    diag = []
    for split in splits:
        ae_fold = ae_folds.get(split.fold_index)
        latents = ae_fold[2] if ae_fold else None
        metrics, diagnostics, trained = run_fold(student, windows, labels, teacher_z, split, kd, cfg, latents)
        if save_dir is not None:
            _save_fold(save_dir, split.fold_index, student, trained, diagnostics, ae_fold, cfg.seed)
        # Unbind the model now, so it is freed before the next fold trains.
        del trained
        fold_metrics.append(metrics)
        diag.append(diagnostics)
    return student, alpha, temperature, fold_metrics, diag


def run_grid(windows, labels, teacher_z, cfg: RunConfig, dataset_name: str, save_dir=None):
    """Full (student x alpha x T) sweep under stratified k-fold validation.

    Returns (reports, diagnostics) where diagnostics maps
    (student, alpha, T) to the per-fold training diagnostics.  With
    ``save_dir``, each fold's trained student is written there as the fold
    finishes (see ``_save_fold``).
    """
    splits = stratified_kfold(labels, cfg.folds, seed=cfg.seed)
    ae_cache = prepare_ae_folds(windows, splits, cfg) if "ae_vqc" in cfg.students else {}
    cells = [
        (student, alpha, temperature, windows, labels, teacher_z, splits, cfg,
         ae_cache if student == "ae_vqc" else {}, save_dir)
        for student in cfg.students for temperature in cfg.temperatures for alpha in cfg.alphas
    ]
    if cfg.jobs > 1 and len(cells) > 1:
        with ProcessPoolExecutor(max_workers=cfg.jobs) as pool:
            results = list(pool.map(_grid_cell, cells))
    else:
        results = [_grid_cell(c) for c in cells]
    reports = []
    diagnostics = {}
    for student, alpha, temperature, fold_metrics, diag in results:
        report = MetricsReport(
            student=student, alpha=alpha, temperature=temperature,
            dataset=dataset_name, folds=fold_metrics,
        ).finalize()
        reports.append(report)
        diagnostics[(student, alpha, temperature)] = diag
    return reports, diagnostics
