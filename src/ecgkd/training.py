"""Training loops for the distillation pipeline.

Classical students and the autoencoder train with Adam on the tape
engine; the circuit student trains its 36 angles with SPSA on the same
mixed objective, with the autoencoder frozen after reconstruction
pretraining.  Every loop is deterministic given the run seed.
"""

from __future__ import annotations

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
from .models import ConvAutoencoder, WideCnnTeacher, build_student
from .optim import Adam, Spsa, spsa_calibrate

GRID_STUDENTS = ("cnn1d", "resnet1d", "ae_vqc")


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
    ae_learning_rate: float = 2e-3
    spsa_steps: int = 400
    spsa_batch: int = 96
    spsa_restarts: int = 1
    folds: int = 5
    shot_noise: int = 0
    output_dir: str = "."
    jobs: int = 1

    def validate(self):
        if not isinstance(self.seed, int):
            raise ConfigError("seed must be an integer")
        if self.student not in GRID_STUDENTS:
            raise ConfigError(f"student must be one of {GRID_STUDENTS}, got {self.student!r}")
        for s in self.students:
            if s not in GRID_STUDENTS:
                raise ConfigError(f"unknown student {s!r} in students")
        for a in (self.alpha, *self.alphas):
            if not 0.0 <= a <= 1.0:
                raise ConfigError(f"alpha must be in [0, 1], got {a}")
        for t in (self.temperature, *self.temperatures):
            if not t > 0:
                raise ConfigError(f"temperature must be positive, got {t}")
        for name in ("epochs", "batch_size", "ae_epochs", "spsa_steps", "spsa_batch",
                     "spsa_restarts", "jobs"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        if self.folds < 2:
            raise ConfigError("folds must be >= 2")
        if self.learning_rate <= 0 or self.ae_learning_rate <= 0:
            raise ConfigError("learning rates must be positive")
        if self.shot_noise < 0:
            raise ConfigError("shot_noise must be 0 (exact) or a positive shot count")
        return self

    def epochs_for(self, kind):
        return int(self.epochs_overrides.get(kind, self.epochs))


def config_from_dict(doc) -> RunConfig:
    known = {f.name for f in RunConfig.__dataclass_fields__.values()}
    unknown = set(doc) - known
    if unknown:
        raise ConfigError(f"unknown config fields: {sorted(unknown)}")
    if "dataset" not in doc or "seed" not in doc:
        raise ConfigError("config requires at least 'dataset' and 'seed'")
    doc = dict(doc)
    for key in ("students", "alphas", "temperatures"):
        if key in doc:
            doc[key] = tuple(doc[key])
    cfg = RunConfig(**doc)
    return cfg.validate()


def derive_seed(*keys) -> int:
    """Stable child seed from a tuple of integer keys."""
    return int(np.random.SeedSequence(list(keys)).generate_state(1, dtype=np.uint64)[0] >> 1)


# ---------------------------------------------------------------------------
# Classical training
# ---------------------------------------------------------------------------


def _eval_chunks(fn, windows, chunk):
    """``fn`` applied to an [N, 256] window array ``chunk`` rows at a time."""
    return np.concatenate([
        fn(Tensor(windows[start : start + chunk][:, None, :])).data
        for start in range(0, len(windows), chunk)
    ])


def model_logits(model, windows, chunk=512):
    """Eval-mode logits for an [N, 256] window array."""
    return _eval_chunks(lambda xb: model.forward(xb, train=False), windows, chunk)


def _fit_adam(model, train_idx, batch_loss, epochs, batch_size, learning_rate, seed):
    """The Adam minibatch loop every backprop model trains with.

    Each epoch draws one permutation of ``train_idx`` from
    ``default_rng([seed, 7])``; each minibatch of dataset rows ``idx`` takes
    one Adam step on ``batch_loss(idx)``.
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


def encode_latents(ae, windows, chunk=512):
    """Frozen-encoder latents for an [N, 256] window array."""
    return _eval_chunks(ae.encode, windows, chunk)


def train_vqc(latents, labels, teacher_z, train_idx, kd: KdConfig, steps, batch_size,
              seed, shots=0, init_draws=32):
    """SPSA training of the 36 circuit angles on the mixed objective.

    Initialization screens ``init_draws`` random angle vectors on one
    minibatch and starts from the best.  After gain calibration each SPSA
    step makes exactly two loss evaluations on one shared minibatch.
    Returns (theta, diagnostics).
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
        z = quantum.vqc_forward_batch(latents[idx], angles, shots=shots or None, rng=shot_rng)
        return kd_loss_vector(z, teacher_z[idx], labels[idx], kd)

    candidates = rng.uniform(-np.pi, np.pi, size=(init_draws, quantum.THETA_LENGTH))
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
                       batch_size, seed, shots=0, init_draws=32, restarts=1):
    """Best of several independent SPSA runs, chosen by training-set loss.

    The optimizer's stochastic trajectory occasionally stalls in a poor
    basin; a couple of restarts with the winner picked on the training
    split recovers most of that variance.  Diagnostics aggregate the loss
    evaluation count across restarts.
    """
    best = None
    for r in range(restarts):
        theta, diag = train_vqc(
            latents, labels, teacher_z, train_idx, kd, steps, batch_size,
            derive_seed(seed, 31, r), shots=shots, init_draws=init_draws,
        )
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


def _predictions_from_logits(logits):
    # sigmoid(z) >= 0.5 is exactly z >= 0
    return (np.asarray(logits) >= 0.0).astype(np.int64)


def prepare_ae_folds(windows, splits, cfg: RunConfig):
    """Per-fold frozen autoencoders: {fold: (autoencoder, scaler, scaled
    latents for the whole dataset)}, the scaler fitted on each fold's
    training split only."""
    cache = {}
    for split in splits:
        seed = derive_seed(cfg.seed, 900, split.fold_index)
        ae = train_autoencoder(
            windows, split.train_indices, cfg.ae_epochs, cfg.batch_size, cfg.ae_learning_rate, seed
        )
        raw = encode_latents(ae, windows)
        scaler = LatentScaler.fit(raw[split.train_indices])
        cache[split.fold_index] = (ae, scaler, scaler(raw))
    return cache


def run_fold(student, windows, labels, teacher_z, split, kd: KdConfig, cfg: RunConfig,
             latents=None):
    """Train one grid cell on one fold; returns (metrics, diagnostics)."""
    seed = derive_seed(
        cfg.seed,
        GRID_STUDENTS.index(student),
        int(round(kd.alpha * 1000)),
        int(round(kd.temperature * 1000)),
        split.fold_index,
    )
    if student == "ae_vqc":
        if latents is None:
            raise ConfigError("ae_vqc fold needs precomputed latents")
        theta, diagnostics = train_vqc_restarts(
            latents, labels, teacher_z, split.train_indices, kd,
            cfg.spsa_steps, cfg.spsa_batch, seed, shots=cfg.shot_noise,
            init_draws=32, restarts=cfg.spsa_restarts,
        )
        val_logits = quantum.vqc_forward_batch(latents[split.val_indices], theta)
        diagnostics["theta"] = theta.tolist()
    else:
        epochs = cfg.epochs_for(student)
        model = train_kd_student(
            student, windows, labels, teacher_z, split.train_indices, kd,
            epochs, cfg.batch_size, cfg.learning_rate, seed,
        )
        val_logits = model_logits(model, windows[split.val_indices])
        diagnostics = {"epochs": epochs, "model": model}
    metrics = binary_metrics(_predictions_from_logits(val_logits), labels[split.val_indices])
    return metrics, diagnostics


def prepare_folds(windows, labels, cfg: RunConfig, students):
    """The run's stratified splits, plus each fold's frozen autoencoder,
    latent scaler and scaled latents when ae_vqc is among ``students``.

    Returns (splits, {fold: (autoencoder, scaler)}, {fold: latents}); both
    maps are empty without ae_vqc.
    """
    splits = stratified_kfold(labels, cfg.folds, seed=cfg.seed)
    cache = prepare_ae_folds(windows, splits, cfg) if "ae_vqc" in students else {}
    encoders = {fold: (ae, scaler) for fold, (ae, scaler, _) in cache.items()}
    latents_by_fold = {fold: latents for fold, (_, _, latents) in cache.items()}
    return splits, encoders, latents_by_fold


def cell_folds(student, windows, labels, teacher_z, splits, kd: KdConfig, cfg: RunConfig,
               latents_by_fold):
    """Train one grid cell fold by fold, yielding (split, metrics,
    diagnostics) as each fold finishes.  A classical student's diagnostics
    hold its trained model under "model"; consumers drop it before the next
    fold so at most one fold model is alive."""
    for split in splits:
        latents = latents_by_fold.get(split.fold_index)
        metrics, diagnostics = run_fold(student, windows, labels, teacher_z, split, kd, cfg, latents)
        yield split, metrics, diagnostics


def _grid_cell(args):
    student, alpha, temperature, windows, labels, teacher_z, splits, cfg, latents_by_fold = args
    kd = KdConfig(alpha=alpha, temperature=temperature)
    fold_metrics = []
    diag = []
    for _, metrics, diagnostics in cell_folds(student, windows, labels, teacher_z, splits, kd, cfg,
                                              latents_by_fold):
        diagnostics.pop("model", None)
        fold_metrics.append(metrics)
        diag.append(diagnostics)
    return student, alpha, temperature, fold_metrics, diag


def run_grid(windows, labels, teacher_z, cfg: RunConfig, dataset_name: str):
    """Full (student x alpha x T) sweep under stratified k-fold validation.

    Returns (reports, diagnostics) where diagnostics maps
    (student, alpha, T) to the per-fold training diagnostics.
    """
    splits, _, latents_by_fold = prepare_folds(windows, labels, cfg, cfg.students)
    cells = [
        (student, alpha, temperature, windows, labels, teacher_z, splits, cfg,
         latents_by_fold if student == "ae_vqc" else {})
        for student in cfg.students for temperature in cfg.temperatures for alpha in cfg.alphas
    ]
    if cfg.jobs > 1:
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
