"""Temperature-scaled distillation objective for binary students.

Students emit a scalar logit z; the two-class logits are (0, z), which
keeps the temperature-softmax algebra exact while matching a scalar-logit
teacher.  The mixed loss is
``(1 - alpha) * T^2 * soft_ce(T) + alpha * hard_ce``, where the soft term
is the cross-entropy of the student's temperature-softmax against the
teacher's and the hard term is plain logistic loss at T = 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad


class DistillError(Exception):
    pass


class BadTemperatureError(DistillError):
    pass


class BadLabelError(DistillError):
    pass


class RowCountMismatchError(DistillError):
    pass


@dataclass(frozen=True)
class KdConfig:
    """Distillation hyperparameters: mixing weight and temperature."""

    alpha: float
    temperature: float

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise DistillError(f"alpha must be in [0, 1], got {self.alpha}")
        if not self.temperature > 0:
            raise BadTemperatureError(f"temperature must be positive, got {self.temperature}")


def class_logits(z: float) -> np.ndarray:
    """Embed a scalar binary logit as the two-class vector (0, z)."""
    return np.array([0.0, float(z)])


def scalarize_logits(v) -> float:
    """Reduce a two-class logit vector to its softmax-invariant scalar."""
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (2,):
        raise DistillError(f"expected a two-class logit vector, got shape {v.shape}")
    return float(v[1] - v[0])


def softmax_T(logits, temperature: float) -> np.ndarray:
    """Temperature softmax with max-subtraction for stability."""
    if temperature <= 0:
        raise BadTemperatureError(f"temperature must be positive, got {temperature}")
    v = np.asarray(logits, dtype=np.float64) / temperature
    v = v - v.max()
    e = np.exp(v)
    return e / e.sum()


def _teacher_p1(zt, t):
    # The teacher's class-1 probability at temperature t.  Where -zt/t
    # overflows exp the probability is exactly 0.0; the overflow is expected
    # and silenced so extreme stored logits raise no warning.
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-zt / t))


def soft_loss(teacher_logits, student_logits, temperature: float) -> float:
    """Cross-entropy of the student's T-softmax against the teacher's."""
    if temperature <= 0:
        raise BadTemperatureError(f"temperature must be positive, got {temperature}")
    zt = scalarize_logits(teacher_logits)
    zs = scalarize_logits(student_logits)
    p1 = float(softmax_T(class_logits(zt), temperature)[1])
    u = zs / temperature
    # -p0 log q0 - p1 log q1 with log q written via softplus for stability
    return float((1.0 - p1) * ad._softplus(u) + p1 * ad._softplus(-u))


def hard_loss(student_logits, label: int) -> float:
    """Logistic loss of the scalar student logit against the hard label."""
    if label not in (0, 1):
        raise BadLabelError(f"label must be 0 or 1, got {label}")
    z = scalarize_logits(student_logits)
    return float(ad._softplus(-z) if label == 1 else ad._softplus(z))


def kd_loss(teacher_logits, student_logits, label: int, cfg: KdConfig) -> float:
    """Mixed distillation objective with the T^2 factor on the soft term."""
    t = cfg.temperature
    soft = soft_loss(teacher_logits, student_logits, t) if cfg.alpha < 1.0 else 0.0
    hard = hard_loss(student_logits, label)
    return (1.0 - cfg.alpha) * t * t * soft + cfg.alpha * hard


def kd_loss_vector(student_z, teacher_z, labels, cfg: KdConfig) -> float:
    """Batch-mean KD loss on plain arrays (used for circuit training)."""
    z = np.asarray(student_z, dtype=np.float64)
    zt = np.asarray(teacher_z, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    t = cfg.temperature
    p1 = _teacher_p1(zt, t)
    soft = (1.0 - p1) * ad._softplus(z / t) + p1 * ad._softplus(-z / t)
    hard = y * ad._softplus(-z) + (1.0 - y) * ad._softplus(z)
    return float(np.mean((1.0 - cfg.alpha) * t * t * soft + cfg.alpha * hard))


def kd_loss_batch(student_z: ad.Tensor, teacher_z, labels, cfg: KdConfig) -> ad.Tensor:
    """Differentiable batch-mean KD loss on a [B] student-logit tensor."""
    zt = np.asarray(teacher_z, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    if student_z.shape != zt.shape or student_z.shape != y.shape:
        raise DistillError(
            f"shape mismatch: student {student_z.shape}, teacher {zt.shape}, labels {y.shape}"
        )
    t = cfg.temperature
    p1 = _teacher_p1(zt, t)
    z_over_t = ad.mul(student_z, 1.0 / t)
    soft = ad.add(
        ad.mul(ad.softplus(z_over_t), 1.0 - p1),
        ad.mul(ad.softplus(ad.neg(z_over_t)), p1),
    )
    hard = ad.add(
        ad.mul(ad.softplus(ad.neg(student_z)), y),
        ad.mul(ad.softplus(student_z), 1.0 - y),
    )
    mixed = ad.add(ad.mul(soft, (1.0 - cfg.alpha) * t * t), ad.mul(hard, cfg.alpha))
    return ad.mean_all(mixed)


# ---------------------------------------------------------------------------
# Teacher oracle: stored logits aligned to the window-file row order.
# CSV format: header "index,logit", rows sorted by index ascending.
# ---------------------------------------------------------------------------


def save_teacher_logits(path, logits):
    logits = np.asarray(logits, dtype=np.float64)
    lines = ["index,logit"]
    for i, z in enumerate(logits):
        lines.append(f"{i},{float(z)!r}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def load_teacher_logits(path, expected_rows: int) -> np.ndarray:
    """Read stored teacher logits; row count must match the dataset."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            header = fh.readline().rstrip("\n")
            if header != "index,logit":
                raise DistillError(f"bad header in {path}: expected 'index,logit'")
            logits = []
            for line_no, line in enumerate(fh, start=2):
                line = line.rstrip("\n")
                if not line:
                    continue
                fields = line.split(",")
                if len(fields) != 2:
                    raise DistillError(f"{path}:{line_no}: expected 2 fields")
                try:
                    index = int(fields[0])
                    z = float(fields[1])
                except ValueError as exc:
                    raise DistillError(f"{path}:{line_no}: unparsable value ({exc})") from None
                if index != len(logits):
                    raise DistillError(f"{path}:{line_no}: indices must be 0,1,2,... got {index}")
                if not np.isfinite(z):
                    raise DistillError(f"{path}:{line_no}: non-finite logit")
                logits.append(z)
    except UnicodeDecodeError as exc:
        raise DistillError(f"{path}: not UTF-8 text ({exc.reason})") from None
    logits = np.array(logits, dtype=np.float64)
    if len(logits) != expected_rows:
        raise RowCountMismatchError(
            f"{path}: {len(logits)} logits but the dataset has {expected_rows} windows"
        )
    return logits
