"""Stratified cross-validation, binary metrics, and the (alpha, T) grid.

Reports mirror one table block per temperature with one row per student
and accuracy / precision / recall / F1 columns, rendered to 4 decimals.
Fold means are arithmetic means of per-fold metrics (the reported F1 is
the mean of per-fold F1 values, not the harmonic mean of mean precision
and mean recall).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

METRIC_KEYS = ("accuracy", "precision", "recall", "f1")
DEFAULT_ALPHAS = (0.3, 0.5, 0.7)
DEFAULT_TEMPERATURES = (2.0, 4.0)


class EvalError(Exception):
    pass


@dataclass(frozen=True)
class FoldSplit:
    fold_index: int
    train_indices: np.ndarray
    val_indices: np.ndarray


def stratified_kfold(labels, k: int = 5, seed: int = 0):
    """Deterministic stratified k-fold splits.

    Indices are shuffled per class with the seed and dealt round-robin, so
    per-fold class counts deviate from n_class / k by at most one.
    """
    labels = np.asarray(labels)
    if k < 2:
        raise EvalError(f"k must be >= 2, got {k}")
    rng = np.random.default_rng(seed)
    fold_of = np.empty(len(labels), dtype=np.int64)
    for cls in (0, 1):
        idx = np.flatnonzero(labels == cls)
        if len(idx) < k:
            raise EvalError(f"class {cls} has {len(idx)} members, fewer than k={k}")
        rng.shuffle(idx)
        fold_of[idx] = np.arange(len(idx)) % k
    all_idx = np.arange(len(labels))
    splits = []
    for f in range(k):
        val = all_idx[fold_of == f]
        train = all_idx[fold_of != f]
        splits.append(FoldSplit(fold_index=f, train_indices=train, val_indices=val))
    return splits


def binary_metrics(predictions, labels):
    """Accuracy, precision, recall, and F1 from confusion counts.

    Degenerate conventions: precision is 0 when nothing was predicted
    positive, recall is 0 when there are no positives, F1 is 0 when
    precision + recall is 0.
    """
    predictions = np.asarray(predictions)
    labels = np.asarray(labels)
    if predictions.shape != labels.shape:
        raise EvalError(f"binary_metrics: predictions {predictions.shape} vs labels {labels.shape}")
    if predictions.size == 0:
        raise EvalError("binary_metrics needs at least one sample")
    tp = int(np.sum((predictions == 1) & (labels == 1)))
    fp = int(np.sum((predictions == 1) & (labels == 0)))
    fn = int(np.sum((predictions == 0) & (labels == 1)))
    tn = int(np.sum((predictions == 0) & (labels == 0)))
    accuracy = (tp + tn) / predictions.size
    precision = tp / (tp + fp) if tp + fp > 0 else 0.0
    recall = tp / (tp + fn) if tp + fn > 0 else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    return {"accuracy": accuracy, "precision": precision, "recall": recall, "f1": f1}


def mean_metrics(fold_metrics):
    return {key: float(np.mean([m[key] for m in fold_metrics])) for key in METRIC_KEYS}


@dataclass
class MetricsReport:
    """Per-fold and fold-mean metrics for one (student, alpha, T) cell."""

    student: str
    alpha: float
    temperature: float
    folds: list = field(default_factory=list)
    mean: dict = field(default_factory=dict)

    def finalize(self):
        self.mean = mean_metrics(self.folds)
        return self

    def to_entry(self):
        return {
            "student": self.student,
            "alpha": self.alpha,
            "temperature": self.temperature,
            "folds": [{k: m[k] for k in METRIC_KEYS} for m in self.folds],
            "mean": {k: self.mean[k] for k in METRIC_KEYS},
        }


def report_json(reports, dataset: str, seed: int):
    entries = [r.to_entry() for r in sorted(reports, key=_report_key)]
    return {"dataset": dataset, "seed": seed, "entries": entries}


def reports_from_json(doc):
    reports = []
    for entry in doc["entries"]:
        r = MetricsReport(
            student=entry["student"],
            alpha=float(entry["alpha"]),
            temperature=float(entry["temperature"]),
            folds=[dict(f) for f in entry["folds"]],
        )
        r.mean = dict(entry["mean"])
        reports.append(r)
    return reports


def load_report_json(path):
    """Reports from a ``report.json``.  Text that is not JSON, an empty
    ``entries`` list, or an entry without the keys and types that
    ``render_table`` reads, raises EvalError naming ``path``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            # Integers parse as floats, so an oversized one reads as inf
            # instead of overflowing float() later.
            doc = json.load(fh, parse_int=float)
    except (ValueError, RecursionError) as exc:
        raise EvalError(f"unreadable report {path}: {exc!r}") from None
    entries = doc.get("entries") if isinstance(doc, dict) else None
    if not isinstance(entries, list):
        raise EvalError(f"report {path} has no 'entries' list")
    if not entries:
        raise EvalError(f"report {path} has no entries")
    for i, e in enumerate(entries):
        if not (
            isinstance(e, dict)
            and type(e.get("student")) is str
            and type(e.get("alpha")) is float
            and type(e.get("temperature")) is float
            and isinstance(e.get("folds"), list)
            and all(isinstance(f, dict) for f in e["folds"])
            and isinstance(e.get("mean"), dict)
            and all(type(e["mean"].get(k)) is float for k in METRIC_KEYS)
        ):
            raise EvalError(
                f"report {path}: entry {i} needs a student name, numeric alpha and temperature, "
                f"a folds list and a numeric mean of each of {', '.join(METRIC_KEYS)}"
            )
    return reports_from_json(doc)


def _report_key(r):
    return (r.temperature, r.student, r.alpha)


def select_best(reports, student=None, temperature=None):
    """Best report by mean F1; ties break toward higher precision, then
    lower temperature, then lower alpha."""
    pool = [
        r
        for r in reports
        if (student is None or r.student == student)
        and (temperature is None or r.temperature == temperature)
    ]
    if not pool:
        raise EvalError("no reports to select from")
    return max(pool, key=lambda r: (r.mean["f1"], r.mean["precision"], -r.temperature, -r.alpha))


def check_complete(reports, students, alphas=DEFAULT_ALPHAS, temperatures=DEFAULT_TEMPERATURES):
    have = {(r.student, r.alpha, r.temperature) for r in reports}
    for s in students:
        for t in temperatures:
            for a in alphas:
                if (s, a, t) not in have:
                    raise EvalError(f"missing grid cell ({s}, alpha={a}, T={t})")


def render_table(reports, students=None, alphas=DEFAULT_ALPHAS, temperatures=DEFAULT_TEMPERATURES):
    """Text table: one block per temperature, one row per student showing
    its best-alpha configuration at that temperature."""
    if students is None:
        students = sorted({r.student for r in reports})
    check_complete(reports, students, alphas, temperatures)
    lines = []
    for t in temperatures:
        lines.append(f"Temp={t:g}  (columns: Model, Accuracy, Precision, Recall, F1; best alpha per student)")
        for s in students:
            best = select_best(reports, student=s, temperature=t)
            m = best.mean
            lines.append(
                f"T={t:g}, {s}, {m['accuracy']:.4f}, {m['precision']:.4f}, "
                f"{m['recall']:.4f}, {m['f1']:.4f}  [alpha={best.alpha:g}]"
            )
        lines.append("")
    return "\n".join(lines).rstrip() + "\n"


def precision_vs_alpha_rows(reports, dataset: str):
    """Plot-ready rows (student, dataset, T, alpha, precision), one per cell."""
    rows = []
    for r in sorted(reports, key=lambda r: (r.student, r.temperature, r.alpha)):
        rows.append((r.student, dataset, r.temperature, r.alpha, r.mean["precision"]))
    return rows


def write_precision_csv(path, rows):
    lines = ["student,dataset,temperature,alpha,precision"]
    for student, dataset, t, a, p in rows:
        lines.append(f"{student},{dataset},{t:g},{a:g},{p:.4f}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def save_report_json(path, doc):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
