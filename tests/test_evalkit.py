import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecgkd.evalkit import (
    EvalError,
    MetricsReport,
    binary_metrics,
    check_complete,
    mean_metrics,
    precision_vs_alpha_rows,
    render_table,
    report_json,
    reports_from_json,
    select_best,
    stratified_kfold,
    write_precision_csv,
)

from helpers import confusion_metrics_oracle


def test_exact_divisibility_folds():
    labels = np.array([1, 1, 1, 1, 1, 0, 0, 0, 0, 0])
    splits = stratified_kfold(labels, k=5, seed=0)
    for s in splits:
        val_labels = labels[s.val_indices]
        assert len(s.val_indices) == 2
        assert val_labels.sum() == 1


def test_round_robin_remainders():
    labels = np.array([1] * 6 + [0] * 5)
    splits = stratified_kfold(labels, k=5, seed=3)
    pos_counts = sorted(int(labels[s.val_indices].sum()) for s in splits)
    assert pos_counts == [1, 1, 1, 1, 2]


def test_fold_determinism():
    labels = np.random.default_rng(0).integers(0, 2, 60)
    a = stratified_kfold(labels, 5, seed=42)
    b = stratified_kfold(labels, 5, seed=42)
    for s, t in zip(a, b):
        assert np.array_equal(s.val_indices, t.val_indices)
        assert np.array_equal(s.train_indices, t.train_indices)


def test_fold_partition_properties():
    rng = np.random.default_rng(1)
    for trial in range(100):
        n = int(rng.integers(12, 80))
        labels = rng.integers(0, 2, n)
        if labels.sum() < 5 or (1 - labels).sum() < 5:
            continue
        splits = stratified_kfold(labels, 5, seed=trial)
        seen = np.concatenate([s.val_indices for s in splits])
        assert sorted(seen.tolist()) == list(range(n))
        for s in splits:
            assert len(np.intersect1d(s.train_indices, s.val_indices)) == 0
            for cls in (0, 1):
                total = int(np.sum(labels == cls))
                in_fold = int(np.sum(labels[s.val_indices] == cls))
                assert abs(in_fold - total / 5) <= 1


def test_class_too_small():
    labels = np.array([1, 0, 0, 0, 0, 0, 0, 0])
    with pytest.raises(EvalError, match="class 1 has 1 members, fewer than k=5"):
        stratified_kfold(labels, 5, seed=0)


def test_binary_metrics_all_correct():
    m = binary_metrics([1, 0, 1, 0], [1, 0, 1, 0])
    assert m == {"accuracy": 1.0, "precision": 1.0, "recall": 1.0, "f1": 1.0}


def test_binary_metrics_hand_example():
    m = binary_metrics([1, 1, 0, 0, 1], [1, 1, 1, 0, 0])
    assert m["accuracy"] == pytest.approx(0.6)
    assert m["precision"] == pytest.approx(2 / 3)
    assert m["recall"] == pytest.approx(2 / 3)
    assert m["f1"] == pytest.approx(2 / 3)


def test_binary_metrics_degenerate_conventions():
    m = binary_metrics([0, 0, 0], [1, 0, 1])
    assert m["precision"] == 0.0
    assert m["recall"] == 0.0
    assert m["f1"] == 0.0


def test_binary_metrics_errors():
    with pytest.raises(EvalError, match=r"binary_metrics: predictions \(2,\) vs labels \(1,\)"):
        binary_metrics([1, 0], [1])
    with pytest.raises(EvalError, match="at least one sample"):
        binary_metrics([], [])


def test_binary_metrics_against_oracle_1000():
    rng = np.random.default_rng(7)
    for _ in range(1000):
        n = int(rng.integers(1, 30))
        preds = rng.integers(0, 2, n)
        labels = rng.integers(0, 2, n)
        mine = binary_metrics(preds, labels)
        oracle = confusion_metrics_oracle(preds.tolist(), labels.tolist())
        for key in mine:
            assert mine[key] == pytest.approx(oracle[key], abs=0)


@given(st.integers(5, 60), st.integers(0, 10_000))
@settings(max_examples=100, deadline=None)
def test_fold_bound_property(n, seed):
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 2, n)
    if labels.sum() < 2 or (1 - labels).sum() < 2:
        return
    k = 2
    splits = stratified_kfold(labels, k, seed=seed)
    for s in splits:
        for cls in (0, 1):
            total = int(np.sum(labels == cls))
            in_fold = int(np.sum(labels[s.val_indices] == cls))
            assert abs(in_fold - total / k) <= 1


def _fake_reports(students=("cnn1d", "resnet1d"), alphas=(0.3, 0.5, 0.7), temps=(2.0, 4.0), seed=0):
    rng = np.random.default_rng(seed)
    reports = []
    for s in students:
        for t in temps:
            for a in alphas:
                folds = []
                for _ in range(5):
                    p, r = rng.uniform(0.5, 1.0, 2)
                    folds.append(
                        {
                            "accuracy": float(rng.uniform(0.5, 1.0)),
                            "precision": float(p),
                            "recall": float(r),
                            "f1": float(2 * p * r / (p + r)),
                        }
                    )
                reports.append(
                    MetricsReport(student=s, alpha=a, temperature=t, folds=folds).finalize()
                )
    return reports


def test_mean_of_folds_is_arithmetic():
    reports = _fake_reports()
    r = reports[0]
    for key in ("accuracy", "precision", "recall", "f1"):
        assert r.mean[key] == pytest.approx(np.mean([f[key] for f in r.folds]))


def test_mean_f1_is_mean_of_fold_f1s_not_harmonic():
    folds = [
        {"accuracy": 1.0, "precision": 1.0, "recall": 0.5, "f1": 2 / 3},
        {"accuracy": 1.0, "precision": 0.5, "recall": 1.0, "f1": 2 / 3},
    ]
    mean = mean_metrics(folds)
    assert mean["f1"] == pytest.approx(2 / 3)
    harmonic = 2 * mean["precision"] * mean["recall"] / (mean["precision"] + mean["recall"])
    assert mean["f1"] != pytest.approx(harmonic)


def test_simple_mean_f1_example():
    folds = [{"accuracy": 1, "precision": 1, "recall": 1, "f1": v} for v in (0.5, 0.7, 0.6, 0.6, 0.6)]
    assert mean_metrics(folds)["f1"] == pytest.approx(0.6)


def test_grid_cardinality_and_render():
    reports = _fake_reports(students=("cnn1d", "resnet1d", "ae_vqc"))
    assert len(reports) == 18
    text = render_table(reports, students=["cnn1d", "resnet1d", "ae_vqc"])
    # one data row per (temperature, student), rendered to 4 decimals
    rows = [l for l in text.splitlines() if l.startswith("T=")]
    assert len(rows) == 6
    import re

    assert re.match(r"T=\d+, \w+(, [01]\.\d{4}){4}", rows[0])


def test_select_best_tie_breaks():
    base = {"accuracy": 0.9, "precision": 0.8, "recall": 0.8, "f1": 0.8}
    r1 = MetricsReport("cnn1d", 0.5, 4.0, folds=[dict(base)] * 5).finalize()
    r2 = MetricsReport("cnn1d", 0.3, 2.0, folds=[dict(base)] * 5).finalize()
    best = select_best([r1, r2])
    assert best.temperature == 2.0 and best.alpha == 0.3
    higher = dict(base)
    higher["precision"] = 0.85
    r3 = MetricsReport("cnn1d", 0.7, 4.0, folds=[higher] * 5).finalize()
    assert select_best([r1, r2, r3]).alpha == 0.7


def test_incomplete_grid_raises():
    reports = _fake_reports()[:-1]
    with pytest.raises(EvalError, match="missing grid cell"):
        check_complete(reports, ["cnn1d", "resnet1d"])
    with pytest.raises(EvalError, match="missing grid cell"):
        render_table(reports, students=["cnn1d", "resnet1d"])


def test_report_json_roundtrip():
    reports = _fake_reports()
    doc = report_json(reports, "synth", 42)
    assert doc["seed"] == 42
    assert len(doc["entries"]) == 12
    back = reports_from_json(doc)
    again = report_json(back, "synth", 42)
    assert again == doc


def test_precision_csv(tmp_path):
    reports = _fake_reports(students=("cnn1d", "resnet1d", "ae_vqc"))
    rows = precision_vs_alpha_rows(reports, "synth")
    assert len(rows) == 18
    path = tmp_path / "p.csv"
    write_precision_csv(path, rows)
    lines = path.read_text().splitlines()
    assert lines[0] == "student,dataset,temperature,alpha,precision"
    assert len(lines) == 19
