"""Acceptance suite: one test per release criterion, each printing a
PASS line with its measured numbers (run with -s to see them inline).

The end-to-end pipeline (synthetic data -> proxy teacher -> stored
logits -> full student grid) runs once as a session fixture and backs
the distillation, report-fidelity, and runtime criteria.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

import ecgkd.autodiff as ad
from ecgkd import cli, quantum
from ecgkd.autodiff import Tensor
from ecgkd.distill import KdConfig, class_logits, hard_loss, kd_loss, kd_loss_batch
from ecgkd.evalkit import binary_metrics, select_best, reports_from_json, stratified_kfold
from ecgkd.models import Cnn1dStudent, ConvAutoencoder, Resnet1dStudent, count_params
from ecgkd.optim import Spsa, spsa_calibrate
from ecgkd.signal import RawSignal, dwt_forward, dwt_inverse, load_window_csv
from ecgkd.distill import load_teacher_logits

from helpers import confusion_metrics_oracle, dense_vqc_state, dense_z_expectations


def report_pass(name, detail=""):
    print(f"\n[PASS] {name}" + (f"  ({detail})" if detail else ""))


# ---------------------------------------------------------------------------
# Criterion: distillation-loss identities
# ---------------------------------------------------------------------------


def test_kd_identities():
    start = time.perf_counter()
    rng = np.random.default_rng(0)
    cfg_hard = KdConfig(alpha=1.0, temperature=3.0)
    for _ in range(1000):
        zt, zs = rng.uniform(-15, 15, 2)
        label = int(rng.integers(0, 2))
        mixed = kd_loss(class_logits(zt), class_logits(zs), label, cfg_hard)
        assert mixed == hard_loss(class_logits(zs), label)
    cfg_soft = KdConfig(alpha=0.0, temperature=1.0)
    for _ in range(200):
        z = float(rng.uniform(-15, 15))
        loss = kd_loss(class_logits(z), class_logits(z), 0, cfg_soft)
        p = 1.0 / (1.0 + np.exp(-z))
        entropy = -(p * np.log(p) + (1 - p) * np.log(1 - p))
        assert abs(loss - entropy) < 1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report_pass("kd-identities", f"1000 hard-equivalence + 200 entropy cases in {elapsed:.2f} s")


# ---------------------------------------------------------------------------
# Criterion: gradient fidelity (h = 1e-4 central differences)
# ---------------------------------------------------------------------------


def _loss_at(loss_fn, param, index, offset):
    flat = param.data.reshape(-1)
    old = flat[index]
    flat[index] = old + offset
    value = float(loss_fn().data)
    flat[index] = old
    return value


def _fd_fidelity(loss_fn, named_params, n_coords, rng, h=1e-4, tol=1e-4):
    """Max relative error between backward() and central differences over
    n_coords coordinates where the h-scale difference quotient is a valid
    derivative estimate (a ReLU kink inside [x-h, x+h] invalidates the
    quotient itself, detected by disagreement with the h/10 quotient)."""
    for _, p in named_params:
        p.zero_grad()
    loss = loss_fn()
    loss.backward()
    worst = 0.0
    checked = 0
    attempts = 0
    while checked < n_coords:
        attempts += 1
        assert attempts < 30 * n_coords, "too many kink-contaminated samples"
        name, p = named_params[int(rng.integers(len(named_params)))]
        index = int(rng.integers(p.data.size))
        center = _loss_at(loss_fn, p, index, 0.0)
        up_h = _loss_at(loss_fn, p, index, h)
        down_h = _loss_at(loss_fn, p, index, -h)
        up_s = _loss_at(loss_fn, p, index, h / 10)
        down_s = _loss_at(loss_fn, p, index, -h / 10)
        fd_h = (up_h - down_h) / (2.0 * h)
        fd_s = (up_s - down_s) / (2.0 * h / 10)
        fwd_s = (up_s - center) / (h / 10)
        bwd_s = (center - down_s) / (h / 10)
        scale = max(abs(fd_h), abs(fd_s), 1e-6)
        # the quotient is a valid derivative estimate only where the loss is
        # smooth at the h scale: consistent across step sizes and with
        # matching one-sided slopes (a kink anywhere in [x-h, x+h] breaks at
        # least one of these)
        if abs(fd_h - fd_s) > 0.5 * tol * scale or abs(fwd_s - bwd_s) > 0.5 * tol * scale:
            continue
        analytic = float(p.grad.reshape(-1)[index])
        if max(abs(analytic), abs(fd_h)) < 1e-7:
            # both are zero to within the difference quotient's cancellation
            # noise (loss-invariant coordinate, e.g. a conv bias ahead of
            # train-mode batchnorm)
            checked += 1
            continue
        rel = abs(analytic - fd_h) / max(abs(analytic), abs(fd_h))
        worst = max(worst, rel)
        checked += 1
    assert worst < tol, f"worst relative error {worst:.3e}"
    return worst, checked


def test_gradient_fidelity_layers_and_students():
    start = time.perf_counter()
    rng = np.random.default_rng(11)
    worst_overall = 0.0

    # individual layer types under a smooth weighted-square loss
    x = Tensor(rng.standard_normal((4, 3, 32)), requires_grad=True)
    conv = ad.Conv1d(3, 5, 5, stride=2, padding=2, rng=rng)
    tconv = ad.ConvTranspose1d(3, 4, 5, stride=4, padding=1, output_padding=1, rng=rng)
    bn = ad.BatchNorm1d(3)
    lin = ad.Linear(96, 7, rng=rng)
    w_conv = rng.standard_normal((4, 5, 16))
    w_tconv = rng.standard_normal((4, 4, 128))
    w_bn = rng.standard_normal((4, 3, 32))
    w_gap = rng.standard_normal((4, 3))
    w_lin = rng.standard_normal((4, 7))

    layer_cases = [
        ("conv1d", lambda: ad.mean_all(ad.mul(ad.mul(conv(x), w_conv), ad.mul(conv(x), w_conv))),
         [("x", x)] + conv.parameters()),
        ("conv_transpose1d", lambda: ad.mean_all(ad.mul(ad.mul(tconv(x), w_tconv), ad.mul(tconv(x), w_tconv))),
         [("x", x)] + tconv.parameters()),
        ("batchnorm_train", lambda: ad.mean_all(ad.mul(ad.mul(bn(x, True), w_bn), ad.mul(bn(x, True), w_bn))),
         [("x", x), ("gamma", bn.gamma), ("beta", bn.beta)]),
        ("batchnorm_eval", lambda: ad.mean_all(ad.mul(ad.mul(bn(x, False), w_bn), ad.mul(bn(x, False), w_bn))),
         [("x", x), ("gamma", bn.gamma), ("beta", bn.beta)]),
        ("sigmoid", lambda: ad.mean_all(ad.mul(ad.sigmoid(x), w_bn)), [("x", x)]),
        ("softplus", lambda: ad.mean_all(ad.mul(ad.softplus(x), w_bn)), [("x", x)]),
        ("relu", lambda: ad.mean_all(ad.mul(ad.relu(x), w_bn)), [("x", x)]),
        ("global_avg_pool", lambda: ad.mean_all(ad.mul(ad.global_avg_pool(x), w_gap)), [("x", x)]),
        ("linear", lambda: ad.mean_all(ad.mul(lin(ad.reshape(x, (4, 96))), w_lin)),
         [("x", x)] + lin.parameters()),
    ]
    for name, fn, params in layer_cases:
        worst, _ = _fd_fidelity(fn, params, n_coords=15, rng=rng)
        worst_overall = max(worst_overall, worst)

    # full students on batches of 4, mixed KD objective
    batch = rng.standard_normal((4, 1, 256))
    labels = rng.integers(0, 2, 4)
    teacher = rng.uniform(-4, 4, 4)
    kd = KdConfig(alpha=0.5, temperature=2.0)

    cnn = Cnn1dStudent(seed=1, dropout=0.0)
    resnet = Resnet1dStudent(seed=2)
    ae = ConvAutoencoder(seed=3)
    student_cases = [
        ("cnn1d", cnn, lambda: kd_loss_batch(cnn.forward(Tensor(batch), train=True), teacher, labels, kd)),
        ("resnet1d", resnet, lambda: kd_loss_batch(resnet.forward(Tensor(batch), train=True), teacher, labels, kd)),
        ("autoencoder", ae, lambda: ad.mean_all(
            ad.mul(ae.forward(Tensor(batch)) - Tensor(batch), ae.forward(Tensor(batch)) - Tensor(batch)))),
    ]
    for name, model, fn in student_cases:
        worst, checked = _fd_fidelity(fn, model.named_parameters(), n_coords=100, rng=rng)
        worst_overall = max(worst_overall, worst)
        assert checked >= 100

    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report_pass("gradient-fidelity", f"worst rel err {worst_overall:.2e} in {elapsed:.0f} s")


# ---------------------------------------------------------------------------
# Criterion: wavelet round trip
# ---------------------------------------------------------------------------


def test_wavelet_roundtrip():
    start = time.perf_counter()
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(100):
        x = rng.standard_normal(256) * rng.uniform(0.5, 5.0)
        for wavelet in ("haar", "db4"):
            for levels in (1, 2, 3, 4):
                coeffs = dwt_forward(RawSignal(x), wavelet, levels)
                back = dwt_inverse(coeffs).samples
                worst = max(worst, float(np.max(np.abs(back - x))))
    elapsed = time.perf_counter() - start
    assert worst < 1e-9
    assert elapsed < 5.0
    report_pass("wavelet-roundtrip", f"100 signals x 2 wavelets x 4 levels, worst {worst:.2e}, {elapsed:.1f} s")


# ---------------------------------------------------------------------------
# Criterion: quantum oracle equivalence
# ---------------------------------------------------------------------------


def test_quantum_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(9)
    worst_amp = 0.0
    worst_norm = 0.0
    for _ in range(100):
        x = rng.uniform(-np.pi, np.pi, 6)
        theta = rng.uniform(-np.pi, np.pi, 36)
        state = quantum.efficient_su2(quantum.zz_feature_map(quantum.zero_state(), x), theta)
        dense = dense_vqc_state(x, theta)
        worst_amp = max(worst_amp, float(np.max(np.abs(state - dense))))
        worst_norm = max(worst_norm, abs(float(np.sum(np.abs(state) ** 2)) - 1.0))
        assert np.allclose(quantum.z_expectations(state), dense_z_expectations(dense), atol=1e-10)
    assert worst_amp < 1e-10
    assert worst_norm < 1e-12
    # theta = 0 preserves the all-zeros state exactly
    idle = quantum.efficient_su2(quantum.zero_state(), np.zeros(36))
    assert np.array_equal(idle, quantum.zero_state())
    assert quantum.THETA_LENGTH == 36
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report_pass(
        "quantum-oracle",
        f"100 pairs, worst amplitude err {worst_amp:.2e}, worst norm dev {worst_norm:.2e}, {elapsed:.1f} s",
    )


# ---------------------------------------------------------------------------
# Criterion: SPSA convergence on the 36-dimensional quadratic
# ---------------------------------------------------------------------------


def test_spsa_quadratic_convergence():
    start = time.perf_counter()
    converged = 0
    finals = []
    for seed in range(20):
        rng = np.random.default_rng(seed)
        theta = rng.standard_normal(36)
        theta /= np.linalg.norm(theta)
        loss = lambda t: float(np.sum(t * t))
        a, c, big_a = spsa_calibrate(loss, theta, iterations=500, seed=1000 + seed)
        spsa = Spsa(a=a, c=c, A=big_a, seed=2000 + seed)
        theta = spsa.minimize(theta, loss, 500)
        finals.append(float(np.linalg.norm(theta)))
        if finals[-1] < 0.1:
            converged += 1
    elapsed = time.perf_counter() - start
    assert converged >= 19
    assert elapsed < 10.0
    report_pass("spsa-convergence", f"{converged}/20 seeds, median final norm {np.median(finals):.3f}, {elapsed:.1f} s")


# ---------------------------------------------------------------------------
# Criterion: metrics oracle and fold stratification bound
# ---------------------------------------------------------------------------


def test_metrics_oracle_and_fold_bound():
    rng = np.random.default_rng(3)
    for _ in range(1000):
        n = int(rng.integers(1, 40))
        preds = rng.integers(0, 2, n)
        labels = rng.integers(0, 2, n)
        mine = binary_metrics(preds, labels)
        oracle = confusion_metrics_oracle(preds.tolist(), labels.tolist())
        assert mine == oracle
    checked = 0
    trial = 0
    while checked < 100:
        trial += 1
        n = int(rng.integers(10, 120))
        labels = rng.integers(0, 2, n)
        k = 5
        if labels.sum() < k or (1 - labels).sum() < k:
            continue
        for split in stratified_kfold(labels, k, seed=trial):
            for cls in (0, 1):
                total = int(np.sum(labels == cls))
                in_fold = int(np.sum(labels[split.val_indices] == cls))
                assert abs(in_fold - total / k) <= 1
        checked += 1
    report_pass("metrics-oracle", "1000 exact metric cases, 100 label vectors within the fold bound")


# ---------------------------------------------------------------------------
# Criteria backed by the end-to-end pipeline (runs once per session)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="session")
def pipeline(tmp_path_factory):
    base = tmp_path_factory.mktemp("e2e")
    windows = str(base / "windows.csv")
    ckpt = str(base / "teacher.ckpt")
    logits = str(base / "logits.csv")
    outdir = str(base / "grid")
    start = time.perf_counter()
    assert cli.main(["synth", "--out", windows, "--n", "2000", "--noise-sigma", "0.2", "--seed", "7"]) == 0
    assert cli.main(["teacher", "--windows", windows, "--out", ckpt,
                     "--epochs", "20", "--batch-size", "128", "--lr", "0.001", "--seed", "7"]) == 0
    assert cli.main(["logits", "--ckpt", ckpt, "--windows", windows, "--out", logits]) == 0
    config = {
        "dataset": windows,
        "teacher_logits": logits,
        "students": ["cnn1d", "resnet1d", "ae_vqc"],
        "epochs": 2,
        "epochs_overrides": {"resnet1d": 1},
        "batch_size": 32,
        "learning_rate": 0.002,
        "ae_epochs": 20,
        "spsa_steps": 350,
        "spsa_batch": 96,
        "spsa_restarts": 1,
        "folds": 5,
        "seed": 7,
        "output_dir": outdir,
    }
    cfg_path = base / "grid.json"
    cfg_path.write_text(json.dumps(config))
    assert cli.main(["grid", "--config", str(cfg_path)]) == 0
    elapsed = time.perf_counter() - start
    return {
        "windows": windows,
        "logits": logits,
        "outdir": outdir,
        "config": config,
        "elapsed": elapsed,
    }


def test_end_to_end_distillation(pipeline):
    samples, labels = load_window_csv(pipeline["windows"])
    teacher_z = load_teacher_logits(pipeline["logits"], len(labels))
    teacher_train_acc = float(np.mean((teacher_z >= 0).astype(int) == labels))
    assert teacher_train_acc >= 0.95

    splits = stratified_kfold(labels, 5, seed=7)
    teacher_fold_accs = [
        binary_metrics((teacher_z[s.val_indices] >= 0).astype(int), labels[s.val_indices])["accuracy"]
        for s in splits
    ]
    teacher_fold_mean = float(np.mean(teacher_fold_accs))

    doc = json.loads(Path(pipeline["outdir"] + "/report.json").read_text())
    reports = reports_from_json(doc)
    gaps = {}
    for student in ("cnn1d", "resnet1d", "ae_vqc"):
        best = select_best(reports, student=student)
        gaps[student] = teacher_fold_mean - best.mean["accuracy"]

    detail = (
        f"teacher train {teacher_train_acc:.4f}, fold mean {teacher_fold_mean:.4f}; gaps "
        + ", ".join(f"{s}={g:+.4f}" for s, g in gaps.items())
    )
    print(f"\n  end-to-end: {detail}; wall {pipeline['elapsed']:.0f} s")

    assert quantum.THETA_LENGTH == 36
    assert pipeline["elapsed"] < 600.0, f"pipeline took {pipeline['elapsed']:.0f} s"
    for student in ("cnn1d", "resnet1d", "ae_vqc"):
        assert gaps[student] <= 0.05, f"{student} trails the teacher by {gaps[student]:.4f} (> 0.05)"
    report_pass("end-to-end-distillation", detail)


def test_vqc_measurement_accounting(pipeline):
    samples, labels = load_window_csv(pipeline["windows"])
    teacher_z = load_teacher_logits(pipeline["logits"], len(labels))
    from ecgkd.training import RunConfig, run_grid

    cfg = RunConfig(
        dataset=pipeline["windows"], seed=7, students=("ae_vqc",), alphas=(0.5,),
        temperatures=(2.0,), folds=5, ae_epochs=2, spsa_steps=25, spsa_batch=32,
        spsa_restarts=1, batch_size=32,
    )
    reports, diagnostics = run_grid(samples, labels, teacher_z, cfg, "accounting")
    for diag in diagnostics[("ae_vqc", 0.5, 2.0)]:
        assert diag["loss_evaluations"] == 2 * cfg.spsa_steps
        assert len(diag["theta"]) == 36
    report_pass("vqc-measurement-accounting", "2 loss evaluations per SPSA step, 36 trainable angles")


def test_report_fidelity(pipeline):
    doc = json.loads(Path(pipeline["outdir"] + "/report.json").read_text())
    assert len(doc["entries"]) == 18
    for entry in doc["entries"]:
        assert set(entry["mean"]) == {"accuracy", "precision", "recall", "f1"}
        assert len(entry["folds"]) == 5
        for fold in entry["folds"]:
            assert set(fold) == {"accuracy", "precision", "recall", "f1"}
    text = Path(pipeline["outdir"] + "/report.txt").read_text()
    import re

    rows = [l for l in text.splitlines() if l.startswith("T=")]
    assert len(rows) == 6  # 2 temperatures x 3 students
    for row in rows:
        assert re.match(r"T=\d+, \w+(, [01]\.\d{4}){4}", row)
    csv_lines = Path(pipeline["outdir"] + "/precision_vs_alpha.csv").read_text().splitlines()
    assert csv_lines[0] == "student,dataset,temperature,alpha,precision"
    assert len(csv_lines) == 19
    seen = set()
    for line in csv_lines[1:]:
        student, dataset, temp, alpha, precision = line.split(",")
        seen.add((student, temp, alpha))
        assert re.fullmatch(r"[01]\.\d{4}", precision)
    assert len(seen) == 18
    report_pass("report-fidelity", "18 grid entries, 4-decimal table, 18 plot rows")


def test_parameter_budgets():
    cnn = count_params(Cnn1dStudent(seed=0))
    resnet = count_params(Resnet1dStudent(seed=0))
    ae = count_params(ConvAutoencoder(seed=0))
    assert cnn == 36_001
    assert resnet == 3_853_633
    assert ae == 29_255
    assert 33_000 * 0.8 <= cnn <= 33_000 * 1.2
    assert 3_800_000 * 0.8 <= resnet <= 3_800_000 * 1.2
    assert 25_000 * 0.8 <= ae <= 25_000 * 1.2
    assert quantum.THETA_LENGTH == 36
    report_pass("parameter-budgets", f"cnn {cnn}, resnet {resnet}, ae {ae}, circuit 36")


def test_seeded_commands_rerun_byte_identically(tmp_path):
    # exercised at desk scale across every seeded command
    w1, w2 = str(tmp_path / "w1.csv"), str(tmp_path / "w2.csv")
    for out in (w1, w2):
        assert cli.main(["synth", "--out", out, "--n", "80", "--noise-sigma", "0.15", "--seed", "3"]) == 0
    assert Path(w1).read_bytes() == Path(w2).read_bytes()

    c1, c2 = str(tmp_path / "t1.ckpt"), str(tmp_path / "t2.ckpt")
    for out in (c1, c2):
        assert cli.main(["teacher", "--windows", w1, "--out", out,
                         "--epochs", "2", "--batch-size", "16", "--lr", "0.002", "--seed", "5"]) == 0
    assert Path(c1).read_bytes() == Path(c2).read_bytes()

    l1, l2 = str(tmp_path / "l1.csv"), str(tmp_path / "l2.csv")
    for out in (l1, l2):
        assert cli.main(["logits", "--ckpt", c1, "--windows", w1, "--out", out]) == 0
    assert Path(l1).read_bytes() == Path(l2).read_bytes()

    outputs = []
    for tag in ("a", "b"):
        outdir = tmp_path / f"run_{tag}"
        cfg = {
            "dataset": w1, "teacher_logits": l1, "student": "cnn1d", "alpha": 0.5,
            "temperature": 2.0, "epochs": 1, "batch_size": 16, "folds": 2, "seed": 9,
            "output_dir": str(outdir),
        }
        cfg_path = tmp_path / f"cfg_{tag}.json"
        cfg_path.write_text(json.dumps(cfg))
        assert cli.main(["distill", "--config", str(cfg_path)]) == 0
        outputs.append((outdir / "report.json").read_bytes())
    assert outputs[0] == outputs[1]
    report_pass("determinism", "synth, teacher, logits, and distill rerun byte-identically")
