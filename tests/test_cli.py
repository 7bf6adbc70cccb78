import hashlib
import importlib
import inspect
import json
import pkgutil
from pathlib import Path

import numpy as np
import pytest

import ecgkd
from ecgkd import cli, quantum
from ecgkd.distill import load_teacher_logits
from ecgkd.evalkit import METRIC_KEYS, binary_metrics, stratified_kfold
from ecgkd.models import load_model
from ecgkd.signal import load_window_csv
from ecgkd.synthetic import BadSpecError
from ecgkd.training import ConfigError, encode_latents


def run_cli(*argv):
    return cli.main(list(argv))


@pytest.fixture(scope="module")
def small_windows(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "windows.csv"
    code = run_cli("synth", "--out", str(path), "--n", "80", "--noise-sigma", "0.15", "--seed", "21")
    assert code == 0
    return str(path)


@pytest.fixture(scope="module")
def teacher_setup(small_windows, tmp_path_factory):
    base = tmp_path_factory.mktemp("teacher")
    ckpt = base / "teacher.ckpt"
    logits = base / "logits.csv"
    assert run_cli("teacher", "--windows", small_windows, "--out", str(ckpt),
                   "--epochs", "6", "--batch-size", "16", "--lr", "0.002", "--seed", "7") == 0
    assert run_cli("logits", "--ckpt", str(ckpt), "--windows", small_windows,
                   "--out", str(logits)) == 0
    return str(ckpt), str(logits)


def test_synth_deterministic_bytes(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert run_cli("synth", "--out", str(a), "--n", "60", "--seed", "5") == 0
    assert run_cli("synth", "--out", str(b), "--n", "60", "--seed", "5") == 0
    assert a.read_bytes() == b.read_bytes()
    c = tmp_path / "c.csv"
    assert run_cli("synth", "--out", str(c), "--n", "60", "--seed", "6") == 0
    assert c.read_bytes() != a.read_bytes()


def test_synth_balance(tmp_path):
    path = tmp_path / "w.csv"
    assert run_cli("synth", "--out", str(path), "--n", "100", "--balance", "0.5", "--seed", "1") == 0
    _, labels = load_window_csv(path)
    assert int(labels.sum()) == 50


def test_synth_validation_exit_code(tmp_path):
    assert run_cli("synth", "--out", str(tmp_path / "w.csv"), "--n", "10", "--seed", "1") == 1
    assert run_cli("synth", "--out", str(tmp_path / "w.csv"), "--n", "60") == 1  # seed required
    for sigma in ("nan", "inf"):
        assert run_cli("synth", "--out", str(tmp_path / "w.csv"), "--noise-sigma", sigma, "--seed", "1") == 1
    assert not (tmp_path / "w.csv").exists()


@pytest.mark.parametrize("command", ["synth", "teacher"])
def test_negative_seed_exit_1(command, small_windows, tmp_path, capsys):
    out = str(tmp_path / "out")
    argv = {"synth": ["--out", out, "--n", "60"], "teacher": ["--windows", small_windows, "--out", out]}
    assert run_cli(command, *argv[command], "--seed", "-3") == 1
    assert "seed" in capsys.readouterr().err


@pytest.mark.parametrize("lr", ["nan", "inf"])
def test_teacher_non_finite_lr_exit_1(lr, small_windows, tmp_path, capsys):
    out = tmp_path / "t.ckpt"
    assert run_cli("teacher", "--windows", small_windows, "--out", str(out), "--lr", lr, "--seed", "1") == 1
    assert "lr" in capsys.readouterr().err
    assert not out.exists()


def test_denoise_preserves_rows_and_labels(small_windows, tmp_path):
    out = tmp_path / "den.csv"
    assert run_cli("denoise", "--input", small_windows, "--out", str(out)) == 0
    orig_s, orig_l = load_window_csv(small_windows)
    got_s, got_l = load_window_csv(out)
    assert got_s.shape == orig_s.shape
    assert np.array_equal(got_l, orig_l)


def test_denoise_clean_input_nearly_unchanged(tmp_path):
    src = tmp_path / "clean.csv"
    assert run_cli("synth", "--out", str(src), "--n", "60", "--noise-sigma", "0", "--seed", "3") == 0
    out = tmp_path / "den.csv"
    assert run_cli("denoise", "--input", str(src), "--out", str(out)) == 0
    a, _ = load_window_csv(src)
    b, _ = load_window_csv(out)
    assert np.max(np.abs(a - b)) < 1e-6


def test_denoise_reduces_noise(tmp_path):
    clean_path = tmp_path / "clean.csv"
    noisy_path = tmp_path / "noisy.csv"
    assert run_cli("synth", "--out", str(clean_path), "--n", "60", "--noise-sigma", "0", "--seed", "8") == 0
    assert run_cli("synth", "--out", str(noisy_path), "--n", "60", "--noise-sigma", "0.2", "--seed", "8") == 0
    out = tmp_path / "den.csv"
    assert run_cli("denoise", "--input", str(noisy_path), "--out", str(out)) == 0
    clean, _ = load_window_csv(clean_path)
    noisy, _ = load_window_csv(noisy_path)
    den, _ = load_window_csv(out)
    assert np.mean((den - clean) ** 2) < np.mean((noisy - clean) ** 2)


def test_denoise_malformed_row_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    header = "label," + ",".join(f"s{i}" for i in range(256))
    bad.write_text(header + "\n1," + ",".join(["0.1"] * 255) + ",oops\n")
    assert run_cli("denoise", "--input", str(bad), "--out", str(tmp_path / "o.csv")) == 2
    assert ":2:" in capsys.readouterr().err


def test_teacher_and_logits(teacher_setup, small_windows, capsys):
    ckpt, logits_path = teacher_setup
    samples, labels = load_window_csv(small_windows)
    logits = load_teacher_logits(logits_path, expected_rows=len(labels))
    acc = np.mean((logits >= 0).astype(int) == labels)
    assert acc >= 0.9
    # re-export is byte-identical
    again = logits_path + ".again"
    assert run_cli("logits", "--ckpt", ckpt, "--windows", small_windows, "--out", again) == 0
    with open(logits_path, "rb") as a, open(again, "rb") as b:
        assert a.read() == b.read()


def test_logits_missing_checkpoint(small_windows, tmp_path):
    code = run_cli("logits", "--ckpt", str(tmp_path / "nope.ckpt"), "--windows", small_windows,
                   "--out", str(tmp_path / "l.csv"))
    assert code == 2


def test_distill_cnn_and_report(teacher_setup, small_windows, tmp_path):
    _, logits_path = teacher_setup
    outdir = tmp_path / "run"
    config = {
        "dataset": small_windows,
        "teacher_logits": logits_path,
        "student": "cnn1d",
        "alpha": 0.5,
        "temperature": 2.0,
        "epochs": 1,
        "batch_size": 16,
        "folds": 2,
        "seed": 11,
        "output_dir": str(outdir),
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    assert run_cli("distill", "--config", str(cfg_path)) == 0
    report = json.loads((outdir / "report.json").read_text())
    assert report["seed"] == 11
    assert len(report["entries"]) == 1
    entry = report["entries"][0]
    assert entry["student"] == "cnn1d"
    assert len(entry["folds"]) == 2
    assert (outdir / "fold0.ckpt").exists()
    assert (outdir / "fold1.ckpt").exists()


def test_distill_ae_vqc_checkpoints(teacher_setup, small_windows, tmp_path):
    _, logits_path = teacher_setup
    outdir = tmp_path / "runq"
    config = {
        "dataset": small_windows,
        "teacher_logits": logits_path,
        "student": "ae_vqc",
        "alpha": 0.5,
        "temperature": 2.0,
        "ae_epochs": 1,
        "spsa_steps": 4,
        "spsa_batch": 16,
        "batch_size": 16,
        "folds": 2,
        "seed": 12,
        "output_dir": str(outdir),
    }
    cfg_path = tmp_path / "cfgq.json"
    cfg_path.write_text(json.dumps(config))
    assert run_cli("distill", "--config", str(cfg_path)) == 0
    theta_doc = json.loads((outdir / "fold0.theta.json").read_text())
    assert len(theta_doc["theta"]) == 36
    assert theta_doc["kappa"] == 32.0
    assert theta_doc["loss_evaluations"] == 8
    assert (outdir / "fold0.ae.ckpt").exists()


def test_distill_ae_vqc_files_reproduce_fold_metrics(teacher_setup, small_windows, tmp_path):
    # The saved autoencoder, latent scaler and angles alone rebuild fold 0's
    # validation logits, and with them its report entry.
    _, logits_path = teacher_setup
    outdir = tmp_path / "runq"
    config = {
        "dataset": small_windows, "teacher_logits": logits_path, "student": "ae_vqc",
        "ae_epochs": 2, "spsa_steps": 10, "spsa_batch": 16, "batch_size": 16, "folds": 2,
        "seed": 15, "output_dir": str(outdir),
    }
    (tmp_path / "cfg.json").write_text(json.dumps(config))
    assert run_cli("distill", "--config", str(tmp_path / "cfg.json")) == 0
    samples, labels = load_window_csv(small_windows)
    val = stratified_kfold(labels, 2, seed=15)[0].val_indices
    ae = load_model(outdir / "fold0.ae.ckpt")
    theta, doc = quantum.load_theta(outdir / "fold0.theta.json")
    latents = (encode_latents(ae, samples[val]) - np.array(doc["latent_mean"])) * np.array(doc["latent_scale"])
    logits = quantum.vqc_forward_batch(latents, theta)
    metrics = binary_metrics((logits >= 0).astype(np.int64), labels[val])
    entry = json.loads((outdir / "report.json").read_text())["entries"][0]
    assert entry["folds"][0] == {k: metrics[k] for k in METRIC_KEYS}


@pytest.mark.parametrize("student", ["cnn1d", "resnet1d", "ae_vqc"])
def test_distill_entry_equals_one_cell_grid(student, teacher_setup, small_windows, tmp_path):
    _, logits_path = teacher_setup
    common = {
        "dataset": small_windows, "teacher_logits": logits_path, "epochs": 1, "batch_size": 16,
        "ae_epochs": 1, "spsa_steps": 4, "spsa_batch": 16, "folds": 2, "seed": 14,
    }
    distill_cfg = dict(common, student=student, alpha=0.3, temperature=4.0, output_dir=str(tmp_path / "d"))
    grid_cfg = dict(common, students=[student], alphas=[0.3], temperatures=[4.0], output_dir=str(tmp_path / "g"))
    for name, cfg in (("d", distill_cfg), ("g", grid_cfg)):
        (tmp_path / f"{name}.json").write_text(json.dumps(cfg))
    assert run_cli("distill", "--config", str(tmp_path / "d.json")) == 0
    assert run_cli("grid", "--config", str(tmp_path / "g.json")) == 0
    distilled = json.loads((tmp_path / "d" / "report.json").read_text())["entries"]
    gridded = json.loads((tmp_path / "g" / "report.json").read_text())["entries"]
    assert len(distilled) == 1
    assert distilled == gridded


def test_logits_truncated_checkpoint_exit_2(teacher_setup, small_windows, tmp_path, capsys):
    ckpt, _ = teacher_setup
    cut = tmp_path / "cut.ckpt"
    cut.write_bytes(Path(ckpt).read_bytes()[:-5])
    code = run_cli("logits", "--ckpt", str(cut), "--windows", small_windows, "--out", str(tmp_path / "l.csv"))
    assert code == 2
    assert str(cut) in capsys.readouterr().err


def test_distill_bad_config_exit_1(tmp_path):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps({"dataset": "missing.csv", "seed": 1, "alpha": 2.0}))
    assert run_cli("distill", "--config", str(cfg_path)) == 1


def test_distill_non_string_dataset_exit_1(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"dataset": ["w.csv"], "teacher_logits": "x.csv", "seed": 1}))
    assert run_cli("distill", "--config", str(cfg_path)) == 1


def test_distill_missing_dataset_exit_2(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"dataset": str(tmp_path / "none.csv"),
                                    "teacher_logits": "x.csv", "seed": 1}))
    assert run_cli("distill", "--config", str(cfg_path)) == 2


def test_row_count_mismatch_exit_2(teacher_setup, small_windows, tmp_path):
    _, logits_path = teacher_setup
    short = tmp_path / "short.csv"
    lines = Path(logits_path).read_text().splitlines()
    short.write_text("\n".join(lines[:-1]) + "\n")
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"dataset": small_windows, "teacher_logits": str(short),
                                    "seed": 1, "epochs": 1, "folds": 2, "batch_size": 16}))
    assert run_cli("distill", "--config", str(cfg_path)) == 2


def test_grid_small_and_outputs(teacher_setup, small_windows, tmp_path):
    _, logits_path = teacher_setup
    outdir = tmp_path / "grid"
    config = {
        "dataset": small_windows,
        "teacher_logits": logits_path,
        "students": ["cnn1d", "ae_vqc"],
        "alphas": [0.3, 0.7],
        "temperatures": [2.0],
        "epochs": 1,
        "batch_size": 16,
        "ae_epochs": 1,
        "spsa_steps": 3,
        "spsa_batch": 16,
        "folds": 2,
        "seed": 13,
        "output_dir": str(outdir),
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    assert run_cli("grid", "--config", str(cfg_path)) == 0
    report = json.loads((outdir / "report.json").read_text())
    assert len(report["entries"]) == 4
    csv_lines = (outdir / "precision_vs_alpha.csv").read_text().splitlines()
    assert len(csv_lines) == 5
    # rerun reproduces identical bytes
    blob = {p.name: (outdir / p.name).read_bytes()
            for p in outdir.iterdir()}
    assert run_cli("grid", "--config", str(cfg_path)) == 0
    for name, data in blob.items():
        assert (outdir / name).read_bytes() == data, name
    # report command renders the same table
    assert run_cli("report", "--report", str(outdir / "report.json")) == 0


# sha256 of report.json from test_golden_grid_report; a change to any
# student's numerics, the fold splits or the report format changes it.
GOLDEN_GRID_REPORT_SHA256 = "54ad2bb291156f78b15e1c633c5e7281f294159f62f30e75af33379b69d72c94"


def test_golden_grid_report(tmp_path):
    windows, ckpt, logits = (str(tmp_path / name) for name in ("w.csv", "t.ckpt", "z.csv"))
    assert run_cli("synth", "--out", windows, "--n", "120", "--noise-sigma", "0.15", "--seed", "41") == 0
    assert run_cli("teacher", "--windows", windows, "--out", ckpt, "--epochs", "2",
                   "--batch-size", "32", "--lr", "0.003", "--seed", "42") == 0
    assert run_cli("logits", "--ckpt", ckpt, "--windows", windows, "--out", logits) == 0
    config = {
        "dataset": windows, "teacher_logits": logits, "students": ["cnn1d", "resnet1d", "ae_vqc"],
        "alphas": [0.5], "temperatures": [2.0], "epochs": 1, "batch_size": 16, "ae_epochs": 3,
        "spsa_steps": 20, "spsa_batch": 16, "folds": 2, "seed": 43, "output_dir": str(tmp_path / "grid"),
    }
    (tmp_path / "cfg.json").write_text(json.dumps(config))
    assert run_cli("grid", "--config", str(tmp_path / "cfg.json")) == 0
    report = (tmp_path / "grid" / "report.json").read_bytes()
    assert hashlib.sha256(report).hexdigest() == GOLDEN_GRID_REPORT_SHA256


# sha256 of `denoise` output over a seeded synth file; pins the wavelet
# shrinkage and the window CSV writer byte for byte.
GOLDEN_DENOISE_SHA256 = "e9c10f8efcbc8dec52bc18eee9e01219242c375110d0addc96710f25205beb80"


def test_golden_denoise(tmp_path):
    windows, out = str(tmp_path / "w.csv"), tmp_path / "d.csv"
    assert run_cli("synth", "--out", windows, "--n", "60", "--noise-sigma", "0.2", "--seed", "44") == 0
    assert run_cli("denoise", "--input", windows, "--out", str(out)) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_DENOISE_SHA256


# sha256 of the files of a seeded 2-fold ae_vqc distill, read exactly
# (shot_noise 0) and with 64 shots; pins the SPSA gains and exponents, the
# initial angle screen and the shot-noise path through a config.
GOLDEN_AE_VQC_SHA256 = {
    0: {
        "fold0.theta.json": "ff0859faf2a21d26d8ef45c4dcfe6f25b4bb61b5fd9bcb4bccdd6899893b4aa8",
        "fold1.theta.json": "8fa14748730d3954ff53f403ef98d85550b8e80932346fdc38c6136ecd9958a1",
        "report.json": "61a550da5b7a7a2bfea4c8e041579e742d49a968eb40422d7fb52ad9875f9fe9",
    },
    64: {
        "fold0.theta.json": "836051795f19bc1e5f5ab3aa48900298c81b719a03dacb9fe63ab06d99bda8c4",
        "fold1.theta.json": "91c68b5bd9077af84138d476dabc02972d1fefc15af6c97ac8add4c8b2a12dea",
        "report.json": "26b28f9a8972126742d560caaa6129c4b224328999e0e079379e8f6d9eb58e09",
    },
}


def test_golden_distill_ae_vqc(teacher_setup, small_windows, tmp_path):
    _, logits_path = teacher_setup
    for shots, digests in GOLDEN_AE_VQC_SHA256.items():
        outdir = tmp_path / f"shots{shots}"
        config = {
            "dataset": small_windows, "teacher_logits": logits_path, "student": "ae_vqc",
            "ae_epochs": 2, "spsa_steps": 15, "spsa_batch": 16, "batch_size": 16, "folds": 2,
            "seed": 16, "shot_noise": shots, "output_dir": str(outdir),
        }
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        assert run_cli("distill", "--config", str(tmp_path / "cfg.json")) == 0
        got = {name: hashlib.sha256((outdir / name).read_bytes()).hexdigest() for name in digests}
        assert got == digests, shots


def test_paramcount_json(capsys):
    assert run_cli("paramcount", "--json") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["vqc_circuit"] == 36
    assert doc["ae_vqc_total"] == doc["autoencoder"] + 36
    assert doc["resnet1d"] > doc["cnn1d"] > 0


def test_unknown_flag_exit_1():
    assert run_cli("synth", "--frequency", "2") == 1


@pytest.mark.parametrize("text, fragment", [
    ("not json", "unreadable report"),
    ('{"entries": [{"student": "cnn1d", "alpha": 0.5, "temperature": 2.0, "folds": []}]}', "entry 0 needs"),
    ("[1, 2]", "has no 'entries' list"),
    ('{"entries": []}', "has no entries"),
])
def test_report_malformed_exit_2_names_file(text, fragment, tmp_path, capsys):
    path = tmp_path / "report.json"
    path.write_text(text)
    assert run_cli("report", "--report", str(path)) == 2
    err = capsys.readouterr().err
    assert str(path) in err and fragment in err


def test_one_error_class_per_module():
    """Each module raises its own one error; the CLI maps the three
    validation errors to exit 1 and every other error to exit 2."""
    for info in pkgutil.iter_modules(ecgkd.__path__):
        module = importlib.import_module(f"ecgkd.{info.name}")
        errors = [
            name for name, obj in inspect.getmembers(module, inspect.isclass)
            if issubclass(obj, BaseException) and obj.__module__ == module.__name__
        ]
        assert len(errors) <= 1, (info.name, errors)
    assert cli._VALIDATION_ERRORS == (cli.CliValidationError, ConfigError, BadSpecError)
