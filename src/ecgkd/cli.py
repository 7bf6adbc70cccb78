"""Command line entry point for the distillation workbench.

Subcommands: synth, denoise, teacher, logits, distill, grid, report,
paramcount.  Exit codes: 0 success, 1 validation error, 2 runtime or
data error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import evalkit, quantum, signal as sig, synthetic, training
from .distill import load_teacher_logits, save_teacher_logits
from .models import (
    ConvAutoencoder,
    Cnn1dStudent,
    Resnet1dStudent,
    WideCnnTeacher,
    count_params,
    load_model,
    save_model,
)
from .synthetic import BadSpecError, SynthSpec
from .training import ConfigError, RunConfig, config_from_dict


class CliValidationError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliValidationError(message)


def _build_parser():
    parser = _Parser(prog="ecgkd", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic two-class window CSV")
    p.add_argument("--out", required=True)
    p.add_argument("--n", type=int, default=2000)
    p.add_argument("--balance", type=float, default=0.5)
    p.add_argument("--noise-sigma", type=float, default=0.2)
    p.add_argument("--seed", type=int, required=True)

    p = sub.add_parser("denoise", help="wavelet-denoise every window in a CSV")
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--wavelet", choices=("haar", "db4"), default="db4")
    p.add_argument("--levels", type=int, default=4)

    p = sub.add_parser("teacher", help="train the wide proxy teacher")
    p.add_argument("--windows", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--epochs", type=int, default=20)
    p.add_argument("--batch-size", type=int, default=64)
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--seed", type=int, required=True)

    p = sub.add_parser("logits", help="export aligned teacher logits for a window CSV")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--windows", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("distill", help="train one student across folds from a JSON config")
    p.add_argument("--config", required=True)

    p = sub.add_parser("grid", help="full (student x alpha x T) sweep from a JSON config")
    p.add_argument("--config", required=True)
    p.add_argument("--jobs", type=int, default=None)

    p = sub.add_parser("report", help="render a report JSON as a text table")
    p.add_argument("--report", required=True)
    p.add_argument("--out", default=None)

    p = sub.add_parser("paramcount", help="trainable parameter budget per model")
    p.add_argument("--json", action="store_true")

    return parser


def _load_config(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise FileNotFoundError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})")
    return config_from_dict(doc)


def _require_file(path, what):
    if not os.path.exists(path):
        raise FileNotFoundError(f"{what} not found: {path}")


def cmd_synth(args):
    spec = SynthSpec(n_windows=args.n, balance=args.balance, noise_sigma=args.noise_sigma, seed=args.seed)
    samples, labels = synthetic.generate_windows(spec)
    sig.save_window_csv(args.out, samples, labels)
    print(f"wrote {len(labels)} windows ({int(labels.sum())} positive) to {args.out}")
    return 0


def cmd_denoise(args):
    if args.levels < 1:
        raise CliValidationError(f"levels must be >= 1, got {args.levels}")
    _require_file(args.input, "window CSV")
    samples, labels = sig.load_window_csv(args.input)
    out = np.empty_like(samples)
    for i, row in enumerate(samples):
        out[i] = sig.denoise(sig.RawSignal(row), args.wavelet, args.levels).samples
    sig.save_window_csv(args.out, out, labels)
    print(f"denoised {len(labels)} windows -> {args.out}")
    return 0


def cmd_teacher(args):
    if args.epochs < 1 or args.batch_size < 1 or not 0 < args.lr < np.inf or args.seed < 0:
        raise CliValidationError("epochs and batch-size must be >= 1, lr positive and finite and seed >= 0")
    _require_file(args.windows, "window CSV")
    samples, labels = sig.load_window_csv(args.windows)
    model = training.train_teacher(samples, labels, args.epochs, args.batch_size, args.lr, args.seed)
    logits = training.model_logits(model, samples)
    accuracy = float(np.mean((logits >= 0).astype(np.int64) == labels))
    save_model(args.out, model)
    print(f"teacher training accuracy {accuracy:.4f}; checkpoint -> {args.out}")
    return 0


def cmd_logits(args):
    _require_file(args.ckpt, "teacher checkpoint")
    _require_file(args.windows, "window CSV")
    samples, _ = sig.load_window_csv(args.windows)
    model = load_model(args.ckpt)
    logits = training.model_logits(model, samples)
    save_teacher_logits(args.out, logits)
    print(f"wrote {len(logits)} logits to {args.out}")
    return 0


def _load_dataset(cfg: RunConfig):
    """The config's windows, labels and teacher logits, plus the dataset
    name; makes the output directory."""
    _require_file(cfg.dataset, "window CSV")
    samples, labels = sig.load_window_csv(cfg.dataset)
    if not cfg.teacher_logits:
        raise ConfigError("config requires 'teacher_logits'")
    _require_file(cfg.teacher_logits, "teacher logits CSV")
    teacher_z = load_teacher_logits(cfg.teacher_logits, expected_rows=len(labels))
    for cls in (0, 1):
        if int(np.sum(labels == cls)) < cfg.folds:
            raise ConfigError(f"class {cls} has fewer members than folds={cfg.folds}")
    os.makedirs(cfg.output_dir, exist_ok=True)
    return samples, labels, teacher_z, os.path.basename(cfg.dataset)


def cmd_distill(args):
    cfg = _load_config(args.config)
    cfg.students, cfg.alphas, cfg.temperatures = (cfg.student,), (cfg.alpha,), (cfg.temperature,)
    samples, labels, teacher_z, dataset_name = _load_dataset(cfg)
    (report,), _ = training.run_grid(samples, labels, teacher_z, cfg, save_dir=cfg.output_dir)
    doc = evalkit.report_json([report], dataset_name, cfg.seed)
    evalkit.save_report_json(os.path.join(cfg.output_dir, "report.json"), doc)
    m = report.mean
    print(
        f"T={cfg.temperature:g}, {cfg.student}, {m['accuracy']:.4f}, {m['precision']:.4f}, "
        f"{m['recall']:.4f}, {m['f1']:.4f}"
    )
    return 0


def cmd_grid(args):
    cfg = _load_config(args.config)
    if args.jobs is not None:
        if args.jobs < 1:
            raise CliValidationError("--jobs must be >= 1")
        cfg.jobs = args.jobs
    samples, labels, teacher_z, dataset_name = _load_dataset(cfg)
    reports, _ = training.run_grid(samples, labels, teacher_z, cfg)
    text = evalkit.render_table(reports, list(cfg.students), cfg.alphas, cfg.temperatures)
    doc = evalkit.report_json(reports, dataset_name, cfg.seed)
    evalkit.save_report_json(os.path.join(cfg.output_dir, "report.json"), doc)
    with open(os.path.join(cfg.output_dir, "report.txt"), "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    rows = evalkit.precision_vs_alpha_rows(reports, dataset_name)
    evalkit.write_precision_csv(os.path.join(cfg.output_dir, "precision_vs_alpha.csv"), rows)
    print(text, end="")
    return 0


def cmd_report(args):
    _require_file(args.report, "report JSON")
    reports = evalkit.load_report_json(args.report)
    alphas = sorted({r.alpha for r in reports})
    temps = sorted({r.temperature for r in reports})
    text = evalkit.render_table(reports, alphas=alphas, temperatures=temps)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    print(text, end="")
    return 0


def cmd_paramcount(args):
    counts = {
        "cnn1d": count_params(Cnn1dStudent(seed=0)),
        "resnet1d": count_params(Resnet1dStudent(seed=0)),
        "autoencoder": count_params(ConvAutoencoder(seed=0)),
        "vqc_circuit": quantum.THETA_LENGTH,
        "wide_cnn_teacher": count_params(WideCnnTeacher(seed=0)),
    }
    counts["ae_vqc_total"] = counts["autoencoder"] + counts["vqc_circuit"]
    if args.json:
        print(json.dumps(counts, indent=2, sort_keys=True))
    else:
        for name in sorted(counts):
            print(f"{name}: {counts[name]}")
    return 0


_COMMANDS = {
    "synth": cmd_synth,
    "denoise": cmd_denoise,
    "teacher": cmd_teacher,
    "logits": cmd_logits,
    "distill": cmd_distill,
    "grid": cmd_grid,
    "report": cmd_report,
    "paramcount": cmd_paramcount,
}

_VALIDATION_ERRORS = (CliValidationError, ConfigError, BadSpecError)


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except _VALIDATION_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # data or runtime failure
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
