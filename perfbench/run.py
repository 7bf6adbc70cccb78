"""Benchmark of the ecgkd pipeline: one seeded workload per process.

Run from the repository root:

    python3 perfbench/run.py --workload teacher --seed 1 --seconds 25 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
carry the host facts and the output digests.  ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer metrics of a traced run.
The exit code is 0 when every output check passed, 1 when one failed and
2 when the benchmark could not run.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

SETUP_REPEATS = 5
MIN_TIMED_PASSES = 3
HELDOUT_SEED_OFFSET = 1_000_003
# Per-layer figures of the traced set-up, reported with a "setup." prefix
# so they are not mixed into the timed figures.  The first two never run
# in a timed section, so they are reported for set-up only.
SETUP_ONLY_LAYERS = ("synthetic.generate_windows.s", "cli.synth.s")
SETUP_LAYERS = SETUP_ONLY_LAYERS + (
    "signal.denoise.s", "signal.load_window_csv.s", "signal.save_window_csv.s",
    "training.train_teacher.s", "training.model_logits.s", "optim.adam.step.s",
    "cli.denoise.s", "cli.teacher.s", "cli.logits.s",
)


# ---------------------------------------------------------------------------
# Ops and output checks
# ---------------------------------------------------------------------------


def sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def read_labels(path):
    with open(path, "r", encoding="utf-8") as fh:
        next(fh)
        return [int(line.split(",", 1)[0]) for line in fh if line.strip()]


def read_logits(path):
    with open(path, "r", encoding="utf-8") as fh:
        if next(fh).strip() != "index,logit":
            raise ValueError(f"{path}: bad header")
        return [float(line.split(",")[1]) for line in fh if line.strip()]


class Ops:
    """The ops of one pass; each CLI stage and each fold fit is one op.

    An op fails on a non-zero exit code or on a failed output check."""

    def __init__(self, cli):
        self.cli = cli
        self.ok = {}
        self.problems = []

    def stage(self, op, argv):
        with contextlib.redirect_stdout(io.StringIO()):
            rc = self.cli.main([str(a) for a in argv])
        return self.check(op, rc == 0, f"exit code {rc}")

    def check(self, op, passed, message):
        self.ok[op] = self.ok.get(op, True) and bool(passed)
        if not passed:
            self.problems.append(f"{op}: {message}")
        return bool(passed)

    def check_logits(self, op, path, rows):
        try:
            logits = read_logits(path)
        except (OSError, ValueError, IndexError) as exc:
            return self.check(op, False, f"unreadable logits ({exc})")
        self.check(op, len(logits) == rows, f"{len(logits)} logit rows for {rows} windows")
        return self.check(op, all(math.isfinite(z) for z in logits), "non-finite logit")

    def check_report(self, op, path, cells, folds):
        """Every expected (student, alpha, T) cell with ``folds`` folds of
        finite metrics in [0, 1]; each fold is its own op.  Returns the best
        cell's fold-mean accuracy, or None."""
        try:
            with open(path, "r", encoding="utf-8") as fh:
                entries = json.load(fh)["entries"]
        except (OSError, ValueError, KeyError) as exc:
            self.check(op, False, f"unreadable report ({exc})")
            entries = []
        by_cell = {(e["student"], float(e["alpha"]), float(e["temperature"])): e for e in entries}
        self.check(op, len(entries) == len(cells), f"{len(entries)} report entries, expected {len(cells)}")
        best = None
        for cell in cells:
            entry = by_cell.get(cell)
            fold_docs = entry["folds"] if entry else []
            for i in range(folds):
                metrics = fold_docs[i] if i < len(fold_docs) else {}
                valid = bool(metrics) and all(
                    isinstance(v, (int, float)) and 0.0 <= v <= 1.0 for v in metrics.values())
                self.check(fit_op(cell, i), valid, "missing or invalid fold metrics")
            if entry and math.isfinite(entry["mean"].get("accuracy", math.nan)):
                best = max(best or 0.0, entry["mean"]["accuracy"])
        return best

    def check_digests(self, digests, reference):
        """Seeded runs must write byte-identical files."""
        for name, (op, digest) in digests.items():
            self.check(op, digest == reference.get(name, (op, None))[1], f"{name} differs from the first pass")


def fit_op(cell, fold):
    student, alpha, temperature = cell
    return f"fit {student} alpha={alpha:g} T={temperature:g} fold {fold}"


def digest_files(directory, files):
    """{file name: (op that wrote it, sha256)} for files that exist."""
    out = {}
    for name, op in files.items():
        path = os.path.join(directory, name)
        if os.path.exists(path):
            out[name] = (op, sha256(path))
    return out


# ---------------------------------------------------------------------------
# Workloads.  Each is a seeded slice of the real pipeline driven through
# ecgkd.cli.main; the program only sees the generated CSV files and config.
# ---------------------------------------------------------------------------


class TeacherWorkload:
    """Front half of the pipeline: denoise, teacher at batch 128, logits.

    Wide-channel conv GEMMs dominate (Adam is a small share of a step); the
    only workload with signal denoising and CSV I/O in its timed part, and
    the only one that runs an eval-only forward over a whole file."""

    windows, heldout, noise = 600, 400, 0.2
    epochs, batch, lr = 3, 128, 0.003
    floor = 0.7

    def setup(self, ops, d, seed):
        ops.stage("synth", ["synth", "--out", f"{d}/windows.csv", "--n", self.windows,
                            "--noise-sigma", self.noise, "--seed", seed])
        ops.stage("synth heldout", ["synth", "--out", f"{d}/heldout.csv", "--n", self.heldout,
                                    "--noise-sigma", self.noise, "--seed", seed + HELDOUT_SEED_OFFSET])
        ops.stage("denoise heldout", ["denoise", "--input", f"{d}/heldout.csv", "--out", f"{d}/heldout_clean.csv"])
        return digest_files(d, {"windows.csv": "synth", "heldout_clean.csv": "denoise heldout"})

    def prepare(self, setup_dir, out, seed):
        pass

    def timed(self, ops, setup_dir, out, seed):
        ops.stage("denoise", ["denoise", "--input", f"{setup_dir}/windows.csv", "--out", f"{out}/clean.csv"])
        ops.stage("teacher", ["teacher", "--windows", f"{out}/clean.csv", "--out", f"{out}/teacher.ckpt",
                              "--epochs", self.epochs, "--batch-size", self.batch, "--lr", self.lr, "--seed", seed])
        ops.stage("logits", ["logits", "--ckpt", f"{out}/teacher.ckpt", "--windows", f"{out}/clean.csv",
                             "--out", f"{out}/logits.csv"])

    def check(self, ops, setup_dir, out, score):
        ops.check_logits("logits", f"{out}/logits.csv", self.windows)
        accuracy = None
        if score:
            # Held-out accuracy is checked once per run; later passes must
            # reproduce the checkpoint byte for byte.
            ok = ops.stage("heldout logits", ["logits", "--ckpt", f"{out}/teacher.ckpt", "--windows",
                                              f"{setup_dir}/heldout_clean.csv", "--out", f"{out}/heldout_logits.csv"])
            if ok and ops.check_logits("heldout logits", f"{out}/heldout_logits.csv", self.heldout):
                labels = read_labels(f"{setup_dir}/heldout.csv")
                logits = read_logits(f"{out}/heldout_logits.csv")
                accuracy = sum((z >= 0) == bool(y) for z, y in zip(logits, labels)) / len(labels)
                ops.check("heldout logits", accuracy > self.floor, f"accuracy {accuracy} <= floor {self.floor}")
        digests = digest_files(out, {"clean.csv": "denoise", "teacher.ckpt": "teacher", "logits.csv": "logits"})
        return accuracy, digests


class StudentWorkload:
    """Shared set-up of the two student workloads: seeded windows, a small
    teacher and its logits, all built with the repo's own commands."""

    windows, noise = 200, 0.1
    teacher_epochs, teacher_batch, teacher_lr = 2, 64, 0.003

    def setup(self, ops, d, seed):
        ops.stage("synth", ["synth", "--out", f"{d}/windows.csv", "--n", self.windows,
                            "--noise-sigma", self.noise, "--seed", seed])
        ops.stage("teacher", ["teacher", "--windows", f"{d}/windows.csv", "--out", f"{d}/teacher.ckpt",
                              "--epochs", self.teacher_epochs, "--batch-size", self.teacher_batch,
                              "--lr", self.teacher_lr, "--seed", seed])
        if ops.stage("logits", ["logits", "--ckpt", f"{d}/teacher.ckpt", "--windows", f"{d}/windows.csv",
                                "--out", f"{d}/logits.csv"]):
            ops.check_logits("logits", f"{d}/logits.csv", self.windows)
        return digest_files(d, {"windows.csv": "synth", "teacher.ckpt": "teacher", "logits.csv": "logits"})

    def prepare(self, setup_dir, out, seed):
        config = dict(self.config, dataset=f"{setup_dir}/windows.csv", teacher_logits=f"{setup_dir}/logits.csv",
                      seed=seed, output_dir=out)
        with open(f"{out}/config.json", "w", encoding="utf-8") as fh:
            json.dump(config, fh)

    def timed(self, ops, setup_dir, out, seed):
        ops.stage(self.command, [self.command, "--config", f"{out}/config.json"])

    def check(self, ops, setup_dir, out, score):
        cells = [(s, float(a), float(t)) for s in self.students
                 for a in self.config["alphas"] for t in self.config["temperatures"]]
        accuracy = ops.check_report(self.command, f"{out}/report.json", cells, self.config["folds"])
        ops.check(self.command, accuracy is not None and accuracy > self.floor,
                  f"best fold-mean accuracy {accuracy} <= floor {self.floor}")
        return accuracy, digest_files(out, self.outputs())


class ResnetDistillWorkload(StudentWorkload):
    """`ecgkd distill` of resnet1d, one (alpha, T) cell over all folds,
    writing a ~31 MB QDST1 checkpoint per fold.  The batch size is the
    acceptance config's, so Adam.step on 3.85M float64 parameters keeps its
    share of each step; this is also the only workload on the distill
    orchestration path and checkpoint writes.  The learning rate is half
    the acceptance config's: after only 3 epochs at 0.002, one fold in
    about three seeds ended near chance accuracy."""

    windows = 300
    command = "distill"
    students = ("resnet1d",)
    floor = 0.6
    config = {"student": "resnet1d", "alpha": 0.5, "temperature": 2.0, "alphas": [0.5], "temperatures": [2.0],
              "epochs": 3, "batch_size": 32, "learning_rate": 0.001, "folds": 2}
    cell = (config["student"], config["alpha"], config["temperature"])

    def outputs(self):
        files = {"report.json": "distill"}
        for i in range(self.config["folds"]):
            files[f"fold{i}.ckpt"] = fit_op(self.cell, i)
        return files

    def check(self, ops, setup_dir, out, score):
        accuracy, digests = super().check(ops, setup_dir, out, score)
        for i in range(self.config["folds"]):
            path = f"{out}/fold{i}.ckpt"
            magic = b""
            if os.path.exists(path):
                with open(path, "rb") as fh:
                    magic = fh.read(6)
            ops.check(fit_op(self.cell, i), magic == b"QDST1\n", f"fold{i}.ckpt missing or not QDST1")
        return accuracy, digests


class VqcGridWorkload(StudentWorkload):
    """`ecgkd grid` of ae_vqc over all 6 (alpha, T) cells: per-fold AE
    pretraining (small tensors, per-op overhead, conv_transpose1d), then
    SPSA on the circuit, where every fold's latents are re-encoded in every
    cell and loss evaluation.  100 SPSA steps per cell keep the 44 screening
    and calibration evaluations at 18% of the circuit evaluations (6% in
    the acceptance config's 350 steps; see perfbench/README.md)."""

    windows = 600
    # Three set-up teacher epochs give the students steadier logits: the
    # best cell's accuracy then varies about half as much between seeds.
    teacher_epochs, teacher_batch = 3, 128
    command = "grid"
    students = ("ae_vqc",)
    floor = 0.6
    config = {"students": ["ae_vqc"], "alphas": [0.3, 0.5, 0.7], "temperatures": [2.0, 4.0],
              "folds": 2, "ae_epochs": 5, "spsa_steps": 100, "spsa_batch": 32, "batch_size": 32, "jobs": 1}

    def outputs(self):
        return {"report.json": "grid", "report.txt": "grid", "precision_vs_alpha.csv": "grid"}


WORKLOADS = {
    "teacher": TeacherWorkload(),
    "resnet_distill": ResnetDistillWorkload(),
    "vqc_grid": VqcGridWorkload(),
}


# ---------------------------------------------------------------------------
# Host facts
# ---------------------------------------------------------------------------


def last_level_cache():
    """(level, bytes) of the largest cache of cpu0, from sysfs."""
    base = "/sys/devices/system/cpu/cpu0/cache"
    best = (0, 0)
    try:
        for index in os.listdir(base):
            if not index.startswith("index"):
                continue
            with open(f"{base}/{index}/level") as fh:
                level = int(fh.read())
            with open(f"{base}/{index}/size") as fh:
                size = fh.read().strip()
            units = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}
            nbytes = int(size[:-1]) * units[size[-1]] if size[-1] in units else int(size)
            best = max(best, (level, nbytes))
    except (OSError, ValueError):
        pass
    return best


def blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if found."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def host_facts(threads):
    import numpy as np

    cpu_model = None
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), None)
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = None
    level, llc = last_level_cache()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model,
        "llc_level": level,
        "llc_bytes": llc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads_env": threads,
        "blas_threads_effective": blas_threads(),
    }


def stream_bandwidth(llc_bytes):
    """Read+write bandwidth of an in-place numpy pass over one float64
    array of at least 4x the LLC (capped at a quarter of free memory):
    the roofline reference for Adam's computed GB/s."""
    import numpy as np

    available = None
    with contextlib.suppress(OSError, StopIteration, ValueError):
        with open("/proc/meminfo") as fh:
            available = 1024 * int(next(line for line in fh if line.startswith("MemAvailable")).split()[1])
    nbytes = max(4 * llc_bytes, 64 << 20)
    if available:
        nbytes = min(nbytes, available // 4)
    array = np.ones(nbytes // 8)
    times = []
    for _ in range(3):
        t = time.perf_counter()
        np.multiply(array, 1.0, out=array)
        times.append(time.perf_counter() - t)
    del array
    return 2 * nbytes / 1e9 / statistics.median(times), nbytes / 1e6


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------


class Runner:
    """Set-up and timed passes of one workload, with their op tally and
    the first pass's digests as the reference for later passes."""

    def __init__(self, cli, workload, seed, work):
        self.cli = cli
        self.workload = workload
        self.seed = seed
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.setup_reference = None
        self.timed_reference = None
        self.accuracy = None
        self.passes = 0
        self.setup_dir = None

    def _tally(self, ops):
        self.attempted += len(ops.ok)
        self.failed += sum(not ok for ok in ops.ok.values())
        self.problems += ops.problems

    def setup(self, tag):
        d = os.path.join(self.work, tag)
        os.makedirs(d)
        ops = Ops(self.cli)
        t = time.perf_counter()
        digests = self.workload.setup(ops, d, self.seed)
        elapsed = time.perf_counter() - t
        self.setup_reference = self.setup_reference or digests
        ops.check_digests(digests, self.setup_reference)
        self._tally(ops)
        self.setup_dir = d
        return elapsed

    def timed_passes(self, budget, min_passes):
        """Repeat the timed section until the next pass would overrun
        ``budget`` seconds; returns the wall time of each pass."""
        walls = []
        start = time.perf_counter()
        while True:
            out = os.path.join(self.work, f"pass{self.passes}")
            self.passes += 1
            os.makedirs(out)
            self.workload.prepare(self.setup_dir, out, self.seed)
            ops = Ops(self.cli)
            t = time.perf_counter()
            self.workload.timed(ops, self.setup_dir, out, self.seed)
            walls.append(time.perf_counter() - t)
            accuracy, digests = self.workload.check(ops, self.setup_dir, out, score=self.accuracy is None)
            if self.accuracy is None:
                self.accuracy = accuracy
            self.timed_reference = self.timed_reference or digests
            ops.check_digests(digests, self.timed_reference)
            self._tally(ops)
            shutil.rmtree(out)
            elapsed = time.perf_counter() - start
            if len(walls) >= min_passes and elapsed + walls[-1] > budget:
                return walls


def main(argv=None):
    parser = argparse.ArgumentParser(description="ecgkd pipeline benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds positive")

    # One process, jobs = 1, BLAS threads = the CPUs this process may use.
    threads = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(threads)
    if not os.path.isfile(os.path.join(SRC, "ecgkd", "cli.py")):
        print(f"error: no ecgkd sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    t = time.perf_counter()
    import ecgkd
    from ecgkd import cli

    import_s = time.perf_counter() - t
    if os.path.dirname(os.path.abspath(ecgkd.__file__)) != os.path.join(SRC, "ecgkd"):
        print(f"error: imported ecgkd from {ecgkd.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from tracer import Tracer

    work = os.path.join(WORK, args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    runner = Runner(cli, WORKLOADS[args.workload], args.seed, work)
    setup_times = [runner.setup(f"setup{i}") for i in range(SETUP_REPEATS)]
    start = time.perf_counter()
    budget = args.seconds / 2 if args.trace else args.seconds
    walls = runner.timed_passes(budget, min_passes=2 if args.trace else MIN_TIMED_PASSES)
    host = host_facts(threads)

    if args.trace:
        tracer = Tracer()
        tracer.install()
        try:
            tracer.begin_pass("setup")
            runner.setup("setup_traced")
            traced = []
            while not traced or time.perf_counter() - start < args.seconds:
                tracer.begin_pass("timed")
                traced += runner.timed_passes(0.0, min_passes=1)
        finally:
            tracer.restore()
        tracer.write_spans(os.path.join(work, "spans.jsonl"))
        timed_layers = tracer.layer_metrics("timed")
        setup_layers = tracer.layer_metrics("setup")
        metrics = {k: v for k, v in timed_layers.items() if k not in SETUP_ONLY_LAYERS}
        metrics.update({f"setup.{k}": setup_layers[k] for k in SETUP_LAYERS})
        metrics["trace_overhead_s"] = (statistics.median(traced) - statistics.median(walls), "s")
        gbps, array_mb = stream_bandwidth(host["llc_bytes"])
        metrics["host.stream_gbps"] = (gbps, "GB/s")
        metrics["host.stream_array_mb"] = (array_mb, "MB")
    else:
        metrics = {
            "wall_s": (statistics.median(walls), "s"),
            "setup_s": (import_s + statistics.median(setup_times), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6, "MB"),
            "val_accuracy": (runner.accuracy if runner.accuracy is not None else 0.0, "fraction"),
        }

    for problem in runner.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    for entry in os.scandir(work):
        if entry.is_dir():
            shutil.rmtree(entry.path)
    digests = {f"setup/{k}": v[1] for k, v in runner.setup_reference.items()}
    digests.update({f"timed/{k}": v[1] for k, v in runner.timed_reference.items()})
    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "host": host,
              "digests": digests, "import_s": import_s, "setup_times_s": setup_times, "timed_walls_s": walls}
    with open(os.path.join(work, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=2, sort_keys=True)
    print(json.dumps({"host": host}))
    print(json.dumps({"digests": digests}))
    correct = runner.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
