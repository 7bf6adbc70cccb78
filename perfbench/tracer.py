"""Span tracer for the benchmark's traced run.

The tracer wraps public functions of the ecgkd layers from outside the
program, so nothing under ``src/`` changes.  Each wrapped call records a
span: name, start, end, parent span and fit id (every span under one fold
fit, autoencoder fit or teacher fit shares the fit's id).  Autodiff ops
also get a span around the backward closure of the node they return.
Spans stay in memory; the runner writes them out when the run ends.
``restore()`` puts every original function back.

Work is grouped in passes: one traced set-up pass and one or more traced
timed passes.  ``layer_metrics(phase)`` gives the per-layer metrics of
one phase, as the mean over that phase's passes, so the timed figures
describe one timed section and the set-up figures one set-up.

The tracer's own bookkeeping after a call (counters, FLOP and row
hashing) is timed and charged to the enclosing span as ``hook_s``; self
time excludes it, so it does not show as the program's per-op overhead.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
from collections import defaultdict

import numpy as np

# A span with one of these names starts a new fit id unless it already
# runs inside one.
FIT_SPANS = ("training.run_fold", "training.train_autoencoder", "training.train_teacher")
TRACED_OPS = ("conv1d", "conv_transpose1d", "batchnorm1d", "linear")
TRAINING_FUNCTIONS = (
    "train_teacher", "train_kd_student", "train_autoencoder", "prepare_ae_folds",
    "train_vqc", "train_vqc_restarts", "model_logits", "encode_latents", "run_fold", "run_grid",
)
CLI_COMMANDS = ("synth", "denoise", "teacher", "logits", "distill", "grid")
# Adam reads p, g, m, v and writes p, m, v: seven float64 arrays per parameter.
ADAM_BYTES_PER_PARAM = 7 * 8


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent, fit, phase, hook_s]
        self.stack = []
        self.phase = None
        self.passes = defaultdict(int)
        self.counts = defaultdict(lambda: defaultdict(float))
        self.fits = 0
        self.seen_rows = set()
        self._originals = []

    # -- spans ------------------------------------------------------------

    def begin_pass(self, phase):
        """Start one set-up or timed pass; circuit-row repeats count within it."""
        self.phase = phase
        self.passes[phase] += 1
        self.seen_rows = set()

    def count(self, key, value=1.0):
        self.counts[self.phase][key] += value

    def open(self, name):
        parent = self.stack[-1] if self.stack else None
        fit = self.spans[parent][4] if parent is not None else None
        if fit is None and name in FIT_SPANS:
            self.fits += 1
            fit = self.fits
        sid = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent, fit, self.phase, 0.0])
        self.stack.append(sid)
        return sid

    def close(self, sid):
        self.spans[sid][2] = time.perf_counter()
        self.stack.pop()

    def charge(self, t0):
        """Charge the bookkeeping done since ``t0`` to the enclosing span."""
        if self.stack:
            self.spans[self.stack[-1]][6] += time.perf_counter() - t0

    def timed(self, fn, name, after=None):
        """Wrap ``fn`` in a span; ``name`` may be a function of the call's
        arguments, ``after(args, kwargs, result)`` runs after the span and
        is charged to the enclosing span as bookkeeping."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = tracer.open(name(args, kwargs) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(sid)
            if after is not None:
                t0 = time.perf_counter()
                after(args, kwargs, result)
                tracer.charge(t0)
            return result

        return traced

    def op(self, fn, label, gemm_flop=None):
        """Wrap an autodiff op: a forward span, and a backward span around
        the closure of the node it returns."""
        tracer = self
        fwd_name, bwd_name = f"autodiff.{label}.fwd", f"autodiff.{label}.bwd"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = tracer.open(fwd_name)
            try:
                node = fn(*args, **kwargs)
            finally:
                tracer.close(sid)
            t0 = time.perf_counter()
            tracer.count(f"autodiff.{label}.calls")
            flop, bwd_flop = gemm_flop(args, kwargs) if gemm_flop else (0.0, 0.0)
            tracer.count(f"autodiff.{label}.flop", flop)
            backward = node._backward_fn
            if backward is not None:
                def traced_backward(g):
                    bid = tracer.open(bwd_name)
                    try:
                        backward(g)
                    finally:
                        tracer.close(bid)
                    t1 = time.perf_counter()
                    tracer.count(f"autodiff.{label}.flop", bwd_flop)
                    tracer.charge(t1)

                node._backward_fn = traced_backward
            tracer.charge(t0)
            return node

        return traced

    # -- installing the wrappers -------------------------------------------

    def _replace_everywhere(self, modules, original, wrapped):
        # `from x import f` copies the reference, so patch every namespace.
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    self._originals.append((module, key, original))
                    setattr(module, key, wrapped)

    def _replace_method(self, cls, name, wrapped):
        self._originals.append((cls, name, cls.__dict__[name]))
        setattr(cls, name, wrapped)

    def install(self):
        """Wrap the layer boundaries of the imported ``ecgkd`` package."""
        from ecgkd import autodiff, cli, distill, evalkit, models, optim, quantum, signal, synthetic, training

        modules = [m for name, m in sys.modules.items() if name == "ecgkd" or name.startswith("ecgkd.")]

        def fn(module, name, label=None, after=None):
            original = getattr(module, name)
            span = label or f"{module.__name__.rsplit('.', 1)[1]}.{name}"
            self._replace_everywhere(modules, original, self.timed(original, span, after))

        fn(synthetic, "generate_windows")
        for name in ("denoise", "load_window_csv", "save_window_csv"):
            fn(signal, name)
        for label in TRACED_OPS:
            original = getattr(autodiff, label)
            flop = _conv1d_gemm_flop(original) if label == "conv1d" else None
            self._replace_everywhere(modules, original, self.op(original, label, flop))
        self._replace_method(autodiff.Tensor, "backward",
                             self.timed(autodiff.Tensor.backward, "autodiff.backward"))
        fn(autodiff, "save_checkpoint", after=self._after_save_checkpoint)
        fn(autodiff, "load_checkpoint")
        for cls in vars(models).values():
            if inspect.isclass(cls) and cls.__module__ == models.__name__ and "forward" in cls.__dict__:
                self._replace_method(cls, "forward", self.timed(cls.__dict__["forward"], _forward_name))
        fn(models, "save_model")
        fn(models, "load_model")
        for name in ("kd_loss_batch", "kd_loss_vector", "load_teacher_logits", "save_teacher_logits"):
            fn(distill, name)
        self._replace_method(optim.Adam, "step",
                             self.timed(optim.Adam.step, "optim.adam.step", self._after_adam_step))
        self._replace_method(optim.Spsa, "step", self.timed(optim.Spsa.step, "optim.spsa.step"))
        fn(optim, "spsa_calibrate")
        fn(quantum, "vqc_forward_batch", after=self._after_circuit_batch)
        for name in ("zz_feature_map", "efficient_su2", "z_expectations"):
            fn(quantum, name)
        for name in TRAINING_FUNCTIONS:
            fn(training, name)
        for name, value in list(vars(evalkit).items()):
            if inspect.isfunction(value) and value.__module__ == evalkit.__name__ and not name.startswith("_"):
                fn(evalkit, name)
        fn(cli, "main", label=_cli_name)

    def restore(self):
        for owner, key, original in reversed(self._originals):
            setattr(owner, key, original)
        self._originals.clear()

    def _after_save_checkpoint(self, args, kwargs, result):
        self.count("autodiff.save_checkpoint.bytes", os.path.getsize(args[0]))

    def _after_adam_step(self, args, kwargs, result):
        self.count("optim.adam.param_updates", sum(p.data.size for p in args[0].params))

    def _after_circuit_batch(self, args, kwargs, result):
        # A row is a repeat when the same latent was already encoded in this
        # pass: the work a feature-map cache would skip.
        rows = np.atleast_2d(np.asarray(args[0], dtype=np.float64))
        self.count("quantum.rows", len(rows))
        repeats = 0
        for row in rows:
            key = row.tobytes()
            if key in self.seen_rows:
                repeats += 1
            else:
                self.seen_rows.add(key)
        self.count("quantum.repeat_rows", repeats)

    # -- output -------------------------------------------------------------

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for sid, (name, start, end, parent, fit, phase, hook_s) in enumerate(self.spans):
                fh.write(json.dumps({"id": sid, "name": name, "start": start, "end": end, "parent": parent,
                                     "fit": fit, "phase": phase, "hook_s": hook_s}) + "\n")

    def layer_metrics(self, phase):
        """Per-layer metrics of one phase as {name: (value, unit)}: the
        mean over that phase's passes; percentiles pool its samples."""
        w = 1.0 / self.passes[phase] if self.passes[phase] else 0.0
        child = [0.0] * len(self.spans)
        for name, start, end, parent, *_ in self.spans:
            if parent is not None:
                child[parent] += end - start
        total = defaultdict(float)
        calls = defaultdict(float)
        self_time = defaultdict(float)
        durations = defaultdict(list)
        evalkit_s = 0.0
        loss_evals = 0.0
        for sid, (name, start, end, parent, fit, span_phase, hook_s) in enumerate(self.spans):
            if span_phase != phase:
                continue
            d = end - start
            total[name] += w * d
            calls[name] += w
            self_time[name] += w * (d - child[sid] - hook_s)
            durations[name].append(d)
            if name.startswith("evalkit.") and (parent is None or not self.spans[parent][0].startswith("evalkit.")):
                evalkit_s += w * d
            if name == "quantum.vqc_forward_batch" and self._inside(sid, "training.train_vqc"):
                loss_evals += w
        counts = defaultdict(float, {key: w * value for key, value in self.counts[phase].items()})

        m = {}

        def sec(metric, span):
            m[metric] = (total[span], "s")

        def ms_pct(metric, span, q):
            m[metric] = (float(np.percentile(durations[span], q)) * 1e3 if durations[span] else 0.0, "ms")

        sec("synthetic.generate_windows.s", "synthetic.generate_windows")
        sec("signal.denoise.s", "signal.denoise")
        m["signal.denoise.calls"] = (calls["signal.denoise"], "count")
        sec("signal.load_window_csv.s", "signal.load_window_csv")
        sec("signal.save_window_csv.s", "signal.save_window_csv")
        for label in TRACED_OPS:
            sec(f"autodiff.{label}.fwd_s", f"autodiff.{label}.fwd")
            sec(f"autodiff.{label}.bwd_s", f"autodiff.{label}.bwd")
            m[f"autodiff.{label}.calls"] = (counts[f"autodiff.{label}.calls"], "count")
        conv_gflop = counts["autodiff.conv1d.flop"] / 1e9
        conv_s = total["autodiff.conv1d.fwd"] + total["autodiff.conv1d.bwd"]
        m["autodiff.conv1d.gflop"] = (conv_gflop, "computed-GFLOP")
        m["autodiff.conv1d.gflops"] = (conv_gflop / conv_s if conv_s else 0.0, "computed-GFLOP/s")
        sec("autodiff.backward.s", "autodiff.backward")
        m["autodiff.backward.self_s"] = (self_time["autodiff.backward"], "s")
        sec("autodiff.save_checkpoint.s", "autodiff.save_checkpoint")
        m["autodiff.save_checkpoint.mb"] = (counts["autodiff.save_checkpoint.bytes"] / 1e6, "MB")
        sec("autodiff.load_checkpoint.s", "autodiff.load_checkpoint")
        sec("models.forward.train_s", "models.forward.train")
        sec("models.forward.eval_s", "models.forward.eval")
        sec("models.save_model.s", "models.save_model")
        for name in ("kd_loss_batch", "kd_loss_vector", "load_teacher_logits", "save_teacher_logits"):
            sec(f"distill.{name}.s", f"distill.{name}")

        steps = calls["optim.adam.step"]
        sec("optim.adam.step.s", "optim.adam.step")
        ms_pct("optim.adam.step_ms_p50", "optim.adam.step", 50)
        ms_pct("optim.adam.step_ms_p90", "optim.adam.step", 90)
        m["optim.adam.steps"] = (steps, "count")
        params = counts["optim.adam.param_updates"] / steps if steps else 0.0
        m["optim.adam.params"] = (params, "count")
        m["optim.adam.gb_per_step"] = (params * ADAM_BYTES_PER_PARAM / 1e9, "computed-GB")
        adam_s = total["optim.adam.step"]
        m["optim.adam.gbps"] = (
            counts["optim.adam.param_updates"] * ADAM_BYTES_PER_PARAM / 1e9 / adam_s if adam_s else 0.0,
            "computed-GB/s",
        )

        spsa_steps = calls["optim.spsa.step"]
        sec("optim.spsa.step.s", "optim.spsa.step")
        m["optim.spsa.steps"] = (spsa_steps, "count")
        sec("optim.spsa_calibrate.s", "optim.spsa_calibrate")
        m["optim.spsa.loss_evals"] = (loss_evals, "count")
        m["optim.spsa.useful_eval_share"] = (2 * spsa_steps / loss_evals if loss_evals else 0.0, "fraction")

        vqc = "quantum.vqc_forward_batch"
        sec(f"{vqc}.s", vqc)
        m[f"{vqc}.calls"] = (calls[vqc], "count")
        m[f"{vqc}.rows"] = (counts["quantum.rows"], "count")
        ms_pct(f"{vqc}.ms_p50", vqc, 50)
        ms_pct(f"{vqc}.ms_p99", vqc, 99)
        for name in ("zz_feature_map", "efficient_su2", "z_expectations"):
            sec(f"quantum.{name}.s", f"quantum.{name}")
        rows = counts["quantum.rows"]
        m["quantum.repeat_row_share"] = (counts["quantum.repeat_rows"] / rows if rows else 0.0, "fraction")

        for name in TRAINING_FUNCTIONS:
            if name != "run_fold":
                sec(f"training.{name}.s", f"training.{name}")
        folds = durations["training.run_fold"]
        m["training.run_fold.s_p50"] = (float(np.median(folds)) if folds else 0.0, "s")
        m["training.run_fold.s_max"] = (max(folds) if folds else 0.0, "s")
        m["training.run_fold.calls"] = (calls["training.run_fold"], "count")
        m["training.self_s"] = (sum(t for name, t in self_time.items() if name.startswith("training.")), "s")
        m["evalkit.s"] = (evalkit_s, "s")
        for command in CLI_COMMANDS:
            sec(f"cli.{command}.s", f"cli.{command}")
        return m

    def _inside(self, sid, name):
        parent = self.spans[sid][3]
        while parent is not None:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False


def _forward_name(args, kwargs):
    train = args[2] if len(args) > 2 else kwargs.get("train", False)
    return "models.forward.train" if train else "models.forward.eval"


def _cli_name(args, kwargs):
    argv = args[0] if args else kwargs.get("argv")
    return f"cli.{argv[0]}" if argv else "cli.main"


def _conv1d_gemm_flop(conv1d):
    """Flop of conv1d's im2col GEMMs from the call's shapes: the forward
    GEMM, and in backward one GEMM of the same size per input that needs a
    gradient (weight and x).  The col2im scatter is not counted."""
    signature = inspect.signature(conv1d)

    def flop(args, kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        x, weight = bound.arguments["x"], bound.arguments["weight"]
        stride, padding = bound.arguments["stride"], bound.arguments["padding"]
        batch, c_in, length = x.shape
        c_out, _, k = weight.shape
        l_out = (length + 2 * padding - k) // stride + 1
        gemm = 2.0 * batch * l_out * c_in * k * c_out
        return gemm, gemm * (int(weight.requires_grad) + int(x.requires_grad))

    return flop
