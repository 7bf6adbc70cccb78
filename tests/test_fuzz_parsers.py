"""Fuzzing of the five file parsers and of the run config.

Random bytes, mutated valid files and random JSON documents must either
load or raise the parser's typed error naming the file; any other
exception is a parser gap.  Random config documents must give a RunConfig
whose values are in range, or raise ConfigError.
"""

import contextlib
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecgkd.autodiff import AutodiffError, load_checkpoint, save_checkpoint
from ecgkd.distill import DistillError, load_teacher_logits, save_teacher_logits
from ecgkd.evalkit import (
    EvalError,
    MetricsReport,
    load_report_json,
    render_table,
    report_json,
    save_report_json,
)
from ecgkd.quantum import QuantumError, load_theta, save_theta
from ecgkd.signal import SignalError, load_window_csv, save_window_csv
from ecgkd.training import GRID_STUDENTS, ConfigError, RunConfig, config_from_dict

FUZZ = settings(max_examples=200, deadline=None)

_REPORT = MetricsReport("cnn1d", 0.5, 2.0, folds=[dict(accuracy=0.9, precision=0.8, recall=1.0, f1=0.88)]).finalize()

# name: (loader, the base error of its module, writer of a valid file)
PARSERS = {
    "window_csv": (
        load_window_csv,
        SignalError,
        lambda path: save_window_csv(path, np.linspace(-1.0, 1.0, 512).reshape(2, 256), [0, 1]),
    ),
    "logits_csv": (
        lambda path: load_teacher_logits(path, expected_rows=2),
        DistillError,
        lambda path: save_teacher_logits(path, [0.5, -1.25]),
    ),
    "checkpoint": (
        load_checkpoint,
        AutodiffError,
        lambda path: save_checkpoint(path, "arch", [("w", np.arange(6.0).reshape(2, 3)), ("b", np.ones(2))]),
    ),
    "theta": (
        load_theta,
        QuantumError,
        lambda path: save_theta(path, np.linspace(-1.0, 1.0, 36), seed=3),
    ),
    "report_json": (
        load_report_json,
        EvalError,
        lambda path: save_report_json(path, report_json([_REPORT], "windows.csv", 7)),
    ),
}

# Bytes that matter to the five formats' syntax.
_SYNTAX_BYTES = st.sampled_from(list(b',\n\r.-+eE0123456789"[]{}:naifNI '))

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda children: st.lists(children, max_size=4) | st.dictionaries(st.text(max_size=4), children, max_size=4),
    max_leaves=12,
)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@pytest.fixture(scope="module")
def valid_bytes(workdir):
    blobs = {}
    for name, (load, _, write) in PARSERS.items():
        path = workdir / f"valid.{name}"
        write(path)
        load(path)
        blobs[name] = path.read_bytes()
    return blobs


@st.composite
def mutations(draw, blob):
    """``blob`` after one to four byte replacements, insertions, deletions
    or truncations."""
    data = bytearray(blob)
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(("replace", "insert", "delete", "truncate")))
        pos = draw(st.integers(0, len(data)))
        if kind == "replace" and pos < len(data):
            data[pos] = draw(_SYNTAX_BYTES | st.integers(0, 255))
        elif kind == "insert":
            data[pos:pos] = draw(st.lists(_SYNTAX_BYTES | st.integers(0, 255), min_size=1, max_size=8))
        elif kind == "delete":
            del data[pos : pos + draw(st.integers(1, 16))]
        elif kind == "truncate":
            del data[pos:]
    return bytes(data)


def _load_or_typed_error(name, path, blob):
    load, error, _ = PARSERS[name]
    path.write_bytes(blob)
    try:
        load(path)
    except error as exc:
        assert str(path) in str(exc)


@pytest.mark.parametrize("name", PARSERS)
@FUZZ
@given(blob=st.binary(max_size=512))
def test_random_bytes_load_or_raise_typed_error(name, blob, workdir):
    _load_or_typed_error(name, workdir / f"random.{name}", blob)


@pytest.mark.parametrize("name", PARSERS)
@FUZZ
@given(data=st.data())
def test_mutated_files_load_or_raise_typed_error(name, data, workdir, valid_bytes):
    blob = data.draw(mutations(valid_bytes[name]), label="mutated")
    _load_or_typed_error(name, workdir / f"mutated.{name}", blob)


_ENTRIES = st.lists(
    st.fixed_dictionaries({
        "name": st.sampled_from(["w", "b"]) | JSON_VALUES,
        "shape": st.lists(st.integers(-1, 8), max_size=3) | JSON_VALUES,
        "offset": st.integers(-1, 10) | JSON_VALUES,
    }),
    max_size=3,
)


@FUZZ
@given(arch=st.just("arch") | JSON_VALUES, params=_ENTRIES | JSON_VALUES, n_values=st.integers(0, 12))
def test_checkpoint_headers_load_or_raise_typed_error(arch, params, n_values, workdir):
    header = json.dumps({"arch": arch, "params": params}).encode("utf-8")
    payload = np.arange(float(n_values)).astype("<f8").tobytes()
    _load_or_typed_error("checkpoint", workdir / "header.checkpoint", b"QDST1\n" + header + b"\n" + payload)


@FUZZ
@given(doc=st.fixed_dictionaries({"theta": st.lists(st.floats() | st.integers(), min_size=36, max_size=36)})
       | st.fixed_dictionaries({"theta": JSON_VALUES}) | JSON_VALUES)
def test_theta_documents_load_or_raise_typed_error(doc, workdir):
    _load_or_typed_error("theta", workdir / "doc.theta", json.dumps(doc).encode("utf-8"))


_METRICS = st.fixed_dictionaries({k: st.floats() | st.integers() for k in ("accuracy", "precision", "recall", "f1")})


@FUZZ
@given(doc=st.fixed_dictionaries({"entries": st.lists(
    st.fixed_dictionaries({
        "student": st.sampled_from(["cnn1d"]) | JSON_VALUES,
        "alpha": st.floats() | st.integers() | JSON_VALUES,
        "temperature": st.floats() | st.integers() | JSON_VALUES,
        "folds": st.lists(_METRICS, max_size=2) | JSON_VALUES,
        "mean": _METRICS | JSON_VALUES,
    }) | JSON_VALUES,
    max_size=3,
)}) | JSON_VALUES)
def test_report_documents_load_or_raise_typed_error(doc, workdir):
    """A report that loads also renders, as ``ecgkd report`` does, or
    raises EvalError for a grid it does not fill."""
    path = workdir / "doc.report_json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    try:
        reports = load_report_json(path)
    except EvalError as exc:
        assert str(path) in str(exc)
        return
    alphas, temperatures = sorted({r.alpha for r in reports}), sorted({r.temperature for r in reports})
    with contextlib.suppress(EvalError):
        render_table(reports, alphas=alphas, temperatures=temperatures)


_COUNTS = st.integers(-1, 4)
_REALS = st.floats(-0.5, 4.0)
# Values mostly of each field's type and near its bounds, so that many
# documents validate; mistyped values come from the dictionaries over
# JSON_VALUES below.
_CONFIG_VALUES = {
    **{name: st.text(max_size=4) for name in ("teacher_logits", "output_dir")},
    **{name: _COUNTS for name in ("epochs", "batch_size", "ae_epochs", "spsa_steps", "spsa_batch",
                                  "spsa_restarts", "folds", "shot_noise", "jobs")},
    **{name: _REALS for name in ("alpha", "temperature", "learning_rate")},
    "student": st.sampled_from(GRID_STUDENTS),
    "students": st.lists(st.sampled_from(GRID_STUDENTS), max_size=3),
    "alphas": st.lists(_REALS, max_size=3),
    "temperatures": st.lists(_REALS, max_size=3),
    "epochs_overrides": st.dictionaries(st.sampled_from(GRID_STUDENTS), _COUNTS, max_size=2),
}


@FUZZ
@given(doc=st.fixed_dictionaries({"dataset": st.text(max_size=4), "seed": _COUNTS}, optional=_CONFIG_VALUES)
       | st.dictionaries(st.sampled_from(sorted(RunConfig.__dataclass_fields__)) | st.text(max_size=4),
                         JSON_VALUES, max_size=4)
       | JSON_VALUES)
def test_config_documents_validate_or_raise_config_error(doc):
    try:
        cfg = config_from_dict(doc)
    except ConfigError:
        return
    assert isinstance(cfg, RunConfig)
    for name in ("epochs", "batch_size", "ae_epochs", "spsa_steps", "spsa_batch", "spsa_restarts", "jobs"):
        assert type(getattr(cfg, name)) is int and getattr(cfg, name) >= 1, name
    assert type(cfg.seed) is int and cfg.seed >= 0
    assert type(cfg.shot_noise) is int and cfg.shot_noise >= 0
    assert type(cfg.folds) is int and cfg.folds >= 2
    assert cfg.student in GRID_STUDENTS and cfg.students and set(cfg.students) <= set(GRID_STUDENTS)
    assert cfg.alphas and all(0.0 <= a <= 1.0 for a in (cfg.alpha, *cfg.alphas))
    assert cfg.temperatures and all(math.isfinite(t) and t > 0 for t in (cfg.temperature, *cfg.temperatures))
    assert math.isfinite(cfg.learning_rate) and cfg.learning_rate > 0
