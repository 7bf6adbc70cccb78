"""Minimal reverse-mode automatic differentiation over dense float64 arrays.

Every operation records a node on an implicit tape (creation order is the
topological order), so ``backward()`` on a scalar loss fills gradient
buffers for everything reachable from it.  Dense 64-bit arithmetic
throughout keeps finite-difference checks tight.
"""

from __future__ import annotations

import itertools
import json
import math

import numpy as np


class AutodiffError(Exception):
    pass


class ShapeMismatchError(AutodiffError):
    pass


class NonScalarLossError(AutodiffError):
    pass


class BadDropoutRateError(AutodiffError):
    pass


class CheckpointError(AutodiffError):
    pass


_creation_counter = itertools.count()


class Tensor:
    """Array node in the computation graph.

    ``data`` is always a float64 ndarray.  ``grad`` is lazily allocated with
    the same shape during backward and accumulates until explicitly zeroed.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward_fn", "_order")

    def __init__(self, data, requires_grad=False, _parents=(), _backward_fn=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = requires_grad
        self._parents = _parents
        self._backward_fn = _backward_fn
        self._order = next(_creation_counter)

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    def zero_grad(self):
        self.grad = None

    def _accumulate(self, g):
        if g.shape != self.data.shape:
            raise ShapeMismatchError(f"gradient shape {g.shape} != value shape {self.data.shape}")
        if self.grad is None:
            self.grad = g.copy()
        else:
            self.grad += g

    def backward(self):
        """Reverse accumulation from this scalar node through the graph."""
        if self.size != 1:
            raise NonScalarLossError(f"backward() needs a scalar loss, got shape {self.shape}")
        nodes = []
        seen = set()
        stack = [self]
        while stack:
            node = stack.pop()
            if id(node) in seen or not node.requires_grad:
                continue
            seen.add(id(node))
            nodes.append(node)
            stack.extend(node._parents)
        nodes.sort(key=lambda n: n._order)
        self._accumulate(np.ones_like(self.data))
        for node in reversed(nodes):
            if node._backward_fn is not None:
                node._backward_fn(node.grad)

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __neg__(self):
        return neg(self)

    def __sub__(self, other):
        return add(self, neg(_as_tensor(other)))

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def _as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def _node(data, parents, backward_fn):
    parents = tuple(p for p in parents if p.requires_grad)
    if parents:
        return Tensor(data, requires_grad=True, _parents=parents, _backward_fn=backward_fn)
    return Tensor(data)


def _unbroadcast(grad, shape):
    # Sum gradient back down to the broadcast source shape.
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


def add(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    out_data = a.data + b.data

    def backward_fn(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g, b.shape))

    return _node(out_data, (a, b), backward_fn)


def mul(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    out_data = a.data * b.data

    def backward_fn(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g * b.data, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g * a.data, b.shape))

    return _node(out_data, (a, b), backward_fn)


def neg(a):
    a = _as_tensor(a)

    def backward_fn(g):
        a._accumulate(-g)

    return _node(-a.data, (a,), backward_fn)


def reshape(a, shape):
    a = _as_tensor(a)
    old_shape = a.shape

    def backward_fn(g):
        a._accumulate(g.reshape(old_shape))

    return _node(a.data.reshape(shape), (a,), backward_fn)


def mean_all(a):
    a = _as_tensor(a)
    n = a.size

    def backward_fn(g):
        a._accumulate(np.full(a.shape, float(g) / n))

    return _node(a.data.mean(), (a,), backward_fn)


def relu(a):
    a = _as_tensor(a)
    out_data = np.maximum(a.data, 0.0)

    def backward_fn(g):
        a._accumulate(g * (out_data > 0))

    return _node(out_data, (a,), backward_fn)


def _sigmoid(x):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def sigmoid(a):
    a = _as_tensor(a)
    out_data = _sigmoid(a.data)

    def backward_fn(g):
        a._accumulate(g * out_data * (1.0 - out_data))

    return _node(out_data, (a,), backward_fn)


def _softplus(x):
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))


def softplus(a):
    a = _as_tensor(a)
    sig = _sigmoid(a.data)

    def backward_fn(g):
        a._accumulate(g * sig)

    return _node(_softplus(a.data), (a,), backward_fn)


def linear(x, weight, bias=None):
    """Affine map ``x @ weight.T + bias`` for x of shape [B, in]."""
    if x.data.ndim != 2 or weight.data.ndim != 2 or x.shape[1] != weight.shape[1]:
        raise ShapeMismatchError(f"linear: x {x.shape} vs weight {weight.shape}")
    out_data = x.data @ weight.data.T
    if bias is not None:
        if bias.shape != (weight.shape[0],):
            raise ShapeMismatchError(f"linear: bias {bias.shape} vs out {weight.shape[0]}")
        out_data = out_data + bias.data

    def backward_fn(g):
        if x.requires_grad:
            x._accumulate(g @ weight.data)
        if weight.requires_grad:
            weight._accumulate(g.T @ x.data)
        if bias is not None and bias.requires_grad:
            bias._accumulate(g.sum(axis=0))

    parents = (x, weight) if bias is None else (x, weight, bias)
    return _node(out_data, parents, backward_fn)


def conv1d(x, weight, bias=None, stride=1, padding=0):
    """Strided cross-correlation of [B, C_in, L] with [C_out, C_in, K] kernels.

    Lowered to a single GEMM per call (im2col) so the heavy lifting stays
    in BLAS.  L_out = floor((L + 2*padding - K) / stride) + 1.
    """
    if x.data.ndim != 3 or weight.data.ndim != 3:
        raise ShapeMismatchError("conv1d expects x [B,C,L] and weight [C_out,C_in,K]")
    batch, c_in, length = x.shape
    c_out, c_in_w, k = weight.shape
    if c_in != c_in_w:
        raise ShapeMismatchError(f"conv1d: input channels {c_in} != weight channels {c_in_w}")
    if stride < 1 or padding < 0:
        raise ShapeMismatchError("conv1d: stride must be >= 1 and padding >= 0")
    if length + 2 * padding < k:
        raise ShapeMismatchError(f"conv1d: length {length} + 2*{padding} shorter than kernel {k}")
    if bias is not None and bias.shape != (c_out,):
        raise ShapeMismatchError(f"conv1d: bias {bias.shape} vs C_out {c_out}")

    if padding:
        xp = np.zeros((batch, c_in, length + 2 * padding))
        xp[:, :, padding : padding + length] = x.data
    else:
        xp = x.data
    l_out = (length + 2 * padding - k) // stride + 1
    windows = np.lib.stride_tricks.sliding_window_view(xp, k, axis=2)[:, :, ::stride, :]
    # rows indexed by (batch, output position), columns by (channel, tap)
    cols = np.ascontiguousarray(windows.transpose(0, 2, 1, 3)).reshape(batch * l_out, c_in * k)
    w_mat = weight.data.reshape(c_out, c_in * k)
    out_rows = cols @ w_mat.T
    if bias is not None:
        out_rows += bias.data
    out_data = np.ascontiguousarray(out_rows.reshape(batch, l_out, c_out).transpose(0, 2, 1))

    def backward_fn(g):
        g_rows = np.ascontiguousarray(g.transpose(0, 2, 1)).reshape(batch * l_out, c_out)
        if weight.requires_grad:
            weight._accumulate((g_rows.T @ cols).reshape(c_out, c_in, k))
        if bias is not None and bias.requires_grad:
            bias._accumulate(g_rows.sum(axis=0))
        if x.requires_grad:
            g_cols = (g_rows @ w_mat).reshape(batch, l_out, c_in, k)
            gx = np.zeros_like(xp)
            for kk in range(k):
                gx[:, :, kk : kk + stride * l_out : stride] += g_cols[:, :, :, kk].transpose(0, 2, 1)
            if padding:
                gx = gx[:, :, padding : padding + length]
            x._accumulate(gx)

    parents = (x, weight) if bias is None else (x, weight, bias)
    return _node(out_data, parents, backward_fn)


def conv_transpose1d(x, weight, bias=None, stride=1, padding=0, output_padding=0):
    """Transposed counterpart of conv1d; weight is [C_in, C_out, K].

    L_out = (L - 1) * stride - 2*padding + K + output_padding.
    """
    if x.data.ndim != 3 or weight.data.ndim != 3:
        raise ShapeMismatchError("conv_transpose1d expects x [B,C,L] and weight [C_in,C_out,K]")
    batch, c_in, length = x.shape
    c_in_w, c_out, k = weight.shape
    if c_in != c_in_w:
        raise ShapeMismatchError(f"conv_transpose1d: input channels {c_in} != weight channels {c_in_w}")
    if stride < 1 or padding < 0 or output_padding < 0 or output_padding >= stride:
        raise ShapeMismatchError("conv_transpose1d: need stride>=1, padding>=0, 0<=output_padding<stride")
    l_out = (length - 1) * stride - 2 * padding + k + output_padding
    if l_out < 1:
        raise ShapeMismatchError("conv_transpose1d: non-positive output length")
    if bias is not None and bias.shape != (c_out,):
        raise ShapeMismatchError(f"conv_transpose1d: bias {bias.shape} vs C_out {c_out}")

    full_len = (length - 1) * stride + k
    w_mat = weight.data.reshape(c_in, c_out * k)
    # contrib[b, o, k, l] = sum_i x[b,i,l] * w[i,o,k]
    contrib = (x.data.transpose(0, 2, 1) @ w_mat).reshape(batch, length, c_out, k)
    full = np.zeros((batch, c_out, full_len + output_padding))
    for kk in range(k):
        full[:, :, kk : kk + stride * length : stride] += contrib[:, :, :, kk].transpose(0, 2, 1)
    out_data = full[:, :, padding : padding + l_out]
    if bias is not None:
        out_data = out_data + bias.data[None, :, None]

    def backward_fn(g):
        g_full = np.zeros((batch, c_out, full_len + output_padding))
        g_full[:, :, padding : padding + l_out] = g
        g_contrib = np.empty((batch, length, c_out, k))
        for kk in range(k):
            g_contrib[:, :, :, kk] = g_full[:, :, kk : kk + stride * length : stride].transpose(0, 2, 1)
        g_flat = g_contrib.reshape(batch, length, c_out * k)
        if x.requires_grad:
            x._accumulate((g_flat @ w_mat.T).transpose(0, 2, 1))
        if weight.requires_grad:
            gw = np.einsum("bil,blm->im", x.data, g_flat, optimize=True)
            weight._accumulate(gw.reshape(c_in, c_out, k))
        if bias is not None and bias.requires_grad:
            bias._accumulate(g.sum(axis=(0, 2)))

    parents = (x, weight) if bias is None else (x, weight, bias)
    return _node(out_data, parents, backward_fn)


BN_EPS = 1e-5
BN_MOMENTUM = 0.1


def batchnorm1d(x, gamma, beta, running, train):
    """Per-channel batch normalization over the batch and length axes.

    ``running`` is a dict with "mean" and "var" arrays of shape [C].  In
    training (``train`` true) it is updated in place with momentum
    BN_MOMENTUM and the output is normalized with population (biased)
    batch statistics; in eval mode with the stored running statistics.
    """
    if x.data.ndim != 3:
        raise ShapeMismatchError("batchnorm1d expects x of shape [B, C, L]")
    channels = x.shape[1]
    if gamma.shape != (channels,) or beta.shape != (channels,):
        raise ShapeMismatchError("batchnorm1d: gamma/beta must have shape [C]")

    count = x.shape[0] * x.shape[2]
    if train:
        mean = x.data.mean(axis=(0, 2))
        sq = np.einsum("bcl,bcl->c", x.data, x.data, optimize=True) / count
        var = np.maximum(sq - mean * mean, 0.0)
        running["mean"] = (1.0 - BN_MOMENTUM) * running["mean"] + BN_MOMENTUM * mean
        running["var"] = (1.0 - BN_MOMENTUM) * running["var"] + BN_MOMENTUM * var
    else:
        mean = running["mean"]
        var = running["var"]

    inv_std = 1.0 / np.sqrt(var + BN_EPS)
    # single fused multiply-add: out = x * scale + shift
    scale = gamma.data * inv_std
    shift = beta.data - mean * scale
    out_data = x.data * scale[None, :, None] + shift[None, :, None]

    def backward_fn(g):
        x_hat = (x.data - mean[None, :, None]) * inv_std[None, :, None]
        g_sum = g.sum(axis=(0, 2))
        g_xhat_sum = np.einsum("bcl,bcl->c", g, x_hat, optimize=True)
        if gamma.requires_grad:
            gamma._accumulate(g_xhat_sum)
        if beta.requires_grad:
            beta._accumulate(g_sum)
        if x.requires_grad:
            if train:
                coeff = gamma.data * inv_std
                gx = coeff[None, :, None] * (
                    g - (g_sum / count)[None, :, None] - x_hat * (g_xhat_sum / count)[None, :, None]
                )
            else:
                gx = g * (gamma.data * inv_std)[None, :, None]
            x._accumulate(gx)

    return _node(out_data, (x, gamma, beta), backward_fn)


def global_avg_pool(x):
    """Mean over the length axis: [B, C, L] -> [B, C]."""
    if x.data.ndim != 3:
        raise ShapeMismatchError("global_avg_pool expects x of shape [B, C, L]")
    length = x.shape[2]

    def backward_fn(g):
        x._accumulate(np.repeat(g[:, :, None], length, axis=2) / length)

    return _node(x.data.mean(axis=2), (x,), backward_fn)


def dropout(x, rate, train, rng=None):
    """Inverted dropout; identity in eval mode."""
    if not 0.0 <= rate < 1.0:
        raise BadDropoutRateError(f"dropout rate must be in [0, 1), got {rate}")
    if not train or rate == 0.0:
        return x
    if rng is None:
        raise ValueError("dropout in train mode needs an rng")
    keep = 1.0 - rate
    mask = (rng.random(x.shape) < keep) / keep

    def backward_fn(g):
        x._accumulate(g * mask)

    return _node(x.data * mask, (x,), backward_fn)


# ---------------------------------------------------------------------------
# Modules: layers and models as trees of parameter containers.
# ---------------------------------------------------------------------------


def kaiming_uniform(rng, shape, fan_in):
    bound = np.sqrt(6.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape)


def _leaves(value, name):
    # (dotted name, leaf) in attribute definition order: a Tensor, or the
    # (dict, key) slot of a buffer held in a dict attribute such as
    # BatchNorm1d.running, named "<attribute>_<key>".
    if isinstance(value, Module):
        for key, child in vars(value).items():
            yield from _leaves(child, f"{name}.{key}" if name else key)
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _leaves(item, f"{name}.{i}")
    elif isinstance(value, Tensor):
        yield name, value
    elif isinstance(value, dict):
        for key in value:
            yield f"{name}_{key}", (value, key)


class Module:
    """Base of layers and models.

    Trainable tensors, and buffers (the arrays of a dict attribute such as
    BatchNorm1d.running), are found by walking attributes and lists of
    modules in definition order and named by dotted path, for example
    ``stages.0.1.bn2.gamma`` and ``blocks.3.bn.running_var``.  The walk
    runs only when building an optimizer, saving or loading, never per step.
    """

    def parameters(self):
        """(dotted name, tensor) pairs of every trainable tensor."""
        return [(n, leaf) for n, leaf in _leaves(self, "") if isinstance(leaf, Tensor)]

    named_parameters = parameters

    def state_items(self):
        """Checkpoint arrays: every parameter, then every buffer."""
        items = [(n, t.data) for n, t in self.parameters()]
        return items + [(n, holder[key]) for n, (holder, key) in self._buffers()]

    def load_state(self, arrays):
        for name, tensor in self.parameters():
            if name not in arrays:
                raise CheckpointError(f"missing parameter {name!r} in checkpoint")
            if arrays[name].shape != tensor.data.shape:
                raise CheckpointError(
                    f"shape mismatch for {name!r}: {arrays[name].shape} vs {tensor.data.shape}"
                )
            tensor.data = arrays[name].astype(np.float64).copy()
        for name, (holder, key) in self._buffers():
            if name in arrays:
                holder[key] = arrays[name].astype(np.float64).copy()

    def _buffers(self):
        return [(n, leaf) for n, leaf in _leaves(self, "") if isinstance(leaf, tuple)]


class Conv1d(Module):
    def __init__(self, c_in, c_out, kernel, stride=1, padding=0, bias=True, rng=None):
        self.stride = stride
        self.padding = padding
        self.weight = Tensor(kaiming_uniform(rng, (c_out, c_in, kernel), c_in * kernel), requires_grad=True)
        self.bias = Tensor(np.zeros(c_out), requires_grad=True) if bias else None

    def __call__(self, x, train=False):
        return conv1d(x, self.weight, self.bias, self.stride, self.padding)


class ConvTranspose1d(Module):
    def __init__(self, c_in, c_out, kernel, stride=1, padding=0, output_padding=0, bias=True, rng=None):
        self.stride = stride
        self.padding = padding
        self.output_padding = output_padding
        self.weight = Tensor(kaiming_uniform(rng, (c_in, c_out, kernel), c_in * kernel), requires_grad=True)
        self.bias = Tensor(np.zeros(c_out), requires_grad=True) if bias else None

    def __call__(self, x, train=False):
        return conv_transpose1d(x, self.weight, self.bias, self.stride, self.padding, self.output_padding)


class BatchNorm1d(Module):
    def __init__(self, channels):
        self.gamma = Tensor(np.ones(channels), requires_grad=True)
        self.beta = Tensor(np.zeros(channels), requires_grad=True)
        self.running = {"mean": np.zeros(channels), "var": np.ones(channels)}

    def __call__(self, x, train=False):
        return batchnorm1d(x, self.gamma, self.beta, self.running, train)


class Linear(Module):
    def __init__(self, n_in, n_out, bias=True, rng=None):
        self.weight = Tensor(kaiming_uniform(rng, (n_out, n_in), n_in), requires_grad=True)
        self.bias = Tensor(np.zeros(n_out), requires_grad=True) if bias else None

    def __call__(self, x, train=False):
        return linear(x, self.weight, self.bias)


# ---------------------------------------------------------------------------
# Checkpoint format: magic "QDST1", one JSON header line, then the raw
# little-endian float64 payload.  Offsets are element offsets into that
# payload.
# ---------------------------------------------------------------------------

CHECKPOINT_MAGIC = b"QDST1"


def save_checkpoint(path, arch, named_arrays):
    """Write named float64 arrays plus an architecture id to ``path``."""
    entries = []
    offset = 0
    blobs = []
    for name, arr in named_arrays:
        arr = np.ascontiguousarray(arr, dtype="<f8")
        entries.append({"name": name, "shape": list(arr.shape), "offset": offset})
        offset += arr.size
        blobs.append(arr.tobytes())
    header = json.dumps({"arch": arch, "params": entries}, sort_keys=True)
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC + b"\n")
        fh.write(header.encode("utf-8") + b"\n")
        for blob in blobs:
            fh.write(blob)


def load_checkpoint(path):
    """Read a checkpoint; returns (arch, {name: array}).

    A bad magic, an unreadable header (entry names that are not distinct
    strings, shapes or offsets that are not integers), a payload that is
    not whole float64 values, or entries that run past the payload, overlap
    or leave trailing data raise CheckpointError naming ``path``.
    """
    with open(path, "rb") as fh:
        magic = fh.readline().rstrip(b"\n")
        if magic != CHECKPOINT_MAGIC:
            raise CheckpointError(f"bad magic {magic!r} in {path}")
        header_line = fh.readline()
        payload = fh.read()
    try:
        header = json.loads(header_line.decode("utf-8"))
        arch = header["arch"]
        if not isinstance(arch, str):
            raise TypeError(f"arch must be a string, got {arch!r}")
        entries = {}
        for e in header["params"]:
            name, shape, offset = e["name"], e["shape"], e["offset"]
            if not isinstance(name, str) or not all(type(v) is int for v in (*shape, offset)):
                raise TypeError(f"entry {name!r} needs a string name and integer shape and offset")
            if name in entries:
                raise ValueError(f"duplicate entry {name!r}")
            entries[name] = (offset, tuple(shape))
    except (ValueError, KeyError, TypeError, RecursionError) as exc:
        raise CheckpointError(f"unreadable header in {path}: {exc}") from None
    if len(payload) % 8:
        raise CheckpointError(f"payload of {len(payload)} bytes in {path} is not whole float64 values")
    data = np.frombuffer(payload, dtype="<f8")
    arrays = {}
    end = 0
    for name, (start, shape) in sorted(entries.items(), key=lambda item: item[1]):
        size = math.prod(shape)
        if start < 0 or min(shape, default=0) < 0 or start + size > data.size:
            raise CheckpointError(
                f"entry {name!r} (offset {start}, shape {list(shape)}) runs past the "
                f"{data.size}-value payload in {path}"
            )
        if size and start < end:
            raise CheckpointError(f"entry {name!r} at offset {start} overlaps the entry before it in {path}")
        try:
            arrays[name] = data[start : start + size].reshape(shape).copy()
        except ValueError as exc:  # more than 64 dims, or dims too large even for an empty array
            raise CheckpointError(f"entry {name!r} has unusable shape {list(shape)} in {path}: {exc}") from None
        end = max(end, start + size)
    if end != data.size:
        raise CheckpointError(f"{data.size - end} trailing values after the last entry in {path}")
    return arch, arrays
