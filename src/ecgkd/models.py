"""Student architectures and the desk-scale proxy teacher.

All models consume [B, 1, 256] windows.  Documented parameter budgets
(exact counts are asserted in the tests against per-layer sums):

* Cnn1dStudent:      36,001 trainable scalars (budget 33.0k +/- 20%)
* Resnet1dStudent:   3,853,633 (budget 3.8M +/- 20%)
* ConvAutoencoder:   29,255 (budget 25.0k +/- 20%); its 6-dim latent
  feeds the 36-parameter circuit student.
* WideCnnTeacher:    567,937; same block family as the CNN student with
  4x channels, used as the stored-logit oracle.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import BatchNorm1d, Conv1d, ConvTranspose1d, Linear, Module, Tensor

STUDENT_KINDS = ("cnn1d", "resnet1d", "ae_vqc")
LATENT_DIM = 6


class _Block(Module):
    """Conv1d + BatchNorm + ReLU."""

    def __init__(self, c_in, c_out, kernel, stride, padding, rng):
        self.conv = Conv1d(c_in, c_out, kernel, stride, padding, rng=rng)
        self.bn = BatchNorm1d(c_out)

    def __call__(self, x, train=False):
        return ad.relu(self.bn(self.conv(x), train))


def count_params(model) -> int:
    """Number of trainable scalars in a model."""
    return int(sum(t.data.size for _, t in model.named_parameters()))


class Cnn1dStudent(Module):
    """Compact strided CNN: 4 blocks 1->16->32->64->64 (k=5, s=2), global
    average pooling, dropout 0.3, then a 64->32->1 head."""

    arch = "cnn1d"
    channels = (16, 32, 64, 64)

    def __init__(self, seed=0, dropout=0.3, width=1):
        self.rng = np.random.default_rng([seed, 101])
        self.dropout_rate = dropout
        self.blocks = []
        c_in = 1
        for c_out in (width * c for c in self.channels):
            self.blocks.append(_Block(c_in, c_out, kernel=5, stride=2, padding=2, rng=self.rng))
            c_in = c_out
        self.fc1 = Linear(c_in, 32 * width, rng=self.rng)
        self.fc2 = Linear(32 * width, 1, rng=self.rng)

    def forward(self, x: Tensor, train=False) -> Tensor:
        for block in self.blocks:
            x = block(x, train)
        x = ad.global_avg_pool(x)
        x = ad.dropout(x, self.dropout_rate, train, self.rng)
        x = ad.relu(self.fc1(x))
        x = self.fc2(x)
        return ad.reshape(x, (x.shape[0],))


class WideCnnTeacher(Cnn1dStudent):
    """Proxy teacher: the CNN student family at 4x width with a stride-4
    first block so desk-scale training stays fast."""

    arch = "wide_cnn_teacher"

    def __init__(self, seed=0, dropout=0.3):
        super().__init__(seed=seed, dropout=dropout, width=4)
        # Rebuild the first block with stride 4 (same parameter count).
        self.blocks[0] = _Block(1, 4 * self.channels[0], kernel=5, stride=4, padding=2, rng=self.rng)


class _BasicBlock(Module):
    """Two k=3 convolutions with a skip connection; projection shortcut
    (1x1 conv + BN) whenever shape changes."""

    def __init__(self, c_in, c_out, stride, rng):
        self.conv1 = Conv1d(c_in, c_out, 3, stride=stride, padding=1, rng=rng)
        self.bn1 = BatchNorm1d(c_out)
        self.conv2 = Conv1d(c_out, c_out, 3, stride=1, padding=1, rng=rng)
        self.bn2 = BatchNorm1d(c_out)
        if stride != 1 or c_in != c_out:
            self.proj_conv = Conv1d(c_in, c_out, 1, stride=stride, padding=0, rng=rng)
            self.proj_bn = BatchNorm1d(c_out)
        else:
            self.proj_conv = None
            self.proj_bn = None

    def __call__(self, x, train=False):
        branch = ad.relu(self.bn1(self.conv1(x), train))
        branch = self.bn2(self.conv2(branch), train)
        if self.proj_conv is not None:
            skip = self.proj_bn(self.proj_conv(x), train)
        else:
            skip = x
        return ad.relu(ad.add(branch, skip))


class Resnet1dStudent(Module):
    """Residual student: an aggressively strided stem (k=9, s=8) followed
    by four stages of two BasicBlocks at 64/128/256/512 channels, each
    stage halving the temporal length, then global average pooling and a
    linear head."""

    arch = "resnet1d"
    stage_channels = (64, 128, 256, 512)

    def __init__(self, seed=0):
        self.rng = np.random.default_rng([seed, 202])
        self.stem = Conv1d(1, 64, 9, stride=8, padding=4, rng=self.rng)
        self.stem_bn = BatchNorm1d(64)
        self.stages = []
        c_in = 64
        for c_out in self.stage_channels:
            blocks = [
                _BasicBlock(c_in, c_out, 2, self.rng),
                _BasicBlock(c_out, c_out, 1, self.rng),
            ]
            self.stages.append(blocks)
            c_in = c_out
        self.head = Linear(c_in, 1, rng=self.rng)

    def forward(self, x: Tensor, train=False) -> Tensor:
        x = ad.relu(self.stem_bn(self.stem(x), train))
        for blocks in self.stages:
            for block in blocks:
                x = block(x, train)
        x = ad.global_avg_pool(x)
        x = self.head(x)
        return ad.reshape(x, (x.shape[0],))


class ConvAutoencoder(Module):
    """Three stride-4 conv blocks (16/32/64 filters, k=5) down to a length-4
    map, flattened into a 6-dim latent; the decoder mirrors the path with
    transposed convolutions back to 256 samples."""

    arch = "conv_ae"

    def __init__(self, seed=0):
        self.rng = np.random.default_rng([seed, 303])
        self.enc1 = Conv1d(1, 16, 5, stride=4, padding=1, rng=self.rng)
        self.enc2 = Conv1d(16, 32, 5, stride=4, padding=1, rng=self.rng)
        self.enc3 = Conv1d(32, 64, 5, stride=4, padding=1, rng=self.rng)
        self.to_latent = Linear(64 * 4, LATENT_DIM, rng=self.rng)
        self.from_latent = Linear(LATENT_DIM, 64 * 4, rng=self.rng)
        self.dec1 = ConvTranspose1d(64, 32, 5, stride=4, padding=1, output_padding=1, rng=self.rng)
        self.dec2 = ConvTranspose1d(32, 16, 5, stride=4, padding=1, output_padding=1, rng=self.rng)
        self.dec3 = ConvTranspose1d(16, 1, 5, stride=4, padding=1, output_padding=1, rng=self.rng)

    def encode(self, x: Tensor, train=False) -> Tensor:
        x = ad.relu(self.enc1(x))
        x = ad.relu(self.enc2(x))
        x = ad.relu(self.enc3(x))
        x = ad.reshape(x, (x.shape[0], 64 * 4))
        return self.to_latent(x)

    def decode(self, latent: Tensor, train=False) -> Tensor:
        x = ad.relu(self.from_latent(latent))
        x = ad.reshape(x, (x.shape[0], 64, 4))
        x = ad.relu(self.dec1(x))
        x = ad.relu(self.dec2(x))
        return self.dec3(x)

    def forward(self, x: Tensor, train=False) -> Tensor:
        return self.decode(self.encode(x, train), train)


def build_student(kind: str, seed: int = 0):
    if kind == "cnn1d":
        return Cnn1dStudent(seed=seed)
    if kind == "resnet1d":
        return Resnet1dStudent(seed=seed)
    if kind == "ae_vqc":
        return ConvAutoencoder(seed=seed)
    raise ValueError(f"unknown student kind {kind!r}; expected one of {STUDENT_KINDS}")


def save_model(path, model):
    ad.save_checkpoint(path, model.arch, model.state_items())


def load_model(path, seed: int = 0):
    arch, arrays = ad.load_checkpoint(path)
    builders = {
        "cnn1d": Cnn1dStudent,
        "resnet1d": Resnet1dStudent,
        "conv_ae": ConvAutoencoder,
        "wide_cnn_teacher": WideCnnTeacher,
    }
    if arch not in builders:
        raise ad.CheckpointError(f"unknown architecture {arch!r} in {path}")
    model = builders[arch](seed=seed)
    model.load_state(arrays)
    return model
