"""The training recipe (`TrainParams`), Adam, the training step and loop, the
synthetic train/held-out split, and checkpoint persistence.

`TrainParams` is the one description of a training run: `stereomatch train`,
every ablation row and the detach check all build their optimizer from it
and their data with `split`, and score with `heldout_metrics`.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .errors import ConfigError, DataFormatError, ShapeError
from .fileio import _positive
from .losses import total_loss, upsample_disparity
from .metrics import MetricsReport, evaluate
from .model import StereoModel
from .synthetic import StereoSample, synth_stereo


@dataclass
class TrainParams:
    steps: int = 500
    lr: float = 1e-3
    # piecewise-constant decay: lr is multiplied by lr_decay_factor once the
    # step count passes each boundary
    lr_decay_steps: tuple = (300,)
    lr_decay_factor: float = 0.5
    batch_size: int = 1
    data_seed: int = 0
    height: int = 64
    width: int = 128
    mode: str = "slanted_planes"
    constant_disparity: float = 0.0
    train_samples: int = 24
    eval_samples: int = 4

    def validate(self) -> "TrainParams":
        if self.steps < 0 or self.batch_size < 1:
            raise ConfigError(
                f"steps must be >= 0 and batch_size >= 1, got {self.steps}, {self.batch_size}"
            )
        if self.train_samples < 1 or self.eval_samples < 1:
            raise ConfigError("train_samples and eval_samples must be >= 1")
        if self.data_seed < 0:
            raise ConfigError(f"train.data_seed must be >= 0, got {self.data_seed}")
        for key in ("lr", "lr_decay_factor"):
            value = getattr(self, key)
            if not (math.isfinite(value) and value >= 0):
                raise ConfigError(f"train.{key} must be finite and >= 0, got {value!r}")
        # Adam moves a coordinate by at most ~3.2 lr per step (Kingma & Ba,
        # arXiv:1412.6980, sec. 2.1), so a peak rate of 1 keeps every step a
        # few units.  The multiply loop overflows to inf where ** would raise;
        # an inf growth is rejected even at lr = 0, where `Adam.current_lr`
        # would overflow
        growth = 1.0
        for _ in self.lr_decay_steps:
            growth *= max(1.0, self.lr_decay_factor)
        if math.isinf(growth) or self.lr * growth > 1.0:
            raise ConfigError(
                f"peak learning rate train.lr * max(1, train.lr_decay_factor)^"
                f"{len(self.lr_decay_steps)} = {self.lr:g} * {growth:g} must be <= 1"
            )
        return self


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class Adam(object):
    """Adam with bias correction and the piecewise-constant lr schedule of a
    `TrainParams` (its defaults when none is given).

    Moment buffers are keyed by parameter name; parameters whose grad is
    None after a backward pass are skipped.
    """

    def __init__(self, model: StereoModel, train: TrainParams | None = None):
        self.train = train or TrainParams()
        self.params = list(model.named_parameters())
        self.m = {name: np.zeros_like(p.data) for name, p in self.params}
        self.v = {name: np.zeros_like(p.data) for name, p in self.params}
        self.t = 0

    def current_lr(self) -> float:
        t = self.train
        decays = sum(1 for boundary in t.lr_decay_steps if self.t > boundary)
        return t.lr * t.lr_decay_factor**decays

    def step(self) -> None:
        self.t += 1
        lr = self.current_lr()
        for name, p in self.params:
            if p.grad is None:
                continue
            g = p.grad
            m = self.m[name]
            v = self.v[name]
            m *= ADAM_BETA1
            m += (1.0 - ADAM_BETA1) * g
            v *= ADAM_BETA2
            v += (1.0 - ADAM_BETA2) * g * g
            if lr == 0.0:
                continue  # null update must leave parameters bit-identical
            mhat = m / (1.0 - ADAM_BETA1**self.t)
            vhat = v / (1.0 - ADAM_BETA2**self.t)
            p.data -= lr * mhat / (np.sqrt(vhat) + ADAM_EPS)


def stack_samples(samples: list[StereoSample]) -> StereoSample:
    """Concatenate samples along the batch axis."""
    return StereoSample(
        left=ad.Tensor(np.concatenate([s.left.data for s in samples])),
        right=ad.Tensor(np.concatenate([s.right.data for s in samples])),
        gt_disparity=np.concatenate([s.gt_disparity for s in samples]),
        valid_mask=np.concatenate([s.valid_mask for s in samples]),
        occlusion_mask=np.concatenate([s.occlusion_mask for s in samples]),
    )


def sample_loss(model: StereoModel, sample: StereoSample):
    d0, d1 = model(sample.left, sample.right)
    return total_loss(upsample_disparity(d0.values, 4), d1.values,
                      sample.gt_disparity, sample.valid_mask)


def train_step(model: StereoModel, optim: Adam, sample: StereoSample) -> tuple[float, bool]:
    """One forward/backward/update.  A non-finite loss or parameter gradient
    rejects the step: parameters, normalization buffers and optimizer state
    stay untouched and a diagnostic goes to stderr.  Returns (loss value,
    whether the update was applied)."""
    model.zero_grad()
    # the train-mode forward moves the running statistics in place
    buffers = [(b, b.copy()) for _, b in model.named_buffers()]
    loss = sample_loss(model, sample)
    value = loss.item()
    if np.isfinite(value):
        ad.backward(loss, ensure=[p for _, p in optim.params])
        bad = [name for name, p in optim.params
               if p.grad is not None and not np.isfinite(p.grad).all()]
        if not bad:
            optim.step()
            return value, True
        reason = f"non-finite gradient in {len(bad)} parameter(s), first {bad[0]}"
    else:
        reason = f"loss is {value!r}"
    for b, saved in buffers:
        b[...] = saved
    print(f"train_step: rejecting update at optimizer step {optim.t + 1}: {reason}",
          file=sys.stderr)
    return value, False


@dataclass
class FitReport:
    losses: list = field(default_factory=list)
    rejected_steps: int = 0


def fit(model: StereoModel, optim: Adam, dataset: list[StereoSample], steps: int,
        on_step=None) -> FitReport:
    """Cycle through the dataset for a fixed number of steps."""
    if not dataset:
        raise ShapeError("fit needs a non-empty dataset")
    model.train()
    report = FitReport()
    for i in range(steps):
        value, stepped = train_step(model, optim, dataset[i % len(dataset)])
        report.losses.append(value)
        report.rejected_steps += 0 if stepped else 1
        if on_step is not None:
            on_step(i, value)
    return report


def make_dataset(data_seed: int, count: int, height: int, width: int,
                 max_disparity: int, mode: str = "blobs",
                 constant_disparity: float = 0.0) -> list[StereoSample]:
    """Deterministic list of synthetic samples; sample i uses data_seed + i."""
    return [
        synth_stereo(data_seed + i, height, width, max_disparity, mode,
                     constant_disparity)
        for i in range(count)
    ]


def split(train: TrainParams, max_disparity: int) -> tuple[list[StereoSample], StereoSample]:
    """The run's training batches (consecutive groups of batch_size samples
    from data_seed, the last may be shorter, each stacked along the batch
    axis) and its held-out batch (samples from data_seed + 10_000)."""
    def samples(seed, count):
        return make_dataset(seed, count, train.height, train.width, max_disparity,
                            train.mode, train.constant_disparity)

    pool = samples(train.data_seed, train.train_samples)
    return ([stack_samples(pool[i:i + train.batch_size])
             for i in range(0, len(pool), train.batch_size)],
            stack_samples(samples(train.data_seed + 10_000, train.eval_samples)))


def heldout_metrics(model: StereoModel, held: StereoSample) -> MetricsReport:
    """Full-resolution metrics of an eval-mode, no-grad forward over a batch."""
    model.eval()
    with ad.no_grad():
        _, d1 = model(held.left, held.right)
    return evaluate(d1.values, held.gt_disparity, held.valid_mask)


_CHECKPOINT_MAGIC = b"STCKPT1\n"


def checkpoint_bytes(model: StereoModel) -> bytes:
    """Parameters and normalization buffers as named little-endian float64
    arrays, whatever the model's dtype, in `state_arrays` order."""
    arrays = model.state_arrays()
    parts = [_CHECKPOINT_MAGIC, f"{len(arrays)}\n".encode("ascii")]
    for name, arr in arrays.items():
        dims = " ".join(str(d) for d in arr.shape)
        parts += [f"{name} {dims}\n".encode("ascii"),
                  np.ascontiguousarray(arr, dtype="<f8").tobytes()]
    return b"".join(parts)


def load_checkpoint(model: StereoModel, path: str) -> None:
    """Restore a checkpoint in place.  Every stored array must match the
    model's entry of the same name and shape, and vice versa, every value
    must be finite in the model's dtype, and nothing may follow the last
    entry.  The whole file is checked before any array is copied, so a
    rejected checkpoint leaves the model as it was."""
    arrays = model.state_arrays()
    loaded = {}
    with open(path, "rb") as f:
        if f.read(len(_CHECKPOINT_MAGIC)) != _CHECKPOINT_MAGIC:
            raise DataFormatError(f"{path}: not a checkpoint file")
        count = _positive(f.readline().strip(), f"entry count of {path}", len(_CHECKPOINT_MAGIC))
        for _ in range(count):
            line = f.readline()
            try:  # ValueError also covers a bad dim, non-ASCII bytes and an empty header
                name, *dims = line.decode("ascii").split()
                shape = tuple(_positive(d, "dim", f.tell() - len(line)) for d in dims)
            except ValueError:
                raise DataFormatError(f"{path}: malformed entry header {line[:60]!r}") from None
            if name not in arrays:
                raise DataFormatError(f"{path}: unknown entry {name!r}")
            if name in loaded:
                raise DataFormatError(f"{path}: entry {name!r} appears twice")
            if arrays[name].shape != shape:
                raise DataFormatError(
                    f"{path}: {name} has shape {shape}, model expects {arrays[name].shape}"
                )
            n = int(np.prod(shape, dtype=np.int64))
            raw = f.read(n * 8)
            if len(raw) != n * 8:
                raise DataFormatError(f"{path}: truncated data for {name!r}")
            with np.errstate(over="ignore"):  # an overflow is rejected just below
                values = np.frombuffer(raw, dtype="<f8").astype(arrays[name].dtype)
            if not np.isfinite(values).all():
                raise DataFormatError(
                    f"{path}: {name} holds a value that is not finite as {arrays[name].dtype}"
                )
            loaded[name] = values.reshape(shape)
        if f.read(1):
            raise DataFormatError(f"{path}: unexpected data after the last entry")
    missing = [n for n in arrays if n not in loaded]
    if missing:
        raise DataFormatError(f"{path}: checkpoint is missing entries {missing}")
    for name, values in loaded.items():
        arrays[name][...] = values
