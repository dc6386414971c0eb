"""Adam optimization, the training step, and checkpoint persistence."""

from __future__ import annotations

import sys
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .errors import DataFormatError, ShapeError
from .fileio import atomic_write
from .losses import total_loss, upsample_disparity
from .model import StereoModel
from .synthetic import StereoSample, synth_stereo


@dataclass
class OptimConfig:
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    # piecewise-constant decay: lr is multiplied by decay_factor once the
    # step count passes each boundary
    decay_steps: tuple[int, ...] = (300,)
    decay_factor: float = 0.5


class Adam(object):
    """Adam with bias correction and a piecewise-constant lr schedule.

    Moment buffers are keyed by parameter name; parameters whose grad is
    None after a backward pass are skipped.
    """

    def __init__(self, model: StereoModel, config: OptimConfig | None = None):
        self.config = config or OptimConfig()
        self.params = list(model.named_parameters())
        self.m = {name: np.zeros_like(p.data) for name, p in self.params}
        self.v = {name: np.zeros_like(p.data) for name, p in self.params}
        self.t = 0

    def current_lr(self) -> float:
        c = self.config
        decays = sum(1 for boundary in c.decay_steps if self.t > boundary)
        return c.lr * c.decay_factor**decays

    def step(self) -> None:
        c = self.config
        self.t += 1
        lr = self.current_lr()
        for name, p in self.params:
            if p.grad is None:
                continue
            g = p.grad
            m = self.m[name]
            v = self.v[name]
            m *= c.beta1
            m += (1.0 - c.beta1) * g
            v *= c.beta2
            v += (1.0 - c.beta2) * g * g
            if lr == 0.0:
                continue  # null update must leave parameters bit-identical
            mhat = m / (1.0 - c.beta1**self.t)
            vhat = v / (1.0 - c.beta2**self.t)
            p.data -= lr * mhat / (np.sqrt(vhat) + c.eps)


def stack_samples(samples: list[StereoSample]) -> StereoSample:
    """Concatenate samples along the batch axis."""
    return StereoSample(
        left=ad.Tensor(np.concatenate([s.left.data for s in samples])),
        right=ad.Tensor(np.concatenate([s.right.data for s in samples])),
        gt_disparity=np.concatenate([s.gt_disparity for s in samples]),
        valid_mask=np.concatenate([s.valid_mask for s in samples]),
        occlusion_mask=np.concatenate([s.occlusion_mask for s in samples]),
    )


def batches(samples: list[StereoSample], batch_size: int) -> list[StereoSample]:
    """Consecutive groups of batch_size samples (the last may be shorter),
    each stacked along the batch axis."""
    return [stack_samples(samples[i:i + batch_size])
            for i in range(0, len(samples), batch_size)]


def sample_loss(model: StereoModel, sample: StereoSample):
    d0, d1 = model(sample.left, sample.right)
    return total_loss(
        upsample_disparity(d0.values, 4),
        d1.values,
        sample.gt_disparity,
        sample.valid_mask,
        model.config.loss,
    )


def train_step(model: StereoModel, optim: Adam, sample: StereoSample) -> tuple[float, bool]:
    """One forward/backward/update.  A non-finite loss or parameter gradient
    rejects the step: parameters and optimizer state stay untouched and a
    diagnostic goes to stderr.  Returns (loss value, whether the update was
    applied)."""
    model.zero_grad()
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


_CHECKPOINT_MAGIC = b"STCKPT1\n"


def save_checkpoint(model: StereoModel, path: str) -> None:
    """Parameters and normalization buffers as named little-endian float64
    arrays, in registration order.  An existing file at `path` is replaced
    only once the whole checkpoint is written."""
    arrays = model.state_arrays()
    with atomic_write(path) as f:
        f.write(_CHECKPOINT_MAGIC)
        f.write(f"{len(arrays)}\n".encode("ascii"))
        for name, arr in arrays.items():
            dims = " ".join(str(d) for d in arr.shape)
            f.write(f"{name} {dims}\n".encode("ascii"))
            f.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def load_checkpoint(model: StereoModel, path: str) -> None:
    """Restore a checkpoint in place.  Every stored array must match the
    model's entry of the same name and shape, and vice versa, and nothing may
    follow the last entry.  The whole file is checked before any array is
    copied, so a rejected checkpoint leaves the model as it was."""
    arrays = model.state_arrays()
    loaded = {}
    with open(path, "rb") as f:
        if f.read(len(_CHECKPOINT_MAGIC)) != _CHECKPOINT_MAGIC:
            raise DataFormatError(f"{path}: not a checkpoint file")
        try:
            count = int(f.readline())
        except ValueError:
            raise DataFormatError(f"{path}: entry count is not an integer") from None
        for _ in range(count):
            line = f.readline()
            try:  # ValueError also covers non-ASCII bytes and an empty header
                name, *dims = line.decode("ascii").split()
                shape = tuple(int(d) for d in dims)
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
            loaded[name] = np.frombuffer(raw, dtype="<f8").reshape(shape)
        if f.read(1):
            raise DataFormatError(f"{path}: unexpected data after the last entry")
    missing = [n for n in arrays if n not in loaded]
    if missing:
        raise DataFormatError(f"{path}: checkpoint is missing entries {missing}")
    for name, values in loaded.items():
        arrays[name][...] = values
