"""The benchmark workloads.

Each workload builds its inputs from the seed in :meth:`prepare`, runs one
operation per :meth:`op` call, and checks that operation's output in
:meth:`check`, outside the op's timing.  A failed check or an exception
counts the op as failed.  All of them call the library directly: the CLI
adds only argument parsing and manifests.
"""

from __future__ import annotations

import hashlib

import numpy as np

from stereomatch import autodiff as ad
from stereomatch import fileio, metrics, synthetic, training
from stereomatch.model import ModelConfig, StereoModel


def digest(arrays) -> str:
    """Short SHA-256 of the float64 bytes of a sequence of arrays/values."""
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    return h.hexdigest()[:16]


def d1_in_range(d1: np.ndarray, shape: tuple, max_disparity: int) -> bool:
    """The infer output gate: right shape, finite, and inside
    [0, max_disparity - 4].  Convex upsampling of a top-2 readout over
    max_disparity/4 quarter-resolution candidates cannot leave that range."""
    return (d1.shape == shape and bool(np.isfinite(d1).all())
            and d1.min() >= 0.0 and d1.max() <= max_disparity - 4)


def _to_bytes(image: ad.Tensor) -> np.ndarray:
    """[1,3,H,W] floats in [0,1] -> [H,W,3] uint8, as a PPM file stores them."""
    return np.round(np.clip(image.data[0], 0.0, 1.0) * 255.0).astype(np.uint8).transpose(1, 2, 0)


class TrainWorkload:
    """One op is one ``train_step`` at 64x128, batch 1, default config.

    Training runs in episodes of ``steps`` steps, each from the same
    seed-built model and a fresh Adam, and ends with a no-grad held-out
    evaluation.  Every episode repeats the first one's arithmetic, so each
    step's loss must equal the first episode's bit for bit.
    """

    name = "train_64x128"
    height, width = 64, 128

    def __init__(self, seed: int, steps: int = 16, train_pairs: int = 8,
                 heldout_pairs: int = 4):
        self.seed = seed
        self.steps = steps
        self.train_pairs = train_pairs
        self.heldout_pairs = heldout_pairs
        self.config = ModelConfig(seed=seed)
        self.losses: list[float] = []      # the first episode's trajectory
        self.heldout_epe = None
        self.episodes = 0
        self._step = 0

    def _new_model(self) -> None:
        self.model = StereoModel(self.config)
        self.model.train()
        self.optim = training.Adam(self.model)

    def prepare(self) -> None:
        maxd = self.config.matching.max_disparity
        self.data = [synthetic.synth_stereo(self.seed * 1000 + i, self.height, self.width,
                                            maxd, "slanted_planes")
                     for i in range(self.train_pairs)]
        self.heldout = training.stack_samples([
            synthetic.synth_stereo(self.seed * 1000 + 500 + i, self.height, self.width,
                                   maxd, "slanted_planes")
            for i in range(self.heldout_pairs)])
        self._new_model()
        training.train_step(self.model, self.optim, self.data[0])   # warm-up
        self.params = self.model.param_count()
        self._step = 0

    def minimum_done(self) -> bool:
        return self.episodes >= 1

    def before_op(self) -> None:
        if self._step == 0:
            self._new_model()

    def op(self):
        return training.train_step(self.model, self.optim,
                                   self.data[self._step % self.train_pairs])

    def check(self, result) -> bool:
        value, stepped = result
        ok = bool(stepped) and bool(np.isfinite(value))
        if self.episodes == 0:
            self.losses.append(value)
        else:
            ok = ok and value == self.losses[self._step]
        self._step += 1
        if self._step == self.steps:
            ok = self._evaluate() and ok
            self._step = 0
            self.episodes += 1
        return ok

    def _evaluate(self) -> bool:
        self.model.eval()
        with ad.no_grad():
            _, d1 = self.model(self.heldout.left, self.heldout.right)
        epe = metrics.evaluate(d1.values, self.heldout.gt_disparity,
                               self.heldout.valid_mask).epe_px
        if self.episodes == 0:
            self.heldout_epe = epe
        return bool(np.isfinite(epe)) and epe == self.heldout_epe

    def info(self) -> dict:
        return {"loss_digest": digest([self.losses]), "heldout_epe_px": self.heldout_epe,
                "episode_steps": self.steps, "episodes_completed": self.episodes,
                "params": self.params}


class InferWorkload:
    """One op decodes a PPM pair, runs a no-grad forward at 256x512 and
    encodes d1 as PFM, like ``stereomatch infer``.  Two seed-generated pairs
    alternate; every repeat of a pair must give its first d1 bit for bit."""

    name = "infer_256x512"

    pairs = 2

    def __init__(self, seed: int, height: int = 256, width: int = 512):
        self.seed = seed
        self.height, self.width = height, width
        self.config = ModelConfig(seed=seed)
        self.first_d1: list = [None] * self.pairs
        self._i = 0

    def prepare(self) -> None:
        self.model = StereoModel(self.config)
        self.model.eval()
        self.params = self.model.param_count()
        self.ppm = []
        for i in range(self.pairs):
            s = synthetic.synth_stereo(self.seed * 1000 + i, self.height, self.width,
                                       self.config.matching.max_disparity,
                                       "slanted_planes")
            self.ppm.append(tuple(fileio.write_ppm(_to_bytes(t)) for t in (s.left, s.right)))
        self.op()   # warm-up
        self._i = 0

    def minimum_done(self) -> bool:
        return True

    def before_op(self) -> None:
        pass

    def op(self):
        left_ppm, right_ppm = self.ppm[self._i % self.pairs]
        left, right = (ad.Tensor(fileio.read_ppm(b).transpose(2, 0, 1)[None] / 255.0)
                       for b in (left_ppm, right_ppm))
        with ad.no_grad():
            _, d1 = self.model(left, right)
        field = d1.values.data
        return field, fileio.write_pfm(field[0, 0].astype(np.float32))

    def check(self, result) -> bool:
        field, pfm = result
        slot = self._i % self.pairs
        self._i += 1
        shape = (1, 1, self.height, self.width)
        ok = d1_in_range(field, shape, self.config.matching.max_disparity)
        decoded, _ = fileio.read_pfm(pfm)
        ok = ok and np.array_equal(decoded, field[0, 0].astype(np.float32))
        if self.first_d1[slot] is None:
            self.first_d1[slot] = field.copy()
        return ok and np.array_equal(field, self.first_d1[slot])

    def info(self) -> dict:
        return {"d1_digest": digest([self.first_d1[0]]), "params": self.params}


WORKLOADS = {w.name: w for w in (TrainWorkload, InferWorkload)}
