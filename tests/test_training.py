"""Adam updates, schedules, checkpoints, and the training loop."""

import os
import tracemalloc
import warnings

import numpy as np
import pytest

from stereomatch import autodiff as ad
from stereomatch import losses, nn, regression
from stereomatch import model as model_module
from stereomatch.backbone import BackboneConfig
from stereomatch.correlation import MatchingConfig
from stereomatch.errors import DataFormatError
from stereomatch.model import ModelConfig, StereoModel
from stereomatch.synthetic import StereoSample, synth_stereo
from stereomatch.training import (
    _CHECKPOINT_MAGIC,
    Adam,
    TrainParams,
    checkpoint_bytes,
    fit,
    load_checkpoint,
    make_dataset,
    sample_loss,
    stack_samples,
    train_step,
)

from reference import adam_trajectory_naive


def tiny_model(seed=0, **overrides):
    kw = dict(
        backbone=BackboneConfig(stem_channels=4, channels=(8, 10, 12, 14)),
        matching=MatchingConfig(max_disparity=32, corr_channels=4),
        seed=seed,
    )
    kw.update(overrides)
    return StereoModel(ModelConfig(**kw))


def tiny_sample(seed=0, mode="blobs"):
    return synth_stereo(seed, height=32, width=64, max_disparity=32, mode=mode)


def stored_entries(blob):
    """(name, offset of its data, its float64 values) for each entry of
    checkpoint bytes, walked by the header lines and the sizes they give."""
    at = blob.index(b"\n", len(_CHECKPOINT_MAGIC)) + 1
    while at < len(blob):
        end = blob.index(b"\n", at) + 1
        name, *dims = blob[at:end].decode("ascii").split()
        size = 8 * int(np.prod([int(d) for d in dims]))
        yield name, end, np.frombuffer(blob[end:end + size], "<f8")
        at = end + size


def poke(path, name, value):
    """Overwrite the first stored value of checkpoint entry `name`."""
    blob = bytearray(path.read_bytes())
    at = next(at for entry, at, _ in stored_entries(bytes(blob)) if entry == name)
    blob[at:at + 8] = np.array([value], "<f8").tobytes()
    path.write_bytes(bytes(blob))


class _Scalar(nn.Module):
    def __init__(self, value):
        super().__init__()
        self.w = nn.Parameter(np.array([value]))


class TestAdam:
    def test_matches_scalar_oracle_for_five_steps(self):
        holder = _Scalar(5.0)
        optim = Adam(holder, TrainParams(lr=0.1, lr_decay_steps=()))
        grads, history = [], []
        for _ in range(5):
            holder.zero_grad()
            err = ad.sub(holder.w, 3.0)
            loss = ad.tsum(ad.mul(err, err))
            grads.append(2.0 * (holder.w.data[0] - 3.0))
            ad.backward(loss)
            optim.step()
            history.append(holder.w.data[0])
        want = adam_trajectory_naive(5.0, grads, lr=0.1)
        assert np.abs(np.array(history) - np.array(want)).max() <= 1e-12

    def test_zero_lr_is_bitwise_noop(self):
        model = tiny_model()
        before = {k: v.copy() for k, v in model.state_arrays().items()}
        optim = Adam(model, TrainParams(lr=0.0))
        s = tiny_sample()
        for _ in range(2):
            value, stepped = train_step(model, optim, s)
            assert stepped
        for name, p in model.named_parameters():
            assert np.array_equal(p.data, before[name]), name
        # the schedule state still advanced and moments accumulated
        assert optim.t == 2
        assert any(np.any(m != 0) for m in optim.m.values())

    def test_piecewise_schedule(self):
        optim = Adam(_Scalar(0.0), TrainParams(lr=1e-3, lr_decay_steps=(300, 400),
                                               lr_decay_factor=0.5))
        for t, lr in [(1, 1e-3), (300, 1e-3), (301, 5e-4), (400, 5e-4), (401, 2.5e-4)]:
            optim.t = t
            assert optim.current_lr() == pytest.approx(lr, rel=0, abs=0)

    def test_none_grads_are_skipped(self):
        holder = _Scalar(1.0)
        optim = Adam(holder, TrainParams(lr=0.1))
        optim.step()  # no backward ran; grad is None
        assert holder.w.data[0] == 1.0


class TestTrainStep:
    def test_nonfinite_loss_rejects_update(self, capsys):
        model = tiny_model()
        optim = Adam(model)
        s = tiny_sample()
        bad_gt = s.gt_disparity.copy()
        bad_gt[0, 0, 5, 5] = np.nan
        mask = s.valid_mask.copy()
        mask[0, 0, 5, 5] = True
        broken = StereoSample(s.left, s.right, bad_gt, mask, s.occlusion_mask)
        before = {k: v.copy() for k, v in model.state_arrays().items()}
        value, stepped = train_step(model, optim, broken)
        assert not stepped
        assert not np.isfinite(value)
        assert optim.t == 0
        assert "rejecting update" in capsys.readouterr().err
        for name, arr in model.state_arrays().items():
            assert np.array_equal(arr, before[name]), name

    def test_nonfinite_gradient_rejects_update(self, capsys, monkeypatch):
        model = tiny_model()
        optim = Adam(model)
        real_backward = ad.backward

        def poisoned_backward(loss, ensure=()):
            real_backward(loss, ensure)
            p = optim.params[3][1]
            p.grad = np.array(p.grad)
            p.grad.flat[0] = np.nan

        monkeypatch.setattr(ad, "backward", poisoned_backward)
        before = {name: p.data.copy() for name, p in model.named_parameters()}
        value, stepped = train_step(model, optim, tiny_sample())
        assert np.isfinite(value)
        assert not stepped
        assert optim.t == 0
        assert all(not m.any() for m in optim.m.values())
        assert all(not v.any() for v in optim.v.values())
        assert "non-finite gradient" in capsys.readouterr().err
        for name, p in model.named_parameters():
            assert np.array_equal(p.data, before[name]), name

    def test_loss_decreases_on_fixed_batch(self):
        # median over 3 seeds: final loss under the initial loss
        wins = 0
        for seed in range(3):
            model = tiny_model(seed=seed)
            data = [tiny_sample(seed=100 + seed)]
            report = fit(model, Adam(model), data, steps=50)
            assert report.rejected_steps == 0
            wins += np.mean(report.losses[-5:]) < np.mean(report.losses[:5])
        assert wins >= 2

    def test_fit_requires_data(self):
        model = tiny_model()
        with pytest.raises(Exception):
            fit(model, Adam(model), [], steps=1)

    def test_data_seed_does_not_touch_init(self):
        a = tiny_model(seed=7)
        b = tiny_model(seed=7)
        make_dataset(1, 1, 32, 64, 32)
        make_dataset(2, 1, 32, 64, 32)
        for (name, pa), (_, pb) in zip(a.named_parameters(), b.named_parameters()):
            assert np.array_equal(pa.data, pb.data), name

    def test_stack_samples(self):
        batch = stack_samples([tiny_sample(0), tiny_sample(1)])
        assert batch.left.shape == (2, 3, 32, 64)
        assert batch.gt_disparity.shape == (2, 1, 32, 64)
        assert batch.valid_mask.dtype == bool


class TestCheckpoint:
    def test_roundtrip_restores_forward_bitwise(self, tmp_path):
        model = tiny_model(seed=1)
        data = [tiny_sample(2)]
        fit(model, Adam(model), data, steps=3)  # move params and BN buffers
        model.eval()
        s = tiny_sample(3)
        with ad.no_grad():
            want = model(s.left, s.right)[1].values.data
        path = tmp_path / "model.ckpt"
        path.write_bytes(checkpoint_bytes(model))

        fresh = tiny_model(seed=99)  # different init, same architecture
        load_checkpoint(fresh, str(path))
        fresh.eval()
        with ad.no_grad():
            got = fresh(s.left, s.right)[1].values.data
        assert np.array_equal(got, want)

    def test_float32_state_roundtrips_bitwise_through_f8(self, tmp_path):
        """The float32 model's state survives a save and load bit for bit;
        on disk every entry is little-endian float64."""
        model = tiny_model(seed=1)
        fit(model, Adam(model), [tiny_sample(2)], steps=2)
        path = tmp_path / "model.ckpt"
        path.write_bytes(checkpoint_bytes(model))
        state = model.state_arrays()
        blob = path.read_bytes()
        stored = {name: values for name, _, values in stored_entries(blob)}
        assert list(stored) == list(state)
        for name, values in stored.items():
            assert np.array_equal(values, state[name].reshape(-1).astype(np.float64)), name

        fresh = tiny_model(seed=99)
        load_checkpoint(fresh, str(path))
        for key, a in fresh.state_arrays().items():
            assert a.dtype == np.float32, key
            assert a.tobytes() == state[key].tobytes(), key
        assert checkpoint_bytes(fresh) == blob

    @pytest.mark.parametrize("value", [np.nan, -np.inf, 1e39])
    def test_value_not_finite_in_model_dtype_rejected(self, tmp_path, value):
        """NaN, an infinity, or a finite value past float32's range (which
        would load as inf) is rejected with the entry's name and without a
        warning; the model stays as it was."""
        path = tmp_path / "model.ckpt"
        source = tiny_model(seed=1)
        path.write_bytes(checkpoint_bytes(source))
        name = list(source.state_arrays())[-1]   # every other entry is valid
        poke(path, name, value)
        model = tiny_model(seed=2)
        before = {n: a.tobytes() for n, a in model.state_arrays().items()}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataFormatError, match=f"{name} holds a value that is not finite"):
                load_checkpoint(model, str(path))
        assert {n: a.tobytes() for n, a in model.state_arrays().items()} == before

    def test_shape_mismatch_rejected(self, tmp_path):
        path = tmp_path / "model.ckpt"
        path.write_bytes(checkpoint_bytes(tiny_model()))
        other = tiny_model(backbone=BackboneConfig(stem_channels=6,
                                                   channels=(8, 10, 12, 14)))
        with pytest.raises(DataFormatError, match="shape"):
            load_checkpoint(other, str(path))

    def test_missing_and_unknown_entries_rejected(self, tmp_path):
        path = tmp_path / "model.ckpt"
        path.write_bytes(checkpoint_bytes(tiny_model(afv_enabled=False)))
        with pytest.raises(DataFormatError, match="missing"):
            load_checkpoint(tiny_model(afv_enabled=True), str(path))
        path.write_bytes(checkpoint_bytes(tiny_model(afv_enabled=True)))
        with pytest.raises(DataFormatError, match="unknown"):
            load_checkpoint(tiny_model(afv_enabled=False), str(path))

    def test_not_a_checkpoint(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"garbage")
        with pytest.raises(DataFormatError, match="not a checkpoint"):
            load_checkpoint(tiny_model(), str(path))

    def test_truncated_checkpoint(self, tmp_path):
        path = tmp_path / "model.ckpt"
        path.write_bytes(checkpoint_bytes(tiny_model()))
        path.write_bytes(path.read_bytes()[:-100])
        with pytest.raises(DataFormatError, match="truncated"):
            load_checkpoint(tiny_model(), str(path))

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "model.ckpt"
        path.write_bytes(checkpoint_bytes(tiny_model()))
        path.write_bytes(path.read_bytes() + b"\0" * 28)
        with pytest.raises(DataFormatError, match="after the last entry"):
            load_checkpoint(tiny_model(), str(path))

    def test_repeated_entry_rejected(self, tmp_path):
        path = tmp_path / "model.ckpt"
        source = tiny_model(seed=1)
        path.write_bytes(checkpoint_bytes(source))
        magic, count, body = path.read_bytes().split(b"\n", 2)
        name, bias = next((n, a) for n, a in source.state_arrays().items()
                          if n.endswith("bias"))
        values = (bias + 1.0).astype("<f8").tobytes()
        second = f"{name} {bias.shape[0]}\n".encode("ascii") + values
        count = str(int(count) + 1).encode("ascii")
        path.write_bytes(b"\n".join([magic, count, body]) + second)
        model = tiny_model(seed=2)
        before = {n: a.tobytes() for n, a in model.state_arrays().items()}
        with pytest.raises(DataFormatError, match=f"{name!r} appears twice"):
            load_checkpoint(model, str(path))
        assert {n: a.tobytes() for n, a in model.state_arrays().items()} == before

    @pytest.mark.parametrize("old,new,message", [
        (b"\n161\n", b"\n+161\n", "entry count"),
        (b"\n161\n", b"\n1_61\n", "entry count"),
        (b"\nbackbone.stem.conv.weight 16 ", b"\nbackbone.stem.conv.weight +16 ",
         "malformed entry header"),
    ], ids=["count-sign", "count-underscore", "dim-sign"])
    def test_header_integers_are_plain_decimal(self, tmp_path, old, new, message):
        """int() would take a sign or a '_' separator in the entry count or a
        dim, and the default model would load these files; they raise and
        leave the model as it was."""
        path = tmp_path / "model.ckpt"
        path.write_bytes(checkpoint_bytes(StereoModel(ModelConfig(seed=1))))
        blob = path.read_bytes()
        assert blob.count(old) == 1
        path.write_bytes(blob.replace(old, new))
        model = StereoModel(ModelConfig(seed=2))
        before = {n: a.tobytes() for n, a in model.state_arrays().items()}
        with pytest.raises(DataFormatError, match=message):
            load_checkpoint(model, str(path))
        assert {n: a.tobytes() for n, a in model.state_arrays().items()} == before

    def test_rejected_load_leaves_model_untouched(self, tmp_path):
        path = tmp_path / "model.ckpt"
        path.write_bytes(checkpoint_bytes(tiny_model(seed=1)))
        path.write_bytes(path.read_bytes() + b"junk")
        model = tiny_model(seed=2)
        before = {name: a.tobytes() for name, a in model.state_arrays().items()}
        with pytest.raises(DataFormatError, match="after the last entry"):
            load_checkpoint(model, str(path))
        after = {name: a.tobytes() for name, a in model.state_arrays().items()}
        assert after == before

    def test_failed_save_leaves_existing_checkpoint(self, tmp_path, monkeypatch):
        model = tiny_model()
        path = tmp_path / "model.ckpt"
        path.write_bytes(checkpoint_bytes(model))
        before = path.read_bytes()
        # the last entry cannot be encoded, so the encoder fails after the
        # others, and before a byte of the file is written
        arrays = dict(model.state_arrays(), broken=np.array(["not a number"]))
        monkeypatch.setattr(model, "state_arrays", lambda: arrays)
        with pytest.raises(ValueError):
            path.write_bytes(checkpoint_bytes(model))
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["model.ckpt"]


def test_rejected_step_leaves_bn_buffers_untouched(capsys):
    """One NaN pixel in the left image makes the loss NaN; the rejected step
    restores the running statistics its train-mode forward moved, so a later
    eval stays finite."""
    model = tiny_model()
    optim = Adam(model)
    s = tiny_sample()
    left = s.left.data.copy()
    left[0, 0, 7, 9] = np.nan
    broken = StereoSample(ad.Tensor(left), s.right, s.gt_disparity, s.valid_mask,
                          s.occlusion_mask)
    before = {name: b.copy() for name, b in model.named_buffers()}
    value, stepped = train_step(model, optim, broken)
    assert not stepped and not np.isfinite(value)
    assert "rejecting update" in capsys.readouterr().err
    for name, b in model.named_buffers():
        assert np.array_equal(b, before[name]), name
    model.eval()
    with ad.no_grad():
        _, d1 = model(s.left, s.right)
    assert np.isfinite(d1.values.data).all()


def test_default_train_step_runs_in_float32(monkeypatch):
    """In one default-config train step every conv input, kernel and output
    is float32, and so is every parameter gradient, buffer and Adam moment,
    and both disparity maps: a stray float64 constant would promote the
    whole path behind it."""
    seen = []
    for op in ("conv2d", "conv3d", "conv_transpose2d", "conv_transpose3d"):
        def spy(x, w, *rest, _real=getattr(ad, op), _op=op):
            out = _real(x, w, *rest)
            seen.append((_op, x.data.dtype, w.data.dtype, out.data.dtype))
            return out
        monkeypatch.setattr(ad, op, spy)
    model = StereoModel(ModelConfig())
    optim = Adam(model)
    sample = synth_stereo(0, height=64, width=128, max_disparity=64, mode="slanted_planes")
    assert train_step(model, optim, sample)[1]
    assert {op for op, *_ in seen} == {"conv2d", "conv3d", "conv_transpose2d",
                                       "conv_transpose3d"}
    assert {dtype for _, *dtypes in seen for dtype in dtypes} == {np.dtype(np.float32)}
    for name, p in model.named_parameters():
        assert p.data.dtype == p.grad.dtype == np.float32, name
        assert optim.m[name].dtype == optim.v[name].dtype == np.float32, name
    for name, b in model.named_buffers():
        assert b.dtype == np.float32, name
    d0, d1 = model(sample.left, sample.right)
    assert d0.values.data.dtype == d1.values.data.dtype == np.float32


def test_backward_frees_the_graph_of_a_default_step():
    """tracemalloc over one default-config float32 train step at 64x128: the
    sweep's peak stays within 1.25x the bytes live at the end of the forward
    (measured 1.04; a sweep that keeps every interior gradient and saved
    activation to its end reads 2.27), and afterwards little more than the
    parameter gradients is live (measured 0.14 MB more; 17.5 MB more when
    the sweep keeps them)."""
    model = StereoModel(ModelConfig())
    model.train()
    params = [p for _, p in model.named_parameters()]
    sample = synth_stereo(0, height=64, width=128, max_disparity=64, mode="slanted_planes")
    tracemalloc.start()
    try:
        loss = sample_loss(model, sample)
        forward_live = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        ad.backward(loss, ensure=params)
        after, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * forward_live, peak / forward_live
    grad_bytes = sum(p.grad.nbytes for p in params)
    assert after <= grad_bytes + 2**20, (after - grad_bytes) / 1e6


def _default_step_in(dtype, seed, monkeypatch):
    """One default-config train step with the model computing in `dtype`.
    Returns the loss, every parameter gradient in float64, and the discrete
    choices the step made: the sign of every leaky-ReLU input, the top-2
    indices and the smooth-L1 branch of every pixel."""
    monkeypatch.setattr(model_module, "DTYPE", dtype)
    choices = []
    real_bn, real_leaky = ad.batch_norm, ad.leaky_relu
    real_top2, real_l1 = regression.top2_softargmax, losses.smooth_l1

    def bn(*args, **kwargs):
        out = real_bn(*args, **kwargs)
        choices.append(out.data >= 0)  # the same sign as its leaky input
        return out

    def leaky(t, slope):
        choices.append(t.data >= 0)
        return real_leaky(t, slope)

    def top2(cost):
        choices.append(np.argsort(-cost.data, axis=2, kind="stable")[:, :, :2])
        return real_top2(cost)

    def l1(pred, gt, mask, beta=1.0):
        choices.append(np.abs(pred.data - gt) < beta)
        return real_l1(pred, gt, mask, beta)

    with monkeypatch.context() as spies:
        spies.setattr(ad, "batch_norm", bn)
        spies.setattr(ad, "leaky_relu", leaky)
        spies.setattr(regression, "top2_softargmax", top2)
        spies.setattr(losses, "smooth_l1", l1)
        model = StereoModel(ModelConfig())
        sample = synth_stereo(seed, height=64, width=128, max_disparity=64,
                              mode="slanted_planes")
        loss, stepped = train_step(model, Adam(model), sample)
    assert stepped
    grads = {name: p.grad.astype(np.float64) for name, p in model.named_parameters()}
    return loss, grads, choices


def test_float32_step_matches_float64(monkeypatch):
    """The float32 model's default train step against the same step with
    model.DTYPE patched to float64, at sample seeds 0-5.

    The loss agrees to 1e-6 relative (measured: at most 8e-8).  Each
    parameter's gradient agrees to 1e-4 relative in norm (measured: at most
    3.3e-6) wherever both runs make the same discrete choices.  Where a
    choice flips between the dtypes (a leaky ReLU input on the other side of
    0, a different top-2 pick or smooth-L1 branch), the gradient is a
    different, equally valid one-sided derivative; seed 3 flips one leaky
    input of the last decoder batch norm, and its gradients then differ by
    up to 7.6e-3, so such a seed is held to 5e-2."""
    matched = 0
    for seed in range(6):
        loss32, grads32, choices32 = _default_step_in(np.float32, seed, monkeypatch)
        loss64, grads64, choices64 = _default_step_in(np.float64, seed, monkeypatch)
        assert abs(loss32 - loss64) <= 1e-6 * abs(loss64), seed
        same = len(choices32) == len(choices64) and all(
            np.array_equal(a, b) for a, b in zip(choices32, choices64))
        matched += same
        bound = 1e-4 if same else 5e-2
        for name, want in grads64.items():
            err = np.linalg.norm(grads32[name] - want) / np.linalg.norm(want)
            assert err <= bound, (seed, name, err)
    assert matched >= 4  # the tight bound is what the test is for
