"""Acceptance gate: the end-to-end contracts the finished system must honor.

One test per contract, each asserting the pinned tolerance and printing a
single PASS line with the measured numbers (visible under pytest -s).
"""

import json
import time

import numpy as np
import pytest

import stereomatch.autodiff as ad
from reference import (
    cgf_naive,
    correlation_naive,
    project1x1_naive,
    top2_softargmax_naive,
)
from stereomatch.ablation import AXES, config_rows, verify_detach
from stereomatch.aggregation import ContextGeometryFusion
from stereomatch.backbone import BackboneConfig
from stereomatch.cli import main
from stereomatch.correlation import (
    EPSILON,
    AttentionFeatureVolume,
    MatchingConfig,
    build_correlation,
)
from stereomatch.fileio import read_pfm, save_sample, write_pfm
from stereomatch.gradchecks import gradcheck_suite
from stereomatch.metrics import evaluate
from stereomatch.model import ModelConfig, StereoModel
from stereomatch.regression import top2_regression, top2_softargmax
from stereomatch.synthetic import synth_stereo
from stereomatch.training import Adam, TrainParams, fit, make_dataset, stack_samples


def small_config():
    return ModelConfig(
        backbone=BackboneConfig(stem_channels=4, channels=(6, 8, 10, 12)),
        matching=MatchingConfig(max_disparity=32, corr_channels=4),
    )


def test_gradient_soundness():
    # every primitive and every composite block agrees with central finite
    # differences (h = 1e-3) to 1e-4 relative, in well under two minutes
    started = time.perf_counter()
    errors = {name: float(thunk()) for name, thunk in gradcheck_suite()}
    elapsed = time.perf_counter() - started

    assert len(errors) >= 40
    for block in ("backbone_stage", "correlation_left", "correlation_right",
                  "attention_volume", "cgf_geometry", "cgf_context",
                  "encoder_stage", "decoder_stage", "top2_regression",
                  "superpixel_upsample", "bilinear_upsample", "smooth_l1_loss",
                  "total_loss"):
        assert block in errors
    worst = max(errors.values())
    assert worst <= 1e-4, f"worst block error {worst:.3e}"
    assert elapsed < 120.0
    print(f"PASS gradient soundness: {len(errors)} blocks, "
          f"worst rel err {worst:.3e} <= 1e-4, {elapsed:.1f}s < 120s")


def test_oracle_equivalence():
    # vectorized implementations vs independent scalar-loop oracles
    worst_corr = worst_afv = worst_cgf = worst_top2 = 0.0
    for seed in range(5):
        rng = np.random.default_rng(seed)

        f_l = rng.standard_normal((1, 4, 6, 8))
        f_r = rng.standard_normal((1, 4, 6, 8))
        cfg = MatchingConfig(max_disparity=16, corr_channels=4)
        got = build_correlation(ad.Tensor(f_l), ad.Tensor(f_r), cfg).data
        want = correlation_naive(f_l, f_r, 4, EPSILON)
        worst_corr = max(worst_corr, np.abs(got - want).max())

        afv = AttentionFeatureVolume(6, cfg, np.random.default_rng(50 + seed))
        ctx = rng.standard_normal((1, 6, 3, 4))
        a_corr = rng.standard_normal((1, 4, 5, 3, 4))
        got = afv(ad.Tensor(a_corr), ad.Tensor(ctx))
        proj = project1x1_naive(ctx, afv.project.weight.data)
        want = a_corr * proj[:, :, None, :, :]
        worst_afv = max(worst_afv, np.abs(got.data - want).max())

        fusion = ContextGeometryFusion(2, 3, 5, np.random.default_rng(80 + seed))
        g = rng.standard_normal((1, 2, 2, 4, 4))
        c = rng.standard_normal((1, 3, 4, 4))
        got = fusion(ad.Tensor(g), ad.Tensor(c)).data
        want = cgf_naive(
            g, c,
            fusion.project.weight.data,
            fusion.attend.weight.data, fusion.attend.bias.data,
            fusion.fuse.conv.weight.data,
            fusion.fuse.bn.gamma.data, fusion.fuse.bn.beta.data,
        )
        worst_cgf = max(worst_cgf, np.abs(got - want).max())

        cost = rng.standard_normal((2, 1, 7, 3, 4)) * 3.0
        got = top2_softargmax(ad.Tensor(cost)).data
        worst_top2 = max(worst_top2, np.abs(got - top2_softargmax_naive(cost)).max())

    assert worst_corr <= 1e-10
    assert worst_afv <= 1e-10
    assert worst_cgf <= 1e-10
    assert worst_top2 <= 1e-12
    print(f"PASS oracle equivalence over 5 seeds: correlation {worst_corr:.2e}, "
          f"attention volume {worst_afv:.2e}, fusion {worst_cgf:.2e} (<= 1e-10); "
          f"top-2 {worst_top2:.2e} <= 1e-12")


def test_shape_contract():
    # 64x128 input with 64 disparities and an 8-channel volume: the encoder
    # bottleneck carries 6x the volume width at 1/32 of every extent, and the
    # refined disparity comes back at full image resolution
    cfg = ModelConfig(matching=MatchingConfig(max_disparity=64, corr_channels=8))
    model = StereoModel(cfg)
    model.eval()
    rng = np.random.default_rng(0)
    left = ad.Tensor(rng.uniform(0.0, 1.0, (1, 3, 64, 128)))
    right = ad.Tensor(rng.uniform(0.0, 1.0, (1, 3, 64, 128)))

    with ad.no_grad():
        ctx = model.merge(model.backbone(left))
        feat_r = model.merge(model.backbone(right))
        volume = model.lift(build_correlation(ctx.f4, feat_r.f4, cfg.matching))
        volume = model.afv(volume, ctx.f4)
        pyramid = model.encoder(volume, ctx)
        d0 = top2_regression(model.decoder(pyramid, ctx))
        d1 = model.upsampler(d0, ctx.f4)

    assert pyramid.g32.shape == (1, 48, 2, 2, 4)
    assert d1.values.shape == (1, 1, 64, 128)
    print("PASS shape contract: bottleneck 1x48x2x2x4, "
          "full-resolution disparity 1x1x64x128")


def test_toy_convergence():
    # the full model (attention volume + decoder fusion) learns slanted-plane
    # stereograms well enough to cut held-out EPE below 2 px within 500 steps
    started = time.perf_counter()
    inits, finals = [], []
    for seed in (0, 1, 2):
        cfg = ModelConfig(
            backbone=BackboneConfig(stem_channels=8, channels=(16, 24, 32, 48)),
            matching=MatchingConfig(max_disparity=32, corr_channels=8),
            seed=seed,
        )
        assert cfg.afv_enabled and cfg.cgf.positions == ("decoder",)
        model = StereoModel(cfg)
        optim = Adam(model, TrainParams(lr=1e-3, lr_decay_steps=(300,),
                                        lr_decay_factor=0.5))
        train = make_dataset(1000 + seed, 24, 64, 128, 32, "slanted_planes")
        held = stack_samples(make_dataset(9000 + seed, 3, 64, 128, 32,
                                          "slanted_planes"))

        def held_epe():
            model.eval()
            with ad.no_grad():
                _, d1 = model(held.left, held.right)
            return evaluate(d1.values, held.gt_disparity, held.valid_mask).epe_px

        inits.append(held_epe())
        fit(model, optim, train, 500)
        finals.append(held_epe())

    elapsed = time.perf_counter() - started
    assert np.median(inits) > 4.0, f"init EPEs {inits}"
    assert np.median(finals) < 2.0, f"final EPEs {finals}"
    assert elapsed < 900.0
    pairs = ", ".join(f"{a:.2f}->{b:.2f}" for a, b in zip(inits, finals))
    print(f"PASS toy convergence: held-out EPE {pairs} px "
          f"(median {np.median(inits):.2f} -> {np.median(finals):.2f}), "
          f"{elapsed:.0f}s < 900s")


def test_ablation_harness():
    base = small_config()
    rng = np.random.default_rng(5)
    left = ad.Tensor(rng.uniform(0.0, 1.0, (1, 3, 32, 64)))
    right = ad.Tensor(rng.uniform(0.0, 1.0, (1, 3, 32, 64)))

    expected = {
        "afv": ["baseline", "afv", "cgf", "afv_cgf"],
        "cgf_position": ["none", "encoder", "decoder", "encoder_decoder"],
        "detach": ["backprop_context", "detach_context"],
    }
    total = 0
    for axis in AXES:
        rows = config_rows(base, axis)
        assert [name for name, _ in rows] == expected[axis]
        for _, cfg in rows:
            model = StereoModel(cfg)
            model.eval()
            with ad.no_grad():
                _, d1 = model(left, right)  # every row actually runs
            assert d1.values.shape == (1, 1, 32, 64)
            total += 1

    checks = verify_detach(base, TrainParams(height=32, width=64, data_seed=0))
    assert checks["forward_bit_identical"]
    assert checks["zero_grads_match_context_only_params"]
    assert len(checks["context_only_params"]) > 0
    print(f"PASS ablation harness: {total} rows runnable; detached context -> "
          f"exactly-zero grads on {len(checks['context_only_params'])} "
          f"fusion-projection params, forwards bit-identical")


def test_metric_correctness():
    rng = np.random.default_rng(7)
    gt = rng.integers(5, 30, (20, 30)).astype(np.float64)
    mask = np.ones_like(gt, dtype=bool)

    perfect = evaluate(gt, gt, mask)
    assert perfect.epe_px == 0.0
    assert perfect.d1_percent == 0.0
    assert perfect.gt1_percent == perfect.gt2_percent == perfect.gt3_percent == 0.0

    # integer ground truth makes the +1.0 offset exact: EPE is exactly one
    # pixel, and the strict > 1 px rule counts none of it
    off = evaluate(gt + 1.0, gt, mask)
    assert off.epe_px == 1.0
    assert off.gt1_percent == 0.0

    single = evaluate(np.array([[103.5]]), np.array([[100.0]]),
                      np.array([[True]]))
    assert single.d1_percent == 0.0   # 3.5 < max(3, 5% of 100)
    assert single.gt3_percent == 100.0
    print("PASS metric correctness: perfect -> zeros; +1.0 -> EPE 1.0 with "
          ">1px 0%; 3.5px at gt 100 -> >3px outlier but not a D1 outlier")


def test_io_fidelity(tmp_path):
    worst_cases = 0
    for i in range(100):
        rng = np.random.default_rng(i)
        h, w = rng.integers(1, 48, 2)
        scale = 10.0 ** rng.uniform(-6.0, 6.0)
        field = (rng.standard_normal((h, w)) * scale).astype(np.float32)
        stored_scale = -1.0 if i % 2 else 1.0
        back, got_scale = read_pfm(write_pfm(field, scale=stored_scale))
        assert back.tobytes() == field.tobytes()
        assert got_scale == stored_scale
        worst_cases += 1
    assert worst_cases == 100

    # identical configuration, fresh process-independent state: the command
    # line pipeline must write byte-identical artifacts every time
    sample = synth_stereo(3, height=32, width=64, max_disparity=32,
                          mode="slanted_planes")
    bundle = tmp_path / "pair"
    bundle.mkdir()
    save_sample(str(bundle), sample)
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(
        "backbone.stem_channels = 4\n"
        "backbone.channels = 6,8,10,12\n"
        "matching.max_disparity = 32\n"
        "matching.corr_channels = 4\n"
    )
    argv = ["infer", str(bundle / "left.ppm"), str(bundle / "right.ppm"),
            "--save-d0"]
    assert main(argv + ["--config", str(cfg_path), "--out", str(tmp_path / "a")]) == 0
    manifest = json.loads((tmp_path / "a" / "manifest.json").read_text())
    replay = tmp_path / "replay.cfg"
    replay.write_text(manifest["config"])
    assert main(argv + ["--config", str(replay), "--out", str(tmp_path / "b")]) == 0

    identical = []
    for name in ("disp.pfm", "d0.pfm"):
        first = (tmp_path / "a" / name).read_bytes()
        second = (tmp_path / "b" / name).read_bytes()
        assert first == second
        identical.append(name)
    print(f"PASS io fidelity: 100/100 float maps roundtrip bit-exact; "
          f"manifest replay reproduced {', '.join(identical)} byte-identically")
