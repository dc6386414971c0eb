"""Run-file parsing, overrides, and serialization roundtrip."""

import pytest

from stereomatch.errors import ConfigError
from stereomatch.runconfig import (
    RunConfig,
    apply_pairs,
    load_run_config,
    parse_pairs,
    run_config_to_text,
)


def test_defaults_are_valid():
    rc = load_run_config()
    assert rc.model.matching.max_disparity % 32 == 0
    assert rc.train.steps == 500


def test_parse_pairs_handles_comments_and_blanks():
    text = "\n# a comment\n seed = 3 \ntrain.lr=0.01 # trailing\n"
    pairs = parse_pairs(text)
    assert pairs == {"seed": "3", "train.lr": "0.01"}


def test_parse_pairs_reports_line_numbers():
    with pytest.raises(ConfigError, match="line 2"):
        parse_pairs("seed=1\nnot a pair\n")
    with pytest.raises(ConfigError, match="duplicate"):
        parse_pairs("seed=1\nseed=2\n")


def test_file_values_reach_nested_configs():
    rc = load_run_config(
        "seed=9\nafv_enabled=false\nbackbone.channels=4,6,8,10\n"
        "cgf.positions=encoder,decoder\nmatching.max_disparity=32\n"
        "train.mode=blobs\ntrain.lr_decay_steps=100,200\n"
    )
    assert rc.model.seed == 9
    assert not rc.model.afv_enabled
    assert rc.model.backbone.channels == (4, 6, 8, 10)
    assert rc.model.cgf.positions == ("encoder", "decoder")
    assert rc.train.mode == "blobs"
    assert rc.train.lr_decay_steps == (100, 200)


def test_empty_tuple_value():
    rc = load_run_config("cgf.positions=\ntrain.lr_decay_steps=\n")
    assert rc.model.cgf.positions == ()
    assert rc.train.lr_decay_steps == ()


def test_overrides_beat_file():
    rc = load_run_config("seed=1\ntrain.steps=10\n",
                         overrides={"seed": "2"})
    assert rc.model.seed == 2
    assert rc.train.steps == 10


def test_unknown_keys_listed():
    with pytest.raises(ConfigError, match="unknown config keys: bogus, stem"):
        load_run_config("bogus=1\nstem=2\n")
    # the loss weights, cosine epsilon, CGF kernel and backbone depth are
    # module constants, not keys
    for pair in ("loss.lambda0=nan", "loss.lambda1=1", "loss.smooth_l1_beta=inf",
                 "matching.epsilon=inf", "cgf.fusion_kernel=4",
                 "backbone.blocks_per_stage=2"):
        key = pair.split("=")[0]
        with pytest.raises(ConfigError, match=f"unknown config keys: {key};"):
            load_run_config(pair + "\n")


def test_bad_values_name_the_key():
    with pytest.raises(ConfigError, match="train.steps"):
        load_run_config("train.steps=many\n")
    with pytest.raises(ConfigError, match="boolean"):
        load_run_config("afv_enabled=maybe\n")


def test_validation_still_applies():
    with pytest.raises(ConfigError):
        load_run_config("matching.max_disparity=31\n")
    with pytest.raises(ConfigError):
        load_run_config("train.batch_size=0\n")
    with pytest.raises(ConfigError, match="seed must be >= 0"):
        load_run_config("seed=-1\n")
    with pytest.raises(ConfigError, match="seed must be >= 0"):
        load_run_config(overrides={"seed": "-1"})
    with pytest.raises(ConfigError, match="train.data_seed must be >= 0"):
        load_run_config("train.data_seed=-5\n")
    # peak learning rate: at most 1, and no overflowing decay even at lr = 0
    assert load_run_config("train.lr=1\ntrain.lr_decay_factor=1\n").train.lr == 1.0
    with pytest.raises(ConfigError, match="train.lr_decay_factor"):
        load_run_config("train.lr=0.5\ntrain.lr_decay_factor=3\n")
    with pytest.raises(ConfigError, match="train.lr_decay_factor"):
        load_run_config("train.lr=0\ntrain.lr_decay_steps=1,2\ntrain.lr_decay_factor=1e200\n")


def test_serialization_roundtrip():
    rc = load_run_config(
        "seed=5\nbackbone.channels=8,10,12,14\ncgf.positions=\n"
        "train.lr=0.0005\ntrain.mode=constant\ntrain.constant_disparity=2.5\n"
    )
    text = run_config_to_text(rc)
    again = load_run_config(text)
    assert run_config_to_text(again) == text
    assert again.model.backbone.channels == (8, 10, 12, 14)
    assert again.model.cgf.positions == ()
    assert again.train.lr == 0.0005
    assert again.train.constant_disparity == 2.5


def test_serialized_text_is_exhaustive():
    # the full key set, in schema order: a new knob must be added here on purpose
    text = run_config_to_text(RunConfig())
    assert [line.split("=")[0] for line in text.splitlines()] == [
        "seed", "afv_enabled",
        "backbone.stem_channels", "backbone.channels",
        "matching.max_disparity", "matching.corr_channels",
        "cgf.positions", "cgf.detach_context",
        "train.steps", "train.lr", "train.lr_decay_steps", "train.lr_decay_factor",
        "train.batch_size", "train.data_seed", "train.height", "train.width",
        "train.mode", "train.constant_disparity", "train.train_samples",
        "train.eval_samples",
    ]
