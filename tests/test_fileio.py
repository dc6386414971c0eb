"""PFM / PPM / PGM codecs and sample bundle persistence."""

import struct

import numpy as np
import pytest

from stereomatch.errors import DataFormatError, ShapeError
from stereomatch.fileio import (
    load_sample,
    read_pfm,
    read_pgm,
    read_ppm,
    save_sample,
    write_pfm,
    write_pgm,
    write_ppm,
)
from stereomatch.synthetic import synth_stereo


class TestPfm:
    @pytest.mark.parametrize("seed", range(8))
    def test_value_roundtrip(self, seed):
        rng = np.random.default_rng(seed)
        h, w = int(rng.integers(1, 20)), int(rng.integers(1, 20))
        field = rng.standard_normal((h, w)).astype(np.float32) * 100
        back, scale = read_pfm(write_pfm(field))
        assert scale == -1.0
        assert back.dtype == np.float32
        assert np.array_equal(back, field)

    def test_rows_stored_bottom_to_top(self):
        field = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=np.float32)
        blob = write_pfm(field, scale=-1.0)
        payload = blob.split(b"\n", 3)[3]
        # bottom row first in the byte stream
        assert struct.unpack("<4f", payload) == (3.0, 4.0, 1.0, 2.0)

    def test_positive_scale_is_big_endian(self):
        field = np.array([[1.0]], dtype=np.float32)
        blob = write_pfm(field, scale=2.5)
        assert blob.endswith(struct.pack(">f", 1.0))
        back, scale = read_pfm(blob)
        assert scale == 2.5
        assert back[0, 0] == 1.0

    def test_negative_scale_is_little_endian(self):
        blob = write_pfm(np.array([[1.0]], dtype=np.float32), scale=-1.0)
        assert blob.endswith(struct.pack("<f", 1.0))

    def test_color_header_rejected(self):
        blob = b"PF\n1 1\n-1.0\n" + b"\x00" * 12
        with pytest.raises(DataFormatError, match="color"):
            read_pfm(blob)

    def test_bad_magic_rejected(self):
        with pytest.raises(DataFormatError, match="byte 0"):
            read_pfm(b"Qx\n1 1\n-1.0\n" + b"\x00" * 4)

    def test_truncated_payload_reports_byte_counts(self):
        blob = write_pfm(np.zeros((4, 4), dtype=np.float32))
        with pytest.raises(DataFormatError, match="need 64"):
            read_pfm(blob[:-10])

    def test_zero_scale_rejected_both_ways(self):
        with pytest.raises(DataFormatError):
            write_pfm(np.zeros((1, 1)), scale=0.0)
        with pytest.raises(DataFormatError, match="zero"):
            read_pfm(b"Pf\n1 1\n0.0\n" + b"\x00" * 4)

    @pytest.mark.parametrize("token", [b"nan", b"inf", b"-inf"])
    def test_non_finite_scale_rejected(self, token):
        with pytest.raises(DataFormatError, match="non-finite"):
            read_pfm(b"Pf\n1 1\n" + token + b"\n" + b"\x00" * 4)

    def test_scale_is_plain_decimal(self):
        """float() would read '-1_0' as -10.0; the scale takes only
        [sign]digits[.digits][e[sign]digits]."""
        with pytest.raises(DataFormatError, match="non-decimal"):
            read_pfm(b"Pf\n1 1\n-1_0\n" + b"\x00" * 4)

    def test_bad_dimensions_rejected(self):
        with pytest.raises(DataFormatError):
            read_pfm(b"Pf\nx 1\n-1.0\n")
        with pytest.raises(DataFormatError, match="non-positive"):
            read_pfm(b"Pf\n0 1\n-1.0\n")

    def test_non_2d_write_rejected(self):
        with pytest.raises(ShapeError):
            write_pfm(np.zeros((1, 1, 1)))


class TestNetpbm:
    def test_ppm_roundtrip(self):
        rng = np.random.default_rng(0)
        img = rng.integers(0, 256, (5, 7, 3), dtype=np.uint8)
        assert np.array_equal(read_ppm(write_ppm(img)), img)

    def test_pgm_roundtrip(self):
        rng = np.random.default_rng(1)
        img = rng.integers(0, 256, (6, 4), dtype=np.uint8)
        assert np.array_equal(read_pgm(write_pgm(img)), img)

    def test_wrong_magic(self):
        img = np.zeros((2, 2), dtype=np.uint8)
        with pytest.raises(DataFormatError, match="magic"):
            read_ppm(write_pgm(img))

    def test_bad_maxval(self):
        with pytest.raises(DataFormatError, match="maxval"):
            read_pgm(b"P5\n2 2\n65535\n" + b"\x00" * 8)

    def test_truncated(self):
        img = np.zeros((4, 4), dtype=np.uint8)
        with pytest.raises(DataFormatError, match="truncated"):
            read_pgm(write_pgm(img)[:-3])

    def test_shape_guards(self):
        with pytest.raises(ShapeError):
            write_ppm(np.zeros((2, 2), dtype=np.uint8))
        with pytest.raises(ShapeError):
            write_pgm(np.zeros((2, 2, 3), dtype=np.uint8))


@pytest.mark.parametrize("read,blob", [
    (read_ppm, b"P6\n1_0 +1\n2_55\n" + bytes(30)),
    (read_pgm, b"P5\n+2 2\n255\n" + bytes(4)),
    (read_pfm, b"Pf\n+1 1_0\n-1.0\n" + bytes(40)),
    (read_pfm, b"Pf\n" + b"1" * 5000 + b" 1\n-1.0\n"),
], ids=["ppm", "pgm", "pfm", "pfm-5000-digits"])
def test_header_integers_are_plain_decimal(read, blob):
    """int() would read a sign or a '_' separator in a header integer, so
    the first three headers would decode as valid images, and it raises
    ValueError on 5000 digits; each names its bad field."""
    with pytest.raises(DataFormatError, match="non-decimal"):
        read(blob)


class TestSampleBundle:
    def test_roundtrip(self, tmp_path):
        sample = synth_stereo(3, height=32, width=64, max_disparity=16, mode="blobs")
        d = str(tmp_path / "bundle")
        save_sample(d, sample)
        back = load_sample(d)
        assert np.array_equal(back.valid_mask, sample.valid_mask)
        assert np.array_equal(back.occlusion_mask, sample.occlusion_mask)
        assert np.array_equal(
            back.gt_disparity, sample.gt_disparity.astype(np.float32).astype(np.float64)
        )
        # images survive up to 8-bit quantization
        assert np.abs(back.left.data - sample.left.data).max() <= 0.5 / 255 + 1e-12
        assert np.abs(back.right.data - sample.right.data).max() <= 0.5 / 255 + 1e-12

    def test_resave_is_byte_identical(self, tmp_path):
        sample = synth_stereo(4, height=32, width=32, max_disparity=16, mode="slanted_planes")
        d1, d2 = str(tmp_path / "a"), str(tmp_path / "b")
        save_sample(d1, sample)
        save_sample(d2, load_sample(d1))
        for name in ("left.ppm", "right.ppm", "disp.pfm", "mask.pgm"):
            with open(f"{d1}/{name}", "rb") as f:
                first = f.read()
            with open(f"{d2}/{name}", "rb") as f:
                second = f.read()
            assert first == second, name
