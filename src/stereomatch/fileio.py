"""Disparity and image file formats.

PFM carries float32 disparity fields (rows stored bottom-to-top, byte order
encoded in the sign of the scale token).  Binary PPM/PGM with maxval 255 carry
images and masks.  A sample bundle is a directory with the four fixed names
left.ppm / right.ppm / disp.pfm / mask.pgm.
"""

from __future__ import annotations

import contextlib
import os
import re
from typing import BinaryIO, Iterator, Tuple

import numpy as np

from .autodiff import Tensor
from .errors import DataFormatError, ShapeError

_WHITESPACE = b" \t\n\r\x0b\x0c"
# a PFM scale: float() alone would also take '_' separators, "inf" and "nan"
_DECIMAL = re.compile(rb"[+-]?[0-9]+(\.[0-9]+)?(e[+-]?[0-9]+)?")
_COMMENT = re.compile(rb"#[^\r\n]*")  # a netpbm header comment, up to its line end


@contextlib.contextmanager
def atomic_write(path: str) -> Iterator[BinaryIO]:
    """Open `path` for binary writing through a sibling temporary file that
    replaces `path` only when the block completes.  If the block raises, the
    temporary file is removed and whatever was at `path` stays as it was."""
    tmp = path + ".tmp"
    try:
        with open(tmp, "wb") as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def _next_token(data: bytes, pos: int, comments: bool = False) -> Tuple[bytes, int, int]:
    """Return (token, start, end) of the next whitespace-delimited token.
    With comments (netpbm), a `#` before the token and the rest of its line
    are skipped like whitespace."""
    n, skip = len(data), (_WHITESPACE + b"#" if comments else _WHITESPACE)
    while pos < n and data[pos : pos + 1] in skip:
        pos = _COMMENT.match(data, pos).end() if data[pos : pos + 1] == b"#" else pos + 1
    if pos >= n:
        raise DataFormatError(f"unexpected end of header at byte {pos}")
    start = pos
    while pos < n and data[pos : pos + 1] not in _WHITESPACE:
        pos += 1
    return data[start:pos], start, pos


def _positive(tok: bytes, what: str, at: int) -> int:
    """A header integer: at most 18 ASCII decimal digits, above zero.  int()
    alone would also take a sign and '_' separators, and would raise
    ValueError on more than 4300 digits."""
    if not tok.isdigit() or len(tok) > 18 or not int(tok):
        raise DataFormatError(
            f"non-positive or non-decimal {what} {tok[:20]!r} at byte {at}: "
            "expected a positive integer of at most 18 digits"
        )
    return int(tok)


def write_pfm(field: np.ndarray, scale: float = -1.0) -> bytes:
    """Encode a 2-D field as grayscale PFM.

    Negative scale selects little-endian float32 payload, positive selects
    big-endian; the magnitude is preserved as-is.
    """
    field = np.asarray(field)
    if field.ndim != 2:
        raise ShapeError(f"write_pfm expects a 2-D field, got shape {field.shape}")
    if scale == 0.0:
        raise DataFormatError("PFM scale must be nonzero (its sign encodes byte order)")
    h, w = field.shape
    dtype = "<f4" if scale < 0 else ">f4"
    header = f"Pf\n{w} {h}\n{scale:g}\n".encode("ascii")
    payload = np.flipud(field).astype(dtype).tobytes()
    return header + payload


def read_pfm(data: bytes) -> Tuple[np.ndarray, float]:
    """Decode a grayscale PFM byte string to (float32 field [H,W], scale)."""
    magic, start, pos = _next_token(data, 0)
    if magic != b"Pf":
        if magic == b"PF":
            raise DataFormatError(
                f"color PFM ('PF' at byte {start}) is not supported; expected grayscale 'Pf'"
            )
        raise DataFormatError(f"bad PFM magic {magic!r} at byte {start}")
    wtok, start, pos = _next_token(data, pos)
    w = _positive(wtok, "PFM width", start)
    htok, start, pos = _next_token(data, pos)
    h = _positive(htok, "PFM height", start)
    stok, sstart, pos = _next_token(data, pos)
    scale = float(stok) if _DECIMAL.fullmatch(stok) else np.nan
    if scale == 0.0:
        raise DataFormatError(f"zero PFM scale at byte {sstart}")
    if not np.isfinite(scale):
        raise DataFormatError(f"non-decimal or non-finite PFM scale {stok!r} at byte {sstart}")
    pos += 1  # exactly one whitespace byte separates header from payload
    need = w * h * 4
    have = len(data) - pos
    if have < need:
        raise DataFormatError(
            f"truncated PFM payload at byte {len(data)}: need {need} bytes after "
            f"the header, have {have}"
        )
    dtype = "<f4" if scale < 0 else ">f4"
    flat = np.frombuffer(data[pos : pos + need], dtype=dtype)
    return np.flipud(flat.reshape(h, w)).astype(np.float32), scale


def _write_netpbm(magic: bytes, pixels: np.ndarray, w: int, h: int) -> bytes:
    header = f"{magic.decode()}\n{w} {h}\n255\n".encode("ascii")
    return header + pixels.astype(np.uint8).tobytes()


def write_ppm(img: np.ndarray) -> bytes:
    """Encode an [H,W,3] uint8 image as binary PPM."""
    img = np.asarray(img)
    if img.ndim != 3 or img.shape[2] != 3:
        raise ShapeError(f"write_ppm expects [H,W,3], got {img.shape}")
    return _write_netpbm(b"P6", img, img.shape[1], img.shape[0])


def write_pgm(img: np.ndarray) -> bytes:
    """Encode an [H,W] uint8 image as binary PGM."""
    img = np.asarray(img)
    if img.ndim != 2:
        raise ShapeError(f"write_pgm expects [H,W], got {img.shape}")
    return _write_netpbm(b"P5", img, img.shape[1], img.shape[0])


def _read_netpbm(data: bytes, magic: bytes, channels: int) -> np.ndarray:
    tok, start, pos = _next_token(data, 0, True)
    if tok != magic:
        raise DataFormatError(f"bad magic {tok!r} at byte {start}, expected {magic!r}")
    wtok, start, pos = _next_token(data, pos, True)
    w = _positive(wtok, "netpbm width", start)
    htok, start, pos = _next_token(data, pos, True)
    h = _positive(htok, "netpbm height", start)
    mtok, mstart, pos = _next_token(data, pos, True)
    maxval = _positive(mtok, "netpbm maxval", mstart)
    if maxval != 255:
        raise DataFormatError(f"unsupported maxval {maxval} at byte {mstart}; only 255")
    pos += 1
    need = w * h * channels
    if len(data) - pos < need:
        raise DataFormatError(
            f"truncated pixel data at byte {len(data)}: need {need}, have {len(data) - pos}"
        )
    flat = np.frombuffer(data[pos : pos + need], dtype=np.uint8)
    shape = (h, w, channels) if channels > 1 else (h, w)
    return flat.reshape(shape).copy()


def read_ppm(data: bytes) -> np.ndarray:
    return _read_netpbm(data, b"P6", 3)


def read_pgm(data: bytes) -> np.ndarray:
    return _read_netpbm(data, b"P5", 1)


# mask.pgm pixel codes
_MASK_VALID = 255
_MASK_OCCLUDED = 128
_MASK_INVALID = 0


def _image_to_uint8(t: Tensor) -> np.ndarray:
    # [1,3,H,W] floats in [0,1] -> [H,W,3] bytes
    v = np.clip(t.data[0], 0.0, 1.0)
    return np.round(v * 255.0).astype(np.uint8).transpose(1, 2, 0)


def save_sample(directory: str, sample) -> None:
    """Write a stereo sample as {left.ppm, right.ppm, disp.pfm, mask.pgm}.

    Images are quantized to 8 bits; disparity is stored as float32.  The mask
    file uses 255 for valid pixels, 128 for occluded ones and 0 otherwise, so
    both masks survive the roundtrip.
    """
    os.makedirs(directory, exist_ok=True)
    mask = np.full(sample.valid_mask.shape[2:], _MASK_INVALID, dtype=np.uint8)
    mask[sample.occlusion_mask[0, 0]] = _MASK_OCCLUDED
    mask[sample.valid_mask[0, 0]] = _MASK_VALID
    files = {
        "left.ppm": write_ppm(_image_to_uint8(sample.left)),
        "right.ppm": write_ppm(_image_to_uint8(sample.right)),
        "disp.pfm": write_pfm(sample.gt_disparity[0, 0]),
        "mask.pgm": write_pgm(mask),
    }
    for name, blob in files.items():
        with open(os.path.join(directory, name), "wb") as f:
            f.write(blob)


def load_image(path: str) -> Tensor:
    """A binary PPM as a [1,3,H,W] float64 tensor with values in [0, 1]."""
    with open(path, "rb") as f:
        return Tensor(read_ppm(f.read()).transpose(2, 0, 1)[None] / 255.0)


def load_sample(directory: str):
    """Read a sample bundle written by save_sample."""
    from .synthetic import StereoSample

    def blob(name):
        with open(os.path.join(directory, name), "rb") as f:
            return f.read()

    disp, _ = read_pfm(blob("disp.pfm"))
    mask = read_pgm(blob("mask.pgm"))
    return StereoSample(
        left=load_image(os.path.join(directory, "left.ppm")),
        right=load_image(os.path.join(directory, "right.ppm")),
        gt_disparity=disp.astype(np.float64)[None, None],
        valid_mask=(mask == _MASK_VALID)[None, None],
        occlusion_mask=(mask == _MASK_OCCLUDED)[None, None],
    )
