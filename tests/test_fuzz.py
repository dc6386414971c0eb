"""Seeded byte-mutation fuzzing of every reader: malformed bytes may only
raise DataFormatError, and a rejected checkpoint must leave the model as it
was."""

import numpy as np
import pytest

from stereomatch import nn
from stereomatch.errors import DataFormatError
from stereomatch.fileio import read_pfm, read_pgm, read_ppm, write_pfm, write_pgm, write_ppm
from stereomatch.training import checkpoint_bytes, load_checkpoint

CASES = 300
# bytes that parse as (parts of) header tokens, so mutations reach past the
# first failed token more often than uniformly random bytes would
_TOKEN_BYTES = b"0123456789 -+.e\n\t"


def mutations(blob: bytes, seed: int):
    """Yield CASES mutated copies of blob: byte replacements (random or
    token-like), deleted runs, inserted runs and truncations."""
    rng = np.random.default_rng(seed)
    for _ in range(CASES):
        data = bytearray(blob)
        kind = int(rng.integers(5))
        pos = int(rng.integers(len(data)))
        run = int(rng.integers(1, 9))
        if kind == 0:
            data[pos] = int(rng.integers(256))
        elif kind == 1:
            data[pos] = _TOKEN_BYTES[int(rng.integers(len(_TOKEN_BYTES)))]
        elif kind == 2:
            del data[pos:pos + run]
        elif kind == 3:
            data[pos:pos] = rng.integers(256, size=run, dtype=np.uint8).tobytes()
        else:
            del data[pos:]
        yield bytes(data)


def _fuzz(read, blob, seed):
    rejected = 0
    for data in mutations(blob, seed):
        try:
            read(data)
        except DataFormatError:
            rejected += 1
    return rejected


@pytest.mark.parametrize(
    "read,blob",
    [
        (read_pfm, write_pfm(np.arange(12, dtype=np.float32).reshape(3, 4))),
        (read_pfm, write_pfm(np.ones((2, 5), np.float32), scale=2.0)),
        (read_ppm, write_ppm(np.arange(36, dtype=np.uint8).reshape(3, 4, 3))),
        (read_pgm, write_pgm(np.arange(12, dtype=np.uint8).reshape(3, 4))),
    ],
    ids=["pfm_le", "pfm_be", "ppm", "pgm"],
)
def test_image_readers_raise_only_data_format_error(read, blob):
    rejected = _fuzz(read, blob, seed=len(blob))
    assert 0 < rejected < CASES


def test_checkpoint_loader_raises_only_data_format_error(tmp_path):
    rng = np.random.default_rng(0)
    # tiny arrays, so entry headers make up a large share of the file
    model = nn.Module()
    model.layers = [nn.ConvBnLeaky(1, 2, (1, 1), rng), nn.Conv(2, 1, (1, 1, 1), rng)]
    path = tmp_path / "model.ckpt"
    blob = checkpoint_bytes(model)

    rejected = 0
    for data in mutations(blob, seed=7):
        path.write_bytes(data)
        before = {name: a.tobytes() for name, a in model.state_arrays().items()}
        try:
            load_checkpoint(model, str(path))
        except DataFormatError:
            rejected += 1
            after = {name: a.tobytes() for name, a in model.state_arrays().items()}
            assert after == before
    assert 0 < rejected < CASES
