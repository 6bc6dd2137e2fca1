"""Loader fuzz: a truncated or bit-flipped .rati or .ratm either loads or
raises DataError, never another exception."""

import math

import numpy as np
import pytest

from ractr.errors import DataError
from ractr.model import CtrModel, load_checkpoint, save_checkpoint
from ractr.retrieval import build_index, load_index, save_index


def _ratm_structure_bytes(blob: bytes) -> list[int]:
    """Offsets of every .ratm byte that is not float payload: the header, the
    config string, the parameter count and each parameter's name, rank and dims."""
    pos = 10 + int.from_bytes(blob[6:10], "little")
    keep = list(range(pos + 4))
    n_params = int.from_bytes(blob[pos:pos + 4], "little")
    pos += 4
    for _ in range(n_params):
        start = pos
        pos += 4 + int.from_bytes(blob[pos:pos + 4], "little")
        ndim = blob[pos]
        dims = [int.from_bytes(blob[pos + 1 + 4 * i:pos + 5 + 4 * i], "little")
                for i in range(ndim)]
        pos += 1 + 4 * ndim
        keep += range(start, pos)
        pos += 8 * math.prod(dims)
    assert pos == len(blob)
    return keep


def _rati(path):
    rng = np.random.default_rng(3)
    save_index(build_index(rng.integers(0, 4, size=(6, 2)), np.arange(6)), path)
    return load_index, None


def _ratm(path):
    model = CtrModel(field_num_ids=[3, 2], embed_dim=2, num_blocks=1, num_heads=1,
                     mlp_ratio=1, variant="cascade", seed=0)
    save_checkpoint(model, path)
    return load_checkpoint, _ratm_structure_bytes


@pytest.mark.parametrize("make", [_rati, _ratm], ids=["rati", "ratm"])
def test_loader_fuzz(tmp_path, make):
    path = str(tmp_path / "orig")
    load, structure = make(path)
    with open(path, "rb") as f:
        blob = f.read()
    load(path)
    # .rati holds no floats, so every byte of it is flipped
    offsets = structure(blob) if structure else range(len(blob))
    cases = [(f"truncated to {n} bytes", blob[:n]) for n in range(len(blob))]
    for i in offsets:
        for bit in (0x01, 0x80):
            flip = bytearray(blob)
            flip[i] ^= bit
            cases.append((f"bit {bit:#04x} of byte {i} flipped", bytes(flip)))
    bad = str(tmp_path / "bad")
    for what, case in cases:
        with open(bad, "wb") as f:
            f.write(case)
        try:
            load(bad)
        except DataError:
            pass
        except Exception as e:
            pytest.fail(f"{what}: {type(e).__name__}: {e}")
