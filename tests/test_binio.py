"""The container framing .rati and .ratm share: every loader reads a
container from a stream that cannot seek (a pipe) as it reads the file."""

import os
import threading
from contextlib import contextmanager

import numpy as np
import pytest

from ractr.errors import DataError
from ractr.model import CtrModel, load_checkpoint, save_checkpoint
from ractr.retrieval import build_index, load_index, save_index


@contextmanager
def piped(path, blob: bytes):
    """A FIFO at path that a thread fills with blob for one reader."""
    os.mkfifo(path)

    def feed():
        try:
            with open(path, "wb") as f:
                f.write(blob)
        except BrokenPipeError:  # the reader stopped before the end
            pass

    writer = threading.Thread(target=feed, daemon=True)
    writer.start()
    try:
        yield str(path)
    finally:
        writer.join(timeout=10)


def _rati(path):
    rng = np.random.default_rng(3)
    save_index(build_index(rng.integers(0, 4, size=(30, 2)), np.arange(30)), path)
    return load_index, save_index


def _ratm(path):
    model = CtrModel(field_num_ids=[3, 2], embed_dim=4, num_blocks=1, num_heads=2,
                     mlp_ratio=2, variant="cascade", seed=0)
    save_checkpoint(model, path, extra_config={"train": {"k": 3}})
    return load_checkpoint, lambda loaded, p: save_checkpoint(loaded[0], p, loaded[1])


@pytest.mark.parametrize("make", [_rati, _ratm], ids=["rati", "ratm"])
def test_container_reads_from_a_pipe(tmp_path, make):
    """What a loader reads through a pipe saves back to the bytes of the file
    load, and a truncated container through a pipe is the file's data error."""
    path = str(tmp_path / "orig")
    load, save = make(path)
    with open(path, "rb") as f:
        blob = f.read()
    with piped(tmp_path / "pipe", blob) as pipe:
        from_pipe = load(pipe)
    save(load(path), str(tmp_path / "via_file"))
    save(from_pipe, str(tmp_path / "via_pipe"))
    assert (tmp_path / "via_pipe").read_bytes() == (tmp_path / "via_file").read_bytes() == blob

    short = tmp_path / "short"
    short.write_bytes(blob[:-3])
    with pytest.raises(DataError, match="truncated") as from_file:
        load(str(short))
    with piped(tmp_path / "short_pipe", blob[:-3]) as pipe:
        with pytest.raises(DataError, match="truncated") as from_pipe:
            load(pipe)
    assert str(from_pipe.value).split(": ", 1)[1] == str(from_file.value).split(": ", 1)[1]
