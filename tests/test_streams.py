"""Named random streams: the seed sequence of a path, and the generator
built on it."""

import zlib

import numpy as np
import pytest

from qotsim.streams import stream, stream_seed

PATHS = [
    (),
    ("alice",),
    ("trial", 7, "channel"),
    (3,),
    ("bob", 0, "bob"),
    ("trial", np.int64(4), "eve"),
    ("ü", 2**40),
]


@pytest.mark.parametrize("seed", [0, 1, 7, 20261018, 2**32 - 1, 2**62 + 5, 2**100])
@pytest.mark.parametrize("path", PATHS)
def test_stream_draws_what_default_rng_draws(seed, path):
    ours = stream(seed, *path)
    reference = np.random.default_rng(stream_seed(seed, *path))
    assert type(ours.bit_generator) is type(reference.bit_generator)
    assert ours.random(5).tolist() == reference.random(5).tolist()
    assert ours.integers(0, 2**62, 5).tolist() == reference.integers(0, 2**62, 5).tolist()
    assert ours.bit_generator.state == reference.bit_generator.state


def test_stream_seed_keys_names_by_crc32_every_time():
    for _ in range(2):  # the second pass reads the cached name keys
        seq = stream_seed(11, "trial", 7, "channel")
        assert seq.entropy == 11
        assert seq.spawn_key == (zlib.crc32(b"trial"), 7, zlib.crc32(b"channel"))
        assert stream_seed(11, "ü").spawn_key == (zlib.crc32("ü".encode("utf-8")),)
