"""Named, counter-based random streams derived from a single root seed.

Every stochastic component draws from its own stream, addressed by a path of
names and indices. Streams are independent of how many other streams exist,
so adding trials or reordering draws never perturbs earlier randomness.
"""

import functools
import zlib

import numpy as np


@functools.lru_cache(maxsize=None)
def _name_key(name: str) -> int:
    return zlib.crc32(name.encode("utf-8"))


def stream_seed(root_seed, *path):
    """SeedSequence for a purpose path like ("trial", 7, "channel")."""
    key = tuple(_name_key(p) if isinstance(p, str) else int(p) for p in path)
    return np.random.SeedSequence(entropy=root_seed, spawn_key=key)


def stream(root_seed, *path):
    """Generator dedicated to the given purpose path under the root seed:
    the generator np.random.default_rng(stream_seed(root_seed, *path))
    gives, built directly."""
    return np.random.Generator(np.random.PCG64(stream_seed(root_seed, *path)))
