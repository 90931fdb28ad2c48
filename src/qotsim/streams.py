"""Named, counter-based random streams derived from a single root seed.

Every stochastic component draws from its own stream, addressed by a path of
names and indices. Streams are independent of how many other streams exist,
so adding trials or reordering draws never perturbs earlier randomness.

A stream is the PCG64 generator that
np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=key))
gives, where key is the path with each name read as its CRC-32. NumPy fixes
that seeding for reproducibility (NEP 19), so it is computed here: the
SeedSequence mixing and its generate_state(4, np.uint64), from numpy's
hashmix and mix, written once for operands that are Python ints (one seed)
or uint32 arrays (many seeds at once, in primed).
"""

import contextlib
import functools
import zlib

import numpy as np

from . import gf2

_MASK = 0xFFFFFFFF
# numpy's SeedSequence constants (numpy/random/bit_generator.pyx)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _powers(consts: list, mult: int, count: int) -> list:
    """consts, hash constants each mult times the one before (mod 2^32),
    grown in place to at least count of them."""
    while len(consts) < count:
        consts.append(consts[-1] * mult & _MASK)
    return consts


_A = _powers([_INIT_A], _MULT_A, 17)  # the entropy mixing's, grown as longer inputs need
_B = _powers([_INIT_B], _MULT_B, 9)  # generate_state's, for its eight uint32 words


def _hashmix(value, h, h_next):
    """numpy's hashmix: xor value with the hash constant h, multiply by the
    next constant h_next."""
    value = (value ^ h) * h_next & _MASK
    return value ^ value >> 16


def _mix(x, y):
    value = (_MIX_L * x - _MIX_R * y) & _MASK
    return value ^ value >> 16


def _fold(pool: list, k: int, words) -> tuple:
    """The pool, and the count of constants used, after numpy mixes further
    entropy words into it, each into all four pool words."""
    a = _powers(_A, _MULT_A, k + 4 * len(words) + 1)
    for word in words:
        pool = [_mix(p, _hashmix(word, a[k + i], a[k + i + 1])) for i, p in enumerate(pool)]
        k += 4
    return pool, k


def _entropy_pool(words: list) -> tuple:
    """numpy's SeedSequence.mix_entropy of a seed's uint32 words (low word
    first): the four-word pool and the count of constants used. A missing
    word of the first four mixes as 0, as does the zero padding numpy puts
    before a spawn key, so a path's words fold into this same pool."""
    pool = [_hashmix(w, _A[k], _A[k + 1]) for k, w in enumerate(words[:4] + [0] * (4 - len(words)))]
    k = 4
    for src in range(4):
        for dst in range(4):
            if dst != src:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], _A[k], _A[k + 1]))
                k += 1
    return _fold(pool, k, words[4:])


def _generate_state(pool: list) -> list:
    """numpy's generate_state of eight uint32 words from a mixed pool; read
    in pairs, low word first, they are generate_state(4, np.uint64)."""
    return [_hashmix(pool[i % 4], _B[i], _B[i + 1]) for i in range(8)]


def _batch_states(seeds: list, paths) -> np.ndarray:
    """generate_state(4, np.uint64) of every seed, all in [0, 2^64), under
    every path, all name tuples of one length, as a (paths, seeds, 4)
    array: the one-seed functions on uint32 arrays, seeds along the last
    axis and paths along the first. Every word is an array, as a Python
    int mixed with a uint32 array could overflow."""
    names = np.array([[_name_key(name) for name in path] for path in paths], np.uint32)
    array = np.array(seeds, dtype=np.uint64)
    zero = np.zeros(array.size, np.uint32)
    words = [(array & _MASK).astype(np.uint32), (array >> 32).astype(np.uint32), zero, zero]
    pool, _ = _fold(*_entropy_pool(words), [names[:, j, None] for j in range(names.shape[1])])
    return np.stack(_generate_state(pool), -1).astype("<u4", copy=False).view("<u8")


def _int_words(value: int) -> list:
    """A non-negative int's uint32 words, low first, as numpy splits an
    entropy int (0 is the one word 0)."""
    return [value >> shift & _MASK for shift in range(0, max(value.bit_length(), 1), 32)]


@functools.lru_cache(maxsize=None)
def _name_key(name: str) -> int:
    return zlib.crc32(name.encode("utf-8"))


@functools.lru_cache(maxsize=16)
def _seed_pool(seed: int) -> tuple:
    """_entropy_pool of a seed, kept, as a tuple, for the several paths one
    run asks for."""
    pool, k = _entropy_pool(_int_words(seed))
    return tuple(pool), k


@functools.cache
def _seeded():
    """A minimal ISeedSequence that hands PCG64 its four state words. It is
    defined on first use, so importing qotsim leaves numpy.random unloaded."""
    from numpy.random.bit_generator import ISeedSequence

    class Seeded(ISeedSequence):
        def __init__(self, state):
            self.state = state

        def generate_state(self, n_words, dtype=np.uint32):
            return self.state  # PCG64 asks for 4 uint64 words, and only once

    return Seeded


_primed: dict = {}  # (seed, path) -> state words derived by primed, popped on use


def stream(root_seed, *path):
    """Generator dedicated to the given purpose path under the root seed:
    the generator np.random.default_rng(np.random.SeedSequence(
    entropy=root_seed, spawn_key=key)) gives, key being the path with each
    name read as its CRC-32. The seed and each integer part of the path
    are read by gf2.integer with least 0; any other type, or a negative
    value, raises DomainError naming it."""
    seed = gf2.integer(root_seed, "stream seed", least=0)
    for i, part in enumerate(path):
        if not isinstance(part, str):
            gf2.integer(part, f"stream path part {i}", least=0)
    return _stream(seed, *path)


def _stream(seed: int, *path):
    """stream on a checked seed, a Python int, and path. A pair that primed
    derived is handed out from its memo."""
    state = _primed.pop((seed, path), None) if _primed else None
    if state is None:
        words = []
        for part in path:
            words += [_name_key(part)] if isinstance(part, str) else _int_words(int(part))
        pool, _ = _fold(*_seed_pool(seed), words)
        state = np.array(_generate_state(pool), dtype="<u4").view("<u8")
    return np.random.Generator(np.random.PCG64(_seeded()(state)))


_BLOCK = 256  # the most seeds a caller primes at once, which bounds the memo


def drawn_blocks(draw, count: int):
    """count results of draw(), called in order, in lists of at most 256: a
    caller that draws its runs' seeds ahead primes them a block at a time."""
    for start in range(0, count, _BLOCK):
        yield [draw() for _ in range(min(_BLOCK, count - start))]


@contextlib.contextmanager
def primed(seeds, paths):
    """Within the block, stream(seed, *path) for each of the seeds, all in
    [0, 2^64), and each of the paths, all name tuples of one length, hands
    out once the state derived for every such pair in one vectorised pass.
    The memo holds a pure function's values, so a pair asked for twice, or
    never, draws the same; on leaving the block its unused entries go."""
    seeds = list(seeds)
    state = _batch_states(seeds, paths)
    keys = [(seed, path) for path in paths for seed in seeds]
    _primed.update(zip(keys, state.reshape(len(keys), 4)))
    try:
        yield
    finally:
        for key in keys:
            _primed.pop(key, None)
