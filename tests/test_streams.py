"""Named random streams: the generator of a path is the one numpy's
SeedSequence seeds, whether derived for one seed or primed for many, and
the seed and path are read by gf2's integer rule."""

import ast
import os
import subprocess
import sys
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qotsim
from qotsim import attacks, protocol, streams
from qotsim.errors import DomainError
from qotsim.streams import primed, stream


def stream_seed(root_seed, *path):
    """The reference: numpy's SeedSequence for a purpose path like
    ("trial", 7, "channel"), each name keyed by its CRC-32."""
    key = tuple(zlib.crc32(p.encode("utf-8")) if isinstance(p, str) else int(p) for p in path)
    return np.random.SeedSequence(entropy=root_seed, spawn_key=key)


def reference(root_seed, *path):
    return np.random.default_rng(stream_seed(root_seed, *path))


PATHS = [
    (),
    ("alice",),
    ("trial", 7, "channel"),
    (3,),
    (0,),
    ("bob", 0, "bob"),
    ("trial", np.int64(4), "eve"),
    ("ü", 2**40),
    ("x", 2**70, 5, "y", 2**128),
]


@pytest.mark.parametrize("seed", [0, 1, 7, 20261018, 2**32 - 1, 2**62 + 5, 2**64 - 1, 2**100,
                                  2**128 - 1, 2**128, 2**200 - 1])
@pytest.mark.parametrize("path", PATHS)
def test_stream_draws_what_default_rng_draws(seed, path):
    ours = stream(seed, *path)
    want = reference(seed, *path)
    assert type(ours.bit_generator) is type(want.bit_generator)
    assert ours.random(5).tolist() == want.random(5).tolist()
    assert ours.integers(0, 2**62, 5).tolist() == want.integers(0, 2**62, 5).tolist()
    assert ours.bit_generator.state == want.bit_generator.state


def test_stream_seed_keys_names_by_crc32_every_time():
    for _ in range(2):  # the second pass reads the cached name keys
        assert streams._name_key("trial") == zlib.crc32(b"trial")
        assert streams._name_key("ü") == zlib.crc32("ü".encode("utf-8"))
        want = reference(11, "trial", 7, "channel").bit_generator.state
        assert stream(11, "trial", 7, "channel").bit_generator.state == want


part = st.one_of(st.text(max_size=6), st.integers(0, 2**70))


@settings(max_examples=300, deadline=None)
@given(seed=st.one_of(st.integers(0, 2**200 - 1), st.integers(0, 2**63 - 1).map(np.int64),
                      st.integers(0, 2**64 - 1).map(np.uint64)),
       path=st.lists(part, max_size=5))
def test_stream_is_numpys_seed_sequence(seed, path):
    """Seeds up to 2^200 (past the four words numpy pads a seed to) and
    numpy ints; paths mixing names with ints up to 2^70."""
    assert stream(seed, *path).bit_generator.state == reference(int(seed), *path).bit_generator.state


@settings(max_examples=60, deadline=None)
@given(seeds=st.lists(st.integers(0, 2**64 - 1), max_size=12),
       names=st.lists(st.lists(st.text(max_size=4), min_size=1, max_size=3, unique=True),
                      min_size=1, max_size=3).filter(lambda paths: len({len(p) for p in paths}) == 1))
def test_primed_generators_are_the_scalar_ones(seeds, names):
    seeds = [0, 2**64 - 1, *seeds]
    paths = [tuple(p) for p in names]
    with primed(seeds, paths):
        assert len(streams._primed) == len(set(seeds)) * len(set(paths))
        for seed in seeds:
            for path in paths:
                assert stream(seed, *path).bit_generator.state == reference(seed, *path).bit_generator.state
    assert streams._primed == {}


def test_a_primed_state_is_handed_out_once():
    """stream pops what primed derived: a second ask derives it again, and
    the block's unused entries go when it ends."""
    paths = protocol._RUN_STREAMS
    with primed([5, 9], paths):
        first = streams._primed[(5, ("alice",))]
        assert stream(5, "alice").bit_generator.state == reference(5, "alice").bit_generator.state
        assert (5, ("alice",)) not in streams._primed
        assert stream(5, "alice").bit_generator.state == reference(5, "alice").bit_generator.state
        assert first.dtype == np.uint64 and first.tolist() == list(stream_seed(5, "alice")
                                                                    .generate_state(4, np.uint64))
        assert len(streams._primed) == 2 * len(paths) - 1
    assert streams._primed == {}


def test_the_memo_is_empty_after_an_account():
    params = protocol.ProtocolParams(n=12, m=1, r=1, N=2, delta=0.5, epsilon=0.05, noise_p=0.05,
                                     seed=3)
    attacks.information_account(params, attacks.random_ok(), method=attacks.InfoMethod.MONTE_CARLO,
                                budget=streams._BLOCK + 3)
    attacks.random_ok_decomposition(params, 5)
    assert streams._primed == {}


def test_the_memo_is_empty_after_an_account_that_raises(monkeypatch):
    """A run that raises partway through the first block leaves no primed
    state behind for later streams of the same seeds to find."""
    real, runs = protocol.run_string_qot, []

    def failing(*args, **kw):
        runs.append(1)
        if len(runs) == 5:
            assert streams._primed  # the block's later runs are still primed
            raise RuntimeError("run 5")
        return real(*args, **kw)

    monkeypatch.setattr(protocol, "run_string_qot", failing)
    params = protocol.ProtocolParams(n=12, m=1, r=1, N=2, delta=0.5, epsilon=0.05, noise_p=0.05,
                                     seed=4)
    with pytest.raises(RuntimeError, match="run 5"):
        attacks.information_account(params, attacks.honest(),
                                    method=attacks.InfoMethod.MONTE_CARLO, budget=40)
    assert streams._primed == {}
    runs.clear()
    with pytest.raises(RuntimeError, match="run 5"):
        attacks.random_ok_decomposition(params, 40)
    assert streams._primed == {}


@pytest.mark.parametrize("args, message", [
    ((1, 2.5), "stream path part 0 must be an integer, not float"),
    ((1, "a", True), "stream path part 1 must be an integer, not bool"),
    ((1, "a", -1), "stream path part 1 must be at least 0, got -1"),
    ((1.5, "a"), "stream seed must be an integer, not float"),
    ((-1, "a"), "stream seed must be at least 0, got -1"),
    ((True, "a"), "stream seed must be an integer, not bool"),
    ((None,), "stream seed must be an integer, not NoneType"),
])
def test_stream_operands_follow_the_integer_rule(args, message):
    """A float part was truncated (stream(1, 2.5) was stream(1, 2)), a bool
    read as 0 or 1, and a float or negative seed raised numpy's TypeError
    or ValueError."""
    with pytest.raises(DomainError, match=message):
        stream(*args)


def test_numpy_integer_operands_read_as_their_values():
    want = reference(7, "trial", 3).bit_generator.state
    assert stream(np.int64(7), "trial", np.int64(3)).bit_generator.state == want
    assert stream(np.uint8(7), "trial", np.uint32(3)).bit_generator.state == want


def test_importing_qotsim_leaves_numpy_random_unloaded():
    """streams defines its seed-sequence class on first use, so a process
    that never asks for a stream does not load numpy.random."""
    env = {**os.environ, "PYTHONPATH": str(Path(qotsim.__file__).parent.parent)}
    probe = "import sys, qotsim; print('numpy.random' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env,
                          check=True)
    assert done.stdout.strip() == "False"


def test_no_module_seeds_through_numpys_seed_sequence():
    """streams computes the seeding itself; numpy's SeedSequence is only
    the tests' reference."""
    for path in sorted(Path(qotsim.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        named = [node.lineno for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute) and node.attr == "SeedSequence"
                 or isinstance(node, ast.alias) and node.name == "SeedSequence"]
        assert not named, f"{path.name} names SeedSequence at lines {named}"
