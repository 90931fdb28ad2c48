"""Protocol runner: parameters, commitments, transmission, the test,
set choice, decoding, transcripts, and the two execution modes."""

import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qotsim import attacks, gf2, protocol, quantum
from qotsim.errors import (
    DimensionError,
    DomainError,
    ProtocolViolation,
    ResourceError,
)


def make_params(**kw):
    base = dict(n=24, m=1, r=1, delta=0.25, N=4, mode=protocol.Mode.CLASSICAL_FAST, seed=1)
    base.update(kw)
    return protocol.ProtocolParams(**base)


# ---------------------------------------------------------------------------
# parameters and channel

def test_params_defaults():
    p = protocol.ProtocolParams(n=50, m=1, r=1, delta=0.05)
    assert p.N == 12  # floor(0.24 * 50)
    assert p.epsilon == 0.4  # 8 * delta
    assert p.mode is protocol.Mode.CLASSICAL_FAST


def test_params_validation():
    with pytest.raises(DomainError):
        protocol.ProtocolParams(n=0, m=1, r=0, delta=0.1, N=1)
    with pytest.raises(DomainError):
        protocol.ProtocolParams(n=8, m=0, r=0, delta=0.1, N=2)
    with pytest.raises(DomainError):
        protocol.ProtocolParams(n=8, m=1, r=-1, delta=0.1, N=2)
    with pytest.raises(DomainError):
        protocol.ProtocolParams(n=8, m=1, r=0, delta=-0.1, N=2)
    with pytest.raises(DomainError):
        protocol.ProtocolParams(n=8, m=2, r=1, delta=0.1, N=2)  # r+m > N
    with pytest.raises(DomainError):
        protocol.ProtocolParams(n=8, m=1, r=0, delta=0.1, N=2, noise_p=0.5)
    with pytest.raises(DomainError):
        protocol.ProtocolParams(n=3, m=1, r=0, delta=0.1)  # default N = 0
    # nan < 0 is false, so a sign test alone would let NaN through
    for bad in (dict(delta=math.nan), dict(epsilon=-0.1), dict(epsilon=math.nan)):
        with pytest.raises(DomainError):
            protocol.ProtocolParams(**{**dict(n=8, m=1, r=0, delta=0.1, N=2), **bad})
    assert protocol.ProtocolParams(n=8, m=1, r=0, delta=0.1, N=2, epsilon=0.0).epsilon == 0.0


def test_params_mode_coercion_and_channel():
    p = protocol.ProtocolParams(n=8, m=1, r=0, delta=0.1, N=2, mode="EXACT_QUANTUM")
    assert p.mode is protocol.Mode.EXACT_QUANTUM
    assert p.channel().kind is protocol.ChannelKind.NOISELESS
    noisy = make_params(noise_p=0.1).channel()
    assert noisy.kind is protocol.ChannelKind.BITFLIP and noisy.p == 0.1


def test_channel_model_validation():
    with pytest.raises(DomainError):
        protocol.ChannelModel.bitflip(-0.1)
    with pytest.raises(DomainError):
        protocol.ChannelModel.bitflip(1.1)


# ---------------------------------------------------------------------------
# commitments

def test_oracle_binding_and_tracking():
    oracle = protocol.CommitmentOracle()
    cid = oracle.commit("1011")
    assert oracle.opened_positions(cid) == []
    assert np.array_equal(oracle.open(cid, [0, 2]), [1, 1])
    assert np.array_equal(oracle.open(cid, [3]), [1])
    assert oracle.opened_positions(cid) == [0, 2, 3]
    with pytest.raises(ProtocolViolation):
        oracle.open(cid + 1, [0])
    with pytest.raises(ProtocolViolation):
        oracle.opened_positions(99)


def test_basis_angle():
    assert protocol.basis_angle(quantum.PLUS) == 0.0
    assert protocol.basis_angle(quantum.CROSS) == pytest.approx(np.pi / 4)


# ---------------------------------------------------------------------------
# transmission and measurement

def test_transmit_noiseless_keeps_the_encoding():
    dispatch, _ = protocol.transmit(
        "1010", "0101", protocol.ChannelModel.noiseless(),
        protocol.Mode.CLASSICAL_FAST, np.random.default_rng(0),
    )
    assert not dispatch.flips.any()
    assert np.array_equal(dispatch.encoded, gf2.bits("1010"))


def test_transmit_statevector_cap():
    w = np.zeros(21, dtype=np.uint8)
    with pytest.raises(ResourceError):
        protocol.transmit(
            w, w, protocol.ChannelModel.noiseless(),
            protocol.Mode.EXACT_QUANTUM, np.random.default_rng(0),
        )


def test_transmit_bitflip_flips_the_encoded_bit():
    rng = np.random.default_rng(5)
    dispatch, reception = protocol.transmit(
        "00000000", "00000000", protocol.ChannelModel.bitflip(0.49),
        protocol.Mode.CLASSICAL_FAST, rng,
    )
    assert dispatch.flips.any()
    i = int(np.nonzero(dispatch.flips)[0][0])
    out = reception.measure_basis(i, quantum.PLUS, np.random.default_rng(1))
    assert out == 1  # matched-basis measurement sees the flipped bit


class CountingRng:
    """Counts the uniforms drawn, whether one at a time or as an array."""

    def __init__(self):
        self.drawn = 0

    def random(self, size=None):
        self.drawn += 1 if size is None else int(np.prod(size))
        return 0.42 if size is None else np.full(size, 0.42)


@pytest.mark.parametrize("mode", [protocol.Mode.CLASSICAL_FAST, protocol.Mode.EXACT_QUANTUM])
def test_reception_consumes_one_uniform_per_measurement(mode):
    _, reception = protocol.transmit(
        "10110", "01100", protocol.ChannelModel.noiseless(), mode, np.random.default_rng(0),
    )
    rng = CountingRng()
    reception.measure_basis(0, quantum.PLUS, rng)
    reception.measure_basis(1, quantum.CROSS, rng)
    assert rng.drawn == 2
    reception.measure_many([4, 2, 3], [0.0, 0.3, math.pi / 4], rng)
    assert rng.drawn == 5
    reception.measure_many([0, 1, 2, 3, 4], 0.7, rng)
    assert rng.drawn == 10


def twin_receptions(mode, n, seed):
    rng = np.random.default_rng(seed)
    encoded, theta = gf2.random_bits(rng, n), gf2.random_bits(rng, n)
    return [protocol.Reception(mode, n, encoded, theta) for _ in range(2)]


@st.composite
def measurement_blocks(draw):
    """A photon count and a few blocks of distinct positions, each block
    at one fixed angle or at per-photon +/x basis angles."""
    n = draw(st.integers(1, 10))
    blocks = []
    for _ in range(draw(st.integers(1, 4))):
        positions = draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n))
        if draw(st.booleans()):
            angles = draw(st.floats(-4.0, 4.0))
        else:
            bases = draw(st.lists(st.integers(0, 1), min_size=len(positions),
                                  max_size=len(positions)))
            angles = protocol.basis_angle(np.array(bases, dtype=np.uint8))
        blocks.append((positions, angles))
    return n, blocks


@settings(max_examples=150, deadline=None)
@given(measurement_blocks(), st.integers(0, 2**32),
       st.sampled_from([protocol.Mode.CLASSICAL_FAST, protocol.Mode.EXACT_QUANTUM]))
def test_block_measurement_matches_the_photon_by_photon_loop(case, seed, mode):
    n, blocks = case
    block, loop = twin_receptions(mode, n, seed)
    rng_block, rng_loop = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
    for positions, angles in blocks:
        outs = block.measure_many(positions, angles, rng_block)
        angles = np.broadcast_to(angles, len(positions))
        expected = [loop.measure(i, float(a), rng_loop) for i, a in zip(positions, angles)]
        assert outs.dtype == np.uint8 and outs.tolist() == expected
        assert rng_block.bit_generator.state == rng_loop.bit_generator.state
    # both receptions are left in the same post-measurement states
    final = np.arange(n)
    assert np.array_equal(block.measure_many(final, 0.2, rng_block),
                          loop.measure_many(final, 0.2, rng_loop))


@pytest.mark.parametrize("mode", [protocol.Mode.CLASSICAL_FAST, protocol.Mode.EXACT_QUANTUM])
def test_block_rejects_repeated_and_out_of_range_positions(mode):
    reception, _ = twin_receptions(mode, 5, 3)
    rng = np.random.default_rng(0)
    for bad in ([1, 3, 1], [-1], [5], [0, 5], [1.0], [True]):
        with pytest.raises(DomainError):
            reception.measure_many(bad, 0.0, rng)
    with pytest.raises(DimensionError):
        reception.measure_many([0, 1], [0.0, 0.1, 0.2], rng)


@pytest.mark.parametrize("mode", [protocol.Mode.CLASSICAL_FAST, protocol.Mode.EXACT_QUANTUM])
def test_empty_block_draws_nothing(mode):
    reception, _ = twin_receptions(mode, 4, 5)
    rng = np.random.default_rng(2)
    before = rng.bit_generator.state
    outs = reception.measure_many([], 0.3, rng)
    assert outs.size == 0
    assert rng.bit_generator.state == before


def test_exact_block_builds_one_basis_per_distinct_angle(monkeypatch):
    reception, _ = twin_receptions(protocol.Mode.EXACT_QUANTUM, 6, 7)
    built = []
    angle_basis = quantum.angle_basis
    monkeypatch.setattr(quantum, "angle_basis", lambda a: built.append(a) or angle_basis(a))
    angles = protocol.basis_angle([0, 1, 1, 0, 1, 0])
    reception.measure_many(range(6), angles, np.random.default_rng(4))
    assert sorted(built) == [0.0, math.pi / 4]


def test_exact_reception_state_stays_real_across_blocks():
    reception, _ = twin_receptions(protocol.Mode.EXACT_QUANTUM, 6, 11)
    rng = np.random.default_rng(5)
    assert reception._state.dtype == np.float64
    reception.measure_many([4, 0, 2], protocol.basis_angle([1, 0, 1]), rng)
    assert reception._state.dtype == np.float64
    reception.measure(3, 0.4, rng)
    reception.measure_many([5, 1], 1.1, rng)
    assert reception._state.dtype == np.float64
    assert abs(np.linalg.norm(reception._state) - 1.0) < quantum.PHYS_TOL


@pytest.mark.parametrize("mode", [protocol.Mode.CLASSICAL_FAST, protocol.Mode.EXACT_QUANTUM])
def test_reception_matched_basis_is_faithful_and_repeatable(mode):
    w, theta = gf2.bits("1001"), gf2.bits("0110")
    _, reception = protocol.transmit(
        w, theta, protocol.ChannelModel.noiseless(), mode, np.random.default_rng(0),
    )
    rng = np.random.default_rng(9)
    outs = [reception.measure_basis(i, int(theta[i]), rng) for i in range(4)]
    assert np.array_equal(outs, w)
    again = [reception.measure_basis(i, int(theta[i]), rng) for i in range(4)]
    assert np.array_equal(again, w)
    with pytest.raises(DomainError):
        reception.measure_basis(4, 0, rng)


# ---------------------------------------------------------------------------
# the test and the set choice

def build_opened(w, theta, theta_hat, w_hat):
    oracle = protocol.CommitmentOracle()
    tid = oracle.commit(theta_hat)
    wid = oracle.commit(w_hat)
    return oracle, tid, wid


def test_alice_test_counts_matched_positions_only():
    w = gf2.bits("00000000")
    theta = gf2.bits("00000000")
    theta_hat = gf2.bits("00001111")  # last four mismatched
    w_hat = gf2.bits("11000011")
    oracle, tid, wid = build_opened(w, theta, theta_hat, w_hat)
    passed, errors = protocol.alice_test(
        w, theta, wid, tid, range(8), 0.25, oracle
    )
    assert errors == 2  # the two matched disagreements, mismatches are free
    assert passed  # 2 <= 0.25 * 8


def test_alice_test_boundary_is_inclusive():
    w = gf2.bits("0000")
    theta = gf2.bits("0000")
    w_hat = gf2.bits("1000")
    oracle, tid, wid = build_opened(w, theta, theta, w_hat)
    passed, errors = protocol.alice_test(w, theta, wid, tid, range(4), 0.25, oracle)
    assert errors == 1 and passed  # exactly delta * n
    w_hat2 = gf2.bits("1100")
    oracle2, tid2, wid2 = build_opened(w, theta, theta, w_hat2)
    passed2, errors2 = protocol.alice_test(w, theta, wid2, tid2, range(4), 0.25, oracle2)
    assert errors2 == 2 and not passed2


def test_alice_test_only_opens_r():
    w = gf2.bits("0000")
    oracle, tid, wid = build_opened(w, w, w, w)
    protocol.alice_test(w, w, wid, tid, [1, 3], 0.5, oracle)
    assert oracle.opened_positions(wid) == [1, 3]
    assert oracle.opened_positions(tid) == [1, 3]


@pytest.mark.parametrize("trial", range(10))
def test_partition_properties(trial):
    rng = np.random.default_rng(1400 + trial)
    n, N = 24, 3
    theta = gf2.random_bits(rng, n)
    theta_hat = gf2.random_bits(rng, n)
    R = np.nonzero(rng.random(n) < 0.5)[0]
    part = protocol.partition_and_choose_sets(theta, theta_hat, R, N, rng)
    assert np.array_equal(np.sort(np.concatenate([part.T0, part.T1])), np.arange(n))
    assert np.array_equal(part.T0, np.nonzero(theta == theta_hat)[0])
    if part.shortage:
        assert part.E0 is None and part.announced is None
        return
    for side, pool in ((part.E0, part.T0), (part.E1, part.T1)):
        assert side.size == N
        assert np.all(np.isin(side, pool))
        assert not np.any(np.isin(side, R))
    ids = {id(s) for s in part.announced}
    assert ids == {id(part.E0), id(part.E1)}


def test_partition_shortage_when_one_side_is_empty():
    theta = gf2.bits("0000")
    part = protocol.partition_and_choose_sets(
        theta, theta, [], 2, np.random.default_rng(0)
    )
    assert part.shortage and part.T1.size == 0


# ---------------------------------------------------------------------------
# correction and decoding

def test_announce_correction_hand_example():
    g = gf2.bitmatrix(["110"])
    h = gf2.bitmatrix(["011"])
    w = gf2.bits("10110")
    s, a = protocol.alice_announce_correction([1], w, [0, 2, 4], g, h)
    u = w[[0, 2, 4]]  # 110
    assert np.array_equal(s, gf2.matvec(g, u))
    assert np.array_equal(a, gf2.bits([1]) ^ gf2.matvec(h, u))
    with pytest.raises(DimensionError):
        protocol.alice_announce_correction([1], w, [0, 2], g, h)
    with pytest.raises(DimensionError):
        protocol.alice_announce_correction([1, 0], w, [0, 2, 4], g, h)


def test_bob_decode_exact_copy():
    g = gf2.bitmatrix(["110", "011"])
    h = gf2.bitmatrix(["101"])
    u = gf2.bits("101")  # w restricted to positions 0, 2, 4
    s, a = protocol.alice_announce_correction([1], "10001", [0, 2, 4], g, h)
    b_hat, corrected = protocol.bob_decode(u, s, g, a, h)
    assert np.array_equal(corrected, u)
    assert np.array_equal(b_hat, [1])


def test_bob_decode_corrects_one_error():
    g = gf2.bitmatrix(["1110", "0111"])  # kernel words have weight >= 2
    h = gf2.bitmatrix(["1000"])
    u = gf2.bits("1010")
    s = gf2.matvec(g, u)
    a = gf2.bits([0]) ^ gf2.matvec(h, u)
    damaged = u.copy()
    damaged[2] ^= 1
    b_hat, corrected = protocol.bob_decode(damaged, s, g, a, h)
    assert np.array_equal(corrected, u)
    assert np.array_equal(b_hat, [0])


def test_bob_decode_breaks_ties_lexicographically():
    g = gf2.bitmatrix(["11"])
    s = gf2.bits([0])  # solutions 00 and 11, both at distance 1 from 10
    b_hat, corrected = protocol.bob_decode("10", s, g, [0], gf2.bitmatrix(["01"]))
    assert np.array_equal(corrected, [0, 0])
    assert np.array_equal(b_hat, [0])


def test_bob_decode_unsolvable_and_cap():
    b_hat, corrected = protocol.bob_decode("00", [1], gf2.bitmatrix(["00"]), [0], gf2.bitmatrix(["01"]))
    assert b_hat is None and corrected is None
    wide = np.zeros((0, 21), dtype=np.uint8)
    with pytest.raises(ResourceError):
        protocol.bob_decode(np.zeros(21, dtype=np.uint8), [], wide, [0], np.ones((1, 21), dtype=np.uint8))


def test_bob_decode_rejects_a_word_of_the_wrong_width():
    g = gf2.bitmatrix(["110000", "011000"])
    with pytest.raises(DimensionError):
        protocol.bob_decode("10100", [0, 0], g, [0], gf2.bitmatrix(["000001"]))


def test_bob_decode_of_empty_words():
    empty = np.zeros((0, 0), dtype=np.uint8)
    b_hat, corrected = protocol.bob_decode([], [], empty, [], empty)
    assert b_hat.size == 0 and corrected.size == 0


@pytest.mark.parametrize("trial", range(15))
def test_bob_decode_is_maximum_likelihood(trial):
    rng = np.random.default_rng(1500 + trial)
    width = int(rng.integers(2, 7))
    g = gf2.random_bitmatrix(rng, int(rng.integers(1, 4)), width)
    u = gf2.random_bits(rng, width)
    s = gf2.matvec(g, u)
    h = gf2.random_bitmatrix(rng, 1, width)
    target = gf2.random_bits(rng, width)
    _, corrected = protocol.bob_decode(target, s, g, [0], h)
    assert np.array_equal(gf2.matvec(g, corrected), s)
    particular, kern = gf2.solve_affine(g, s)
    best = min(
        gf2.hamming_distance(particular ^ combo, target)
        for combo in _span(kern, width)
    )
    assert gf2.hamming_distance(corrected, target) == best


def _span(kern, width):
    out = [np.zeros(width, dtype=np.uint8)]
    for row in kern:
        out = out + [v ^ row for v in out]
    return out


@settings(max_examples=60, deadline=None)
@given(
    width=st.integers(65, 130),
    dim=st.integers(0, 8),
    flip=st.sampled_from([0.02, 0.5]),
    tie=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_bob_decode_returns_the_first_nearest_coset_word_on_wide_words(width, dim, flip, tie, seed):
    rng = np.random.default_rng(seed)
    g = gf2.random_bitmatrix(rng, width - dim, width)
    target = gf2.random_bits(rng, width)
    if tie:  # v and v ^ e0 ^ e1 share a coset and sit at equal distance
        g[:, 1] = g[:, 0]
        target[1] = 1 - target[0]
    u = target ^ (rng.random(width) < flip).astype(np.uint8)
    s = gf2.matvec(g, u)
    h, a = gf2.random_bitmatrix(rng, 2, width), gf2.random_bits(rng, 2)
    b_hat, corrected = protocol.bob_decode(target, s, g, a, h)
    particular, kern = gf2.solve_affine(g, s)
    coset = [particular ^ combo for combo in _span(kern, width)]
    best = min(coset, key=lambda v: (gf2.hamming_distance(v, target), v.tolist()))
    assert np.array_equal(corrected, best)
    assert np.array_equal(b_hat, a ^ gf2.matvec(h, best))


# ---------------------------------------------------------------------------
# full runs

def test_honest_noiseless_roundtrip():
    tr = protocol.run_string_qot(make_params(), [1], force_c=0)
    assert tr.passed and tr.abort_reason is None
    assert tr.c == 0
    assert np.array_equal(tr.b_hat, tr.b)
    assert tr.test_errors == 0
    s_expected = gf2.matvec(tr.f[:1], tr.w[tr.E_c])
    assert np.array_equal(tr.s, s_expected)


def test_force_c_selects_the_set():
    for c in (0, 1):
        tr = protocol.run_string_qot(make_params(seed=3), [0], force_c=c)
        if tr.abort_reason is not None:
            continue
        assert tr.c == c
        expected = tr.E0 if c == 0 else tr.E1
        assert np.array_equal(tr.E_c, expected)
    with pytest.raises(DomainError):
        protocol.run_string_qot(make_params(), [0], force_c=2)


def test_no_transfer_branch_has_no_decode():
    tr = protocol.run_string_qot(make_params(seed=5), [1], force_c=1)
    if tr.abort_reason is None:
        assert tr.c == 1
        assert tr.b_hat is None


def test_announce_rest_covers_the_complement():
    tr = protocol.run_string_qot(make_params(seed=7), [1], force_c=0, announce_rest=True)
    assert tr.abort_reason is None
    rest = tr.announced_rest
    assert np.array_equal(rest["positions"], gf2.complement_positions(tr.E_c, 24))
    assert np.array_equal(rest["bits"], tr.w[rest["positions"]])


def test_abort_on_test_failure():
    params = make_params(delta=0.0, noise_p=0.4, seed=11)
    tr = protocol.run_string_qot(params, [1])
    assert tr.abort_reason == protocol.TEST_FAILED
    assert not tr.passed
    assert tr.E0 is None and tr.c is None and tr.b_hat is None


def test_abort_on_set_shortage():
    # N equal to half of n cannot leave enough untested candidates per side
    for seed in range(30):
        tr = protocol.run_string_qot(
            protocol.ProtocolParams(n=8, m=1, r=1, delta=0.5, N=4, seed=seed), [1]
        )
        if tr.abort_reason == protocol.SET_SHORTAGE:
            assert tr.passed  # shortage is distinct from failing the test
            assert tr.T0 is not None and tr.E0 is None
            return
    raise AssertionError("no shortage found across seeds")


def test_qkd_announces_one_set_only():
    tr = protocol.run_qkd(make_params(seed=13))
    assert tr.protocol == "qkd"
    assert tr.c == 0 and tr.E1 is None
    assert len(tr.announced_sets) == 1
    assert tr.b.size == 1
    if tr.abort_reason is None:
        assert np.array_equal(tr.b_hat, tr.b)


def test_qkd_and_qot_share_the_machinery_under_one_seed():
    params = make_params(seed=12)
    kd = protocol.run_qkd(params)
    assert kd.abort_reason is None
    ot = protocol.run_string_qot(params, kd.b, force_c=0)
    for field in ("w", "theta", "theta_hat", "w_hat", "R", "E0", "s", "a", "b_hat"):
        assert np.array_equal(getattr(kd, field), getattr(ot, field)), field


def test_runs_are_deterministic_given_the_seed():
    params = make_params(seed=19, noise_p=0.05)
    a = protocol.run_string_qot(params, [1], bob=attacks.fixed_basis(0.2))
    b = protocol.run_string_qot(params, [1], bob=attacks.fixed_basis(0.2))
    assert a.to_json() == b.to_json()


@pytest.mark.parametrize("noise_p", [0.0, 0.1])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_modes_agree_run_for_run_on_honest_runs(noise_p, seed):
    """Matched-basis measurements are deterministic and mismatched ones
    consume one uniform either way, so the two implementations replay the
    same transcript from the same seed."""
    common = dict(n=10, m=1, r=1, delta=0.3, N=2, noise_p=noise_p, seed=seed)
    fast = protocol.run_string_qot(
        protocol.ProtocolParams(mode=protocol.Mode.CLASSICAL_FAST, **common), [1]
    )
    exact = protocol.run_string_qot(
        protocol.ProtocolParams(mode=protocol.Mode.EXACT_QUANTUM, **common), [1]
    )
    da = json.loads(fast.to_json())
    db = json.loads(exact.to_json())
    assert da["params"].pop("mode") != db["params"].pop("mode")
    assert da == db


def test_pinned_code_replaces_the_drawn_matrix():
    params = make_params(seed=23)
    code = gf2.LinearCode(f=gf2.bitmatrix(["1010", "0101"]), r=1, m=1)
    tr = protocol.run_string_qot(params, [1], code=code)
    assert np.array_equal(tr.f, code.f)
    free = protocol.run_string_qot(params, [1])
    assert np.array_equal(free.w, tr.w)  # the stream draws stay aligned
    bad = gf2.LinearCode(f=gf2.bitmatrix(["101"]), r=0, m=1)
    with pytest.raises(DimensionError):
        protocol.run_string_qot(params, [1], code=bad)


def test_transcript_roundtrip_preserves_everything():
    params = protocol.ProtocolParams(
        n=8, m=1, r=1, delta=0.25, N=2, noise_p=0.1,
        mode=protocol.Mode.EXACT_QUANTUM, seed=29,
    )
    tr = None
    for seed in range(40):
        cand = protocol.run_string_qot(
            protocol.ProtocolParams(
                n=8, m=1, r=1, delta=0.25, N=2, noise_p=0.1,
                mode=protocol.Mode.EXACT_QUANTUM, seed=seed,
            ),
            [1], bob=attacks.store_subset(positions=[1, 4]), force_c=0,
            announce_rest=True,
        )
        if cand.abort_reason is None:
            tr = cand
            break
    assert tr is not None
    back = protocol.Transcript.from_json(tr.to_json())
    assert back.to_json() == tr.to_json()
    assert back.deferred == tr.deferred  # keys back to ints
    assert all(isinstance(k, int) for k in back.bob_values)
    assert np.array_equal(back.f, tr.f)
    assert back.params == tr.params


@st.composite
def protocol_runs(draw):
    """Arguments of one run: either protocol, every receiver strategy and
    both kinds of Eve, small sizes so that both abort reasons are common."""
    n = draw(st.integers(4, 16))
    N = draw(st.integers(1, n // 4))
    m = draw(st.integers(1, N))
    params = protocol.ProtocolParams(
        n=n, m=m, r=draw(st.integers(0, N - m)), N=N,
        delta=draw(st.sampled_from([0.0, 0.1, 0.3])),
        noise_p=draw(st.sampled_from([0.0, 0.1])),
        seed=draw(st.integers(0, 2**32)),
    )
    announce_rest = draw(st.booleans())
    if draw(st.booleans()):
        eve = draw(st.sampled_from([None, attacks.honest(), attacks.fixed_basis(0.3)]))
        return "qkd", params, dict(eve=eve, announce_rest=announce_rest)
    bob = draw(st.one_of(
        st.just(attacks.honest()),
        st.just(attacks.random_ok()),
        st.floats(-4.0, 4.0).map(attacks.fixed_basis),
        st.lists(st.integers(0, n - 1), unique=True).map(
            lambda f: attacks.store_subset(positions=f)
        ),
        st.integers(0, n).map(lambda k: attacks.store_subset(count=k)),
    ))
    return "qot", params, dict(
        b=draw(st.lists(st.integers(0, 1), min_size=m, max_size=m)),
        bob=bob, force_c=draw(st.sampled_from([None, 0, 1])),
        announce_rest=announce_rest,
    )


@settings(max_examples=200, deadline=None)
@given(protocol_runs())
def test_random_transcripts_round_trip_byte_for_byte(run):
    kind, params, kw = run
    if kind == "qkd":
        tr = protocol.run_qkd(params, **kw)
    else:
        tr = protocol.run_string_qot(params, **kw)
    text = tr.to_json()
    assert protocol.Transcript.from_json(text).to_json() == text


def test_transcript_from_json_rejects_missing_and_unknown_keys():
    d = json.loads(protocol.run_string_qot(make_params(seed=31), [1]).to_json())
    protocol.Transcript.from_json(json.dumps(d))
    with pytest.raises(DomainError, match="missing \\['eve'\\]"):
        protocol.Transcript.from_json(json.dumps({k: v for k, v in d.items() if k != "eve"}))
    with pytest.raises(DomainError, match="unknown \\['extra'\\]"):
        protocol.Transcript.from_json(json.dumps({**d, "extra": 1}))


# sha256 of to_json for six n = 1024 CLASSICAL_FAST runs, frozen so that a
# change to any stream's draw order shows up as a changed transcript
FROZEN_TRANSCRIPTS = {
    "honest": "dd392a6a88dc41124b885d80e0b9d44ed1624235ce15df60033db40350a06295",
    "fixed_basis": "46bccf6b832e8b8a3f9692874ba88c6283b832f336140d23510243b70cc749ce",
    "store_count": "d85904d21f26a699d8952c1ab234fad74f1bd089d3e9940e7f3c0cedc584ca0c",
    "random_ok": "57bb283567a9c28de782a53876672bbec11c2c4366acc378fa4c0f2af17e0190",
    "qkd_honest_eve": "ed5a362ff546dc953b6ed93072cee563f436c4027c3daac144f7ae6fcfe2fa4e",
    "qkd_fixed_eve": "e4b18502797b15933afaed5071eb02ef7d16026c1feb66cb270d8abb9870c2f4",
}


def test_protocol_scale_transcripts_keep_their_frozen_digests():
    params = protocol.ProtocolParams(
        n=1024, m=2, r=8, N=16, delta=0.05, noise_p=0.02,
        mode=protocol.Mode.CLASSICAL_FAST, seed=20261018,
    )
    runs = {
        "honest": protocol.run_string_qot(params, [1, 0]),
        "fixed_basis": protocol.run_string_qot(params, [1, 0], bob=attacks.fixed_basis(0.3)),
        "store_count": protocol.run_string_qot(
            params, [1, 0], bob=attacks.store_subset(count=64)
        ),
        "random_ok": protocol.run_string_qot(params, [1, 0], bob=attacks.random_ok()),
        "qkd_honest_eve": protocol.run_qkd(params, eve=attacks.honest()),
        "qkd_fixed_eve": protocol.run_qkd(params, eve=attacks.fixed_basis(0.3)),
    }
    digests = {
        name: hashlib.sha256(tr.to_json().encode()).hexdigest() for name, tr in runs.items()
    }
    assert digests == FROZEN_TRANSCRIPTS
    # the six cover passing and failing tests, both picks and a decode
    assert {tr.abort_reason for tr in runs.values()} == {None, protocol.TEST_FAILED}
    assert {tr.c for tr in runs.values()} == {None, 0, 1}


# sha256 of to_json for EXACT_QUANTUM runs of every strategy kind and both
# Eve kinds at n = 6, 10 and 14, frozen so that a change to the statevector
# arithmetic that flips a single Born-rule outcome shows up
FROZEN_EXACT_TRANSCRIPTS = {
    "honest n=6": "54f843938b0c3af95fa6031cedb51756f40206187908c3ba4ac0064fe38699e0",
    "fixed_basis n=6": "b90479b93b85efb393889ff29e85e7915871b7239a7abdb223d2d8dcacebedee",
    "store_positions n=6": "3a534137e167b90e0d331ec4ef7a4c983d5e578bbc6f2852c4d544598312a0f2",
    "store_count n=6": "08fe1d9d62f05c940fe2cdcdab20affd301bc421aff018082628e49f5d9c72e6",
    "random_ok n=6": "e8626d0332270d0e50306972be8fd54c1ff861217fdc6db887efbab9f6e2b152",
    "qkd_honest_eve n=6": "796304ff8a8de4dd91e2a24cbda0fe0234cbac81d545cfacf1ee2873e9e8c079",
    "qkd_fixed_eve n=6": "172313cc43e0925af0882b7a2ec577de339e9568c12311e8bb785566fb42617e",
    "honest n=10": "a8bd7b45070850e3ebd646e631270aaed828777b85084a70d2e4662f2d118552",
    "fixed_basis n=10": "6d4ce28ab8d3b7a343382e8cfbdd83d554f5d9f79bbfc1ffcd1927da832cad00",
    "store_positions n=10": "e673bc3ab60ac480c65f6654203e048a90698682cf04281962babafd39debae4",
    "store_count n=10": "c619ac57d3b9a7020fab8a9b5edd8e116d6f5949d0ce912f5ae0521be63fd8e8",
    "random_ok n=10": "407307537e92e971f913d95639b54c9da89925ce1d8e17aecff8d76ae672946b",
    "qkd_honest_eve n=10": "f0c5d2d975d6c24291e9bb5fcd27894fbbf2dfb227b3889d4fa4a6a777fc6fed",
    "qkd_fixed_eve n=10": "f36634261b44f200bac7159f59134df7f83de58ba90df6570042e13f6d7ea14c",
    "honest n=14": "3e0e8a3d4306dfc03ef07e76d764321eaa001493e55b5fbe14871c91a2caa2e9",
    "fixed_basis n=14": "736c2f42544f375af3ea0507f4d807edd7e041ed13304f8e035250404303053a",
    "store_positions n=14": "a7a41d213600594d5724e308bf13d7ce93747dc3677e6d612d926a9c9bc77bfe",
    "store_count n=14": "00679ecba3ed82f1366ba4824ccfd84ca41ae52d500684eaea02f2f87b581eea",
    "random_ok n=14": "ec2c41b89b5de7fbe37f4a5859a10944f54cc20ce0fd4ef7fecd31cc1b057333",
    "qkd_honest_eve n=14": "17619d5a8772350eb5dae5cb48f246aacca702e63b2784b1e999d0c2ae3217ab",
    "qkd_fixed_eve n=14": "581af8b08d45e5b44c86a70ceedcd0074e91b10e29fc867c1816f8f83da82822",
}


def test_exact_quantum_transcripts_keep_their_frozen_digests():
    runs = {}
    for n, seed, delta in ((6, 6, 0.25), (10, 11, 0.25), (14, 10, 0.125)):
        params = protocol.ProtocolParams(
            n=n, m=1, r=1, N=2, delta=delta, noise_p=0.05,
            mode=protocol.Mode.EXACT_QUANTUM, seed=seed,
        )
        runs.update({
            f"honest n={n}": protocol.run_string_qot(params, [1]),
            f"fixed_basis n={n}": protocol.run_string_qot(
                params, [1], bob=attacks.fixed_basis(0.3)
            ),
            f"store_positions n={n}": protocol.run_string_qot(
                params, [0], bob=attacks.store_subset(positions=range(0, n, 2))
            ),
            f"store_count n={n}": protocol.run_string_qot(
                params, [1], bob=attacks.store_subset(count=n // 3)
            ),
            f"random_ok n={n}": protocol.run_string_qot(params, [0], bob=attacks.random_ok()),
            f"qkd_honest_eve n={n}": protocol.run_qkd(params, eve=attacks.honest()),
            f"qkd_fixed_eve n={n}": protocol.run_qkd(params, eve=attacks.fixed_basis(0.3)),
        })
    digests = {
        name: hashlib.sha256(tr.to_json().encode()).hexdigest() for name, tr in runs.items()
    }
    assert digests == FROZEN_EXACT_TRANSCRIPTS
    # the runs cover passing and failing tests, both picks and a decode
    assert {tr.abort_reason for tr in runs.values()} == {None, protocol.TEST_FAILED}
    assert {tr.c for tr in runs.values()} == {None, 0, 1}
