"""Protocol runner: parameters, commitments, transmission, the test,
set choice, decoding, transcripts, and the two execution modes."""

import dataclasses
import functools
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


@pytest.mark.parametrize("bad", [dict(n=16.0), dict(N=2.5), dict(m=1.0), dict(seed=1.5),
                                 dict(r=True), dict(n=np.True_), dict(N=False), dict(seed=True),
                                 dict(m="1"), dict(n=np.float64(16.0))])
def test_params_refuse_sizes_that_are_not_integers(bad):
    with pytest.raises(DomainError):
        protocol.ProtocolParams(**{**dict(n=16, m=1, r=1, delta=0.1, N=4), **bad})


def test_params_keep_numpy_integer_sizes_as_python_ints():
    p = protocol.ProtocolParams(n=np.int64(16), m=np.uint8(1), r=np.int32(1), delta=0.25,
                                seed=np.int64(3))
    assert all(type(getattr(p, name)) is int for name in ("n", "m", "r", "N", "seed"))
    assert p == protocol.ProtocolParams(n=16, m=1, r=1, delta=0.25, seed=3)
    tr = protocol.run_string_qot(p, [1])
    assert json.loads(tr.to_json())["params"]["n"] == 16
    assert tr.to_json() == protocol.run_string_qot(
        protocol.ProtocolParams(n=16, m=1, r=1, delta=0.25, seed=3), [1]).to_json()


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
    values = gf2.bits("1011")
    cid = oracle.commit(values)
    values[:] = 0  # the ledger keeps its own copy
    opened = oracle.open(cid, [0, 2])
    assert np.array_equal(opened, [1, 1])
    opened[:] = 0  # and hands out copies
    assert np.array_equal(oracle.open(cid, [3, 2]), [1, 1])
    assert oracle.commit("01") == cid + 1  # ids are issued in order
    with pytest.raises(ProtocolViolation):
        oracle.open(cid + 2, [0])


def test_basis_angle():
    assert protocol.basis_angle(quantum.PLUS) == 0.0
    assert protocol.basis_angle(quantum.CROSS) == pytest.approx(np.pi / 4)


@pytest.mark.parametrize("label", [-1, 0.7, 2, np.int64(-1), np.uint8(2), [0, 2], [1, -1],
                                   np.array([0.0, 0.5]), (0, 1, 3)])
def test_basis_angle_refuses_labels_other_than_0_and_1(label):
    with pytest.raises(DomainError):
        protocol.basis_angle(label)


def test_measure_basis_checks_its_label_once(monkeypatch):
    """measure_basis checks a scalar label itself and takes its angle with
    no second check; basis_angle checks every label of an array."""
    checked = []
    real = gf2._bit_array
    monkeypatch.setattr(gf2, "_bit_array", lambda v, what: checked.append(v) or real(v, what))
    _, reception = protocol.transmit(
        "0110", "0101", protocol.ChannelModel.noiseless(),
        protocol.Mode.CLASSICAL_FAST, np.random.default_rng(0),
    )
    checked.clear()  # transmit checks w and theta
    rng = np.random.default_rng(1)
    outs = [reception.measure_basis(i, b, rng) for i, b in enumerate((0, 1, 0, 1))]
    assert outs == [0, 1, 1, 0]
    assert checked == []
    assert protocol.basis_angle([1, 0]).tolist() == [math.pi / 4, 0.0]
    assert len(checked) == 1
    with pytest.raises(DomainError):
        reception.measure_basis(0, 2, rng)


# ---------------------------------------------------------------------------
# transmission and measurement

def test_transmit_noiseless_keeps_the_encoding():
    dispatch, _ = protocol.transmit(
        "1010", "0101", protocol.ChannelModel.noiseless(),
        protocol.Mode.CLASSICAL_FAST, np.random.default_rng(0),
    )
    assert not dispatch.flips.any()
    assert np.array_equal(dispatch.encoded, gf2.bits("1010"))


def test_transmit_has_no_photon_cap_in_either_mode():
    """Neither reception forms a statevector, so both modes run past
    STATEVECTOR_MAX_N photons; that cap guards bb84_states alone."""
    cap = quantum.STATEVECTOR_MAX_N
    for n in (cap + 1, 1024):
        w = np.zeros(n, dtype=np.uint8)
        for mode in protocol.Mode:
            _, reception = protocol.transmit(
                w, w, protocol.ChannelModel.noiseless(), mode, np.random.default_rng(0),
            )
            assert not reception.measure_many(np.arange(n), 0.0, np.random.default_rng(1)).any()
    with pytest.raises(ResourceError, match=f"statevectors cap at n={cap}"):
        quantum.bb84_state(w[:cap + 1], w[:cap + 1])


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


def held_angles(reception):
    """The angle each photon of a CLASSICAL_FAST reception rests at."""
    return np.array(reception._angles)[reception._held]


def born_loop(angles_held, bits_held, positions, angles, rng):
    """CLASSICAL_FAST measurement photon by photon on plain per-photon
    angle and bit arrays, each Born probability computed afresh: the
    reference for the angle table and the Born table."""
    outs = []
    for i, angle in zip(positions, np.broadcast_to(angles, len(positions)).tolist()):
        p1 = protocol._born_p1.__wrapped__(float(angles_held[i]), int(bits_held[i]), angle)
        outs.append(int(rng.random() < p1))
        angles_held[i], bits_held[i] = angle, outs[-1]
    return outs


@settings(max_examples=300, deadline=None)
@given(held=st.floats(-7.0, 7.0), bit=st.integers(0, 1), probe=st.floats(-7.0, 7.0))
def test_born_p1_sums_two_rounded_products(held, bit, probe):
    """p1 = |<probe, 1 | held, bit>|^2 with the overlap c0 v0 + c1 v1 taken
    as two rounded products and a rounded sum, never a fused multiply-add,
    so it is the same double on every host."""
    ch, sh, cp, sp = math.cos(held), math.sin(held), math.cos(probe), math.sin(probe)
    v0, v1 = (ch, sh) if bit == 0 else (-sh, ch)
    assert protocol._born_p1.__wrapped__(held, bit, probe) == abs(-sp * v0 + cp * v1) ** 2


def assert_born_table_matches_the_loop(n, blocks, seed):
    rng = np.random.default_rng(seed)
    encoded, theta = gf2.random_bits(rng, n), gf2.random_bits(rng, n)
    table = protocol.Reception(protocol.Mode.CLASSICAL_FAST, n, encoded, theta)
    angles_held, bits_held = protocol.basis_angle(theta), encoded.copy()
    rng_table, rng_loop = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
    for positions, angles in blocks:
        outs = table.measure_many(positions, angles, rng_table)
        assert outs.tolist() == born_loop(angles_held, bits_held, positions, angles, rng_loop)
        assert rng_table.bit_generator.state == rng_loop.bit_generator.state
    # the same held states; an angle is matched by value, so -0.0 may rest
    # at the table's 0.0, which has the same Born probabilities
    assert np.array_equal(held_angles(table), angles_held)
    assert table._bits.tobytes() == bits_held.tobytes()
    # the angle table holds each distinct angle once, the basis angles first
    assert table._angles[:2] == [0.0, math.pi / 4]
    assert len(set(table._angles)) == len(table._angles)


@st.composite
def born_blocks(draw):
    """Blocks of distinct positions, each at one angle or at one angle per
    photon, over a growing pool: block j (from 0) draws from 0.0, -0.0,
    pi/4 and the first j + 1 of one to four other angles, so a third and a
    fourth angle join partway through the run and photons are measured
    again at angles new to the run."""
    n = draw(st.integers(1, 12))
    others = draw(st.lists(st.floats(-4.0, 4.0), min_size=1, max_size=4))
    blocks = []
    for j in range(draw(st.integers(1, 6))):
        pool = st.sampled_from([0.0, -0.0, math.pi / 4, *others[:j + 1]])
        positions = draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n))
        if draw(st.booleans()):
            angles = draw(pool)
        else:
            angles = np.array(draw(st.lists(
                pool, min_size=len(positions), max_size=len(positions)
            )))
        blocks.append((positions, angles))
    return n, blocks


@settings(max_examples=150, deadline=None)
@given(born_blocks(), st.integers(0, 2**32))
def test_born_table_matches_the_per_photon_born_rule(case, seed):
    assert_born_table_matches_the_loop(*case, seed)


def test_born_table_on_empty_blocks_and_on_both_zeros():
    blocks = [
        ([], 0.3),
        (np.array([], dtype=np.int64), np.array([])),  # finish_deferred with nothing held
        ([0, 1, 2], -0.0),
        ([1, 3, 5, 0], np.array([0.0, -0.0, 0.0, -0.0])),  # probes hold both zeros
        ([5, 4, 3, 2, 1, 0], 0.0),  # held angles hold both zeros
        ([2, 0, 4], np.array([-0.0, 0.0, math.pi / 4])),
        ([0, 1, 2, 3, 4, 5], math.pi / 4),
        ([3], 1.1),  # one photon brings in a third angle
        ([4, 3, 1], np.array([-2.5, 1.1, 0.3])),  # and a block the fourth and fifth
        ([0, 1, 2, 3, 4, 5], np.array([0.3, 1.1, -2.5, 0.0, math.pi / 4, 1.1])),
    ]
    for seed in range(20):
        assert_born_table_matches_the_loop(6, blocks, seed)


NON_FINITE = [math.nan, math.inf, -math.inf]


@pytest.mark.parametrize("mode", [protocol.Mode.CLASSICAL_FAST, protocol.Mode.EXACT_QUANTUM])
@pytest.mark.parametrize("bad", NON_FINITE)
def test_non_finite_angles_raise_before_any_draw(mode, bad):
    reception, twin = twin_receptions(mode, 5, 8)
    rng = CountingRng()
    calls = [
        lambda: reception.measure_many([0, 1], bad, rng),
        lambda: reception.measure_many([0, 1, 2], [0.1, 0.2, bad], rng),
        lambda: reception.measure_many([3], [bad], rng),
        lambda: reception.measure(1, bad, rng),
        lambda: reception.measure(np.int64(2), np.float64(bad), rng),
        lambda: reception.measure_basis(1, bad, rng),
    ]
    for call in calls:
        with pytest.raises(DomainError):
            call()
    assert rng.drawn == 0
    # nothing was measured: the reception still answers like its twin
    every = np.arange(5)
    assert np.array_equal(reception.measure_many(every, 0.4, np.random.default_rng(1)),
                          twin.measure_many(every, 0.4, np.random.default_rng(1)))
    if mode is protocol.Mode.CLASSICAL_FAST:
        assert reception._angles == [0.0, math.pi / 4, 0.4]


@pytest.mark.parametrize("mode", [protocol.Mode.CLASSICAL_FAST, protocol.Mode.EXACT_QUANTUM])
def test_one_photon_measure_rejects_what_a_block_rejects(mode):
    reception, twin = twin_receptions(mode, 5, 3)
    rng = np.random.default_rng(0)
    before = rng.bit_generator.state
    for bad in (1.0, np.float64(2.0), True, np.bool_(False), "1", None, -1, 5, np.int64(5)):
        with pytest.raises(DomainError):
            reception.measure(bad, 0.0, rng)
        with pytest.raises(DomainError):
            reception.measure_basis(bad, quantum.PLUS, rng)
    assert rng.bit_generator.state == before
    # NumPy integers are positions, and one photon draws what a block of one draws
    rng_twin = np.random.default_rng(0)
    for i, angle in ((np.int64(2), 0.3), (np.uint8(4), -1.0), (2, math.pi / 4)):
        assert reception.measure(i, angle, rng) == twin.measure_many([i], angle, rng_twin)[0]
    assert rng.bit_generator.state == rng_twin.bit_generator.state


@pytest.mark.parametrize("mode", [protocol.Mode.CLASSICAL_FAST, protocol.Mode.EXACT_QUANTUM])
def test_block_rejects_repeated_and_out_of_range_positions(mode):
    reception, twin = twin_receptions(mode, 5, 3)
    rng = np.random.default_rng(0)
    before = rng.bit_generator.state
    # numpy casts a list that mixes ints and bools to int64: the bool is
    # still refused, not measured as position 1 or 0
    for bad in ([1, 3, 1], [-1], [5], [0, 5], [1.0], [True], [2, True], np.array([True]),
                (np.False_, 3)):
        with pytest.raises(DomainError):
            reception.measure_many(bad, 0.0, rng)
    with pytest.raises(DimensionError):
        reception.measure_many([0, 1], [0.0, 0.1, 0.2], rng)
    assert rng.bit_generator.state == before
    every = np.arange(5)
    assert np.array_equal(reception.measure_many(every, 0.4, np.random.default_rng(1)),
                          twin.measure_many(every, 0.4, np.random.default_rng(1)))


@pytest.mark.parametrize("mode", [protocol.Mode.CLASSICAL_FAST, protocol.Mode.EXACT_QUANTUM])
def test_empty_block_draws_nothing(mode):
    reception, _ = twin_receptions(mode, 4, 5)
    rng = np.random.default_rng(2)
    before = rng.bit_generator.state
    outs = reception.measure_many([], 0.3, rng)
    assert outs.size == 0
    assert rng.bit_generator.state == before


class ScriptedRng:
    """Returns the scripted uniforms in order, one or an array at a time."""

    def __init__(self, values):
        self.values = list(values)
        self.drawn = 0

    def random(self, size=None):
        take = 1 if size is None else size
        out = self.values[self.drawn:self.drawn + take]
        assert len(out) == take, "the script ran out of uniforms"
        self.drawn += take
        return out[0] if size is None else np.array(out)


# angles on a grid of pi/16 and uniforms at odd multiples of 1/128: every
# Born probability is sin^2 of a multiple of pi/16, at least 1e-3 from
# every scripted uniform, so rounding cannot split the two measurements
GRID_ANGLES = [k * math.pi / 16 for k in range(-16, 17)]
GRID_UNIFORMS = [(2 * j + 1) / 128 for j in range(64)]


@st.composite
def reference_steps(draw):
    """A photon count up to 8, an encoding, and a run of steps: blocks at
    one angle or at one angle per photon, and single positions, which
    measure photons again as the run goes on."""
    n = draw(st.integers(1, 8))
    bits = st.lists(st.integers(0, 1), min_size=n, max_size=n)
    encoded, theta = draw(bits), draw(bits)
    steps = []
    for _ in range(draw(st.integers(1, 6))):
        if draw(st.booleans()):
            steps.append((draw(st.integers(0, n - 1)), draw(st.sampled_from(GRID_ANGLES))))
            continue
        positions = draw(st.lists(st.integers(0, n - 1), unique=True, min_size=1, max_size=n))
        if draw(st.booleans()):
            angles = draw(st.sampled_from(GRID_ANGLES))
        else:
            angles = draw(st.lists(st.sampled_from(GRID_ANGLES),
                                   min_size=len(positions), max_size=len(positions)))
        steps.append((positions, angles))
    uniforms = draw(st.lists(st.sampled_from(GRID_UNIFORMS), min_size=8 * 6, max_size=8 * 6))
    return n, np.array(encoded, dtype=np.uint8), np.array(theta, dtype=np.uint8), steps, uniforms


@settings(max_examples=200, deadline=None)
@given(reference_steps())
def test_factored_reception_matches_the_statevector_reference(case):
    """The EXACT_QUANTUM reception measures its per-photon factors; the
    statevector measure_photons on bb84_state of the same encoding, fed the
    same uniforms, gives the same outcomes, and the kron of the factors is
    its collapsed state."""
    n, encoded, theta, steps, uniforms = case
    reception = protocol.Reception(protocol.Mode.EXACT_QUANTUM, n, encoded, theta)
    state = quantum.bb84_state(encoded, theta)
    rng, ref_rng = ScriptedRng(uniforms), ScriptedRng(uniforms)
    for positions, angles in steps:
        if isinstance(positions, int):
            got = [reception.measure(positions, angles, rng)]
            positions, angles = [positions], [angles]
        else:
            got = reception.measure_many(positions, angles, rng).tolist()
        probes = np.broadcast_to(angles, len(positions)).tolist()
        expected, state = quantum.measure_photons(
            state, positions, [quantum.angle_basis(a) for a in probes], ref_rng
        )
        assert got == expected.tolist()
        assert rng.drawn == ref_rng.drawn
        factors = reception._factors
        assert factors.dtype == np.float64
        kron = functools.reduce(np.kron, factors)
        assert np.max(np.abs(kron - state)) < 1e-12


def test_exact_reception_builds_one_rotation_per_distinct_angle_per_run(monkeypatch):
    """A rotation is built when its angle joins the run's table, at its
    first measurement, in a block or on one photon, and never again. The
    basis angles' rotations are shared by every reception."""
    built = []
    angle_basis = quantum.angle_basis
    monkeypatch.setattr(quantum, "angle_basis", lambda a: built.append(a) or angle_basis(a))
    rng = np.random.default_rng(7)
    encoded, theta = gf2.random_bits(rng, 6), gf2.random_bits(rng, 6)
    reception = protocol.Reception(protocol.Mode.EXACT_QUANTUM, 6, encoded, theta)
    assert built == [] and reception._angles == [0.0, math.pi / 4]
    rng = np.random.default_rng(4)
    reception.measure_many(range(6), protocol.basis_angle([0, 1, 1, 0, 1, 0]), rng)
    reception.measure_many([0, 2, 4], np.array([0.3, -0.0, 0.3]), rng)
    reception.measure(5, 0.3, rng)
    reception.measure_basis(1, quantum.CROSS, rng)
    reception.measure_many([3, 1], 1.1, rng)
    reception.measure_many(range(6), [1.1, 0.3, 0.0, math.pi / 4, 0.3, 1.1], rng)
    assert built == [0.3, 1.1]
    assert reception._angles == [0.0, math.pi / 4, 0.3, 1.1]
    assert np.array_equal(reception._rotations,
                          [angle_basis(a) for a in reception._angles])


def assert_real_unit_factors(reception):
    factors = reception._factors
    assert factors.dtype == np.float64 and factors.shape == (reception.n, 2)
    assert np.all(np.abs(np.linalg.norm(factors, axis=1) - 1.0) < quantum.PHYS_TOL)


def test_exact_reception_state_stays_real_across_blocks():
    reception, _ = twin_receptions(protocol.Mode.EXACT_QUANTUM, 6, 11)
    rng = np.random.default_rng(5)
    assert_real_unit_factors(reception)
    reception.measure_many([4, 0, 2], protocol.basis_angle([1, 0, 1]), rng)
    assert_real_unit_factors(reception)
    reception.measure(3, 0.4, rng)
    reception.measure_many([5, 1], 1.1, rng)
    assert_real_unit_factors(reception)


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


class RecordingOracle(protocol.CommitmentOracle):
    """An oracle that lists every (commitment, positions) it opens."""

    def __init__(self):
        super().__init__()
        self.opened = []

    def open(self, cid, positions):
        self.opened.append((cid, list(positions)))
        return super().open(cid, positions)


def test_alice_test_only_opens_r():
    w = gf2.bits("0000")
    oracle = RecordingOracle()
    tid, wid = oracle.commit(w), oracle.commit(w)
    protocol.alice_test(w, w, wid, tid, [1, 3], 0.5, oracle)
    assert sorted(oracle.opened) == [(tid, [1, 3]), (wid, [1, 3])]


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


def _decode_operands():
    """A valid (w_hat_ec, s, g, a, h) for a width-3 word, as int64 arrays."""
    g = np.array([[1, 1, 0], [0, 1, 1]])
    h, u = np.array([[1, 0, 1]]), np.array([1, 0, 1])
    return {"w_hat_ec": u, "s": g @ u % 2, "g": g, "a": np.array([1]) ^ h @ u % 2, "h": h}


@pytest.mark.parametrize("operand", ["w_hat_ec", "s", "g", "a", "h"])
def test_bob_decode_rejects_a_non_bit_entry_in_each_operand(operand):
    ops = _decode_operands()
    ops[operand] = ops[operand].copy()
    ops[operand].flat[0] = 2
    with pytest.raises(DomainError):
        protocol.bob_decode(**ops)


@pytest.mark.parametrize(
    "operand, value",
    [("w_hat_ec", [1, 0, 1, 0]), ("s", [0]), ("s", [0, 0, 0]), ("a", [1, 0]), ("h", [[1, 0]])],
)
def test_bob_decode_rejects_operands_of_the_wrong_size(operand, value):
    ops = _decode_operands()
    ops[operand] = np.array(value)
    with pytest.raises(DimensionError):
        protocol.bob_decode(**ops)


@pytest.mark.parametrize("s", [[0, 1], [1, 1]])
def test_bob_decode_checks_each_operand_once_and_solves_once(monkeypatch, s):
    """One bit check per operand, and one gf2.solve_affine call, looked up
    through the module, per decode, with or without a solution."""
    checked, solved = [], []
    real_check, real_solve = gf2._bit_array, gf2.solve_affine
    monkeypatch.setattr(gf2, "_bit_array", lambda v, what: checked.append(v) or real_check(v, what))
    monkeypatch.setattr(gf2, "solve_affine", lambda m, x: solved.append(x) or real_solve(m, x))
    g = np.array([[1, 1, 0], [1, 1, 0]])  # s = [0, 1] has no solution
    b_hat, corrected = protocol.bob_decode([1, 0, 1], s, g, [1], [[1, 0, 1]])
    assert (corrected is None) == (s == [0, 1])
    assert len(checked) == 5 and len(solved) == 1


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
    best = min(np.count_nonzero(particular ^ combo != target) for combo in _span(kern, width))
    assert np.count_nonzero(corrected != target) == best


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
    best = min(coset, key=lambda v: (np.count_nonzero(v != target), v.tolist()))
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


# every receiver strategy kind, and QKD with no Eve and each Eve kind
SCALE_RUNS = {
    "honest": lambda p: protocol.run_string_qot(p, [1, 0]),
    "fixed_basis": lambda p: protocol.run_string_qot(p, [0, 1], bob=attacks.fixed_basis(0.3)),
    "store_count": lambda p: protocol.run_string_qot(
        p, [1, 1], bob=attacks.store_subset(count=100)
    ),
    "store_positions": lambda p: protocol.run_string_qot(
        p, [0, 0], bob=attacks.store_subset(positions=range(0, 1024, 9))
    ),
    "random_ok": lambda p: protocol.run_string_qot(
        p, [1, 0], bob=attacks.random_ok(), announce_rest=True
    ),
    "qkd": lambda p: protocol.run_qkd(p),
    "qkd_honest_eve": lambda p: protocol.run_qkd(p, eve=attacks.honest()),
    "qkd_fixed_eve_0.3": lambda p: protocol.run_qkd(p, eve=attacks.fixed_basis(0.3)),
    "qkd_fixed_eve_pi/8": lambda p: protocol.run_qkd(p, eve=attacks.fixed_basis(math.pi / 8)),
}


@pytest.mark.parametrize("kind", SCALE_RUNS)
def test_modes_write_equal_transcripts_at_protocol_scale(kind):
    """At n = 1024 both receptions draw one uniform per photon in the same
    order, and their Born probabilities differ only by rounding, so the two
    modes write the same transcript, apart from the mode, seed by seed."""
    outcomes = set()
    for seed in range(1000, 1010):
        texts = {}
        for mode in protocol.Mode:
            params = protocol.ProtocolParams(
                n=1024, N=24, r=14, m=2, noise_p=0.03, delta=0.06, mode=mode, seed=seed,
            )
            tr = SCALE_RUNS[kind](params)
            d = json.loads(tr.to_json())
            assert d["params"].pop("mode") == mode.value
            texts[mode] = d
        assert texts[protocol.Mode.EXACT_QUANTUM] == texts[protocol.Mode.CLASSICAL_FAST]
        outcomes.add((tr.abort_reason, tr.c))
    # the seeds reach the correction step, and the transfers reach both picks
    assert (None, 0) in outcomes and (kind.startswith("qkd") or (None, 1) in outcomes)


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
    assert back.deferred == tr.deferred and back.bob_values == tr.bob_values
    assert back.deferred.positions.tolist() == [1, 4]
    assert back.bob_values.positions.tolist() == list(range(8))
    for m in (back.deferred, back.bob_values):
        assert m.positions.dtype == np.int64 and m.bits.dtype == np.uint8
    assert np.array_equal(back.f, tr.f)
    assert back.params == tr.params


@st.composite
def protocol_runs(draw, sizes=st.integers(4, 16), exact=False):
    """Arguments of one run: either protocol, every receiver strategy and
    both kinds of Eve, small sizes so that both abort reasons are common.
    With exact, runs of at most 10 photons may take EXACT_QUANTUM."""
    n = draw(sizes)
    N = draw(st.integers(1, min(n // 4, 12)))
    m = draw(st.integers(1, N))
    mode = protocol.Mode.CLASSICAL_FAST
    if exact and n <= 10:
        mode = draw(st.sampled_from(protocol.Mode))
    params = protocol.ProtocolParams(
        n=n, m=m, r=draw(st.integers(0, N - m)), N=N,
        delta=draw(st.sampled_from([0.0, 0.1, 0.3])),
        noise_p=draw(st.sampled_from([0.0, 0.1])),
        mode=mode, seed=draw(st.integers(0, 2**32)),
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


def execute(run) -> protocol.Transcript:
    kind, params, kw = run
    if kind == "qkd":
        return protocol.run_qkd(params, **kw)
    return protocol.run_string_qot(params, **kw)


@settings(max_examples=200, deadline=None)
@given(protocol_runs())
def test_random_transcripts_round_trip_byte_for_byte(run):
    text = execute(run).to_json()
    assert protocol.Transcript.from_json(text).to_json() == text


def _positions(v):
    return np.asarray(v).ravel().tolist()


def _bits(v):
    return "".join(str(int(b)) for b in np.asarray(v).ravel())


def _str_keys(m):
    return {str(k): int(v) for k, v in zip(np.asarray(m.positions).tolist(),
                                           np.asarray(m.bits).tolist())}


# every field's plain JSON value, built here and not by protocol's codecs,
# all written by one json.dumps: the transcript text as it was before
# position text came from digit tables and each field wrote its own text
REFERENCE_ENCODERS = {
    "params": lambda p: {**dataclasses.asdict(p), "mode": p.mode.value},
    "channel": lambda c: {"kind": c.kind.value, "p": c.p},
    "f": lambda f: [_bits(row) for row in f],
    **{name: lambda t: "".join("+x"[b] for b in np.asarray(t).tolist())
       for name in ("theta", "theta_hat")},
    **{name: _bits for name in ("w", "flips", "w_hat", "s", "a", "decoded", "b", "b_hat")},
    **{name: _positions for name in ("R", "T0", "T1", "E0", "E1", "E_c")},
    "announced_sets": lambda sets: [_positions(e) for e in sets],
    "announced_rest": lambda r: {"positions": _positions(r["positions"]), "bits": _bits(r["bits"])},
    "bob_values": _str_keys,
    "deferred": _str_keys,
}


def reference_to_json(tr: protocol.Transcript) -> str:
    d = {}
    for fld in dataclasses.fields(tr):
        value = getattr(tr, fld.name)
        if value is not None and fld.name in REFERENCE_ENCODERS:
            value = REFERENCE_ENCODERS[fld.name](value)
        d[fld.name] = value
    return json.dumps(d, sort_keys=True, separators=(",", ":"))


def position_map(keys, bits):
    """The map of a dict's sorted keys, in the given dtypes."""
    keys, bits = np.asarray(keys), np.asarray(bits)
    order = np.argsort(keys)
    return protocol.PositionMap(keys[order], bits[order])


KEY_DTYPES = st.sampled_from([np.int64, np.int32, np.uint16, np.uint64])
BIT_DTYPES = st.sampled_from([np.uint8, np.int8, np.int64])


@st.composite
def position_maps(draw, keys=st.integers(0, 2**16 - 1)):
    d = draw(st.dictionaries(keys, st.integers(0, 1), max_size=40))
    key_dtype = draw(KEY_DTYPES) if max(d, default=0) < 2**16 else np.int64
    return position_map(np.array(list(d), dtype=key_dtype),
                        np.array(list(d.values()), dtype=draw(BIT_DTYPES)))


# valid maps a run could write, small, spanning decimal widths, and at or
# past _DIGIT_TABLE_MAX
POSITION_MAPS = st.one_of(
    position_maps(st.integers(0, 1100)),
    position_maps(),
    position_maps(st.integers(protocol._DIGIT_TABLE_MAX - 3, 2**63 - 1)),
)
POSITION_LISTS = st.one_of(
    st.lists(st.integers(0, 1100), max_size=40),
    st.lists(st.integers(-5, 2**17), max_size=40),
    st.lists(st.integers(0, 2**16 - 1), max_size=40).map(lambda v: np.array(v, dtype=np.uint16)),
    st.lists(st.integers(0, 2**70), max_size=5),
    st.lists(st.floats(0.0, 50.0), max_size=5),
    st.lists(st.integers(0, 99), min_size=6, max_size=6).map(lambda v: np.reshape(v, (2, 3))),
)

# keys that are not positions and values that are not bits: negative,
# huge, bool, str and float keys; values outside 0/1, bool, huge and float
ODD_KEYS = st.one_of(
    st.lists(st.integers(-50, -1), min_size=1, max_size=3),
    st.lists(st.integers(2**63, 2**70), min_size=1, max_size=3),
    st.lists(st.integers(2**63, 2**64 - 1), min_size=1, max_size=3).map(
        lambda v: np.array(v, dtype=np.uint64)),
    st.lists(st.booleans(), min_size=1, max_size=2, unique=True).map(
        lambda v: np.array(v, dtype=bool)),
    st.lists(st.text(max_size=2).filter(lambda t: not t.isdecimal()),
             min_size=1, max_size=3, unique=True),
    st.lists(st.floats(0.0, 50.0), min_size=1, max_size=3, unique=True),
)
ODD_VALUES = st.one_of(
    st.integers(2, 12), st.integers(-3, -1), st.booleans(), st.integers(2**63, 2**70),
    st.floats(0.0, 1.0),
)


@st.composite
def odd_maps(draw):
    """(keys, values) of a map with keys that are not positions, or with
    one value that is not a bit among positions and bits."""
    if draw(st.booleans()):
        keys = draw(ODD_KEYS)
        return keys, [draw(st.integers(0, 1)) for _ in range(len(keys))]
    keys = draw(st.lists(st.integers(0, 1100), min_size=1, max_size=20, unique=True))
    values = [draw(st.integers(0, 1)) for _ in keys]
    bad = draw(ODD_VALUES)
    if isinstance(bad, bool):
        values = [bool(v) for v in values]  # a bool array: bits are not booleans
    values[draw(st.integers(0, len(keys) - 1))] = bad
    return keys, values


@settings(max_examples=150, deadline=None)
@given(protocol_runs(sizes=st.sampled_from([9, 10, 11, 99, 100, 999, 1000, 1001]), exact=True)
       | protocol_runs(exact=True), st.data())
def test_to_json_matches_the_reference_encoder(run, data):
    tr = execute(run)
    assert tr.to_json() == reference_to_json(tr)
    # hand-built transcripts with maps and position lists no run makes
    odd = dataclasses.replace(
        tr,
        bob_values=data.draw(POSITION_MAPS), deferred=data.draw(POSITION_MAPS),
        R=data.draw(POSITION_LISTS), E_c=data.draw(st.none() | POSITION_LISTS),
    )
    assert odd.to_json() == reference_to_json(odd)
    decoded = json.loads(odd.to_json())
    for name in ("bob_values", "deferred"):
        assert protocol._position_map(decoded[name]) == getattr(odd, name)


@settings(max_examples=200, deadline=None)
@given(odd_maps())
def test_position_maps_reject_keys_that_are_not_positions_and_values_that_are_not_bits(odd):
    keys, values = odd
    with pytest.raises(DomainError):
        protocol._map_text(position_map(keys, values))
    text = json.dumps({str(k): v for k, v in zip(np.asarray(keys).tolist(), values)})
    with pytest.raises(DomainError):
        protocol._position_map(json.loads(text))


def test_position_maps_decode_only_the_text_they_encode_to():
    assert protocol._position_map({"10": 1, "9": 0}) == protocol.PositionMap([9, 10], [0, 1])
    for key in ("05", " 5", "5 ", "+5", "1_0", "-0", "٣", "5.0", ""):
        with pytest.raises(DomainError):
            protocol._position_map({key: 1})


def test_position_maps_reject_unordered_repeated_and_misshapen_input():
    tr = protocol.run_string_qot(make_params(seed=31), [1])
    for keys, bits in (([3, 1], [0, 1]), ([1, 1], [0, 1])):
        with pytest.raises(DomainError):
            dataclasses.replace(tr, deferred=protocol.PositionMap(keys, bits)).to_json()
    for keys, bits in (([[1, 2]], [[0, 1]]), ([1, 2], [0])):
        with pytest.raises(DimensionError):
            protocol._map_text(protocol.PositionMap(keys, bits))
    assert protocol.PositionMap() == protocol.PositionMap([], [])
    assert protocol.PositionMap([2], [1]) != protocol.PositionMap([2], [0])
    # a transcript holds its maps as PositionMap, not as dicts
    with pytest.raises(DomainError):
        dataclasses.replace(tr, bob_values={0: 1}).to_json()


def test_to_json_matches_the_reference_encoder_on_every_run_kind():
    params = make_params(n=1000, N=16, r=8, m=2, delta=0.05, noise_p=0.02, seed=3)
    runs = [
        protocol.run_string_qot(params, [1, 0]),
        protocol.run_string_qot(params, [1, 0], bob=attacks.store_subset(count=64), force_c=0),
        protocol.run_string_qot(params, [0, 1], bob=attacks.store_subset(count=1000)),  # aborts
        protocol.run_string_qot(params, [0, 1], bob=attacks.fixed_basis(0.3)),
        protocol.run_string_qot(params, [1, 1], announce_rest=True),
        protocol.run_qkd(params, eve=attacks.honest(), announce_rest=True),
        protocol.run_qkd(params, eve=attacks.fixed_basis(0.3)),
        protocol.run_string_qot(
            make_params(n=10, N=2, m=1, r=0, mode=protocol.Mode.EXACT_QUANTUM, seed=4), [1],
            bob=attacks.store_subset(positions=[1, 7]), announce_rest=True,
        ),
    ]
    assert runs[1].deferred.positions.size == 64
    assert runs[2].bob_values == protocol.PositionMap()
    assert runs[2].abort_reason == protocol.TEST_FAILED
    runs.append(dataclasses.replace(runs[0], bob_values=protocol.PositionMap(),
                                    deferred=protocol.PositionMap(), R=[]))
    # positions at and past the digit table go through json.dumps
    top = protocol._DIGIT_TABLE_MAX
    runs.append(dataclasses.replace(
        runs[0],
        bob_values=protocol.PositionMap([5, 10, top - 1, top, 2**40], [1, 0, 1, 1, 0]),
        deferred=protocol.PositionMap([top], [1]), R=[9, top, 2**40],
    ))
    for tr in runs:
        assert tr.to_json() == reference_to_json(tr)
    assert '"deferred":{"65536":1}' in runs[-1].to_json()


@pytest.mark.parametrize("field, bad", [
    ("R", [0, 2.5]), ("R", [True, 3]), ("T0", [1.0]), ("T1", [False]), ("E0", [2, 2.0]),
    ("E1", [0.5]), ("E_c", [True]),
])
def test_transcript_from_json_refuses_positions_that_are_not_integers(field, bad):
    """A float or a JSON true among a field's positions raises DomainError
    instead of being truncated to an integer."""
    tr = protocol.run_string_qot(make_params(seed=7), [1], force_c=1, announce_rest=True)
    d = json.loads(tr.to_json())
    assert tr.abort_reason is None and d[field] is not None
    protocol.Transcript.from_json(json.dumps(d))
    with pytest.raises(DomainError, match="positions must be integers"):
        protocol.Transcript.from_json(json.dumps({**d, field: bad}))
    nested = [
        {**d, "announced_sets": [d["announced_sets"][0], bad]},
        {**d, "announced_rest": {**d["announced_rest"], "positions": bad}},
    ]
    for odd in nested:
        with pytest.raises(DomainError, match="positions must be integers"):
            protocol.Transcript.from_json(json.dumps(odd))


def seed_7_transcript_dict():
    tr = protocol.run_string_qot(make_params(seed=7), [1], force_c=1, announce_rest=True)
    assert tr.abort_reason is None and tr.params.n == 24
    return json.loads(tr.to_json())


@pytest.mark.parametrize("field", ["R", "T0", "T1", "E0", "E1", "E_c"])
@pytest.mark.parametrize("bad", [[-1, 5], [5, 24], [99, 100]])
def test_transcript_from_json_refuses_a_position_set_outside_the_run(field, bad):
    d = seed_7_transcript_dict()
    with pytest.raises(DomainError, match=f"^{field} positions must lie in \\[0, 24\\)$"):
        protocol.Transcript.from_json(json.dumps({**d, field: bad}))
    protocol.Transcript.from_json(json.dumps({**d, field: [0, 23]}))


@pytest.mark.parametrize("bad", [[-1, 5], [5, 24]])
def test_transcript_from_json_refuses_an_announced_set_outside_the_run(bad):
    d = seed_7_transcript_dict()
    with pytest.raises(DomainError, match="^announced_sets positions must lie"):
        protocol.Transcript.from_json(json.dumps({**d, "announced_sets": [d["announced_sets"][0], bad]}))


def test_transcript_from_json_refuses_an_announced_rest_outside_the_run_or_misshapen():
    d = seed_7_transcript_dict()
    rest = d["announced_rest"]
    assert len(rest["positions"]) == len(rest["bits"]) == 20
    outside = {**rest, "positions": rest["positions"][:-1] + [24]}
    with pytest.raises(DomainError, match="^announced_rest positions must lie"):
        protocol.Transcript.from_json(json.dumps({**d, "announced_rest": outside}))
    short = {**rest, "bits": rest["bits"][:3]}
    with pytest.raises(DomainError, match="one bit per position"):
        protocol.Transcript.from_json(json.dumps({**d, "announced_rest": short}))


@pytest.mark.parametrize("field", ["bob_values", "deferred"])
def test_transcript_from_json_refuses_a_map_key_outside_the_run(field):
    d = seed_7_transcript_dict()
    with pytest.raises(DomainError, match=f"^{field} positions must lie in \\[0, 24\\)$"):
        protocol.Transcript.from_json(json.dumps({**d, field: {**d[field], "24": 1}}))
    with pytest.raises(DomainError, match="distinct positions in order"):
        protocol.Transcript.from_json(json.dumps({**d, field: {"-1": 1}}))
    protocol.Transcript.from_json(json.dumps({**d, field: {"23": 1}}))


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
