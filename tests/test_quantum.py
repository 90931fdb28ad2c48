"""Statevector layer: encodings, frames, Born-rule measurement, projectors."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qotsim import gf2, quantum
from qotsim.errors import DimensionError, DomainError, ResourceError

SQ2 = 1.0 / math.sqrt(2.0)


def kron_state(w, theta):
    """Reference encoding: one np.kron per photon."""
    state = np.array([1.0], dtype=complex)
    for bit, basis in zip(w, theta):
        state = np.kron(state, quantum.photon(int(bit), int(basis)))
    return state


def outer_density(states, probs):
    """Reference mixture: one np.outer per state."""
    rho = np.zeros((states[0].size, states[0].size), dtype=complex)
    for p, v in zip(probs, states):
        rho += p * np.outer(v, v.conj())
    return rho


class FixedUniform:
    """rng stub returning a scripted uniform; counts how many were drawn."""

    def __init__(self, value=0.7):
        self.value = value
        self.calls = 0

    def random(self):
        self.calls += 1
        return self.value


def test_basis_string_and_text():
    assert np.array_equal(quantum.basis_string("+x"), [0, 1])
    assert np.array_equal(quantum.basis_string([1, 0]), [1, 0])
    assert quantum.basis_text(gf2.bits("01")) == "+x"
    assert np.array_equal(quantum.basis_string(quantum.basis_text(gf2.bits("0110"))), [0, 1, 1, 0])


def test_conjugate_bases_flips_every_label():
    assert np.array_equal(quantum.conjugate_bases([0, 1, 0]), [1, 0, 1])


def test_angle_basis_columns():
    assert np.allclose(quantum.angle_basis(0.0), np.eye(2))
    rot = quantum.angle_basis(math.pi / 4)
    assert np.allclose(rot[:, 0], [SQ2, SQ2])
    assert np.allclose(rot[:, 1], [-SQ2, SQ2])
    # columns are orthonormal for any angle
    for angle in (0.3, 1.1, -0.4):
        rot = quantum.angle_basis(angle)
        assert np.allclose(rot.T @ rot, np.eye(2), atol=1e-14)


def test_bb84_single_photon_amplitudes():
    assert np.allclose(quantum.bb84_state([0], [quantum.PLUS]), [1, 0])
    assert np.allclose(quantum.bb84_state([1], [quantum.PLUS]), [0, 1])
    assert np.allclose(quantum.bb84_state([0], [quantum.CROSS]), [SQ2, SQ2])
    assert np.allclose(quantum.bb84_state([1], [quantum.CROSS]), [SQ2, -SQ2])


def test_bb84_tensor_order_matches_pack_int():
    # position 0 is the most significant factor
    state = quantum.bb84_state([1, 0], [quantum.PLUS, quantum.PLUS])
    expect = np.zeros(4)
    expect[gf2.pack_int([1, 0])] = 1.0
    assert np.allclose(state, expect)
    state = quantum.bb84_state([0, 1], [quantum.PLUS, quantum.CROSS])
    assert np.allclose(state, np.kron([1, 0], [SQ2, -SQ2]))


@pytest.mark.parametrize("n", range(1, 11))
def test_bb84_states_rows_are_the_kron_chain_bit_for_bit(n):
    rng = np.random.default_rng(790 + n)
    words = rng.integers(0, 2, size=(6, n), dtype=np.uint8)
    theta = gf2.random_bits(rng, n)
    states = quantum.bb84_states(words, theta)
    assert states.shape == (6, 1 << n)
    for row, state in zip(words, states):
        assert np.array_equal(state, quantum.bb84_state(row, theta))
        assert np.array_equal(state, kron_state(row, theta))


def test_bb84_states_validation():
    with pytest.raises(DimensionError):
        quantum.bb84_states([[0, 1]], [0])
    with pytest.raises(DimensionError):
        quantum.bb84_state([0, 1], [0])
    with pytest.raises(DimensionError):
        quantum.bb84_states([0, 1], [0, 0])
    with pytest.raises(DomainError):
        quantum.bb84_states([[0, 2]], [0, 0])
    big = quantum.STATEVECTOR_MAX_N + 1
    with pytest.raises(ResourceError):
        quantum.bb84_states(np.zeros((1, big), dtype=np.uint8), np.zeros(big, dtype=np.uint8))
    with pytest.raises(ResourceError):
        quantum.bb84_state(np.zeros(big, dtype=np.uint8), np.zeros(big, dtype=np.uint8))


@pytest.mark.parametrize("trial", range(8))
def test_to_frame_is_the_encoding_indicator(trial):
    rng = np.random.default_rng(810 + trial)
    n = int(rng.integers(1, 6))
    w = gf2.random_bits(rng, n)
    theta = gf2.random_bits(rng, n)
    coords = quantum.to_frame(quantum.bb84_state(w, theta), theta)
    expect = np.zeros(1 << n)
    expect[gf2.pack_int(w)] = 1.0
    assert np.allclose(coords, expect, atol=1e-12)


@pytest.mark.parametrize("trial", range(8))
def test_to_frame_is_involutive(trial):
    rng = np.random.default_rng(830 + trial)
    n = int(rng.integers(1, 5))
    state = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    state /= np.linalg.norm(state)
    theta_hat = gf2.random_bits(rng, n)
    back = quantum.from_frame(quantum.to_frame(state, theta_hat), theta_hat)
    assert np.allclose(back, state, atol=1e-12)


@st.composite
def complex_vectors(draw, max_n=5):
    """(n, a random complex vector of 2^n entries)."""
    n = draw(st.integers(1, max_n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return n, rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)


@settings(max_examples=100, deadline=None)
@given(complex_vectors(), st.data())
def test_frame_change_is_a_norm_preserving_involution(vec, data):
    n, state = vec
    theta_hat = np.array(data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    coords = quantum.to_frame(state, theta_hat)
    assert abs(np.linalg.norm(coords) - np.linalg.norm(state)) < 1e-12 * np.linalg.norm(state)
    assert np.allclose(quantum.from_frame(coords, theta_hat), state, atol=1e-12)


def hadamard_frame(theta_hat):
    """Reference frame change: the kron of H (cross) or I (plus) per photon."""
    h = np.array([[SQ2, SQ2], [SQ2, -SQ2]])
    u = np.array([[1.0]])
    for basis in theta_hat:
        u = np.kron(u, h if basis == quantum.CROSS else np.eye(2))
    return u


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 6), st.integers(0, 2**32 - 1))
def test_frame_changes_match_the_dense_kron_reference(n, seed):
    rng = np.random.default_rng(seed)
    theta_hat = gf2.random_bits(rng, n)
    u = hadamard_frame(theta_hat)
    dim = 1 << n
    psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    rho = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    assert np.max(np.abs(quantum.to_frame(psi, theta_hat) - u @ psi)) < 1e-12
    assert np.max(np.abs(quantum.from_frame(psi, theta_hat) - u @ psi)) < 1e-12
    # a complex rho, and a real one (the frame change of its real part alone)
    for m in (rho, rho.real):
        framed = quantum.density_in_frame(m, theta_hat)
        assert framed.dtype == complex and framed.flags.c_contiguous
        assert np.max(np.abs(framed - u @ m @ u)) < 1e-12


def test_frame_changes_leave_their_input_alone():
    rng = np.random.default_rng(31)
    psi = rng.normal(size=8) + 1j * rng.normal(size=8)
    rho = np.outer(psi, psi.conj())
    psi_copy, rho_copy = psi.copy(), rho.copy()
    quantum.to_frame(psi, "xx+")
    quantum.density_in_frame(rho, "x+x")
    assert np.array_equal(psi, psi_copy) and np.array_equal(rho, rho_copy)
    assert np.array_equal(quantum.to_frame(psi, "+++"), psi)
    assert quantum.to_frame(psi, "+++") is not psi


def test_to_frame_rejects_a_mismatched_basis_string():
    with pytest.raises(DimensionError):
        quantum.to_frame(np.ones(8) / math.sqrt(8), "xx")
    with pytest.raises(DimensionError):
        quantum.to_frame(np.ones(8) / math.sqrt(8), "xxxx")


@settings(max_examples=100, deadline=None)
@given(complex_vectors(), st.data())
def test_shift_op_apply_and_conjugate_match_its_matrix(vec, data):
    n, state = vec
    draw_bits = st.lists(st.integers(0, 1), min_size=n, max_size=n)
    op = quantum.u_beta(data.draw(draw_bits), data.draw(draw_bits))
    u = op.matrix()
    assert np.allclose(op.apply(state), u @ state, atol=1e-12)
    rho = np.outer(state, state.conj()) + np.diag(np.arange(1 << n))
    assert np.allclose(op.conjugate(rho), u @ rho @ u, atol=1e-12)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 6), st.integers(0, 2**32 - 1))
def test_framed_amplitudes_are_columns_of_the_frame_change(n, seed):
    rng = np.random.default_rng(seed)
    words = gf2.random_bitmatrix(rng, int(rng.integers(1, 5)), n)
    theta, theta_hat = gf2.random_bits(rng, n), gf2.random_bits(rng, n)
    indices = rng.permutation(1 << n)[: int(rng.integers(0, (1 << n) + 1))]
    framed = np.array([quantum.to_frame(v, theta_hat) for v in quantum.bb84_states(words, theta)])
    got = quantum.framed_amplitudes(words, theta, theta_hat, indices)
    assert got.shape == (len(words), indices.size)
    assert np.max(np.abs(got - framed[:, indices]), initial=0.0) < 1e-14


def test_framed_amplitudes_validation():
    with pytest.raises(DimensionError):
        quantum.framed_amplitudes(np.zeros((1, 3), dtype=np.uint8), "00", "00", [0])
    with pytest.raises(DomainError):
        quantum.framed_amplitudes(np.zeros((1, 2), dtype=np.uint8), "00", "00", [4])
    big = quantum.STATEVECTOR_MAX_N + 1
    with pytest.raises(ResourceError):
        quantum.framed_amplitudes(np.zeros((1, big), dtype=np.uint8), [0] * big, [0] * big, [0])


def test_measure_photon_deterministic_when_aligned():
    state = quantum.bb84_state([1, 0], [quantum.PLUS, quantum.CROSS])
    rng = FixedUniform(0.999)  # threshold never reached spuriously
    outcome, collapsed = quantum.measure_photon(state, 0, np.eye(2), rng)
    assert outcome == 1
    assert np.allclose(collapsed, state, atol=1e-12)
    assert rng.calls == 1


def test_measure_photon_uniform_threshold():
    # a cross photon probed in + has p1 = 1/2; the scripted uniform decides
    state = quantum.bb84_state([0], [quantum.CROSS])
    out_low, _ = quantum.measure_photon(state, 0, np.eye(2), FixedUniform(0.49))
    out_high, _ = quantum.measure_photon(state, 0, np.eye(2), FixedUniform(0.51))
    assert out_low == 1
    assert out_high == 0


def test_measurement_collapse_is_repeatable():
    state = quantum.bb84_state([0, 1], [quantum.CROSS, quantum.CROSS])
    rng = np.random.default_rng(7)
    outcome, collapsed = quantum.measure_photon(state, 0, np.eye(2), rng)
    again, _ = quantum.measure_photon(collapsed, 0, np.eye(2), np.random.default_rng(99))
    assert again == outcome


def test_measure_photon_rejects_a_negative_index():
    state = quantum.bb84_state([0, 1], [quantum.PLUS, quantum.PLUS])
    with pytest.raises(DomainError):
        quantum.measure_photon(state, -1, np.eye(2), FixedUniform())


def test_measure_photon_rejects_an_index_past_the_last_photon():
    state = quantum.bb84_state([0, 1], [quantum.PLUS, quantum.PLUS])
    with pytest.raises(DomainError):
        quantum.measure_photon(state, 2, np.eye(2), FixedUniform())


def test_measure_photon_rejects_a_zero_state():
    rng = FixedUniform()
    with pytest.raises(DomainError):
        quantum.measure_photon(np.zeros(4, dtype=complex), 0, np.eye(2), rng)
    assert rng.calls == 0


def test_measure_photon_rejects_a_rotation_that_is_not_2x2():
    state = quantum.bb84_state([0, 1], [quantum.PLUS, quantum.PLUS])
    with pytest.raises(DimensionError):
        quantum.measure_photon(state, 0, np.eye(3), FixedUniform())


def test_measure_photon_rejects_a_length_that_is_not_a_power_of_two():
    state = np.ones(6, dtype=complex) / math.sqrt(6)
    with pytest.raises(DimensionError):
        quantum.measure_photon(state, 0, np.eye(2), FixedUniform())


def phased_rotation(angle, row_phase, col_phase):
    """A complex 2x2 unitary: diag(1, e^(i row)) R(angle) diag(1, e^(i col))."""
    rot = quantum.angle_basis(angle)
    return np.exp(1j * np.array([0.0, row_phase]))[:, None] * rot * np.exp(1j * np.array([0.0, col_phase]))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 6), st.integers(0, 2**32 - 1), st.data())
def test_measure_photon_matches_the_dense_projector(n, seed, data):
    rng = np.random.default_rng(seed)
    state = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    state /= np.linalg.norm(state)
    i = data.draw(st.integers(0, n - 1))
    rot = phased_rotation(*(data.draw(st.floats(-math.pi, math.pi)) for _ in range(3)))
    # P_o = I (x) |r_o><r_o| (x) I, with r_o the rotation's column o
    kept = [
        np.kron(np.kron(np.eye(1 << i), np.outer(rot[:, o], rot[:, o].conj())),
                np.eye(1 << (n - i - 1))) @ state
        for o in (0, 1)
    ]
    p1 = float(np.vdot(kept[1], kept[1]).real)
    # a uniform 1e-12 below p1 must give 1 and one 1e-12 above must give 0
    for outcome, uniform in ((1, p1 - 1e-12), (0, p1 + 1e-12)):
        weight = float(np.vdot(kept[outcome], kept[outcome]).real)
        if weight < 1e-6:
            continue  # too rare to force, and its collapse is ill-conditioned
        got, collapsed = quantum.measure_photon(state, i, rot, FixedUniform(uniform))
        assert got == outcome
        assert np.max(np.abs(collapsed - kept[outcome] / math.sqrt(weight))) < 1e-12


def test_measure_photons_recovers_the_encoding():
    w = gf2.bits("10110")
    theta = gf2.bits("01011")
    rotations = [quantum.angle_basis(math.pi / 4 * b) for b in theta]
    rng = FixedUniform(0.3)
    outcomes, collapsed = quantum.measure_photons(
        quantum.bb84_state(w, theta), range(5), rotations, rng
    )
    assert np.array_equal(outcomes, w)
    assert rng.calls == 5
    assert np.allclose(collapsed, quantum.bb84_state(w, theta), atol=1e-12)


def test_measure_photons_leaves_other_photons_alone():
    w = gf2.bits("101")
    theta = gf2.bits("000")
    state = quantum.bb84_state(w, theta)
    outcomes, collapsed = quantum.measure_photons(state, [1], [np.eye(2)], np.random.default_rng(3))
    assert np.array_equal(outcomes, [0])
    assert np.allclose(collapsed, state, atol=1e-12)


class ScriptedUniforms:
    """rng stub returning the scripted uniforms in order; counts draws."""

    def __init__(self, values):
        self.values = list(values)
        self.calls = 0

    def random(self):
        self.calls += 1
        return self.values[self.calls - 1]


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 6), st.integers(0, 2**32 - 1), st.booleans(), st.data())
def test_measure_photons_matches_a_loop_of_measure_photon(n, seed, bb84, data):
    gen = np.random.default_rng(seed)
    if bb84:
        state = quantum.bb84_state(gen.integers(0, 2, n), gen.integers(0, 2, n))
    else:
        state = gen.normal(size=1 << n) + 1j * gen.normal(size=1 << n)
        state /= np.linalg.norm(state)
    order = data.draw(st.permutations(range(n)))
    positions = order[:data.draw(st.integers(0, n))]
    if bb84:
        rotations = [quantum.angle_basis(data.draw(st.sampled_from([0.0, math.pi / 4])))
                     for _ in positions]
    else:
        rotations = [phased_rotation(*(data.draw(st.floats(-math.pi, math.pi)) for _ in range(3)))
                     for _ in positions]
    uniforms = gen.random(len(positions)).tolist()
    loop_rng, loop_state, loop_out = ScriptedUniforms(uniforms), state, []
    for i, rot in zip(positions, rotations):
        outcome, loop_state = quantum.measure_photon(loop_state, i, rot, loop_rng)
        loop_out.append(outcome)
    block_rng = ScriptedUniforms(uniforms)
    outcomes, collapsed = quantum.measure_photons(state, positions, rotations, block_rng)
    assert outcomes.tolist() == loop_out
    assert block_rng.calls == loop_rng.calls == len(positions)
    assert collapsed.dtype == state.dtype
    assert np.max(np.abs(collapsed - loop_state)) < 1e-12


@pytest.mark.parametrize("state, positions, rotations, error", [
    (quantum.bb84_state([0, 1, 1], [0, 1, 0]), [0, 2, 0], [np.eye(2)] * 3, DomainError),
    (quantum.bb84_state([0, 1, 1], [0, 1, 0]), [1, 3], [np.eye(2)] * 2, DomainError),
    (quantum.bb84_state([0, 1, 1], [0, 1, 0]), [2, -1], [np.eye(2)] * 2, DomainError),
    (quantum.bb84_state([0, 1, 1], [0, 1, 0]), [1.0], [np.eye(2)], DomainError),
    (quantum.bb84_state([0, 1, 1], [0, 1, 0]), [0, 1], [np.eye(2), np.eye(3)], DimensionError),
    (quantum.bb84_state([0, 1, 1], [0, 1, 0]), [0, 1], [np.eye(2)], DimensionError),
    (np.zeros(8), [1, 0], [np.eye(2)] * 2, DomainError),
    (np.full(8, np.nan), [2], [np.eye(2)], DomainError),
    (np.ones(6) / math.sqrt(6), [0], [np.eye(2)], DimensionError),
], ids=["duplicate", "past-the-end", "negative", "float-index", "rotation-3x3",
        "rotation-count", "zero-state", "nan-state", "length-6"])
def test_measure_photons_checks_everything_before_the_first_draw(state, positions, rotations, error):
    rng = FixedUniform()
    with pytest.raises(error):
        quantum.measure_photons(state, positions, rotations, rng)
    assert rng.calls == 0


def test_measure_photons_keeps_the_dtype_of_its_inputs():
    real = quantum.bb84_state([1, 0, 1], [0, 1, 1])
    assert real.dtype == np.float64
    _, collapsed = quantum.measure_photons(real, [2, 0], [quantum.angle_basis(0.3)] * 2, FixedUniform())
    assert collapsed.dtype == np.float64
    _, collapsed = quantum.measure_photons(real.astype(complex), [1], [np.eye(2)], FixedUniform())
    assert collapsed.dtype == np.complex128
    phased = quantum.angle_basis(0.3) * np.array([1.0, 1j])
    _, collapsed = quantum.measure_photons(real, [1], [phased], FixedUniform())
    assert collapsed.dtype == np.complex128


def test_measure_photons_on_an_empty_block_draws_nothing():
    state = quantum.bb84_state([1, 0], [1, 0])
    rng = FixedUniform()
    outcomes, collapsed = quantum.measure_photons(state, [], [], rng)
    assert outcomes.size == 0 and rng.calls == 0
    assert np.array_equal(collapsed, state)


def test_density_from_ensemble_and_checks():
    states = [quantum.bb84_state([0], [0]), quantum.bb84_state([0], [1])]
    rho = quantum.density_from_ensemble(states, [0.5, 0.5])
    assert abs(np.trace(rho) - 1.0) < 1e-12
    assert np.allclose(rho, rho.conj().T)
    quantum.check_density(rho)
    with pytest.raises(DomainError):
        quantum.check_density(rho * 2.0)
    with pytest.raises(DomainError):
        quantum.check_density(np.array([[0.5, 0.5j], [0.5j, 0.5]]))


@st.composite
def ensembles(draw):
    """1-4 photons, 1-16 encodings each in its own bases, random weights."""
    n = draw(st.integers(1, 4))
    size = draw(st.integers(1, 16))
    bit_rows = st.lists(st.integers(0, 1), min_size=n, max_size=n)
    states = [
        quantum.bb84_state(draw(bit_rows), draw(bit_rows)) for _ in range(size)
    ]
    weights = np.array(
        draw(st.lists(st.floats(1e-3, 1.0), min_size=size, max_size=size))
    )
    return states, weights / weights.sum()


@settings(max_examples=200, deadline=None)
@given(ensembles())
def test_density_from_ensemble_matches_the_outer_product_loop(ensemble):
    states, probs = ensemble
    rho = quantum.density_from_ensemble(states, probs)
    assert np.max(np.abs(rho - outer_density(states, probs))) <= 1e-14
    assert abs(np.trace(rho).real - 1.0) <= quantum.PHYS_TOL


def test_density_from_ensemble_conjugates_complex_amplitudes():
    circular = np.array([SQ2, 1j * SQ2])
    rho = quantum.density_from_ensemble([circular], [1.0])
    assert np.allclose(rho, [[0.5, -0.5j], [0.5j, 0.5]], atol=1e-15)


def test_density_from_ensemble_validation():
    states = [quantum.bb84_state([0], [0]), quantum.bb84_state([1], [1])]
    with pytest.raises(DomainError):
        quantum.density_from_ensemble(states, [1.5, -0.5])
    with pytest.raises(DomainError):
        quantum.density_from_ensemble(states, [0.5, 0.4])
    with pytest.raises(DimensionError):
        quantum.density_from_ensemble(states, [1.0])
    with pytest.raises(DimensionError):
        quantum.density_from_ensemble([states[0], quantum.bb84_state([0, 0], [0, 0])], [0.5, 0.5])
    big = np.zeros(2 << quantum.DENSITY_MAX_N, dtype=complex)
    big[0] = 1.0
    with pytest.raises(ResourceError):
        quantum.density_from_ensemble([big], [1.0])


def test_density_in_frame_matches_manual_conjugation():
    rng = np.random.default_rng(23)
    states = [quantum.bb84_state(gf2.random_bits(rng, 2), gf2.random_bits(rng, 2)) for _ in range(3)]
    rho = quantum.density_from_ensemble(states, [0.5, 0.3, 0.2])
    h = np.array([[SQ2, SQ2], [SQ2, -SQ2]])
    manual = np.kron(np.eye(2), h) @ rho @ np.kron(np.eye(2), h)
    assert np.allclose(quantum.density_in_frame(rho, [0, 1]), manual, atol=1e-12)


def test_matrix_element_on_a_pure_encoding():
    w = gf2.bits("10")
    theta = gf2.bits("01")
    state = quantum.bb84_state(w, theta)
    rho = np.outer(state, state.conj())
    assert abs(quantum.matrix_element(rho, w, w, theta) - 1.0) < 1e-12
    assert abs(quantum.matrix_element(rho, w, gf2.bits("11"), theta)) < 1e-12


def test_ball_projector_masks_partition():
    low = quantum.ball_projector([0, 1, 2], "000", 1, "000", quantum.LOW)
    high = quantum.ball_projector([0, 1, 2], "000", 1, "000", quantum.HIGH)
    assert np.array_equal(low.mask, ~high.mask)
    assert int(low.mask.sum()) == 4  # 000 plus the three weight-1 strings
    assert np.array_equal(low.complement().mask, high.mask)


def test_ball_projector_distance_only_counts_e():
    low = quantum.ball_projector([1], "00", 0, "00", quantum.LOW)
    hit = np.zeros(4, dtype=bool)
    hit[gf2.pack_int([0, 0])] = True
    hit[gf2.pack_int([1, 0])] = True  # differs only off e
    assert np.array_equal(low.mask, hit)


def test_ball_projector_radius_covers_everything():
    low = quantum.ball_projector([0, 1], "11", 2, "0x", quantum.LOW)
    assert low.mask.all()
    with pytest.raises(DomainError):
        quantum.ball_projector([0], "0", -1, "0", quantum.LOW)
    with pytest.raises(DomainError):
        quantum.ball_projector([0], "0", 0, "0", "middle")


def test_projector_apply_is_idempotent_and_complementary():
    rng = np.random.default_rng(31)
    state = rng.normal(size=8) + 1j * rng.normal(size=8)
    state /= np.linalg.norm(state)
    p = quantum.ball_projector([0, 2], "010", 1, "0x1", quantum.LOW)
    q = p.complement()
    assert np.allclose(p.apply(p.apply(state)), p.apply(state), atol=1e-12)
    assert np.allclose(p.apply(state) + q.apply(state), state, atol=1e-12)


def test_outcome_probability_projector_vs_matrix():
    rng = np.random.default_rng(37)
    states = [quantum.bb84_state(gf2.random_bits(rng, 3), gf2.random_bits(rng, 3)) for _ in range(4)]
    rho = quantum.density_from_ensemble(states, [0.25] * 4)
    p = quantum.ball_projector([0, 1], "000", 1, "0x0", quantum.LOW)
    explicit = np.zeros((8, 8), dtype=complex)
    for i in np.nonzero(p.mask)[0]:
        basis_vec = np.zeros(8, dtype=complex)
        basis_vec[i] = 1.0
        vec = quantum.from_frame(basis_vec, p.theta_hat)
        explicit += np.outer(vec, vec.conj())
    assert abs(quantum.outcome_probability(rho, p) - quantum.outcome_probability(rho, explicit)) < 1e-12


@pytest.mark.parametrize("trial", range(6))
def test_shift_op_translates_encodings(trial):
    rng = np.random.default_rng(900 + trial)
    n = int(rng.integers(1, 5))
    theta = gf2.random_bits(rng, n)
    beta = gf2.random_bits(rng, n)
    w = gf2.random_bits(rng, n)
    op = quantum.u_beta(beta, theta)
    moved = op.apply(quantum.bb84_state(w, theta))
    target = quantum.bb84_state(w ^ beta, theta)
    assert abs(abs(np.vdot(target, moved)) - 1.0) < 1e-12


def test_shift_op_matrix_is_a_real_involution():
    op = quantum.u_beta("11", "0x")
    m = op.matrix()
    assert np.allclose(m.imag, 0.0)
    assert np.allclose(m @ m, np.eye(4), atol=1e-12)
    assert np.allclose(m, m.T, atol=1e-12)
    rho = np.eye(4, dtype=complex) / 4.0
    assert np.allclose(op.conjugate(rho), m @ rho @ m, atol=1e-12)


def test_u_beta_zero_is_identity():
    op = quantum.u_beta("00", "0x")
    assert np.allclose(op.matrix(), np.eye(4), atol=1e-12)


def test_small_distance_defect_zero_at_center():
    w_hat = gf2.bits("0110")
    theta_hat = gf2.bits("0101")
    phi = quantum.bb84_state(w_hat, theta_hat)
    p0 = quantum.ball_projector(range(4), w_hat, 0, theta_hat, quantum.HIGH)
    assert quantum.small_distance_defect(phi, p0) < 1e-14


def test_small_distance_defect_one_when_far():
    theta_hat = gf2.bits("00")
    phi = quantum.bb84_state(gf2.bits("11"), theta_hat)
    p0 = quantum.ball_projector(range(2), "00", 1, theta_hat, quantum.HIGH)
    assert abs(quantum.small_distance_defect(phi, p0) - 1.0) < 1e-14


@pytest.mark.parametrize("angle", [0.1, 0.3, math.pi / 8])
def test_small_distance_defect_single_rotated_photon(angle):
    # amplitude sin(angle) lands outside the radius-0 ball around 0
    phi = quantum.angle_basis(angle)[:, 0]
    p0 = quantum.ball_projector([0], "0", 0, "0", quantum.HIGH)
    assert abs(quantum.small_distance_defect(phi, p0) - math.sin(angle) ** 2) < 1e-12
