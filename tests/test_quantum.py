"""Statevector layer: encodings, frames, Born-rule measurement, distance
balls, basis shifts."""

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


def test_photon_amplitudes_are_the_four_bb84_states():
    assert quantum.photon(0, quantum.PLUS).tolist() == [1.0, 0.0]
    assert quantum.photon(1, quantum.PLUS).tolist() == [0.0, 1.0]
    assert quantum.photon(0, quantum.CROSS).tolist() == [SQ2, SQ2]
    assert quantum.photon(1, quantum.CROSS).tolist() == [SQ2, -SQ2]
    assert quantum.photon(np.uint8(1), np.int64(1)).tolist() == [SQ2, -SQ2]
    quantum.photon(0, 0)[0] = 0.5  # a fresh array each call
    assert quantum.photon(0, 0).tolist() == [1.0, 0.0]


@pytest.mark.parametrize("bit, basis", [(2, 5), (2, 0), (0, 2), (-1, 1), (0.5, 0), (1, "x")],
                         ids=["both", "bit-2", "basis-2", "bit-negative", "bit-half",
                              "basis-text"])
def test_photon_labels_other_than_bits_are_refused(bit, basis):
    """A bit or basis other than 0 or 1 raises DomainError by the rule of
    gf2.bits, instead of being read as 1 (a bit) or x (a basis)."""
    with pytest.raises(DomainError, match="0 or 1"):
        quantum.photon(bit, basis)


def shift_matrix(op):
    """Reference U_beta: one np.kron per photon gate."""
    gates = {"I": np.eye(2), "X": np.array([[0.0, 1.0], [1.0, 0.0]]), "Z": np.diag([1.0, -1.0])}
    out = np.ones((1, 1))
    for gate in op.gates:
        out = np.kron(out, gates[gate])
    return out


def outer_density(states, probs):
    """Reference mixture: one np.outer per state."""
    rho = np.zeros((states[0].size, states[0].size), dtype=complex)
    for p, v in zip(probs, states):
        rho += p * np.outer(v, v.conj())
    return rho


class FixedUniform:
    """rng stub returning a scripted uniform, one or an array of them;
    counts how many were drawn."""

    def __init__(self, value=0.7):
        self.value = value
        self.calls = 0

    def random(self, size=None):
        self.calls += 1 if size is None else size
        return self.value if size is None else np.full(size, self.value)


def test_basis_string_and_text():
    assert np.array_equal(quantum.basis_string("+x"), [0, 1])
    assert np.array_equal(quantum.basis_string([1, 0]), [1, 0])
    assert quantum.basis_text(gf2.bits("01")) == "+x"
    assert np.array_equal(quantum.basis_string(quantum.basis_text(gf2.bits("0110"))), [0, 1, 1, 0])


@pytest.mark.parametrize("theta", [[0, -1], [3, 1]], ids=["negative", "three"])
def test_basis_text_refuses_labels_other_than_bits(theta):
    """-1 was written as "x" and 3 raised IndexError; both are held to the
    rule of gf2.bits."""
    with pytest.raises(DomainError, match="^basis label entries must be 0 or 1$"):
        quantum.basis_text(np.array(theta))


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
@settings(max_examples=8, deadline=None)
@given(st.sampled_from([1, 6, 128]), st.integers(0, 2**32 - 1))
def test_bb84_states_rows_are_the_kron_chain_bit_for_bit(n, rows, seed):
    rng = np.random.default_rng(seed)
    words = rng.integers(0, 2, size=(rows, n), dtype=np.uint8)
    theta = gf2.random_bits(rng, n)
    states = quantum.bb84_states(words, theta)
    assert states.shape == (rows, 1 << n) and states.dtype == np.float64
    for row, state in zip(words, states):
        real_chain = np.ones(1)
        for bit, basis in zip(row, theta):
            real_chain = np.kron(real_chain, quantum.photon(int(bit), int(basis)))
        assert state.tobytes() == real_chain.tobytes()
        assert np.array_equal(state, kron_state(row, theta))
    assert np.array_equal(quantum.bb84_state(words[0], theta), states[0])


def reference_bb84_states(words, theta):
    """bb84_states the long way: photon by photon, every row's state times
    that photon's amplitudes (np.kron's arithmetic in np.kron's order)."""
    rows, n = words.shape
    photons = quantum._PHOTONS[theta, words]  # (rows, n, 2)
    states = np.ones((rows, 1))
    for i in range(n):
        states = (states[:, :, None] * photons[:, i, None, :]).reshape(rows, -1)
    return states


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 10), st.integers(1, 128), st.integers(0, 2**32 - 1))
def test_sign_chain_states_are_the_photon_loop_byte_for_byte(n, rows, seed):
    """The exact sign chain scaled by the fold of 1/sqrt2 gives the loop's
    bytes: every magnitude, and the sign of every zero."""
    rng = np.random.default_rng(seed)
    words = rng.integers(0, 2, size=(rows, n), dtype=np.uint8)
    theta = gf2.random_bits(rng, n)
    states = quantum._bb84_states(words, theta)
    reference = reference_bb84_states(words, theta)
    assert states.shape == reference.shape and states.dtype == np.float64
    assert states.tobytes() == reference.tobytes()


def test_sign_chain_keeps_the_signed_zeros_of_the_loop():
    """|1>x then |1>+ gives (+0, 1/sqrt2, -0, -1/sqrt2): the -0 is the
    loop's, from -1/sqrt2 times 0."""
    states = quantum._bb84_states(gf2.bitmatrix(["11"]), gf2.bits([quantum.CROSS, quantum.PLUS]))
    assert np.signbit(states[0]).tolist() == [False, False, True, True]
    assert states.tobytes() == reference_bb84_states(gf2.bitmatrix(["11"]), gf2.bits("10")).tobytes()


def test_sign_chain_of_no_photons_is_the_empty_product():
    states = quantum.bb84_states(np.zeros((3, 0), dtype=np.uint8), [])
    assert states.tobytes() == np.ones((3, 1)).tobytes()


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
    # a complex rho stays complex128 and a real one float64
    for m in (rho, rho.real):
        framed = quantum.density_in_frame(m, theta_hat)
        assert framed.dtype == m.dtype and framed.flags.c_contiguous
        assert np.max(np.abs(framed - u @ m @ u)) < 1e-12


def dtype_inputs(dtype):
    """A random 8x8 matrix of dtype (a complex one has nonzero imaginary
    parts), a unit vector of its first row and a basis string."""
    rng = np.random.default_rng(41)
    m = rng.integers(-3, 4, size=(8, 8))
    if dtype == complex:
        m = m + 1j * rng.integers(-3, 4, size=(8, 8))
    m = m.astype(dtype)
    return m, m[0] / np.linalg.norm(m[0]), gf2.bits("101")


DTYPE_FUNCTIONS = {
    "density_from_ensemble": lambda m, v, th: quantum.density_from_ensemble(m[:2], [0.25, 0.75]),
    "density_in_frame": lambda m, v, th: quantum.density_in_frame(m, th),
    "ShiftOp.conjugate": lambda m, v, th: quantum.u_beta("110", th).conjugate(m),
    "to_frame": lambda m, v, th: quantum.to_frame(v, th),
    "from_frame": lambda m, v, th: quantum.from_frame(v, th),
    "measure_photons": lambda m, v, th: quantum.measure_photons(v, [1], [np.eye(2)], FixedUniform())[1],
}


@pytest.mark.parametrize("name", DTYPE_FUNCTIONS)
@pytest.mark.parametrize("given_dtype, result_dtype", [
    (np.int64, np.float64), (np.float64, np.float64), (np.complex128, np.complex128)])
def test_density_and_frame_functions_keep_real_input_real(name, given_dtype, result_dtype):
    m, v, theta_hat = dtype_inputs(given_dtype)
    assert DTYPE_FUNCTIONS[name](m, v, theta_hat).dtype == result_dtype


def test_real_and_complex_inputs_give_the_same_values():
    """The complex path on a real matrix's complex copy gives the real
    path's values, bit for bit."""
    m, v, theta_hat = dtype_inputs(np.float64)
    for fn in DTYPE_FUNCTIONS.values():
        real, cplx = fn(m, v, theta_hat), fn(m.astype(complex), v.astype(complex), theta_hat)
        assert np.array_equal(cplx.real, real) and not cplx.imag.any()


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
def test_shift_op_conjugate_matches_its_kron_matrix(vec, data):
    n, state = vec
    draw_bits = st.lists(st.integers(0, 1), min_size=n, max_size=n)
    op = quantum.u_beta(data.draw(draw_bits), data.draw(draw_bits))
    u = shift_matrix(op)
    rho = np.outer(state, state.conj()) + np.diag(np.arange(1 << n))
    assert np.allclose(op.conjugate(rho), u @ rho @ u, atol=1e-12)


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
    (quantum.bb84_state([0, 1, 1], [0, 1, 0]), [2, True], [np.eye(2)] * 2, DomainError),
    (quantum.bb84_state([0, 1, 1], [0, 1, 0]), [True], [np.eye(2)], DomainError),
], ids=["duplicate", "past-the-end", "negative", "float-index", "rotation-3x3",
        "rotation-count", "zero-state", "nan-state", "length-6", "bool-among-ints", "bool-index"])
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
    assert np.linalg.eigvalsh(rho).min() > -1e-12


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


def outside_ball(e, center, t):
    """The frame indices off the ball: the complement of ball_projector."""
    return np.setdiff1d(np.arange(1 << len(center)), quantum.ball_projector(e, center, t))


def check_ball(e, center, t):
    """ball_projector(e, center, t) is the brute-force filter of all 2^n
    indices by Hamming distance to center on e; returns it."""
    low = quantum.ball_projector(e, center, t)
    center = gf2.bits(center)
    n = center.size
    want = [a for a in range(1 << n) if (gf2.unpack_int(a, n) != center)[list(e)].sum() <= t]
    assert low.tolist() == want
    return low


@st.composite
def balls(draw, max_n=6):
    n = draw(st.integers(1, max_n))
    e = sorted(draw(st.sets(st.integers(0, n - 1))))
    center = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    return e, center, draw(st.integers(0, n))


@settings(max_examples=200, deadline=None)
@given(balls(), st.integers(0, 2**32 - 1))
def test_ball_projector_is_the_brute_force_ball(ball, seed):
    low = check_ball(*ball)
    n = len(ball[1])
    rng = np.random.default_rng(seed)
    phi = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    phi /= np.linalg.norm(phi)
    theta_hat = gf2.random_bits(rng, n)
    # the weight on the ball, against the kron frame states, and the weight
    # off it split the norm of any state in any frame
    inside = sum(abs(np.vdot(kron_state(gf2.unpack_int(a, n), theta_hat), phi)) ** 2 for a in low)
    assert abs(quantum.small_distance_defect(phi, theta_hat, low) - inside) < 1e-12
    outside = quantum.small_distance_defect(phi, theta_hat, outside_ball(*ball))
    assert abs(inside + outside - 1.0) < 1e-12


def test_ball_projector_masks_partition():
    low = check_ball([0, 1, 2], "000", 1)
    assert low.tolist() == [0, 1, 2, 4]  # 000 plus the three weight-1 strings
    assert outside_ball([0, 1, 2], "000", 1).tolist() == [3, 5, 6, 7]


def test_ball_projector_distance_only_counts_e():
    low = check_ball([1], "00", 0)
    assert low.tolist() == [gf2.pack_int([0, 0]), gf2.pack_int([1, 0])]  # 10 differs only off e


def test_ball_projector_radius_covers_everything():
    assert check_ball([0, 1], "11", 2).tolist() == [0, 1, 2, 3]
    with pytest.raises(DomainError):
        quantum.ball_projector([0], "0", -1)


@pytest.mark.parametrize("bits", [quantum.STATEVECTOR_MAX_N + 1, 40, 70])
def test_ball_projector_refuses_centres_past_the_statevector_cap(bits):
    """A centre past STATEVECTOR_MAX_N raises ResourceError before its 2^n
    scan is made, where 40 bits asked for 8 TiB (MemoryError) and 70 bits
    gave numpy's bare ValueError."""
    with pytest.raises(ResourceError, match="ball projectors cap"):
        quantum.ball_projector([0], np.zeros(bits, dtype=np.uint8), 0)


@pytest.mark.parametrize("shape", [(8, 8), (2, 2), (4, 2), (16,)])
def test_shift_op_conjugate_refuses_a_density_of_another_size(shape):
    """A rho that is not 2^n x 2^n for the n photons of the shift raises
    DimensionError instead of numpy's reshape ValueError."""
    with pytest.raises(DimensionError, match="density dimension"):
        quantum.u_beta("10", "0x").conjugate(np.zeros(shape))


@pytest.mark.parametrize("trial", range(6))
def test_shift_op_translates_encodings(trial):
    rng = np.random.default_rng(900 + trial)
    n = int(rng.integers(1, 5))
    theta = gf2.random_bits(rng, n)
    beta = gf2.random_bits(rng, n)
    w = gf2.random_bits(rng, n)
    op = quantum.u_beta(beta, theta)
    state = quantum.bb84_state(w, theta)
    target = quantum.bb84_state(w ^ beta, theta)
    assert np.allclose(op.conjugate(np.outer(state, state)), np.outer(target, target), atol=1e-12)


def test_shift_op_matrix_is_a_real_involution():
    op = quantum.u_beta("11", "0x")
    m = shift_matrix(op)
    assert np.allclose(m @ m, np.eye(4), atol=1e-12)
    assert np.allclose(m, m.T, atol=1e-12)
    rho = np.eye(4, dtype=complex) / 4.0
    assert np.allclose(op.conjugate(rho), m @ rho @ m, atol=1e-12)


def test_u_beta_zero_is_identity():
    op = quantum.u_beta("00", "0x")
    assert op.gates == ("I", "I")
    rho = np.arange(16.0).reshape(4, 4) + 1j
    assert np.array_equal(op.conjugate(rho), rho)


def test_small_distance_defect_zero_at_center():
    w_hat = gf2.bits("0110")
    theta_hat = gf2.bits("0101")
    phi = quantum.bb84_state(w_hat, theta_hat)
    assert quantum.small_distance_defect(phi, theta_hat, outside_ball(range(4), w_hat, 0)) < 1e-14


def test_small_distance_defect_one_when_far():
    theta_hat = gf2.bits("00")
    phi = quantum.bb84_state(gf2.bits("11"), theta_hat)
    defect = quantum.small_distance_defect(phi, theta_hat, outside_ball(range(2), "00", 1))
    assert abs(defect - 1.0) < 1e-14


@pytest.mark.parametrize("angle", [0.1, 0.3, math.pi / 8])
def test_small_distance_defect_single_rotated_photon(angle):
    # amplitude sin(angle) lands outside the radius-0 ball around 0
    phi = quantum.angle_basis(angle)[:, 0]
    defect = quantum.small_distance_defect(phi, "0", outside_ball([0], "0", 0))
    assert abs(defect - math.sin(angle) ** 2) < 1e-12
