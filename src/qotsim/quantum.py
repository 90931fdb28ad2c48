"""Exact quantum mechanics for strings of two-level photons.

Conventions: statevector amplitudes are indexed by computational bitstrings
in the + basis, big-endian over photon positions (photon 0 is the most
significant bit). Encoded states: |0>+ = (1,0), |1>+ = (0,1),
|0>x = (|0>+ + |1>+)/sqrt2, |1>x = (|0>+ - |1>+)/sqrt2, which are the
polarizations 0, 90, 45, -45 degrees. All chosen amplitudes are real, which
makes the sign behavior of the shift unitaries exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import gf2
from .errors import DimensionError, DomainError, ResourceError

PLUS, CROSS = 0, 1
LOW, HIGH = "low", "high"

STATEVECTOR_MAX_N = 20
DENSITY_MAX_N = 10

PHYS_TOL = 1e-10  # physical invariants (norms, traces, probabilities)
ALG_TOL = 1e-12  # algebraic identities

_SQ2 = 1.0 / math.sqrt(2.0)
_H = np.array([[_SQ2, _SQ2], [_SQ2, -_SQ2]])


def basis_string(spec, length=None) -> np.ndarray:
    """Normalize a basis string; accepts '+x' text or a 0/1 sequence."""
    if isinstance(spec, str):
        table = {"+": PLUS, "x": CROSS, "X": CROSS, "0": PLUS, "1": CROSS}
        try:
            spec = [table[ch] for ch in spec]
        except KeyError as exc:
            raise DomainError(f"unknown basis character {exc}") from exc
    return gf2.bits(spec, length=length)


_BASIS_CHARS = np.frombuffer(b"+x", dtype=np.uint8)


def basis_text(theta: np.ndarray) -> str:
    return _BASIS_CHARS[np.asarray(theta, dtype=np.intp)].tobytes().decode("ascii")


def conjugate_bases(theta: np.ndarray) -> np.ndarray:
    """The componentwise opposite basis string."""
    return basis_string(theta) ^ 1


def photon(bit: int, basis: int) -> np.ndarray:
    if basis == PLUS:
        return np.array([1.0, 0.0] if bit == 0 else [0.0, 1.0], dtype=complex)
    return np.array([_SQ2, _SQ2] if bit == 0 else [_SQ2, -_SQ2], dtype=complex)


# _PHOTONS[basis, bit] is photon(bit, basis)
_PHOTONS = np.array([[photon(bit, basis) for bit in (0, 1)] for basis in (PLUS, CROSS)])


def angle_basis(angle: float) -> np.ndarray:
    """Rotation whose columns are the basis states at the given angle from +."""
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s], [s, c]], dtype=complex)


def bb84_state(w: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Product state encoding bit string w in bases theta."""
    return bb84_states(gf2.bits(w).reshape(1, -1), theta)[0]


def bb84_states(words: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """One product state per row of words, all encoded in bases theta.

    Photon by photon, every row's state is multiplied by that photon's
    amplitudes, which is np.kron's arithmetic in np.kron's order: each row
    is bit-identical to a kron chain over its photons.
    """
    words = gf2.bitmatrix(words)
    theta = basis_string(theta)
    rows, n = words.shape
    if n != theta.size:
        raise DimensionError("bit string and basis string lengths differ")
    if n > STATEVECTOR_MAX_N:
        raise ResourceError(f"statevectors cap at n={STATEVECTOR_MAX_N}")
    photons = _PHOTONS[theta, words]  # (rows, n, 2)
    states = np.ones((rows, 1), dtype=complex)
    for i in range(n):
        states = (states[:, :, None] * photons[:, i, None, :]).reshape(rows, -1)
    return states


def framed_amplitudes(words: np.ndarray, theta, theta_hat, indices) -> np.ndarray:
    """<alpha, theta_hat | psi_{w, theta}> for each row w of words (axis 0)
    and each theta_hat basis index alpha of indices (axis 1).

    Each entry is the product over photons of the single-photon overlaps,
    so only the listed columns of the frame change are ever formed.
    """
    words = gf2.bitmatrix(words)
    theta = basis_string(theta, length=words.shape[1])
    theta_hat = basis_string(theta_hat, length=theta.size)
    n = theta.size
    if n > STATEVECTOR_MAX_N:
        raise ResourceError(f"statevectors cap at n={STATEVECTOR_MAX_N}")
    indices = np.asarray(indices, dtype=np.int64).ravel()
    if indices.size and (indices.min() < 0 or indices.max() >= 1 << n):
        raise DomainError(f"basis indices must lie in [0, 2^{n})")
    alphas = (indices[:, None] >> np.arange(n - 1, -1, -1)) & 1
    # overlap[i, b, a] = <a, theta_hat_i | b, theta_i>
    overlap = np.einsum("iaj,ibj->iba", _PHOTONS[theta_hat].conj(), _PHOTONS[theta])
    photons = overlap[np.arange(n), words]  # (rows, n, 2)
    amps = np.ones((words.shape[0], indices.size), dtype=complex)
    for i in range(n):
        amps *= photons[:, i, alphas[:, i]]
    return amps


def check_state(state: np.ndarray, n: int = None) -> np.ndarray:
    state = np.asarray(state, dtype=complex).ravel()
    size = state.size
    if size == 0 or size & (size - 1):
        raise DimensionError("statevector length must be a power of 2")
    if n is not None and size != 1 << n:
        raise DimensionError(f"expected 2^{n} amplitudes")
    norm = float(np.vdot(state, state).real)
    if abs(norm - 1.0) > PHYS_TOL:
        raise DomainError(f"statevector norm^2 = {norm}, not 1")
    return state


def _butterflies(a: np.ndarray, photons, bufs) -> np.ndarray:
    """Unscaled Hadamard butterflies (a0 + a1, a0 - a1) over the bit of
    each listed photon in a's leading index (2^n values, big-endian).

    Each butterfly reads a (2^i, 2, rest) view of the last result, a at
    first, and writes the one of the two buffers in bufs that does not
    hold it. Returns the buffer holding the result, or a itself when no
    photon is listed; a is never written.
    """
    for i in photons:
        out = _other(bufs, a)
        s = a.reshape(1 << int(i), 2, -1)
        d = out.reshape(1 << int(i), 2, -1)
        np.add(s[:, 0], s[:, 1], out=d[:, 0])
        np.subtract(s[:, 0], s[:, 1], out=d[:, 1])
        a = out
    return a


def _other(bufs, a: np.ndarray) -> np.ndarray:
    return bufs[1] if a is bufs[0] else bufs[0]


def to_frame(state: np.ndarray, theta_hat: np.ndarray) -> np.ndarray:
    """Coefficients of the state over the theta_hat product basis: an
    unscaled butterfly per cross photon, then one scale by 2^(-c/2) for c
    cross photons."""
    theta_hat = basis_string(theta_hat)
    state = np.asarray(state, dtype=complex).ravel()
    if state.size != 1 << theta_hat.size:
        raise DimensionError("statevector dimension does not match basis string")
    cross = np.nonzero(theta_hat == CROSS)[0]
    bufs = [np.empty_like(state), np.empty_like(state)]
    return _butterflies(state, cross, bufs) * 2.0 ** (-cross.size / 2)


# to_frame is its own inverse photon-by-photon (H is self-adjoint), so it
# also maps frame coefficients back to + amplitudes.
from_frame = to_frame


def measure_photon(state: np.ndarray, i: int, rotation: np.ndarray, rng) -> tuple:
    """Projectively measure photon i in the basis given by rotation columns.

    On the (2^i, 2, 2^(n-i-1)) view psi of the state, outcome o has the
    component c_o = conj(rot[0, o]) psi[:, 0] + conj(rot[1, o]) psi[:, 1],
    p1 = |c_1|^2 / (|c_0|^2 + |c_1|^2), and the collapsed state is
    rot[:, o] (x) c_o / |c_o|. Returns (outcome bit, collapsed full state).
    One uniform draw per call.
    """
    state = np.asarray(state, dtype=complex).ravel()
    size = state.size
    if size == 0 or size & (size - 1):
        raise DimensionError("statevector length must be a power of 2")
    rot = np.asarray(rotation, dtype=complex)
    if rot.shape != (2, 2):
        raise DimensionError("a photon rotation is a 2x2 matrix")
    n = size.bit_length() - 1
    if not 0 <= i < n:
        raise DomainError(f"photon index {i} outside [0, {n})")
    psi = state.reshape(1 << i, 2, -1)
    adj = rot.conj()
    parts = [adj[0, o] * psi[:, 0] + adj[1, o] * psi[:, 1] for o in (0, 1)]
    norms = [float(np.vdot(c, c).real) for c in parts]
    total = norms[0] + norms[1]
    if not total > 0.0:
        raise DomainError("cannot measure a state whose norm is zero or NaN")
    outcome = 1 if rng.random() < norms[1] / total else 0
    kept = parts[outcome] / math.sqrt(norms[outcome])
    return outcome, (rot[:, outcome, None] * kept[:, None, :]).reshape(-1)


def measure_subset(state: np.ndarray, positions, bases, rng) -> tuple:
    """Measure the listed photons sequentially in the given +/x bases.

    bases aligns with positions. Returns (outcome bits in positions order,
    collapsed full state).
    """
    state = np.asarray(state, dtype=complex)
    positions = list(np.asarray(positions, dtype=np.int64).ravel())
    bases = basis_string(bases, length=len(positions))
    outcomes = np.zeros(len(positions), dtype=np.uint8)
    for j, i in enumerate(positions):
        rot = _H if bases[j] == CROSS else np.eye(2)
        outcomes[j], state = measure_photon(state, int(i), rot, rng)
    return outcomes, state


def measure_in_bases(state: np.ndarray, theta_hat: np.ndarray, rng) -> tuple:
    """Measure every photon i in basis theta_hat_i (Born rule).

    The collapsed state is exactly bb84_state(outcome, theta_hat).
    """
    theta_hat = basis_string(theta_hat)
    n = theta_hat.size
    state = check_state(state, n)
    return measure_subset(state, np.arange(n), theta_hat, rng)


def density_from_ensemble(states, probs) -> np.ndarray:
    """rho = sum_a p_a |psi_a><psi_a|, as one weighted product V^T P V*
    over the states stacked as the rows of V (an array of rows is used as
    is). Real states, such as every BB84 encoding, make it a real product."""
    probs = np.asarray(probs, dtype=float)
    if np.any(probs < -PHYS_TOL) or abs(probs.sum() - 1.0) > PHYS_TOL:
        raise DomainError("ensemble probabilities must be nonnegative and sum to 1")
    if probs.shape != (len(states),):
        raise DimensionError("ensemble needs one probability per state")
    if not isinstance(states, np.ndarray):
        if len({np.size(s) for s in states}) != 1:
            raise DimensionError("ensemble states differ in dimension")
        states = [np.ravel(s) for s in states]
    v = np.asarray(states).reshape(probs.size, -1)
    if v.shape[1] > 1 << DENSITY_MAX_N:
        raise ResourceError(f"density matrices cap at N={DENSITY_MAX_N}")
    return ((v.T * probs) @ v.conj()).astype(complex, copy=False)


def check_density(rho: np.ndarray) -> np.ndarray:
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise DimensionError("density matrix must be square")
    if np.max(np.abs(rho - rho.conj().T)) > PHYS_TOL:
        raise DomainError("density matrix is not Hermitian")
    if abs(np.trace(rho).real - 1.0) > PHYS_TOL:
        raise DomainError("density matrix trace is not 1")
    if np.linalg.eigvalsh(rho).min() < -PHYS_TOL:
        raise DomainError("density matrix has a negative eigenvalue")
    return rho


def density_in_frame(rho: np.ndarray, theta_hat: np.ndarray) -> np.ndarray:
    """Matrix of rho over the theta_hat product basis.

    H rho H with H real and symmetric: the butterflies of to_frame on the
    rows, the same on the rows of the transpose, and one exact scale by
    2^-c for c cross photons. H is real, so a real rho (every BB84
    mixture) is changed on its real part alone.
    """
    theta_hat = basis_string(theta_hat)
    n = theta_hat.size
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (1 << n, 1 << n):
        raise DimensionError("density dimension does not match basis string")
    cross = np.nonzero(theta_hat == CROSS)[0]
    if rho.imag.any():
        return _hadamard_conjugate(rho, cross)
    return _hadamard_conjugate(rho.real, cross).astype(complex)


def _hadamard_conjugate(rho: np.ndarray, cross: np.ndarray) -> np.ndarray:
    bufs = [np.empty_like(rho), np.empty_like(rho)]
    rows = _butterflies(rho, cross, bufs)
    flipped = _other(bufs, rows)
    np.copyto(flipped, rows.T)
    both = _butterflies(flipped, cross, bufs)
    return np.multiply(both.T, 2.0 ** -cross.size, out=_other(bufs, both))


def matrix_element(rho: np.ndarray, alpha, alpha_p, theta_hat) -> complex:
    """<psi_{alpha,theta_hat}| rho |psi_{alpha',theta_hat}>."""
    va = bb84_state(alpha, theta_hat)
    vb = bb84_state(alpha_p, theta_hat)
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (va.size, va.size):
        raise DimensionError("density dimension does not match index strings")
    return complex(va.conj() @ rho @ vb)


@dataclass(frozen=True, eq=False)
class Projector:
    """Projector onto a span of theta_hat product-basis states.

    Diagonal in that basis, so it is just the index mask; algebra on masks
    is exact.
    """

    n: int
    theta_hat: np.ndarray
    mask: np.ndarray  # boolean over 2^n basis strings

    def apply(self, state: np.ndarray) -> np.ndarray:
        coords = to_frame(np.asarray(state, dtype=complex), self.theta_hat)
        coords = np.where(self.mask, coords, 0.0)
        return from_frame(coords, self.theta_hat)

    def complement(self) -> "Projector":
        return Projector(n=self.n, theta_hat=self.theta_hat, mask=~self.mask)


def ball_projector(e, center, t: int, theta_hat, side: str) -> Projector:
    """Projector onto span{|psi_{alpha,theta_hat}> : d_e(alpha, center) <= t}
    (side LOW), or onto the complementary span (side HIGH)."""
    if t < 0:
        raise DomainError("ball radius must be nonnegative")
    center = gf2.bits(center)
    theta_hat = basis_string(theta_hat, length=center.size)
    n = center.size
    e = gf2.position_set(e, n)
    emask = 0
    for i in e:
        emask |= 1 << (n - 1 - int(i))
    idx = np.arange(1 << n, dtype=np.int64)
    dist = np.bitwise_count((idx ^ gf2.pack_int(center)) & emask)
    if side == LOW:
        mask = dist <= t
    elif side == HIGH:
        mask = dist > t
    else:
        raise DomainError(f"side must be {LOW!r} or {HIGH!r}")
    return Projector(n=n, theta_hat=theta_hat, mask=mask)


def outcome_probability(rho: np.ndarray, pi) -> float:
    """Tr(Pi rho) for a Projector or an explicit operator matrix."""
    rho = np.asarray(rho, dtype=complex)
    if isinstance(pi, Projector):
        framed = density_in_frame(rho, pi.theta_hat)
        return float(np.sum(framed.diagonal().real[pi.mask]))
    pi = np.asarray(pi, dtype=complex)
    if pi.shape != rho.shape:
        raise DimensionError("operator and density dimensions differ")
    return float(np.trace(pi @ rho).real)


def small_distance_defect(phi: np.ndarray, p0: Projector) -> float:
    """||P0 phi||^2; 0 within tolerance certifies the small-distance property."""
    phi = np.asarray(phi, dtype=complex).ravel()
    if phi.size != 1 << p0.n:
        raise DimensionError("state dimension does not match projector")
    coords = to_frame(phi, p0.theta_hat)
    return float(np.sum(np.abs(coords[p0.mask]) ** 2))


@dataclass(frozen=True)
class ShiftOp:
    """U_beta for bases theta: shifts encodings by beta in basis theta and
    acts as the sign mask (-1)^(beta . alpha) on the opposite basis.

    Per photon this is I (beta_i = 0), X (theta_i = +) or Z (theta_i = x);
    all real and self-inverse, so the operator is its own adjoint.
    """

    gates: tuple  # per-photon "I" | "X" | "Z"

    def apply(self, state: np.ndarray) -> np.ndarray:
        n = len(self.gates)
        out = np.array(state, dtype=complex).reshape([2] * n)
        for i, gate in enumerate(self.gates):
            if gate == "X":
                out = np.flip(out, axis=i)
            elif gate == "Z":
                sl = [slice(None)] * n
                sl[i] = 1
                out[tuple(sl)] *= -1.0
        return out.reshape(-1)

    def conjugate(self, rho: np.ndarray) -> np.ndarray:
        """U rho U (the adjoint equals the operator itself)."""
        n = len(self.gates)
        dim = 1 << n
        out = np.array(rho, dtype=complex).reshape([2] * (2 * n))
        for i, gate in enumerate(self.gates):
            if gate == "X":
                out = np.flip(np.flip(out, axis=i), axis=n + i)
            elif gate == "Z":
                for axis in (i, n + i):
                    sl = [slice(None)] * (2 * n)
                    sl[axis] = 1
                    out[tuple(sl)] *= -1.0
        return out.reshape(dim, dim)

    def matrix(self) -> np.ndarray:
        n = len(self.gates)
        if n > DENSITY_MAX_N:
            raise ResourceError("dense operator matrices cap at N=10")
        table = {
            "I": np.eye(2, dtype=complex),
            "X": np.array([[0, 1], [1, 0]], dtype=complex),
            "Z": np.array([[1, 0], [0, -1]], dtype=complex),
        }
        out = np.array([[1.0]], dtype=complex)
        for gate in self.gates:
            out = np.kron(out, table[gate])
        return out


def u_beta(beta: np.ndarray, theta: np.ndarray) -> ShiftOp:
    """The unitary with U|psi_{b,theta}> = |psi_{beta xor b,theta}>."""
    beta = gf2.bits(beta)
    theta = basis_string(theta)
    if beta.size != theta.size:
        raise DimensionError("beta and theta lengths differ")
    gates = tuple(
        "I" if not beta[i] else ("X" if theta[i] == PLUS else "Z")
        for i in range(beta.size)
    )
    return ShiftOp(gates=gates)
