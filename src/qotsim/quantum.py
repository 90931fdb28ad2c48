"""Exact quantum mechanics for strings of two-level photons.

Conventions: statevector amplitudes are indexed by computational bitstrings
in the + basis, big-endian over photon positions (photon 0 is the most
significant bit). Encoded states: |0>+ = (1,0), |1>+ = (0,1),
|0>x = (|0>+ + |1>+)/sqrt2, |1>x = (|0>+ - |1>+)/sqrt2, which are the
polarizations 0, 90, 45, -45 degrees. All chosen amplitudes are real, which
makes the sign behavior of the shift unitaries exact, and so is every probe
rotation: encodings and angle bases are float64 arrays. bb84_states
multiplies exact 0 and +-1 sign factors and puts the cross photons' 1/sqrt2
in once, as their fold: byte for byte the kron chain of the amplitudes,
signed zeros included.

Measurement: measure_photons measures a block of photons on a full 2^n
statevector, keeping its inputs' dtype (complex states still work). A
receiver forms no statevector: no step of the protocol entangles
photons, so protocol.Reception holds each photon as a basis state, and
measure_photons is the reference it is tested against. STATEVECTOR_MAX_N
caps the 2^n arrays built here: the statevectors of bb84_states and the
ball_projector's scan of every basis index.

Densities and frames keep their input's dtype too: density_from_ensemble,
density_in_frame, to_frame/from_frame and ShiftOp.conjugate return
float64 for real (or integer) input and complex128 for complex input. The
+/x frame change is a real butterfly, so a BB84 mixture is never copied
to complex.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import gf2
from .errors import DimensionError, DomainError, ResourceError

PLUS, CROSS = 0, 1

STATEVECTOR_MAX_N = 20
DENSITY_MAX_N = 10

PHYS_TOL = 1e-10  # physical invariants (norms, traces, probabilities)

_SQ2 = 1.0 / math.sqrt(2.0)


# the label of each ASCII byte of '+x' text: + and 0 are PLUS, x, X and 1 CROSS, others 2
_BASIS_LABELS = np.full(256, 2, dtype=np.uint8)
_BASIS_LABELS[np.frombuffer(b"+0xX1", dtype=np.uint8)] = [PLUS, PLUS, CROSS, CROSS, CROSS]


def basis_string(spec, length=None) -> np.ndarray:
    """Normalize a basis string; accepts '+x' text or a 0/1 sequence."""
    if isinstance(spec, str):
        labels = _BASIS_LABELS[np.frombuffer(spec.encode("ascii", "replace"), dtype=np.uint8)]
        unknown = np.flatnonzero(labels > CROSS)
        if unknown.size:
            raise DomainError(f"unknown basis character {spec[unknown[0]]!r}")
        spec = labels
    return gf2.bits(spec, length=length)


_BASIS_CHARS = np.frombuffer(b"+x", dtype=np.uint8)


def basis_text(theta: np.ndarray) -> str:
    """'+x' text of a basis string; a label other than 0 or 1 raises DomainError."""
    return _basis_text(gf2._bit_array(theta, "basis label"))


def _basis_text(theta: np.ndarray) -> str:
    """basis_text of labels already known to be 0 or 1."""
    return _BASIS_CHARS[theta].tobytes().decode("ascii")


def conjugate_bases(theta: np.ndarray) -> np.ndarray:
    """The componentwise opposite basis string."""
    return basis_string(theta) ^ 1


# _SIGNS[basis, bit]: |0>+ and |1>+, then |0>x and |1>x over 1/sqrt2, all
# exact 0 and +-1; _PHOTONS holds the amplitudes themselves
_SIGNS = np.array([[[1.0, 0.0], [0.0, 1.0]], [[1.0, 1.0], [1.0, -1.0]]])
_PHOTONS = _SIGNS * np.array([1.0, _SQ2])[:, None, None]


def photon(bit: int, basis: int) -> np.ndarray:
    """The amplitudes of bit encoded in basis. A bit or basis other than 0
    or 1 raises DomainError, by the rule of gf2.bits."""
    bit, basis = gf2._bit_array([bit, basis], "photon label").tolist()
    return _PHOTONS[basis, bit].copy()


def angle_basis(angle: float) -> np.ndarray:
    """Rotation whose columns are the basis states at the given angle from +."""
    angle = gf2.number(angle, "a rotation angle")
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s], [s, c]])


def bb84_state(w: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Product state encoding bit string w in bases theta."""
    return bb84_states(gf2.bits(w).reshape(1, -1), theta)[0]


def bb84_states(words: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """One product state per row of words, all encoded in bases theta; each
    row is bit-identical to np.kron's chain over its photons' amplitudes."""
    words = gf2.bitmatrix(words)
    theta = basis_string(theta)
    if words.shape[1] != theta.size:
        raise DimensionError("bit string and basis string lengths differ")
    if theta.size > STATEVECTOR_MAX_N:
        raise ResourceError(f"statevectors cap at n={STATEVECTOR_MAX_N}")
    return _bb84_states(words, theta)


def _bb84_states(words: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """bb84_states of a checked bit matrix and a basis string of its width.

    Every amplitude is 0, 1 or +-1/sqrt2. So each entry of the kron chain
    is a product whose sign is the xor of its factors' signs, signed zeros
    included, and whose magnitude, when it is not zero, is the chain's fold
    of 1/sqrt2 over the cross photons: the same for every entry. Here the
    factors are the exact 0 and +-1 of _SIGNS, with that fold put into
    photon 0's factor, so every product is exact in any order. Adjacent
    factors merge pairwise, all the pairs of a level in one product; the
    odd last factor of a level is set aside, and the factors set aside
    join the last merged one in one final product.
    """
    rows, n = words.shape
    if n == 0:
        return np.ones((rows, 1))
    factors = _SIGNS[theta[:, None], words.T]  # (n, rows, 2), photon-major
    fold = 1.0
    for _ in range(int(np.count_nonzero(theta))):
        fold *= _SQ2
    factors[0] *= fold
    aside = None  # the product of the factors set aside, in photon order
    while len(factors) > 1:
        k = len(factors)
        if k & 1:
            aside = factors[-1:] if aside is None else _row_kron(factors[-1:], aside)
        factors = _row_kron(factors[0 : k - 1 : 2], factors[1:k:2])
    return (factors if aside is None else _row_kron(factors, aside))[0]


def _row_kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.kron of each vector along the last axis of a with the vector at
    the same (k, rows) place in b, as a (k, rows, len_a * len_b) array."""
    k, rows = a.shape[:2]
    return (a[:, :, :, None] * b[:, :, None, :]).reshape(k, rows, -1)


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


def _real_or_complex(a) -> np.ndarray:
    """a as float64, or as complex128 when its dtype is complex."""
    a = np.asarray(a)
    return a.astype(complex if a.dtype.kind == "c" else float, copy=False)


def to_frame(state: np.ndarray, theta_hat: np.ndarray) -> np.ndarray:
    """Coefficients of the state over the theta_hat product basis: an
    unscaled butterfly per cross photon, then one scale by 2^(-c/2) for c
    cross photons. A real state gives real coefficients (float64), a
    complex one complex128."""
    theta_hat = basis_string(theta_hat)
    state = _real_or_complex(state).ravel()
    if state.size != 1 << theta_hat.size:
        raise DimensionError("statevector dimension does not match basis string")
    cross = np.nonzero(theta_hat == CROSS)[0]
    bufs = [np.empty_like(state), np.empty_like(state)]
    return _butterflies(state, cross, bufs) * 2.0 ** (-cross.size / 2)


# to_frame is its own inverse photon-by-photon (H is self-adjoint), so it
# also maps frame coefficients back to + amplitudes.
from_frame = to_frame


def measure_photon(state: np.ndarray, i: int, rotation: np.ndarray, rng) -> tuple:
    """Projectively measure photon i in the basis given by rotation columns:
    measure_photons on a block of one. Returns (outcome bit, collapsed full
    state). One uniform draw per call."""
    outcomes, state = measure_photons(state, [i], [rotation], rng)
    return int(outcomes[0]), state


def measure_photons(state: np.ndarray, positions, rotations, rng) -> tuple:
    """Projectively measure the photons at positions, in order, each in the
    basis given by the columns of its rotation (rotations aligns with
    positions), on a full statevector: the reference for protocol.Reception.

    Each outcome o splits its photon off as the product factor rot[:, o],
    so the block's later photons are measured on the remainder over the
    photons not yet measured, which halves with every photon. The state is
    first copied with the block's photons as its leading axes, in block
    order; then each photon is the leading axis of the remainder psi,
    viewed as 2 rows, and one 2x2 product forms its outcome components
    c_o = conj(rot[0, o]) psi[0] + conj(rot[1, o]) psi[1], with
    p1 = |c_1|^2 / (|c_0|^2 + |c_1|^2); c_o is the next remainder. The
    full state is the factors times the remainder, scaled once to unit
    norm, formed by one outer product and put back in photon order by one
    moveaxis copy: about two state sizes of work per block, against one
    full pass per photon. One uniform draw per photon, in block order;
    every check runs before the first draw. Returns (outcome bits in block
    order, collapsed full state: float64 when the state and rotations are
    real, complex128 when either is complex).
    """
    state = _real_or_complex(state).ravel()
    size = state.size
    if size == 0 or size & (size - 1):
        raise DimensionError("statevector length must be a power of 2")
    n = size.bit_length() - 1
    positions = gf2.position_block(positions, n).tolist()
    rotations = [np.asarray(rot) for rot in rotations]
    if len(rotations) != len(positions):
        raise DimensionError("give one rotation per measured photon")
    if any(rot.shape != (2, 2) for rot in rotations):
        raise DimensionError("a photon rotation is a 2x2 matrix")
    k = len(positions)
    # the block's photons lead, in block order, then the rest in photon order
    rest = np.moveaxis(state.reshape((2,) * n), positions, range(k)).reshape(-1)
    outcomes = np.empty(k, dtype=np.uint8)
    product, weight = np.ones(1), 1.0
    for j, rot in enumerate(rotations):
        parts = rot.conj().T @ rest.reshape(2, -1)
        norms = [float(np.vdot(c, c).real) for c in parts]
        total = norms[0] + norms[1]
        if not total > 0.0:
            raise DomainError("cannot measure a state whose norm is zero or NaN")
        outcomes[j] = outcome = 1 if rng.random() < norms[1] / total else 0
        # the kept component stays unnormalised: p1 is a ratio of norms
        rest, weight = parts[outcome], norms[outcome]
        product = np.multiply.outer(product, rot[:, outcome]).ravel()
    full = np.multiply.outer(product / math.sqrt(weight), rest).reshape((2,) * n)
    return outcomes, np.moveaxis(full, range(k), positions).reshape(-1)


def density_from_ensemble(states, probs) -> np.ndarray:
    """rho = sum_a p_a |psi_a><psi_a|, as one weighted product V^T P V*
    over the states stacked as the rows of V (an array of rows is used as
    is). Real states, such as every BB84 encoding, make it one real
    product and a float64 rho; complex states give a complex128 rho."""
    probs = gf2.numbers(probs, "ensemble probabilities")
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
    return (v.T * probs) @ (v.conj() if v.dtype.kind == "c" else v)


def density_in_frame(rho: np.ndarray, theta_hat: np.ndarray) -> np.ndarray:
    """Matrix of rho over the theta_hat product basis, in rho's dtype:
    float64 for a real rho (every BB84 mixture), complex128 for a complex
    one.

    H rho H with H real and symmetric: the butterflies of to_frame on the
    rows, the same on the rows of the transpose, and one exact scale by
    2^-c for c cross photons. (Butterflies over the column bits of rho in
    place of the transpose read strided pairs and ran slower.)
    """
    theta_hat = basis_string(theta_hat)
    n = theta_hat.size
    rho = _real_or_complex(rho)
    if rho.shape != (1 << n, 1 << n):
        raise DimensionError("density dimension does not match basis string")
    cross = np.nonzero(theta_hat == CROSS)[0]
    bufs = [np.empty_like(rho), np.empty_like(rho)]
    rows = _butterflies(rho, cross, bufs)
    flipped = _other(bufs, rows)
    np.copyto(flipped, rows.T)
    both = _butterflies(flipped, cross, bufs)
    return np.multiply(both.T, 2.0 ** -cross.size, out=_other(bufs, both))


def ball_projector(e, center, t: int) -> np.ndarray:
    """The sorted basis indices alpha with d_e(alpha, center) <= t: in any
    product frame theta_hat, the states |alpha, theta_hat> that span the
    projector onto the distance-t ball around center on the positions e."""
    t = gf2.integer(t, "ball radius", least=0)
    center = gf2.bits(center)
    if center.size > STATEVECTOR_MAX_N:
        raise ResourceError(f"ball projectors cap at n={STATEVECTOR_MAX_N}")
    return _ball_projector(gf2.position_set(e, center.size), center, t)


def _ball_projector(e: np.ndarray, center: np.ndarray, t: int) -> np.ndarray:
    """ball_projector on a checked position set and bit vector."""
    n = center.size
    emask = sum(1 << (n - 1 - int(i)) for i in e)
    idx = np.arange(1 << n, dtype=np.int64)
    return np.nonzero(np.bitwise_count((idx ^ gf2._pack_int(center)) & emask) <= t)[0]


def small_distance_defect(phi: np.ndarray, theta_hat, indices) -> float:
    """Weight of phi on the theta_hat basis states listed in indices. Over
    the complement of a ball it is ||P0 phi||^2, and 0 within tolerance
    certifies the small-distance property."""
    coords = to_frame(phi, theta_hat)
    return float(np.sum(np.abs(coords[indices]) ** 2))


@dataclass(frozen=True)
class ShiftOp:
    """U_beta for bases theta: shifts encodings by beta in basis theta and
    acts as the sign mask (-1)^(beta . alpha) on the opposite basis.

    Per photon this is I (beta_i = 0), X (theta_i = +) or Z (theta_i = x);
    all real and self-inverse, so the operator is its own adjoint.
    """

    gates: tuple  # per-photon "I" | "X" | "Z"

    def conjugate(self, rho: np.ndarray) -> np.ndarray:
        """U rho U (the adjoint equals the operator itself), in rho's
        dtype: float64 for a real rho, complex128 for a complex one."""
        n = len(self.gates)
        dim = 1 << n
        rho = _real_or_complex(rho)
        if rho.shape != (dim, dim):
            raise DimensionError("density dimension does not match the shift")
        out = np.array(rho).reshape([2] * (2 * n))
        for i, gate in enumerate(self.gates):
            if gate == "X":
                out = np.flip(np.flip(out, axis=i), axis=n + i)
            elif gate == "Z":
                for axis in (i, n + i):
                    sl = [slice(None)] * (2 * n)
                    sl[axis] = 1
                    out[tuple(sl)] *= -1.0
        return out.reshape(dim, dim)

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
