"""Density operators over code cosets and their structure.

Alice's preparation, averaged over the coset C_x = {beta : f beta = x}, is
rho_x = |C_x|^-1 sum_{beta in C_x} |psi_{beta,theta}><psi_{beta,theta}|.
Expressed over the opposite product basis, rho_x has the closed form

    (rho_x)_{alpha,alpha'} = 2^-N (-1)^((alpha xor alpha') . beta0)
                             if alpha xor alpha' in rowspan(f), else 0

for any coset representative beta0. rho_brute builds the mixture directly;
rho_closed_form fills the formula; rho_zero_induction reproduces the
recursive derivation; lemma1_certificate checks that low-distance state
spans cannot tell rho_x from rho_x' when 2t < dN. The certificate evaluates
rho_x - rho_x' on the low ball only: each coset member's overlaps with the
ball's basis states are products of single-photon overlaps, so neither full
density nor its frame change is built.

Normalization is by the actual coset size, which equals 2^-k exactly when f
has full rank; with dependent rows the closed form still holds verbatim
(the annihilator of ker f is the row space at any rank).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple, Union

import numpy as np

from . import gf2, quantum
from .errors import DomainError, ResourceError

COSET_MAX_DIM = 10  # 2^dim coset members enumerated


@dataclass(frozen=True, eq=False)
class CosetEnsemble:
    """The uniform mixture over {beta : f beta = x}, encoded in bases theta."""

    code: gf2.LinearCode
    x: np.ndarray
    theta: np.ndarray
    beta0: np.ndarray

    @property
    def kernel(self) -> np.ndarray:
        """Rows spanning ker f, shared by every coset of the code."""
        return self.code.kernel

    @property
    def members(self) -> np.ndarray:
        """All coset elements, one per row: beta0 xor each kernel span word."""
        return self.code.kernel_span ^ self.beta0


def coset_ensemble(code: gf2.LinearCode, x, theta) -> CosetEnsemble:
    x = gf2.bits(x, length=code.r + code.m)
    theta = quantum.basis_string(theta, length=code.N)
    beta0 = code.particular(x)
    if beta0 is None:
        raise DomainError("syndrome x is not in the image of f; empty coset")
    if code.kernel.shape[0] > COSET_MAX_DIM:
        raise ResourceError(f"coset dimension caps at {COSET_MAX_DIM}")
    return CosetEnsemble(code=code, x=x, theta=theta, beta0=beta0)


def _check_density_cap(n: int) -> None:
    if n > quantum.DENSITY_MAX_N:
        raise ResourceError(f"density matrices cap at N={quantum.DENSITY_MAX_N}")


def rho_brute(ens: CosetEnsemble) -> np.ndarray:
    """Direct mixture over the coset; entries over the + computational basis."""
    _check_density_cap(ens.code.N)
    # every BB84 amplitude is real, so the mixture is one real product
    states = quantum.bb84_states(ens.members, ens.theta)
    return quantum.density_from_ensemble(states, np.full(len(states), 1.0 / len(states)))


def rho_closed_form(ens: CosetEnsemble) -> np.ndarray:
    """The formula above; entries over the conjugate basis of theta."""
    n = ens.code.N
    _check_density_cap(n)
    span = np.zeros(1 << n, dtype=bool)
    span[gf2.lane_prefix(ens.code.row_span, n)] = True
    idx = np.arange(1 << n, dtype=np.int64)
    delta = idx[:, None] ^ idx[None, :]
    b0 = gf2.pack_int(ens.beta0)
    sign = 1.0 - 2.0 * (np.bitwise_count(delta & b0) & 1)
    return (2.0 ** -n) * np.where(span[delta], sign, 0.0).astype(complex)


def induction_form(kernel_rows: np.ndarray, n_cols: int) -> np.ndarray:
    """Claimed matrix of rho^(j) over the conjugate basis: 2^-N on pairs
    whose difference annihilates every listed kernel vector, else 0."""
    idx = np.arange(1 << n_cols, dtype=np.int64)
    perp = np.ones(1 << n_cols, dtype=bool)
    for row in np.atleast_2d(kernel_rows):
        if row.size == 0:
            continue
        packed = gf2.pack_int(row)
        perp &= (np.bitwise_count(idx & packed) & 1) == 0
    delta = idx[:, None] ^ idx[None, :]
    return (2.0 ** -n_cols) * perp[delta].astype(complex)


def rho_zero_induction(
    code: gf2.LinearCode, theta, kernel: Optional[np.ndarray] = None
) -> List[np.ndarray]:
    """rho^(0) .. rho^(k) by the mixing recursion over a kernel basis of f.

    rho^(0) is the pure all-zero encoding; each step averages with the
    conjugated copy: rho^(j+1) = (rho^(j) + U rho^(j) U) / 2. Entries are
    over the + computational basis. A supplied kernel basis is validated;
    by default one comes from Gaussian elimination (the result does not
    depend on the choice).
    """
    theta = quantum.basis_string(theta, length=code.N)
    derived = code.kernel
    if kernel is None:
        kernel = derived
    else:
        kernel = gf2.bitmatrix(kernel, cols=code.N)
        if gf2.rank(kernel) != kernel.shape[0]:
            raise DomainError("supplied kernel vectors are dependent")
        if kernel.shape[0] != derived.shape[0] or any(
            gf2.matvec(code.f, row).any() for row in kernel
        ):
            raise DomainError("supplied vectors are not a kernel basis of f")
    if code.N > quantum.DENSITY_MAX_N or kernel.shape[0] > COSET_MAX_DIM:
        raise ResourceError("induction caps at N=10, kernel dimension 10")
    zero = quantum.bb84_state(np.zeros(code.N, dtype=np.uint8), theta)
    rho = np.outer(zero, zero.conj())
    out = [rho]
    for j in range(kernel.shape[0]):
        shift = quantum.u_beta(kernel[j], theta)
        rho = 0.5 * (rho + shift.conjugate(rho))
        out.append(rho)
    return out


@dataclass(frozen=True)
class Lemma1Certificate:
    max_defect: float
    dN: Union[int, float]
    condition_met: bool


def _low_ball_block(
    code: gf2.LinearCode, theta, x, x_prime, e, t: int, w_hat
) -> Tuple[np.ndarray, np.ndarray]:
    """(P1 delta-rho P1 over the low-ball states of the conjugate frame,
    their frame indices).

    Row k of a coset's amplitude matrix A holds member k's overlaps with
    the low-ball basis states, so the block is (A^T A* - A'^T A'*) / K; no
    2^N x 2^N density is formed.
    """
    theta = quantum.basis_string(theta, length=code.N)
    x, x_prime = gf2.bits(x), gf2.bits(x_prime)
    if x.size == x_prime.size and np.array_equal(x, x_prime):
        raise DomainError("syndromes must differ")
    theta_hat = theta ^ 1
    ens = coset_ensemble(code, x, theta)
    _check_density_cap(code.N)
    ens_prime = coset_ensemble(code, x_prime, theta)
    low = np.nonzero(quantum.ball_projector(e, w_hat, t, theta_hat, quantum.LOW).mask)[0]
    # both cosets shift one kernel, so they have the same K members
    amps = quantum.framed_amplitudes(
        np.vstack([ens.members, ens_prime.members]), theta, theta_hat, low
    )
    a, a_prime = np.split(amps, 2)
    return (a.T @ a.conj() - a_prime.T @ a_prime.conj()) / len(a), low


def _min_weight_on(code: gf2.LinearCode, e: np.ndarray):
    """Minimum weight, restricted to the coordinates in e, over the nonzero
    row-span words. A span word supported off e is invisible to distances
    measured on e, so this is the quantity a ball on e actually tests."""
    span = code.row_span
    span = span[gf2.lane_weights(span) > 0]
    if span.size == 0:
        return math.inf
    emask = gf2.pack_lanes([np.isin(np.arange(code.N), e)])
    return int(gf2.lane_weights(span & emask).min())


def lemma1_certificate(
    code: gf2.LinearCode, theta, x, x_prime, e, t: int, w_hat
) -> Lemma1Certificate:
    """Certify that the low-distance span sees no difference between the
    two coset operators whenever 2t is below the span min-distance.

    delta rho is evaluated on the low ball only: its block over the
    conjugate-frame basis states within distance t of w_hat on e. max_defect
    is the larger of that block's biggest diagonal magnitude
    (|<phi|delta rho|phi>| over the ball's basis states) and its operator
    norm, the norm of P1 (delta rho) P1. dN is the code's min distance;
    when e covers every coordinate the hypothesis is 2t < dN, and on a
    proper subset it tightens to the min span weight restricted to e (what
    a ball on e can resolve). condition_met records the hypothesis actually
    checked.
    """
    block, low = _low_ball_block(code, theta, x, x_prime, e, t, w_hat)
    if low.size:
        diag_max = float(np.max(np.abs(block.diagonal())))
        op_norm = float(np.max(np.abs(np.linalg.eigvalsh(block))))
    else:
        diag_max = op_norm = 0.0
    d_min = code.distance
    e = gf2.position_set(e, code.N)
    d_eff = d_min if e.size == code.N else _min_weight_on(code, e)
    return Lemma1Certificate(
        max_defect=max(diag_max, op_norm),
        dN=d_min,
        condition_met=bool(2 * t < d_eff),
    )


def distinguishing_witness(
    code: gf2.LinearCode, theta, x, x_prime, e, t: int, w_hat
) -> Tuple[float, np.ndarray]:
    """Best low-distance distinguisher by eigendecomposition.

    Returns (|<phi|delta rho|phi>|, phi) where phi is the low-ball
    eigenvector of P1 (delta rho) P1 with the largest absolute eigenvalue,
    expressed in + amplitudes. Out-of-hypothesis configurations (2t >= dN)
    should yield strictly positive values.
    """
    theta = quantum.basis_string(theta, length=code.N)
    block, low = _low_ball_block(code, theta, x, x_prime, e, t, w_hat)
    if low.size == 0:
        raise DomainError("empty low ball has no witness")
    vals, vecs = np.linalg.eigh(block)
    best = int(np.argmax(np.abs(vals)))
    coords = np.zeros(1 << code.N, dtype=complex)
    coords[low] = vecs[:, best]
    phi = quantum.from_frame(coords, quantum.conjugate_bases(theta))
    return float(abs(vals[best])), phi


def gv_bound_trial(
    n_cols: int, rows: int, eta: float, trials: int, rng: np.random.Generator
) -> float:
    """Fraction of random rows x N matrices whose span min-distance ratio
    exceeds the entropy-inverse threshold H^-1(1 - rows/N) - eta."""
    if rows >= n_cols:
        raise DomainError("rows must be below N")
    if trials < 1:
        raise DomainError("need at least one trial")
    if rows > gf2.MIN_DISTANCE_MAX_ROWS:
        raise ResourceError("row count exceeds the min-distance cap")
    threshold = gf2.binary_entropy_inverse(1.0 - rows / n_cols) - eta
    hits = 0
    for _ in range(trials):
        f = gf2.random_bitmatrix(rng, rows, n_cols)
        d = gf2.min_distance(f)
        ratio = math.inf if d == math.inf else d / n_cols
        if ratio > threshold:
            hits += 1
    return hits / trials
