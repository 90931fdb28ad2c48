"""Density operators over code cosets and their structure.

Alice's preparation, averaged over the coset C_x = {beta : f beta = x}, is
rho_x = |C_x|^-1 sum_{beta in C_x} |psi_{beta,theta}><psi_{beta,theta}|.
Expressed over the opposite product basis, rho_x has the closed form

    (rho_x)_{alpha,alpha'} = 2^-N (-1)^((alpha xor alpha') . beta0)
                             if alpha xor alpha' in rowspan(f), else 0

for any coset representative beta0. rho_brute builds the mixture directly,
from the members' states of quantum's unchecked core; rho_closed_form
writes the formula's value at each difference alpha xor alpha' as row 0 and
fills every other row by copies; rho_zero_induction reproduces the
recursive derivation; lemma1_certificate checks that low-distance state
spans cannot tell rho_x from rho_x' when 2t < dN. The certificate evaluates
rho_x - rho_x' on the low ball only, so neither full density nor its frame
change is built.

Every density here is real (float64), as the +/x amplitudes are, and so
are the certificate's low-ball block and its eigenvalues. The block is
rho_x - rho_x' of the closed form on the ball's states, gathered from each
syndrome's column of closed-form values, so no coset member is enumerated:
its entries are 0 or +-2^(1-N) exactly, a block inside the hypothesis is
exactly 0, and theta does not change it. The code's memo keeps each
syndrome's representative, each low ball and each (syndrome, ball) block,
so a certificate checks its operands once and pays for its pair alone.

Normalization is by the actual coset size, which equals 2^-k exactly when f
has full rank; with dependent rows the closed form still holds verbatim
(the annihilator of ker f is the row space at any rank).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple, Union

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
    # every BB84 amplitude is real, so the mixture is one real product;
    # coset_ensemble checked theta, and the members are bits of width N
    states = quantum._bb84_states(ens.members, ens.theta)
    return quantum.density_from_ensemble(states, np.full(len(states), 1.0 / len(states)))


def rho_closed_form(ens: CosetEnsemble) -> np.ndarray:
    """The formula above; real entries over the conjugate basis of theta.

    Entry (alpha, alpha') depends on alpha xor alpha' alone, so row 0 is
    the column of closed-form values and every other row is a copy of
    earlier ones: for h = 1, 2, 4, ..., rows h..2h-1 are rows 0..h-1 with
    each h-aligned block of columns swapped with its partner (xor h).
    """
    n = ens.code.N
    _check_density_cap(n)
    size = 1 << n
    rho = np.empty((size, size))
    rho[0] = _closed_form_column(ens.code, ens.beta0)
    for i in range(n):
        # rows 0..2h-1 for h = 2^i: (half, row and block pair, block, column)
        rows = rho[: 2 << i].reshape(2, size >> 1, 2, 1 << i)
        rows[1] = rows[0, :, ::-1]
    return rho


def _closed_form_column(code: gf2.LinearCode, beta0: np.ndarray) -> np.ndarray:
    """The closed form's value at each difference alpha xor alpha' of the
    coset of beta0: 2^N entries, +-2^-N on the row span and 0 off it."""
    n = code.N
    span = gf2.lane_prefix(code.row_span, n)
    parity = np.bitwise_count(span & gf2._pack_int(beta0)) & 1
    column = np.zeros(1 << n)
    column[span] = (2.0 ** -n) * (1.0 - 2.0 * parity)
    return column


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
    return (2.0 ** -n_cols) * perp[delta]


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
        raise ResourceError(
            f"induction caps at N={quantum.DENSITY_MAX_N}, kernel dimension {COSET_MAX_DIM}"
        )
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


def _certificate_operands(code: gf2.LinearCode, theta, x, x_prime, e, t, w_hat) -> tuple:
    """(theta, x, x_prime, e, t, w_hat) of one certificate, each checked
    once: bit strings of the code's lengths, two distinct syndromes in the
    image of f, a position set, an integer radius t >= 0, and the density
    cap. The helpers below take these and check nothing."""
    n, rows = code.N, code.f.shape[0]
    theta = quantum.basis_string(theta, length=n)
    x, x_prime = gf2.bits(x, length=rows), gf2.bits(x_prime, length=rows)
    if np.array_equal(x, x_prime):
        raise DomainError("syndromes must differ")
    if code._particular(x) is None or code._particular(x_prime) is None:
        raise DomainError("both syndromes must lie in the image of f; one has an empty coset")
    e = gf2.position_set(e, n)
    t = gf2.integer(t, "ball radius", least=0)
    w_hat = gf2.bits(w_hat, length=n)
    _check_density_cap(n)
    return theta, x, x_prime, e, t, w_hat


def _low_ball_block(
    code: gf2.LinearCode, x, x_prime, e, t: int, w_hat
) -> Tuple[np.ndarray, np.ndarray]:
    """(P1 delta-rho P1 over the low-ball states of the conjugate frame,
    their frame indices), from _certificate_operands' checked operands.
    The conjugate frame of any theta gives the same block.

    Each syndrome's part is its _closed_form_column gathered at low xor
    low, kept in the code's memo per (syndrome, ball). Every entry is 0 or
    +-2^-N, so the difference is 0 or +-2^(1-N) exactly. It is the member
    sum (G_x - G_x') 2^-N / K, with G_x = S^T S and S[k, i] =
    (-1)^popcount(beta_k & low[i]) over the K coset members, entry by
    entry: sum_{kappa in ker f} (-1)^(kappa . d) = K [d in rowspan f] at
    any rank, so G_x is K times the closed-form block.
    """
    ball = (e.tobytes(), w_hat.tobytes(), t)
    low = code.memo.get(("low ball", *ball), lambda: quantum._ball_projector(e, w_hat, t))

    def ball_block(syndrome):
        return code.memo.get(
            ("ball block", syndrome.tobytes(), *ball),
            lambda: _closed_form_column(code, code._particular(syndrome))[
                np.bitwise_xor.outer(low, low)],
        )

    return ball_block(x) - ball_block(x_prime), low


def _min_weight_on(code: gf2.LinearCode, e: np.ndarray):
    """Minimum weight, restricted to the coordinates in e, over the nonzero
    row-span words. A span word supported off e is invisible to distances
    measured on e, so this is the quantity a ball on e actually tests."""
    span = code.row_span
    span = np.compress(gf2.lane_weights(span) > 0, span, axis=0)
    if span.size == 0:
        return math.inf
    emask = gf2._pack_lanes(np.isin(np.arange(code.N), e)[None])
    return int(gf2.lane_weights(span & emask).min())


def lemma1_certificate(
    code: gf2.LinearCode, theta, x, x_prime, e, t: int, w_hat
) -> Lemma1Certificate:
    """Certify that the low-distance span sees no difference between the
    two coset operators whenever 2t is below the span min-distance.

    delta rho is evaluated on the low ball only: its block over the
    conjugate-frame basis states within distance t of w_hat on e. That
    block is the same for every theta, so theta is checked but does not
    change the certificate. max_defect is the block's operator norm, the
    norm of P1 (delta rho) P1 (_top_eigenpair's, and 0.0 for a block that
    is exactly 0, as _low_ball_block's exact closed-form entries make every
    in-hypothesis block), which bounds |<phi|delta rho|phi>| over the ball's
    basis states (the block's diagonal is exactly 0: every coset has
    weight 2^-N on every basis state of the frame). dN is the code's min
    distance; when e covers every coordinate the hypothesis is 2t < dN,
    and on a proper subset it tightens to the min span weight restricted
    to e (what a ball on e can resolve). condition_met records the
    hypothesis actually checked.
    """
    operands = _certificate_operands(code, theta, x, x_prime, e, t, w_hat)
    block, low = _low_ball_block(code, *operands[1:])
    # every in-hypothesis block is exactly 0, and so is its norm
    op_norm = _top_eigenpair(code, block, low)[0] if block.any() else 0.0
    e, t = operands[3], operands[4]
    d_min = code.distance
    d_eff = d_min if e.size == code.N else _min_weight_on(code, e)
    return Lemma1Certificate(max_defect=op_norm, dN=d_min, condition_met=bool(2 * t < d_eff))


def distinguishing_witness(
    code: gf2.LinearCode, theta, x, x_prime, e, t: int, w_hat
) -> Tuple[float, np.ndarray]:
    """Best low-distance distinguisher by eigendecomposition.

    Returns (|<phi|delta rho|phi>|, phi) where phi is the low-ball
    eigenvector of P1 (delta rho) P1 with the largest absolute eigenvalue,
    expressed in + amplitudes: theta does not change the block, only the
    frame phi is mapped back from. Out-of-hypothesis configurations
    (2t >= dN) should yield strictly positive values.
    """
    operands = _certificate_operands(code, theta, x, x_prime, e, t, w_hat)
    block, low = _low_ball_block(code, *operands[1:])
    value, coords = _top_eigenpair(code, block, low)
    phi = np.zeros(1 << code.N)
    phi[low] = coords
    return value, quantum.from_frame(phi, operands[0] ^ 1)


def _top_eigenpair(
    code: gf2.LinearCode, block: np.ndarray, low: np.ndarray
) -> Tuple[float, np.ndarray]:
    """(|lambda|, v): the eigenvalue of the low-ball block largest in
    magnitude and its unit eigenvector over the ball's states low.

    By the closed form, delta rho links two states only when they differ
    by a row-span word, so the block is a direct sum over the ball's
    states in each coset of the row span, at most 2^(r+m) of them, and
    eigh solves each coset's block alone. |lambda| is read as the Rayleigh
    quotient |v^T B v| / v^T v of eigh's vector: on an exact block it lies
    within an ulp or two of the true norm, where eigh's and eigvalsh's
    eigenvalues can be several ulps off.
    """
    span = gf2.lane_prefix(code.row_span, code.N)
    labels = np.min(low[:, None] ^ span, axis=1)  # least state of each coset
    order = np.argsort(labels, kind="stable")
    best, vector = -1.0, np.zeros(low.size)
    for members in np.split(order, np.flatnonzero(np.diff(labels[order])) + 1):
        sub = block[np.ix_(members, members)]
        vals, vecs = np.linalg.eigh(sub)
        v = vecs[:, int(np.argmax(np.abs(vals)))]
        value = float(abs(v @ sub @ v) / (v @ v))
        if value > best:
            best = value
            vector[:] = 0.0
            vector[members] = v
    return best, vector


def gv_trials(
    n_cols: int, rows: int, eta: float, trials: int, rng_for: Callable[[int], np.random.Generator]
) -> Tuple[float, List[tuple]]:
    """The threshold H^-1(1 - rows/N) - eta and, for each trial i, the
    (min distance, ratio d/N, ratio > threshold) of one random rows x N
    matrix drawn from rng_for(i). A matrix whose span has no nonzero word
    has distance and ratio inf."""
    eta = gf2.number(eta, "eta")
    n_cols, rows = gf2.integer(n_cols, "n_cols"), gf2.integer(rows, "rows", least=0)
    if rows >= n_cols:
        raise DomainError("rows must be below N")
    if rows > gf2.MIN_DISTANCE_MAX_ROWS:
        raise ResourceError("row count exceeds the min-distance cap")
    trials = gf2.integer(trials, "trials", least=1)
    threshold = gf2.binary_entropy_inverse(1.0 - rows / n_cols) - eta
    draws = []
    for i in range(trials):
        d = gf2.min_distance(gf2.random_bitmatrix(rng_for(i), rows, n_cols))
        ratio = math.inf if d == math.inf else d / n_cols
        draws.append((d, ratio, ratio > threshold))
    return threshold, draws


def gv_bound_trial(
    n_cols: int, rows: int, eta: float, trials: int, rng: np.random.Generator
) -> float:
    """Fraction of random rows x N matrices, all drawn from rng, whose span
    min-distance ratio exceeds the threshold of gv_trials."""
    _, draws = gv_trials(n_cols, rows, eta, trials, lambda i: rng)
    return sum(ok for _, _, ok in draws) / trials
