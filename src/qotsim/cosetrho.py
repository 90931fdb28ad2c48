"""Density operators over code cosets and their structure.

Alice's preparation, averaged over the coset C_x = {beta : f beta = x}, is
rho_x = |C_x|^-1 sum_{beta in C_x} |psi_{beta,theta}><psi_{beta,theta}|.
Expressed over the opposite product basis, rho_x has the closed form

    (rho_x)_{alpha,alpha'} = 2^-N (-1)^((alpha xor alpha') . beta0)
                             if alpha xor alpha' in rowspan(f), else 0

for any coset representative beta0. rho_brute builds the mixture directly,
from the members' states of quantum's unchecked core; rho_closed_form
writes the formula's value at each difference alpha xor alpha' as row 0 and
fills every other row by copies (_xor_fill), as induction_form does for
the steps of the recursive derivation that rho_zero_induction reproduces;
lemma1_certificate checks that low-distance state spans cannot tell rho_x
from rho_x' when 2t < dN. The certificate reads
rho_x - rho_x' on the low ball only, and by counting, so neither a full
density, its frame change nor the ball's block is built.

Every density here is real (float64), as the +/x amplitudes are. On the
ball's states the closed form makes rho_x - rho_x' a direct sum over the
cosets of f's row span; on each coset it is 2^(1-N) sigma_i sigma_j
between the states whose parities with delta = beta0(x) xor beta0(x')
differ, and 0 elsewhere. That is a signed complete bipartite block between
a and b states, of norm 2^(1-N) sqrt(a b) and with a closed-form top
eigenvector, so no coset member is enumerated, no eigensolver runs, a
certificate inside the hypothesis is exactly 0.0 and theta does not change
it. The code's memo keeps each syndrome's representative, each low ball
and, per ball, the states that share their row-span coset with another
ball state and those cosets' numbers, so a certificate checks its
operands once and pays for its pair alone: one parity and one count per
linked state, and nothing when no state is linked (e covering every
coordinate and 2t < dN).

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
_COSET_BLOCK = 4096  # ball states whose kernel parities _shared_cosets takes at once


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
    """The formula above; real entries over the conjugate basis of theta."""
    _check_density_cap(ens.code.N)
    return _xor_fill(_closed_form_column(ens.code, ens.beta0))


def _xor_fill(column: np.ndarray) -> np.ndarray:
    """The 2^n x 2^n matrix whose entry (alpha, alpha') is
    column[alpha xor alpha']. Row 0 is column and every other row is a
    copy of earlier ones: for h = 1, 2, 4, ..., rows h..2h-1 are rows
    0..h-1 with each h-aligned block of columns swapped with its partner
    (xor h)."""
    size = column.size
    rho = np.empty((size, size))
    rho[0] = column
    for i in range(size.bit_length() - 1):
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
    whose difference annihilates every listed kernel vector, else 0. No
    rows, as [] or a (0, n_cols) bit matrix, constrain nothing."""
    n_cols = gf2.integer(n_cols, "n_cols", least=0)
    _check_density_cap(n_cols)
    rows = np.asarray(kernel_rows)
    if rows.ndim == 1 and not rows.size:
        rows = rows.reshape(0, n_cols)
    words = gf2.lane_prefix(gf2._pack_lanes(gf2.bitmatrix(rows, cols=n_cols)), n_cols)
    idx = np.arange(1 << n_cols, dtype=np.int64)
    odd = (np.bitwise_count(idx[:, None] & words) & 1).any(axis=1)
    return _xor_fill((2.0 ** -n_cols) * ~odd)


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
    _check_density_cap(code.N)
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
    image of f, a position set, an integer radius t >= 0, and the ball
    projector's cap, since a certificate forms no density and its largest
    array is the ball's scan of 2^N indices. The helpers below take these
    and check nothing."""
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
    if n > quantum.STATEVECTOR_MAX_N:
        raise ResourceError(f"ball projectors cap at n={quantum.STATEVECTOR_MAX_N}")
    return theta, x, x_prime, e, t, w_hat


def _ball_links(code: gf2.LinearCode, e, t: int, w_hat) -> Tuple[np.ndarray, np.ndarray]:
    """(low, links) for _certificate_operands' checked e, t and w_hat: the
    low ball's conjugate-frame states, and a 2 x M array of the states that
    share their coset of f's row span with another state of the ball (row
    0) and the numbers of those cosets (row 1). By the closed form, delta
    rho links two states only when they differ by a row-span word, so only
    these states can meet it; with e every coordinate and 2t < dN there
    are none. Both arrays are kept in the code's memo per ball."""
    ball = (e.tobytes(), w_hat.tobytes(), t)
    low = code.memo.get(("low ball", *ball), lambda: quantum._ball_projector(e, w_hat, t))
    return low, code.memo.get(("ball cosets", *ball), lambda: _shared_cosets(code, low))


def _shared_cosets(code: gf2.LinearCode, states: np.ndarray) -> np.ndarray:
    """_ball_links' links of states. A state's coset is numbered by the bits
    of its parities with the kernel basis of f: two states differ by a
    row-span word iff those parities agree, since the row span is the
    annihilator of ker f at any rank. The parities are taken for at most
    _COSET_BLOCK states at a time, which bounds the broadcast's
    block x kernel-dimension temporaries on a large ball."""
    kernel = gf2.lane_prefix(gf2._pack_lanes(code.kernel), code.N)
    weights = 1 << np.arange(kernel.size)
    coset = np.empty(states.size, dtype=np.int64)
    for start in range(0, states.size, _COSET_BLOCK):
        block = states[start:start + _COSET_BLOCK]
        coset[start:start + block.size] = (np.bitwise_count(block[:, None] & kernel) & 1) @ weights
    shared = np.bincount(coset)[coset] > 1
    return np.stack([states[shared], coset[shared]])


def _side_counts(code: gf2.LinearCode, x, x_prime, links) -> Tuple[np.ndarray, np.ndarray]:
    """(side, counts) over _ball_links' linked states: each state's side, its
    parity with delta = beta0(x) xor beta0(x'), and counts[2c + s], the
    number of states of coset c on side s.

    On coset c the block of delta rho is 2^(1-N) sigma_i sigma_j between
    states on different sides and 0 elsewhere, with sigma_i =
    (-1)^popcount(state_i & beta0(x)): a signed complete bipartite block
    between its a = counts[2c] and b = counts[2c + 1] states, of norm
    2^(1-N) sqrt(a b).
    """
    delta = gf2._pack_int(code._particular(x) ^ code._particular(x_prime))
    side = np.bitwise_count(links[0] & delta) & 1
    return side, np.bincount(2 * links[1] + side, minlength=2 << code.kernel.shape[0])


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
    norm of P1 (delta rho) P1, which bounds |<phi|delta rho|phi>| over the
    ball's states. The block is a direct sum over the cosets of f's row
    span, of norms 2^(1-N) sqrt(a b) (_side_counts), so max_defect is
    2^(1-N) sqrt(max a b): no eigensolver runs, and it is exactly 0.0 when
    no coset holds states on both sides.
    dN is the code's min distance; when e covers every coordinate the
    hypothesis is 2t < dN, and on a proper subset it tightens to the min
    span weight restricted to e (what a ball on e can resolve).
    condition_met records the hypothesis actually checked.
    """
    _, x, x_prime, e, t, w_hat = _certificate_operands(code, theta, x, x_prime, e, t, w_hat)
    links, product = _ball_links(code, e, t, w_hat)[1], 0
    if links.size:  # else no two ball states share a coset, and the block is 0
        counts = _side_counts(code, x, x_prime, links)[1]
        product = (counts[0::2] * counts[1::2]).max()
    d_min = code.distance
    d_eff = d_min if e.size == code.N else _min_weight_on(code, e)
    return Lemma1Certificate(max_defect=_norm(code, product), dN=d_min,
                             condition_met=bool(2 * t < d_eff))


def distinguishing_witness(
    code: gf2.LinearCode, theta, x, x_prime, e, t: int, w_hat
) -> Tuple[float, np.ndarray]:
    """Best low-distance distinguisher, in closed form.

    Returns (|<phi|delta rho|phi>|, phi) where phi is the low-ball
    eigenvector of P1 (delta rho) P1 with eigenvalue +2^(1-N) sqrt(a b),
    on the lowest-numbered row-span coset with the largest a b: frame
    coordinates sigma_i / sqrt(2a) on side 0 and sigma_i / sqrt(2b) on
    side 1, the signs and sides of _side_counts. A block that is all zero
    gives 0.0 and the ball's first frame state. phi is expressed in + amplitudes:
    theta does not change the block, only the frame phi is mapped back
    from. Out-of-hypothesis configurations (2t >= dN) should yield
    strictly positive values.
    """
    theta, x, x_prime, e, t, w_hat = _certificate_operands(code, theta, x, x_prime, e, t, w_hat)
    low, links = _ball_links(code, e, t, w_hat)
    side, counts = _side_counts(code, x, x_prime, links)
    products = counts[0::2] * counts[1::2]
    best = int(np.argmax(products))
    phi = np.zeros(1 << code.N)
    if products[best]:
        inside = links[1] == best
        members, beta0 = links[0, inside], gf2._pack_int(code._particular(x))
        sigma = 1.0 - 2.0 * (np.bitwise_count(members & beta0) & 1)
        phi[members] = sigma / np.sqrt(2.0 * counts[2 * best + side[inside]])
    else:
        phi[low[0]] = 1.0
    return _norm(code, products[best]), quantum.from_frame(phi, theta ^ 1)


def _norm(code: gf2.LinearCode, product) -> float:
    """2^(1-N) sqrt(a b), the norm of one coset's part of the block."""
    return 2.0 ** (1 - code.N) * math.sqrt(int(product))


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
