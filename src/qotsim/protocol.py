"""Executable state machines for string transfer and the key-distribution
variant.

One run walks the eight steps: Alice draws the (r+m) x N matrix f (rows
split into g for error correction and h for privacy amplification); Bob
commits his measurement bases; Alice encodes a random w in random bases
theta and sends the photons through the channel, which is its flip
probability p (p = 0 is noiseless); Bob measures per his strategy and
commits the outcomes; Alice samples a test set R by fair
coins, opens the commitments there, and stops when strictly more than
delta*n matched-basis positions disagree; theta is announced; Bob picks
E0 inside the matched untested positions and E1 inside the mismatched
ones, each of size N, and announces the pair in random order; Alice picks
one of the two announced sets, announces g, s = g w[E_c], h and
a = b xor h w[E_c]; on c = 0 Bob error-corrects his copy of w[E_c] and
recovers b, on c = 1 he learns nothing.

Commitments go through an ideal trusted ledger (binding and hiding by
interface), standing in for the assumed secure commitment layer.

The run's configuration and record (ProtocolParams, ChannelModel, Mode,
Transcript, PositionMap and the abort reasons) and the record's text
live in the transcript module; this module takes them from there, and
its runners return a Transcript.

Randomness: every run owns named substreams of its seed ("alice",
"channel", "eve", "bob", "test", "alice-pick", "secret"), and each phase
draws from its own stream in a fixed order, so modes and protocol
variants can be compared run-for-run under one seed.

Checks: a runner checks its inputs once: params and strategies (when
built, and a strategy's plan against n), b, force_c and a pinned code.
Each public step function is its checks plus one call to an unchecked
core named with a leading underscore, as in gf2, and a runner hands what
it drew or derived straight to the cores and the oracle's _commit and
_open.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from . import gf2, quantum
from .errors import DimensionError, DomainError, ProtocolViolation, ResourceError
from .streams import _stream
from .transcript import (SET_SHORTAGE, TEST_FAILED, ChannelModel, Mode, PositionMap,
                         ProtocolParams, Transcript)

DECODE_MAX_COSET = 1 << 20


class CommitmentOracle:
    """Ideal commitment ledger: binding (stored copy is immutable) and
    hiding (values leave only through open). Stands in for a secure
    commitment protocol."""

    def __init__(self):
        self._ledger: Dict[int, np.ndarray] = {}
        self._next = 0

    def commit(self, values) -> int:
        return self._commit(gf2.bits(values))

    def _commit(self, values: np.ndarray) -> int:
        """commit of a checked bit vector."""
        cid = self._next
        self._next += 1
        self._ledger[cid] = values.copy()
        return cid

    def open(self, cid: int, positions) -> np.ndarray:
        if cid not in self._ledger:
            raise ProtocolViolation(f"no commitment with id {cid}")
        return self._open(cid, gf2.position_set(positions, self._ledger[cid].size))

    def _open(self, cid: int, positions: np.ndarray) -> np.ndarray:
        """open of an issued id at a checked position set of its vector."""
        return self._ledger[cid][positions].copy()


_BASIS_ANGLES = np.array([0.0, math.pi / 4])  # indexed by quantum.PLUS, quantum.CROSS


def basis_angle(basis):
    """Measurement angle of a +/x basis label, elementwise over an array
    of labels. A label other than 0 or 1 raises DomainError."""
    return _BASIS_ANGLES[gf2._bit_array(basis, "basis label")]


@functools.lru_cache(maxsize=256)
def _born_p1(held: float, bit: int, probe: float) -> float:
    """Chance of outcome 1 when the photon left in basis state `bit` at
    angle `held` is measured at angle `probe`. A run holds few distinct
    (held, bit, probe) triples, so each one is computed once. The overlap
    is summed in Python floats, two rounded products and a rounded sum,
    so it does not depend on whether a BLAS kernel fuses the multiply-add.
    Measured again at its own angle a photon reads its bit exactly, and
    the square, which rounding can lift past 1 near the diagonal, is
    capped at 1."""
    if held == probe:
        return float(bit)
    c0, c1 = quantum.angle_basis(probe)[:, 1].tolist()
    v0, v1 = quantum.angle_basis(held)[:, bit].tolist()
    return min(abs(c0 * v0 + c1 * v1) ** 2, 1.0)


def _born_table(angles: List[float]) -> np.ndarray:
    """p1 per (held angle, bit, probe angle) over an angle table."""
    size = len(angles)
    return np.array([
        _born_p1(held, bit, probe) for held in angles for bit in (0, 1) for probe in angles
    ]).reshape(size, 2, size)


def _rotation_born_table(rotations: np.ndarray) -> np.ndarray:
    """p1 per (held entry, bit, probe entry) over a rotation table, the
    photon resting at column `bit` of its held rotation: c = rot^T psi
    as two rounded products and a rounded sum, p1 = c1^2 / (c0^2 + c1^2)."""
    psi = rotations.swapaxes(1, 2)[:, :, None, :, None]  # (held, bit, 1, component, 1)
    c = (rotations * psi).sum(axis=3)  # (held, bit, probe, outcome)
    squares = c * c
    return squares[..., 1] / squares.sum(axis=3)


# every run's angle table starts at the basis angles; EXACT_QUANTUM's rotations there
# are the encoding's own basis states, so that p1 is exactly 0 or 1 in a photon's own
# basis. _learn never writes these
_BASIS_ROTATIONS = quantum._PHOTONS.swapaxes(1, 2)
_BASIS_BORN = _born_table(_BASIS_ANGLES.tolist())
_BASIS_EXACT_BORN = _rotation_born_table(_BASIS_ROTATIONS)


class Reception:
    """Bob's end of the channel: projective measurement only, the encoding
    data private. No step of the protocol entangles photons, so a measured
    photon is exactly a basis state, and either mode holds, at any n, an
    entry of the run's angle table and a basis-state bit per photon.

    The angle table starts at the +/x basis angles, and an angle joins it,
    matched by value, when a measurement first uses it (a protocol run
    uses at most three). A Born table of p1 per (held entry, bit, probe
    entry) is rebuilt when the angle table grows. The mode decides only
    how it is filled: CLASSICAL_FAST by _born_p1 on the angles,
    EXACT_QUANTUM by _rotation_born_table on a table of rotations (at the
    basis angles the encoding's own basis states). The modes share no Born
    arithmetic, so criterion 09 compares independent paths.

    measure_many checks a block of distinct positions with finite angles
    and calls _measure_many, which a runner calls directly on the blocks it
    makes; measure checks one photon and calls it too. _measure_many finds
    the angles' entries (_index) and calls _measure_at, which a runner
    calls directly with entries it already knows: a block probed in the
    +/x bases passes its basis bits, the table's first two entries.
    _measure_at gathers p1 from the Born table and draws the block's k
    uniforms with one rng.random(k) call, the same doubles as k scalar
    draws. Bad positions and angles raise DomainError (by the rules of
    gf2) before any draw.
    """

    def __init__(self, mode: Mode, n: int, encoded: np.ndarray, theta: np.ndarray):
        self.mode = mode
        self.n = n
        self._angles: List[float] = _BASIS_ANGLES.tolist()
        self._held = theta.astype(np.intp)
        self._bits = encoded.astype(np.uint8).copy()
        if mode is Mode.EXACT_QUANTUM:
            self._rotations = _BASIS_ROTATIONS
            self._born = _BASIS_EXACT_BORN
        else:
            self._born = _BASIS_BORN

    def measure_many(self, positions, angles, rng: np.random.Generator) -> np.ndarray:
        """Measure the photons at positions, in order, each at its angle
        (one angle may serve the whole block); returns the outcome bits."""
        pos = gf2.position_block(positions, self.n)
        angles = gf2.numbers(angles, "measurement angles")
        if angles.shape not in ((), pos.shape):
            raise DimensionError("give one angle, or one per position")
        return self._measure_many(pos, angles, rng)

    def _measure_many(self, pos: np.ndarray, angles, rng) -> np.ndarray:
        """measure_many of checked distinct positions and finite angles (a
        float, or a float64 array of one per position)."""
        return self._measure_at(pos, self._index(angles), rng)

    def _measure_at(self, pos: np.ndarray, entries, rng) -> np.ndarray:
        """Measure checked distinct positions at angle-table entries (an
        int, or an integer array of one per position)."""
        p1 = self._born[self._held[pos], self._bits[pos], entries]
        out = (rng.random(pos.size) < p1).astype(np.uint8)
        self._held[pos] = entries
        self._bits[pos] = out
        return out

    def measure(self, position: int, angle: float, rng: np.random.Generator) -> int:
        pos = gf2.position_block([gf2.integer(position, "a measurement position")], self.n)
        angle = gf2.number(angle, "a measurement angle")
        return int(self._measure_many(pos, angle, rng)[0])

    def measure_basis(self, position: int, basis: int, rng: np.random.Generator) -> int:
        if basis not in (quantum.PLUS, quantum.CROSS):
            raise DomainError("a basis is + (0) or x (1)")
        return self.measure(position, self._angles[int(basis)], rng)

    def _index(self, angles):
        """The entry in the angle table of one angle (a number or a 0-d
        array), or of each angle of an array. Angles new to the run join
        the table first."""
        if not isinstance(angles, np.ndarray) or not angles.ndim:
            angle = float(angles)
            if angle not in self._angles:
                self._learn([angle])
            return self._angles.index(angle)
        index = np.full(angles.shape, -1)
        for entry, angle in enumerate(self._angles):
            index[angles == angle] = entry
        new = index < 0
        if new.any():
            self._learn(sorted(set(angles[new].tolist())))
            return self._index(angles)
        return index

    def _learn(self, angles) -> None:
        """Add angles to the table and rebuild the Born table over it,
        from their appended rotations (EXACT_QUANTUM) or from the angles
        (CLASSICAL_FAST)."""
        self._angles.extend(angles)
        if self.mode is Mode.EXACT_QUANTUM:
            new = [quantum.angle_basis(angle) for angle in angles]
            self._rotations = np.concatenate([self._rotations, new])
            self._born = _rotation_born_table(self._rotations)
        else:
            self._born = _born_table(self._angles)


def alice_setup(
    params: ProtocolParams, rng: np.random.Generator
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Draw f, w, theta, in that order, from the given stream."""
    f = gf2.random_bitmatrix(rng, params.r + params.m, params.N)
    w = gf2.random_bits(rng, params.n)
    theta = gf2.random_bits(rng, params.n)
    return f, w, theta


def transmit(
    w: np.ndarray,
    theta: np.ndarray,
    channel: ChannelModel,
    mode: Mode,
    rng: np.random.Generator,
) -> Tuple[np.ndarray, Reception]:
    """Send the encoded photons: (flips, Bob's reception). Each encoded bit
    flips with probability p, one uniform per photon; p = 0 draws none."""
    w = gf2.bits(w)
    return _transmit(w, quantum.basis_string(theta, length=w.size), channel, mode, rng)


def _transmit(w, theta, channel: ChannelModel, mode: Mode, rng) -> Tuple[np.ndarray, Reception]:
    """transmit of a checked bit vector w and basis string theta of its size."""
    n = w.size
    if channel.p > 0.0:
        flips = (rng.random(n) < channel.p).astype(np.uint8)
    else:
        flips = np.zeros(n, dtype=np.uint8)
    return flips, Reception(mode, n, w ^ flips, theta)


def alice_test(
    w: np.ndarray,
    theta: np.ndarray,
    w_hat_commit: int,
    theta_hat_commit: int,
    R: np.ndarray,
    delta: float,
    oracle: CommitmentOracle,
) -> Tuple[bool, int]:
    """Open both commitments on R and count matched-basis disagreements.

    The run fails only when strictly more than delta*n are wrong.
    """
    w = gf2.bits(w)
    theta = quantum.basis_string(theta, length=w.size)
    R = gf2.position_set(R, w.size)
    return _alice_test(w, theta, oracle.open(w_hat_commit, R), oracle.open(theta_hat_commit, R),
                       R, delta)


def _alice_test(w, theta, opened_w, opened_t, R, delta: float) -> Tuple[bool, int]:
    """alice_test of checked w and theta, given both commitments opened on
    the checked position set R."""
    errors = int(np.sum((opened_t == theta[R]) & (opened_w != w[R])))
    return errors <= delta * w.size, errors


@dataclass(frozen=True)
class Partition:
    T0: np.ndarray
    T1: np.ndarray
    E0: Optional[np.ndarray]
    E1: Optional[np.ndarray]
    announced: Optional[tuple]  # the two sets in announced order
    shortage: bool


def partition_and_choose_sets(
    theta: np.ndarray,
    theta_hat: np.ndarray,
    R: np.ndarray,
    N: int,
    rng: np.random.Generator,
) -> Partition:
    """Split positions by basis agreement and pick E0, E1 uniformly.

    E0 comes from the matched untested positions, E1 from the mismatched
    untested ones, each of size N. Too few candidates on either side is a
    shortage: the run aborts, distinct from a test failure.
    """
    theta = quantum.basis_string(theta)
    theta_hat = quantum.basis_string(theta_hat, length=theta.size)
    R = gf2.position_set(R, theta.size)
    return _partition_and_choose_sets(theta, theta_hat, R, gf2.integer(N, "N", least=1), rng)


def _partition_and_choose_sets(theta, theta_hat, R, N: int, rng) -> Partition:
    """partition_and_choose_sets of checked basis strings of one size and a
    checked position set R."""
    n = theta.size
    in_r = np.zeros(n, dtype=bool)
    in_r[R] = True
    T0 = np.nonzero(theta == theta_hat)[0]
    T1 = np.nonzero(theta != theta_hat)[0]
    avail0 = T0[~in_r[T0]]
    avail1 = T1[~in_r[T1]]
    if avail0.size < N or avail1.size < N:
        return Partition(T0=T0, T1=T1, E0=None, E1=None, announced=None, shortage=True)
    E0 = np.sort(rng.choice(avail0, size=N, replace=False))
    E1 = np.sort(rng.choice(avail1, size=N, replace=False))
    announced = (E0, E1) if int(rng.integers(0, 2)) == 0 else (E1, E0)
    return Partition(T0=T0, T1=T1, E0=E0, E1=E1, announced=announced, shortage=False)


def alice_announce_correction(
    b: np.ndarray, w: np.ndarray, E_c: np.ndarray, g: np.ndarray, h: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """s = g w[E_c] and a = b xor h w[E_c]; h w[E_c] itself never leaves
    Alice except through a."""
    b, w = gf2.bits(b), gf2.bits(w)
    E_c = gf2.position_set(E_c, w.size)
    g, h = gf2.bitmatrix(g), gf2.bitmatrix(h)
    if g.shape[1] != E_c.size or h.shape[1] != E_c.size:
        raise DimensionError("code width differs from |E_c|")
    if b.size != h.shape[0]:
        raise DimensionError("b length differs from the h row count")
    return _alice_announce_correction(b, w, E_c, g, h)


def _alice_announce_correction(b, w, E_c, g, h) -> Tuple[np.ndarray, np.ndarray]:
    """alice_announce_correction of checked operands of matching sizes."""
    u = w[E_c]
    return gf2._matvec(g, u), b ^ gf2._matvec(h, u)


def bob_decode(
    w_hat_ec: np.ndarray,
    s: np.ndarray,
    g: np.ndarray,
    a: np.ndarray,
    h: np.ndarray,
) -> Tuple[Optional[np.ndarray], Optional[np.ndarray]]:
    """Maximum-likelihood correction of Bob's copy of w[E_c].

    Scans the solution coset of g v = s for the word nearest w_hat_ec,
    breaking ties lexicographically, then unmasks a. Returns (None, None)
    when the syndrome equation has no solution (impossible for an honestly
    generated s).
    """
    # gf2.solve_affine checks g and s, and the next three lines w_hat_ec, h
    # and a; from there on only gf2's unchecked helpers see the operands
    particular, kern = gf2.solve_affine(g, s)
    n = kern.shape[1]
    w_hat_ec = gf2.bits(w_hat_ec, length=n)
    h = gf2.bitmatrix(h, cols=n)
    a = gf2.bits(a, length=h.shape[0])
    return _bob_decode(w_hat_ec, particular, kern, a, h)


def _bob_decode(
    w_hat_ec, particular, kern, a, h
) -> Tuple[Optional[np.ndarray], Optional[np.ndarray]]:
    """bob_decode of checked operands of matching sizes, given
    solve_affine(g, s): a particular solution or None, and a kernel basis."""
    dim, n = kern.shape
    if particular is None:
        return None, None
    if (1 << dim) > DECODE_MAX_COSET:
        raise ResourceError(f"decode coset of 2^{dim} words exceeds the cap")
    offset, target = gf2._pack_lanes(np.stack([particular ^ w_hat_ec, w_hat_ec]))

    def nearest(block):
        # the walk starts from offset, so block holds k ^ particular ^
        # w_hat_ec for kernel words k: each word's weight is the distance
        # of the coset word k ^ particular from w_hat_ec, and the word
        # xor-ed with w_hat_ec is that coset word
        dist = gf2.lane_weights(block)
        least = dist.min()
        ties = np.compress(dist == least, block, axis=0) ^ target
        for lane in range(ties.shape[1]):  # lexicographic: lane 0 leads
            ties = np.compress(ties[:, lane] == ties[:, lane].min(), ties, axis=0)
        return int(least), tuple(ties[0].tolist())

    _, best = min(nearest(block) for block in gf2._span_words(kern, offset))
    corrected = gf2.unpack_lanes(np.array([best], dtype=np.uint64), n)[0]
    return a ^ gf2._matvec(h, corrected), corrected


# ---------------------------------------------------------------------------
# runners

# the streams every run draws from; "secret", "eve" and "alice-pick" only some
_RUN_STREAMS = (("alice",), ("channel",), ("bob",), ("test",))


def _run(
    params: ProtocolParams,
    b: Optional[np.ndarray],
    bob,
    eve,
    force_c: Optional[int],
    announce_rest: bool,
    qkd: bool,
    code=None,
) -> Transcript:
    from . import attacks  # runner glue; attacks imports this module in full

    if bob is None:
        bob = attacks.honest()
    channel = params.channel()
    if force_c is not None and gf2.integer(force_c, "force_c") not in (0, 1):
        raise DomainError("force_c must be 0 or 1")
    seed = params.seed
    oracle = CommitmentOracle()

    f, w, theta = alice_setup(params, _stream(seed, "alice"))
    if code is not None:
        # pinned code supersedes the drawn f; the stream draws stay put so
        # the run remains aligned with its unpinned twin
        if code.N != params.N or code.r != params.r or code.m != params.m:
            raise DimensionError("pinned code dimensions disagree with the parameters")
        f = code.f
    g, h = f[: params.r], f[params.r:]
    if qkd:
        b = gf2.random_bits(_stream(seed, "secret"), params.m)
    else:
        b = gf2.bits(b, length=params.m)

    flips, reception = _transmit(w, theta, channel, params.mode, _stream(seed, "channel"))
    eve_record = None
    if eve is not None:
        eve_record = attacks.eve_intercept(eve, reception, _stream(seed, "eve"))

    rng_bob = _stream(seed, "bob")
    record = attacks.apply_strategy(bob, reception, oracle, rng_bob)  # checks bob's plan
    strategy_desc = {**bob.describe(), **record.runtime}

    coins = _stream(seed, "test").random(params.n)
    R = np.nonzero(coins < 0.5)[0]
    passed, errors = _alice_test(
        w, theta, oracle._open(record.w_hat_commit, R), oracle._open(record.theta_hat_commit, R),
        R, params.delta,
    )

    base = dict(
        protocol="qkd" if qkd else "qot",
        params=params, channel=channel, strategy=strategy_desc,
        f=f, w=w, theta=theta, flips=flips,
        theta_hat=record.theta_hat, w_hat=record.w_hat,
        theta_hat_commit=record.theta_hat_commit, w_hat_commit=record.w_hat_commit,
        R=R, test_errors=errors, passed=passed, b=b,
        bob_values=PositionMap(record.measured, record.values[record.measured]),
        eve=eve_record,
    )
    if not passed:
        return Transcript(abort_reason=TEST_FAILED, **base)

    # theta announced
    part = _partition_and_choose_sets(theta, record.theta_hat, R, params.N, rng_bob)
    if part.shortage:
        return Transcript(abort_reason=SET_SHORTAGE, T0=part.T0, T1=part.T1, **base)
    attacks._finish_deferred(record, reception, theta, rng_bob)
    base["bob_values"] = PositionMap(np.arange(params.n), record.values)

    if qkd:
        announced: list = [part.E0]
        pick = 0
    else:
        announced = list(part.announced)
        if force_c is None:
            pick = int(_stream(seed, "alice-pick").integers(0, 2))
        else:
            want = part.E0 if force_c == 0 else part.E1
            pick = 0 if announced[0] is want else 1
    E_pick = announced[pick]
    c = 0 if E_pick is part.E0 else 1
    s, a = _alice_announce_correction(b, w, E_pick, g, h)

    rest = None
    if announce_rest:
        others = gf2.complement_positions(E_pick, params.n)
        rest = {"positions": others, "bits": w[others]}

    b_hat, corrected = None, None
    if c == 0:
        b_hat, corrected = _bob_decode(record.values[E_pick], *gf2._solve_affine(g, s), a, h)

    return Transcript(
        T0=part.T0, T1=part.T1, E0=part.E0,
        E1=None if qkd else part.E1,
        announced_sets=announced, alice_pick=pick, c=c, E_c=E_pick,
        s=s, a=a, announced_rest=rest,
        deferred=PositionMap(record.held, record.values[record.held]),
        decoded=corrected, b_hat=b_hat, **base,
    )


def run_string_qot(
    params: ProtocolParams,
    b,
    bob=None,
    force_c: Optional[int] = None,
    announce_rest: bool = False,
    code=None,
) -> Transcript:
    """One full transfer of the m-bit string b. Aborts land in the
    transcript, never as exceptions. A pinned code replaces the drawn f."""
    return _run(params, b, bob, None, force_c, announce_rest, qkd=False, code=code)


def run_qkd(
    params: ProtocolParams,
    eve=None,
    announce_rest: bool = False,
) -> Transcript:
    """Key-distribution variant: Alice draws b herself, Bob announces only
    E0, and Alice always chooses it (c = 0), so the run ends with a shared
    secret. Eve, when present, occupies the channel.

    The internal machinery (including the E1 shortage check and its
    randomness draws) is kept identical to the transfer runner so that the
    two variants are comparable run-for-run under one seed; E1 is simply
    never announced.
    """
    return _run(params, None, None, eve, 0, announce_rest, qkd=True)
