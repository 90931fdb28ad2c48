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
import itertools
import json
import math
from dataclasses import dataclass, field, fields
from enum import Enum
from typing import Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from . import gf2, quantum
from .errors import DimensionError, DomainError, ProtocolViolation, ResourceError
from .streams import stream

DECODE_MAX_COSET = 1 << 20

TEST_FAILED = "TEST_FAILED"
SET_SHORTAGE = "SET_SHORTAGE"


class Mode(Enum):
    EXACT_QUANTUM = "EXACT_QUANTUM"
    CLASSICAL_FAST = "CLASSICAL_FAST"


@dataclass(frozen=True)
class ChannelModel:
    """Flips each encoded bit independently with probability p, a float;
    kind is NOISELESS at p = 0, BITFLIP above."""

    p: float = 0.0

    def __post_init__(self):
        if not 0.0 <= gf2.number(self.p, "flip probability") < 0.5:
            raise DomainError("flip probability must lie in [0, 1/2)")
        object.__setattr__(self, "p", float(self.p))

    @property
    def kind(self) -> str:
        return "NOISELESS" if self.p == 0.0 else "BITFLIP"

    @staticmethod
    def noiseless() -> "ChannelModel":
        return ChannelModel(0.0)

    @staticmethod
    def bitflip(p: float) -> "ChannelModel":
        return ChannelModel(p)


@dataclass(frozen=True)
class ProtocolParams:
    """Run configuration. N defaults to floor(0.24 n); epsilon to 8 delta.
    n, m, r, N and seed are kept as Python ints, delta, epsilon and noise_p
    as Python ints or floats (gf2.integer, gf2.number); noise_p must make a
    ChannelModel."""

    n: int
    m: int
    r: int
    delta: float
    epsilon: Optional[float] = None
    N: Optional[int] = None
    noise_p: float = 0.0
    mode: Mode = Mode.CLASSICAL_FAST
    seed: int = 0

    def __post_init__(self):
        for name, least in (("n", 1), ("m", 1), ("r", 0), ("seed", None)):
            object.__setattr__(self, name, gf2.integer(getattr(self, name), name, least))
        delta = gf2.number(self.delta, "delta")
        epsilon = 8.0 * delta if self.epsilon is None else self.epsilon
        for name, value in (("delta", delta), ("epsilon", gf2.number(epsilon, "epsilon"))):
            if value < 0:
                raise DomainError(f"{name} must be nonnegative, got {value!r}")
            object.__setattr__(self, name, value)
        N = int(0.24 * self.n) if self.N is None else self.N
        object.__setattr__(self, "N", gf2.integer(N, "N", least=1))
        if self.r + self.m > self.N:
            raise DomainError("r + m may not exceed N")
        object.__setattr__(self, "noise_p", gf2.number(self.noise_p, "flip probability"))
        self.channel()  # noise_p must make a channel
        if not isinstance(self.mode, Mode):
            object.__setattr__(self, "mode", Mode(self.mode))

    def channel(self) -> ChannelModel:
        return ChannelModel(self.noise_p)

    def _reseeded(self, seed: int) -> "ProtocolParams":
        """These checked params with the Python int seed, not checked again."""
        twin = object.__new__(ProtocolParams)
        vars(twin).update(vars(self), seed=seed)
        return twin

    def to_json(self) -> dict:
        return {**{fld.name: getattr(self, fld.name) for fld in fields(self)},
                "mode": self.mode.value}


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
# transcripts

def _bits_str(v: np.ndarray) -> str:
    return (np.asarray(v, dtype=np.uint8).ravel() + 48).tobytes().decode("ascii")


# the one canonical JSON encoder: sorted keys, no spaces. It writes every
# CLI artifact, and a transcript is the text it writes for the fields'
# plain values
_dumps = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def _number_text(value) -> str:
    """_dumps(value) of a Python int or finite float, without the encoder."""
    return int.__repr__(value) if type(value) is int else float.__repr__(value)


_TEXT_TABLE_MAX = 1 << 16  # positions from here on are written by _dumps


class _KeyText(NamedTuple):
    """Text segments of the keys below a power-of-two bound: all of them
    joined in one uint8 array, and where key k's segment ends in it and
    how long it is."""

    text: np.ndarray
    end: np.ndarray
    size: np.ndarray


def _key_text(segments: List[str], keys) -> _KeyText:
    """The table of segments joined in their order; segments[i] is the
    segment of key keys[i]."""
    size = np.array([len(s) for s in segments])
    end, by_key = np.empty_like(size), np.empty_like(size)
    end[keys] = np.cumsum(size)
    by_key[keys] = size
    end.flags.writeable = by_key.flags.writeable = False  # every caller shares the table
    return _KeyText(np.frombuffer("".join(segments).encode("ascii"), dtype=np.uint8),
                    end, by_key)


@functools.lru_cache(maxsize=None)
def _list_table(bound: int) -> _KeyText:
    """'k,' for each k below bound, in key order: a position list's text."""
    return _key_text([f"{k}," for k in range(bound)], range(bound))


@functools.lru_cache(maxsize=None)
def _map_table(bound: int) -> _KeyText:
    """'"k":0,' for each k below bound, in the order _dumps sorts their key
    text ("10" before "9"): a map's entries, each with the bit 0."""
    keys = sorted(range(bound), key=str)
    return _key_text([f'"{k}":0,' for k in keys], keys)


def _gather(table: _KeyText, keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The segments of keys, in their order, joined, and where each ends."""
    size = table.size[keys]
    ends = size.cumsum()
    # byte j of the output, in the segment of key k that ends at e, is
    # byte j + table.end[k] - e of the table
    index = np.repeat(table.end[keys] - ends, size)
    index += np.arange(index.size)
    return table.text[index], ends


def _flat_positions(name: str, v) -> np.ndarray:
    """The positions of field name as a flat int64 array, by gf2's integer
    rule; a runner's int64 array comes back as it is."""
    if type(v) is np.ndarray and v.dtype == np.int64 and v.ndim == 1:
        return v
    if np.ndim(v) != 1:
        raise DomainError(f"{name} positions must be a flat list")
    try:
        return gf2.position_array(v)
    except DomainError as exc:  # "positions must be integers", or below 2^63
        raise DomainError(f"{name} {exc}") from None


def _lists_text(named: list, n: int) -> List[str]:
    """The JSON text of each (field name, position list) pair, what _dumps
    writes for its tolist(). Each list must be flat integers, strictly
    increasing, in [0, n), or DomainError names its field; the rule is
    checked on the lists' concatenation, the keys of their one gather of
    the list table. Keys past _TEXT_TABLE_MAX are written by _dumps."""
    lists = [_flat_positions(name, v) for name, v in named]
    keys = np.concatenate(lists)
    counts = list(itertools.accumulate(v.size for v in lists))
    rising = keys[1:] > keys[:-1]
    rising[[count - 1 for count in counts if 0 < count < keys.size]] = True  # a list's start
    top = int(keys.view(np.uint64).max(initial=0))  # read as unsigned, a negative key lies past n
    if top >= n or not rising.all():
        for (name, _), v in zip(named, lists):
            if v.size and (v.min() < 0 or v.max() >= n):
                raise DomainError(f"{name} positions must lie in [0, {n})")
            if (v[1:] <= v[:-1]).any():
                raise DomainError(f"{name} positions must be strictly increasing")
    if top >= _TEXT_TABLE_MAX:
        return [_dumps(v.tolist()) for v in lists]
    rows, ends = _gather(_list_table(1 << top.bit_length()), keys)
    text = rows.tobytes().decode("ascii")
    cuts = [0, *(int(ends[count - 1]) if count else 0 for count in counts)]
    return ["[" + text[a:b][:-1] + "]" for a, b in zip(cuts, cuts[1:])]


@dataclass(frozen=True, eq=False)
class PositionMap:
    """Bits at distinct positions, such as Bob's outcome per photon:
    strictly increasing int64 positions and the uint8 bit at each. Its
    JSON form is an object from decimal position text to bit; writing a
    map whose keys are not positions or whose values are not bits raises
    DomainError."""

    positions: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    bits: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.uint8))

    def __eq__(self, other):
        if not isinstance(other, PositionMap):
            return NotImplemented
        return (np.array_equal(self.positions, other.positions)
                and np.array_equal(self.bits, other.bits))


def _map_text(m: PositionMap, name: str, n: int) -> str:
    """The JSON text of field name's map, a PositionMap whose positions
    follow the rule of _lists_text, with one bit by gf2's rule at each.
    A map of every key below its table's bound is a copy of the table
    with its bits added at their offsets; any other is a gather of its
    entries in text order. Keys past _TEXT_TABLE_MAX are written by _dumps."""
    if not isinstance(m, PositionMap):
        raise DomainError(f"{name} must be a PositionMap, not {type(m).__name__}")
    pos = _flat_positions(name, m.positions)
    bits = gf2._bit_array(m.bits, f"transcript field {name}")
    if bits.shape != pos.shape:
        raise DomainError(f"{name} holds one bit per position")
    if not pos.size:
        return "{}"
    if not (pos[1:] > pos[:-1]).all():
        raise DomainError(f"{name} positions must be strictly increasing")
    top = int(pos[-1])
    if pos[0] < 0 or top >= n:
        raise DomainError(f"{name} positions must lie in [0, {n})")
    if top >= _TEXT_TABLE_MAX:
        return _dumps(dict(zip(map(str, pos.tolist()), bits.tolist())))
    table = _map_table(1 << top.bit_length())
    if pos.size == table.size.size:  # distinct, in order, below the bound: every key
        rows = table.text.copy()
        rows[table.end - 2] += bits
    else:
        order = np.argsort(table.end[pos])  # the entries' text order
        rows, ends = _gather(table, pos[order])
        rows[ends - 2] += bits[order]
    return "{" + rows.tobytes().decode("ascii")[:-1] + "}"


_BIT_FIELDS = ("a", "b", "b_hat", "decoded", "flips", "s", "w", "w_hat")
_BASIS_FIELDS = ("theta", "theta_hat")
_LIST_FIELDS = ("E0", "E1", "E_c", "R", "T0", "T1")


def _string_texts(d: dict) -> Dict[str, str]:
    """The JSON text of each bit field, f and basis field of a transcript's
    field dict that is not None, and of the announced rest's bits (under
    "announced_rest.bits"), all turned into text in one pass. Their
    entries are checked together by gf2's bit rule, so one that is not 0
    or 1 raises DomainError naming its field."""
    named = [(name, d[name]) for name in (*_BIT_FIELDS, "f") if d[name] is not None]
    if d["announced_rest"] is not None:
        named.append(("announced_rest.bits", d["announced_rest"]["bits"]))
    first_basis = len(named)  # the basis fields come last
    named += [(name, d[name]) for name in _BASIS_FIELDS if d[name] is not None]
    if not named:
        return {}
    arrays = [np.asarray(value) for _, value in named]
    try:
        codes = gf2._bit_array(np.concatenate([a.ravel() for a in arrays]), "bit field")
    except (DomainError, TypeError):
        for (name, _), a in zip(named, arrays):
            gf2._bit_array(a, f"transcript field {name}")
        raise
    sizes = [a.size for a in arrays]
    start = sum(sizes[:first_basis])
    codes[:start] += ord("0")
    bases = codes[start:]  # '+' for 0, 'x' for 1
    bases *= ord("x") - ord("+")
    bases += ord("+")
    text, out, at = codes.tobytes().decode("ascii"), {}, 0
    for (name, _), a, size in zip(named, arrays, sizes):
        piece, at = text[at:at + size], at + size
        if name == "f":  # one string per row
            rows = len(a)
            width = size // rows if rows else 0
            out[name] = "[" + ",".join(
                f'"{piece[i * width:(i + 1) * width]}"' for i in range(rows)) + "]"
        else:
            out[name] = f'"{piece}"'
    return out


def _position_texts(d: dict, n: int) -> Dict[str, str]:
    """The JSON text of each position list field of a transcript's field
    dict that is not None, of the announced sets and of the announced
    rest's positions (under "announced_rest.positions"), all from one
    _lists_text call; the announced rest must hold one bit per position."""
    named = [(name, d[name]) for name in _LIST_FIELDS if d[name] is not None]
    first_set = len(named)
    sets, rest = d["announced_sets"], d["announced_rest"]
    if sets is not None:
        named += [("announced_sets", e) for e in sets]
    if rest is not None:
        named.append(("announced_rest", rest["positions"]))
    texts = _lists_text(named, n)
    if rest is not None and np.size(rest["bits"]) != np.size(rest["positions"]):  # checked flat
        raise DomainError("announced_rest holds one bit per position")
    out = {name: text for (name, _), text in zip(named[:first_set], texts)}
    if sets is not None:
        out["announced_sets"] = "[" + ",".join(texts[first_set:first_set + len(sets)]) + "]"
    if rest is not None:
        out["announced_rest.positions"] = texts[-1]
    return out


def _params_text(p: ProtocolParams) -> str:
    """_dumps(p.to_json()): the sizes and the seed are ints, the mode's
    value an identifier."""
    return ('{"N":%d,"delta":%s,"epsilon":%s,"m":%d,"mode":"%s","n":%d,"noise_p":%s,"r":%d,'
            '"seed":%d}' % (p.N, _number_text(p.delta), _number_text(p.epsilon), p.m,
                            p.mode.value, p.n, _number_text(p.noise_p), p.r, p.seed))


def _one_of(*allowed):
    """The writer of a field that holds one of the allowed values, with its
    type (no bool for 0, no 1.0 for 1): one (type, value) lookup."""
    texts = {(type(a), a): _dumps(a) for a in allowed}

    def write(value, name: str, n: int) -> str:
        try:
            return texts[type(value), value]
        except (KeyError, TypeError):  # TypeError: a value that cannot be hashed
            raise DomainError(f"{name} must be one of {allowed}, not {value!r}") from None
    return write


def _dict_text(value, name: str, n: int) -> str:
    if type(value) is not dict:
        raise DomainError(f"{name} must be a dict, not {type(value).__name__}")
    return _dumps(value)


# the writers of the fields that are neither strings nor position lists,
# each called as write(value, name, n) on a value that is not None
_RECORD_TEXTS = {
    "params": lambda p, name, n: _params_text(p),
    "channel": lambda c, name, n: f'{{"kind":"{c.kind}","p":{_number_text(c.p)}}}',
    "bob_values": _map_text,
    "deferred": _map_text,
    "protocol": _one_of("qot", "qkd"),
    "abort_reason": _one_of(TEST_FAILED, SET_SHORTAGE),
    "passed": _one_of(True, False),
    **{name: _one_of(0, 1) for name in ("alice_pick", "c")},
    **{name: lambda v, name, n: int.__repr__(gf2.integer(v, name, least=0))
       for name in ("test_errors", "theta_hat_commit", "w_hat_commit")},
    **{name: _dict_text for name in ("strategy", "eve")},
}


def _position_map(d: dict) -> PositionMap:
    keys = gf2.position_array([int(k) for k in d])
    order = np.argsort(keys)
    return PositionMap(keys[order], gf2.bits(list(d.values()))[order])


# each field's decoder, from the value json.loads reads to the field's
# value; a field with none is kept as read. A decoder only converts: the
# writer checks what it returns
_DECODERS = {
    "params": lambda d: ProtocolParams(**d),
    "channel": lambda d: ChannelModel(d["p"]),
    "f": gf2.bitmatrix,
    **{name: quantum.basis_string for name in _BASIS_FIELDS},
    **{name: gf2.bits for name in _BIT_FIELDS},
    **{name: gf2.position_array for name in _LIST_FIELDS},
    "announced_sets": lambda sets: [gf2.position_array(e) for e in sets],
    "announced_rest": lambda r: {"positions": gf2.position_array(r["positions"]),
                                 "bits": gf2.bits(r["bits"])},
    "bob_values": _position_map,
    "deferred": _position_map,
}


@dataclass(eq=False)
class Transcript:
    """Complete lab record of one run: every announcement plus both
    parties' private data. Hiding is enforced by the oracle interface
    during the run, not by censoring the record afterwards. Two
    transcripts are equal when their to_json texts are."""

    protocol: str
    params: ProtocolParams
    channel: ChannelModel
    strategy: dict
    f: np.ndarray
    w: np.ndarray
    theta: np.ndarray
    flips: np.ndarray
    theta_hat: np.ndarray
    w_hat: np.ndarray
    theta_hat_commit: int
    w_hat_commit: int
    R: np.ndarray
    test_errors: int
    passed: bool
    abort_reason: Optional[str] = None
    T0: Optional[np.ndarray] = None
    T1: Optional[np.ndarray] = None
    E0: Optional[np.ndarray] = None
    E1: Optional[np.ndarray] = None
    announced_sets: Optional[list] = None
    alice_pick: Optional[int] = None
    c: Optional[int] = None
    E_c: Optional[np.ndarray] = None
    s: Optional[np.ndarray] = None
    a: Optional[np.ndarray] = None
    announced_rest: Optional[dict] = None  # {"positions": [...], "bits": vec}
    bob_values: PositionMap = field(default_factory=PositionMap)
    deferred: PositionMap = field(default_factory=PositionMap)
    decoded: Optional[np.ndarray] = None
    b: Optional[np.ndarray] = None
    b_hat: Optional[np.ndarray] = None
    eve: Optional[dict] = None

    def to_json(self) -> str:
        """What one _dumps of the fields' plain values writes: bit fields
        as '0'/'1' strings, bases as '+'/'x', f as row strings, position
        lists as lists and position maps as objects. It is the one check
        of a transcript's shape: a field that breaks its rule (a null no
        run leaves, an entry other than 0 or 1, positions that are not flat
        integers rising in [0, n), a scalar outside its values) raises
        DomainError naming it."""
        d = vars(self)
        for name in _REQUIRED:
            if d[name] is None:
                raise DomainError(f"transcript field {name} may not be null")
        n = d["params"].n
        text = {**_string_texts(d), **_position_texts(d, n)}
        if d["announced_rest"] is not None:  # keys in sorted order
            text["announced_rest"] = ('{"bits":' + text["announced_rest.bits"]
                                      + ',"positions":' + text["announced_rest.positions"] + "}")
        for name, write in _RECORD_TEXTS.items():
            if d[name] is not None:
                text[name] = write(d[name], name, n)
        return _TRANSCRIPT_FORMAT % tuple([text.get(name, "null") for name in _FIELD_NAMES])

    def __eq__(self, other):
        if not isinstance(other, Transcript):
            return NotImplemented
        return self.to_json() == other.to_json()

    @classmethod
    def from_json(cls, text: str) -> "Transcript":
        """The transcript a to_json text stands for, read only if to_json
        writes it back. Each field is converted by the constructor of its
        value (a field with none is kept as read), and the transcript is
        written once: a field the writer refuses raises its DomainError,
        and one it writes otherwise (a bit string as a list, X for x, a
        nested position list) DomainError naming it. So do text that is
        not a JSON object of every field and a value no constructor takes.
        No protocol equation is checked."""
        try:
            d = json.loads(text)
        except ValueError as exc:
            raise DomainError(f"a transcript must be JSON text: {exc}") from exc
        if not isinstance(d, dict):
            raise DomainError(f"a transcript must be a JSON object, not {type(d).__name__}")
        names = set(_FIELD_NAMES)
        if d.keys() != names:
            raise DomainError(
                f"transcript keys: missing {sorted(names - d.keys())}, "
                f"unknown {sorted(d.keys() - names)}"
            )
        transcript = cls(**{name: _decode(name, value) for name, value in d.items()})
        written = transcript.to_json()
        if written != text:  # other spacing or key order, or a field written otherwise
            written = json.loads(written)
            for name in _FIELD_NAMES:
                if _dumps(written[name]) != _dumps(d[name]):
                    raise DomainError(f"transcript field {name} is not in the form to_json writes")
        return transcript


# the fields in the order _dumps sorts them, and a transcript's text with
# %s in place of each field's value text
_FIELD_NAMES = tuple(sorted(fld.name for fld in fields(Transcript)))
_TRANSCRIPT_FORMAT = "{" + ",".join(f'"{name}":%s' for name in _FIELD_NAMES) + "}"
# the fields no run leaves None
_REQUIRED = tuple(fld.name for fld in fields(Transcript) if fld.default is not None)


def _decode(name: str, value):
    """A transcript field as json.loads read it, converted by its decoder
    (null and a field with none are kept as read). Any error of the
    decoder is raised as DomainError naming the field."""
    if value is None or name not in _DECODERS:
        return value
    try:
        return _DECODERS[name](value)
    except DomainError as exc:
        raise DomainError(f"transcript field {name}: {exc}") from exc
    except (ArithmeticError, AttributeError, LookupError, TypeError, ValueError) as exc:
        raise DomainError(f"transcript field {name} does not decode: {exc}") from exc


# ---------------------------------------------------------------------------
# runners

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

    f, w, theta = alice_setup(params, stream(seed, "alice"))
    if code is not None:
        # pinned code supersedes the drawn f; the stream draws stay put so
        # the run remains aligned with its unpinned twin
        if code.N != params.N or code.r != params.r or code.m != params.m:
            raise DimensionError("pinned code dimensions disagree with the parameters")
        f = code.f
    g, h = f[: params.r], f[params.r:]
    if qkd:
        b = gf2.random_bits(stream(seed, "secret"), params.m)
    else:
        b = gf2.bits(b, length=params.m)

    flips, reception = _transmit(w, theta, channel, params.mode, stream(seed, "channel"))
    eve_record = None
    if eve is not None:
        eve_record = attacks.eve_intercept(eve, reception, stream(seed, "eve"))

    rng_bob = stream(seed, "bob")
    record = attacks.apply_strategy(bob, reception, oracle, rng_bob)  # checks bob's plan
    strategy_desc = {**bob.describe(), **record.runtime}

    coins = stream(seed, "test").random(params.n)
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
            pick = int(stream(seed, "alice-pick").integers(0, 2))
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
