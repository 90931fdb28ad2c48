"""Executable state machines for string transfer and the key-distribution
variant.

One run walks the eight steps: Alice draws the (r+m) x N matrix f (rows
split into g for error correction and h for privacy amplification); Bob
commits his measurement bases; Alice encodes a random w in random bases
theta and sends the photons through the channel; Bob measures per his
strategy and commits the outcomes; Alice samples a test set R by fair
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
"""

from __future__ import annotations

import functools
import json
import math
import operator
from dataclasses import dataclass, field, fields
from enum import Enum
from typing import Dict, List, Optional, Tuple

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


class ChannelKind(Enum):
    NOISELESS = "NOISELESS"
    BITFLIP = "BITFLIP"


@dataclass(frozen=True)
class ChannelModel:
    kind: ChannelKind = ChannelKind.NOISELESS
    p: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.p < 0.5:
            raise DomainError("flip probability must lie in [0, 1/2)")
        if self.kind is ChannelKind.NOISELESS and self.p != 0.0:
            raise DomainError("a noiseless channel has p = 0")

    @staticmethod
    def noiseless() -> "ChannelModel":
        return ChannelModel(ChannelKind.NOISELESS, 0.0)

    @staticmethod
    def bitflip(p: float) -> "ChannelModel":
        return ChannelModel(ChannelKind.BITFLIP, float(p))


@dataclass(frozen=True)
class ProtocolParams:
    """Run configuration. N defaults to floor(0.24 n); epsilon to 8 delta.
    n, m, r, N and seed are kept as Python ints."""

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
        for name in ("n", "m", "r", "N", "seed"):
            value = getattr(self, name)
            if type(value) is not int and not (name == "N" and value is None):
                if isinstance(value, (bool, np.bool_)) or not isinstance(value, (int, np.integer)):
                    raise DomainError(f"{name} must be an integer, not {type(value).__name__}")
                object.__setattr__(self, name, operator.index(value))
        if self.n < 1:
            raise DomainError("need at least one photon")
        if self.m < 1:
            raise DomainError("the transferred string needs at least one bit")
        if self.r < 0:
            raise DomainError("syndrome length may not be negative")
        if not self.delta >= 0:  # also rejects NaN
            raise DomainError("test tolerance must be a nonnegative number")
        if self.epsilon is None:
            object.__setattr__(self, "epsilon", 8.0 * self.delta)
        if not self.epsilon >= 0:
            raise DomainError("storage fraction epsilon must be a nonnegative number")
        if self.N is None:
            object.__setattr__(self, "N", int(0.24 * self.n))
        if self.N < 1:
            raise DomainError("N must be at least 1 (n too small for the default rule)")
        if self.r + self.m > self.N:
            raise DomainError("r + m may not exceed N")
        if not 0.0 <= self.noise_p < 0.5:
            raise DomainError("noise_p must lie in [0, 1/2)")
        if not isinstance(self.mode, Mode):
            object.__setattr__(self, "mode", Mode(self.mode))

    def channel(self) -> ChannelModel:
        if self.noise_p == 0.0:
            return ChannelModel.noiseless()
        return ChannelModel.bitflip(self.noise_p)

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
        cid = self._next
        self._next += 1
        self._ledger[cid] = gf2.bits(values).copy()
        return cid

    def open(self, cid: int, positions) -> np.ndarray:
        if cid not in self._ledger:
            raise ProtocolViolation(f"no commitment with id {cid}")
        stored = self._ledger[cid]
        return stored[gf2.position_set(positions, stored.size)].copy()


_BASIS_ANGLES = np.array([0.0, math.pi / 4])  # indexed by quantum.PLUS, quantum.CROSS


def basis_angle(basis):
    """Measurement angle of a +/x basis label, elementwise over an array
    of labels. A label other than 0 or 1 raises DomainError."""
    return _BASIS_ANGLES[gf2._bit_array(basis, "basis label")]


@dataclass(frozen=True)
class Dispatch:
    """Alice's lab record of what physically left her station."""

    w: np.ndarray
    theta: np.ndarray
    flips: np.ndarray

    @property
    def encoded(self) -> np.ndarray:
        return self.w ^ self.flips


@functools.lru_cache(maxsize=256)
def _born_p1(held: float, bit: int, probe: float) -> float:
    """Chance of outcome 1 when the photon left in basis state `bit` at
    angle `held` is measured at angle `probe`. A run holds few distinct
    (held, bit, probe) triples, so each one is computed once. The overlap
    is summed in Python floats, two rounded products and a rounded sum,
    so it does not depend on whether a BLAS kernel fuses the multiply-add."""
    c0, c1 = quantum.angle_basis(probe)[:, 1].tolist()
    v0, v1 = quantum.angle_basis(held)[:, bit].tolist()
    return abs(c0 * v0 + c1 * v1) ** 2


def _born_table(angles: List[float]) -> np.ndarray:
    """p1 per (held angle, bit, probe angle) over an angle table."""
    size = len(angles)
    return np.array([
        _born_p1(held, bit, probe) for held in angles for bit in (0, 1) for probe in angles
    ]).reshape(size, 2, size)


# every run's angle table starts at the basis angles; _learn never writes these
_BASIS_ROTATIONS = np.array([quantum.angle_basis(angle) for angle in _BASIS_ANGLES.tolist()])
_BASIS_BORN = _born_table(_BASIS_ANGLES.tolist())


class Reception:
    """Bob's end of the channel: projective measurement only, the encoding
    data private. No step of the protocol entangles photons, so either
    mode keeps one record per photon, at any n: EXACT_QUANTUM the exact
    product state as an (n, 2) float64 array of per-photon amplitudes,
    CLASSICAL_FAST a basis state bit and an index into the angle table.

    Each run has one angle table. It starts at the +/x basis angles, and
    an angle joins it, matched by value, when a measurement first uses it
    (a protocol run uses at most three). An entry carries its rotation
    from quantum.angle_basis (EXACT_QUANTUM); the Born table of p1 per
    (held angle, bit, probe angle) is rebuilt when the table grows
    (CLASSICAL_FAST).

    measure_many checks a block of distinct positions with finite angles,
    measure one photon; both then call _measure, the one core, which
    measures the factors through quantum._measure_factors or gathers p1
    from the Born table. The modes share no Born arithmetic, so criterion
    09 compares independent paths. Both draw a block's k uniforms with
    one rng.random(k) call, the same doubles as k scalar draws, so a
    block and a photon-by-photon loop leave the same outcomes and
    generator state. Bad positions (bools among them) and non-finite
    angles raise DomainError before any draw.
    """

    def __init__(self, mode: Mode, n: int, encoded: np.ndarray, theta: np.ndarray):
        self.mode = mode
        self.n = n
        self._angles: List[float] = _BASIS_ANGLES.tolist()
        if mode is Mode.EXACT_QUANTUM:
            self._factors = quantum._PHOTONS[theta, encoded]
            self._rotations = _BASIS_ROTATIONS
        else:
            self._held = theta.astype(np.intp)
            self._bits = encoded.astype(np.uint8).copy()
            self._born = _BASIS_BORN

    def measure_many(self, positions, angles, rng: np.random.Generator) -> np.ndarray:
        """Measure the photons at positions, in order, each at its angle
        (one angle may serve the whole block); returns the outcome bits."""
        pos = gf2.position_array(positions)
        angles = np.asarray(angles, dtype=float)
        if angles.shape not in ((), pos.shape):
            raise DimensionError("give one angle, or one per position")
        if not np.isfinite(angles).all():
            raise DomainError("measurement angles must be finite")
        if not pos.size:
            return np.zeros(0, dtype=np.uint8)
        ordered = pos if (pos[1:] > pos[:-1]).all() else np.sort(pos)
        if ordered[0] < 0 or ordered[-1] >= self.n:
            raise DomainError("measurement position out of range")
        if ordered is not pos and (ordered[1:] == ordered[:-1]).any():
            raise DomainError("a block measures each position at most once")
        return self._measure(pos, self._index(angles), rng)

    def measure(self, position: int, angle: float, rng: np.random.Generator) -> int:
        if isinstance(position, bool) or not isinstance(position, (int, np.integer)):
            raise DomainError("measurement positions must be integers")
        if not 0 <= position < self.n:
            raise DomainError("measurement position out of range")
        angle = float(angle)
        if not math.isfinite(angle):
            raise DomainError("measurement angles must be finite")
        return int(self._measure(np.array([position], dtype=np.int64), self._index(angle), rng)[0])

    def measure_basis(self, position: int, basis: int, rng: np.random.Generator) -> int:
        if basis not in (quantum.PLUS, quantum.CROSS):
            raise DomainError("a basis is + (0) or x (1)")
        return self.measure(position, _BASIS_ANGLES[int(basis)], rng)

    def _measure(self, pos: np.ndarray, probe, rng: np.random.Generator) -> np.ndarray:
        """Measure the checked distinct positions pos, in order, at the
        angle table entry probe (one, or one per position)."""
        if self.mode is Mode.EXACT_QUANTUM:
            rotations = self._rotations[np.full(pos.shape, probe)]
            return quantum._measure_factors(self._factors, pos, rotations, rng)
        p1 = self._born[self._held[pos], self._bits[pos], probe]
        out = (rng.random(pos.size) < p1).astype(np.uint8)
        self._held[pos] = probe
        self._bits[pos] = out
        return out

    def _index(self, angles):
        """The entry in the angle table of one angle (a float or a 0-d
        array), or of each angle of an array. Angles new to the run join
        the table first."""
        if isinstance(angles, float) or not angles.ndim:
            angle = float(angles)
            if angle not in self._angles:
                self._learn([angle])
            return self._angles.index(angle)
        index = np.full(angles.shape, -1)
        for entry, angle in enumerate(self._angles):
            index[angles == angle] = entry
        new = index < 0
        if new.any():
            self._learn(np.unique(angles[new]).tolist())
            return self._index(angles)
        return index

    def _learn(self, angles) -> None:
        """Add angles to the table: append their rotations (EXACT_QUANTUM),
        or rebuild the Born table over the grown table (CLASSICAL_FAST)."""
        self._angles.extend(angles)
        if self.mode is Mode.EXACT_QUANTUM:
            new = [quantum.angle_basis(angle) for angle in angles]
            self._rotations = np.concatenate([self._rotations, new])
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
) -> Tuple[Dispatch, Reception]:
    """Send the encoded photons; noise is an independent per-photon flip
    of the encoded bit with probability p."""
    w = gf2.bits(w)
    theta = quantum.basis_string(theta, length=w.size)
    n = w.size
    if channel.kind is ChannelKind.BITFLIP:
        flips = (rng.random(n) < channel.p).astype(np.uint8)
    else:
        flips = np.zeros(n, dtype=np.uint8)
    dispatch = Dispatch(w=w, theta=theta, flips=flips)
    return dispatch, Reception(mode, n, dispatch.encoded, theta)


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
    w, theta = gf2.bits(w), quantum.basis_string(theta)
    n = w.size
    R = gf2.position_set(R, n)
    opened_w = oracle.open(w_hat_commit, R)
    opened_t = oracle.open(theta_hat_commit, R)
    matched = opened_t == theta[R]
    errors = int(np.sum(matched & (opened_w != w[R])))
    return errors <= delta * n, errors


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
    n = theta.size
    R = gf2.position_set(R, n)
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
    u = w[E_c]
    if g.shape[1] != u.size or h.shape[1] != u.size:
        raise DimensionError("code width differs from |E_c|")
    if b.size != h.shape[0]:
        raise DimensionError("b length differs from the h row count")
    return gf2.matvec(g, u), b ^ gf2.matvec(h, u)


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
    dim, n = kern.shape
    w_hat_ec = gf2.bits(w_hat_ec, length=n)
    h = gf2.bitmatrix(h, cols=n)
    a = gf2.bits(a, length=h.shape[0])
    if particular is None:
        return None, None
    if (1 << dim) > DECODE_MAX_COSET:
        raise ResourceError(f"decode coset of 2^{dim} words exceeds the cap")
    base, target = gf2._pack_lanes(np.stack([particular, w_hat_ec]))
    offset = base ^ target

    def nearest(block):
        # block holds kernel words k; the coset word k ^ base lies at
        # distance weight(k ^ base ^ target) from w_hat_ec
        dist = gf2.lane_weights(block ^ offset)
        least = dist.min()
        ties = block[dist == least] ^ base
        for lane in range(ties.shape[1]):  # lexicographic: lane 0 leads
            ties = ties[ties[:, lane] == ties[:, lane].min()]
        return int(least), tuple(ties[0].tolist())

    _, best = min(nearest(block) for block in gf2._span_words(kern))
    corrected = gf2.unpack_lanes(np.array([best], dtype=np.uint64), n)[0]
    return a ^ gf2._matvec(h, corrected), corrected


# ---------------------------------------------------------------------------
# transcripts

def _bits_str(v: np.ndarray) -> str:
    return (np.asarray(v, dtype=np.uint8).ravel() + 48).tobytes().decode("ascii")


def _rows_str(m: np.ndarray) -> List[str]:
    """The rows of a bit matrix as '0'/'1' strings: one _bits_str over the
    whole matrix, cut into rows of equal width."""
    text = _bits_str(m)
    width = len(text) // len(m) if len(m) else 0
    return [text[i * width : (i + 1) * width] for i in range(len(m))]


# the one canonical JSON encoder: sorted keys, no spaces; it writes every
# transcript and every CLI artifact
_dumps = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


_DIGIT_TABLE_MAX = 1 << 16  # larger numbers are written by _dumps
_PAD = ord(" ")


@functools.lru_cache(maxsize=None)
def _digit_table(bound: int) -> Tuple[np.ndarray, np.ndarray]:
    """Decimal text of 0..bound-1, right-aligned in space-padded uint8
    rows of one width, and the numbers in the order of those texts ("10"
    before "9"), the order _dumps gives keys."""
    names = [str(k) for k in range(bound)]
    text = "".join(name.rjust(len(names[-1])) for name in names)
    digits = np.frombuffer(text.encode("ascii"), dtype=np.uint8).reshape(bound, -1)
    return digits, np.array(sorted(range(bound), key=names.__getitem__))


def _unpadded(rows: np.ndarray) -> str:
    return rows[rows != _PAD].tobytes().decode("ascii")


def _json_text(keys: np.ndarray, bits: Optional[np.ndarray] = None) -> str:
    """JSON text of a position list, or with bits of a position map, byte
    for byte what _dumps writes for keys.tolist() or {str(k): b}.
    Non-empty non-negative integer keys below _DIGIT_TABLE_MAX are written
    from the digit table, any other by _dumps."""
    if keys.dtype.kind not in "iu" or not keys.size or keys.min() < 0 \
            or (top := int(keys.max())) >= _DIGIT_TABLE_MAX:
        return _dumps(keys.tolist() if bits is None
                      else dict(zip(map(str, keys.tolist()), bits.tolist())))
    digits, order = _digit_table(1 << top.bit_length())
    if bits is None:
        rows = np.empty((keys.size, digits.shape[1] + 1), dtype=np.uint8)  # key,
        rows[:, :-1] = digits[keys]
        rows[:, -1] = ord(",")
        return "[" + _unpadded(rows)[:-1] + "]"
    # the map's bits over the whole table, 2 where it has no key, read in
    # text order: its keys are where a bit is
    spread = np.full(order.size, 2, dtype=np.uint8)
    spread[keys] = bits
    spread = spread[order]
    present = spread < 2
    rows = np.empty((keys.size, digits.shape[1] + 5), dtype=np.uint8)  # "key":b,
    rows[:, 0] = ord('"')
    rows[:, 1:-4] = digits[order[present]]
    rows[:, -4:] = np.frombuffer(b'":0,', dtype=np.uint8)
    rows[:, -2] += spread[present]
    return "{" + _unpadded(rows)[:-1] + "}"


def _positions_text(v: np.ndarray) -> str:
    return _json_text(np.asarray(v).ravel())


@dataclass(frozen=True, eq=False)
class PositionMap:
    """Bits at distinct positions, such as Bob's outcome per photon:
    strictly increasing int64 positions and the uint8 bit at each. Its
    JSON form is an object from decimal position text to bit; writing or
    reading a map whose keys are not positions or whose values are not
    bits raises DomainError."""

    positions: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    bits: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.uint8))

    def __eq__(self, other):
        if not isinstance(other, PositionMap):
            return NotImplemented
        return (np.array_equal(self.positions, other.positions)
                and np.array_equal(self.bits, other.bits))


def _checked(m: PositionMap) -> PositionMap:
    """m with int64 positions and uint8 bits, after checking that it is a
    PositionMap of distinct increasing positions and 0/1 bits."""
    if not isinstance(m, PositionMap):
        raise DomainError(f"a position map must be a PositionMap, not {type(m).__name__}")
    pos, bits = np.asarray(m.positions), np.asarray(m.bits)
    if pos.ndim != 1 or bits.shape != pos.shape:
        raise DimensionError("a position map holds one bit per position")
    if bits.size and (bits.dtype.kind not in "iu" or bits.max() > 1
                      or (bits.dtype.kind == "i" and bits.min() < 0)):
        raise DomainError("position map values must be bits")
    pos = gf2.position_array(pos)
    if pos.size and (pos[0] < 0 or (pos[1:] <= pos[:-1]).any()):
        raise DomainError("position map keys must be distinct positions in order")
    return PositionMap(pos, bits.astype(np.uint8, copy=False))


def _map_text(m: PositionMap) -> str:
    m = _checked(m)
    return _json_text(m.positions, m.bits)


def _position_map(d: dict) -> PositionMap:
    try:
        keys = np.array([int(k) for k in d])
    except ValueError as exc:
        raise DomainError(f"position map key is not a position: {exc}") from exc
    if [str(k) for k in keys.tolist()] != list(d):  # "05", " 5" or "1_0"
        raise DomainError("position map keys must be written as decimal positions")
    order = np.argsort(keys)
    return _checked(PositionMap(keys[order], np.array(list(d.values()))[order]))


# (encode, decode) of every transcript field that is not plain JSON; None
# stays None. encode returns the field's finished JSON text, byte for byte
# what _dumps writes for the plain value it stands for; decode takes the
# value json.loads reads from that text. Every other field is written by
# _dumps and read as it stands.
_CODECS = {
    "params": (lambda p: _dumps(p.to_json()), lambda d: ProtocolParams(**d)),
    "channel": (
        lambda c: _dumps({"kind": c.kind.value, "p": c.p}),
        lambda d: ChannelModel(ChannelKind(d["kind"]), d["p"]),
    ),
    "f": (lambda f: _dumps(_rows_str(f)), gf2.bitmatrix),
    **{name: (lambda t: _dumps(quantum.basis_text(t)), quantum.basis_string)
       for name in ("theta", "theta_hat")},
    **{name: (lambda v: _dumps(_bits_str(v)), gf2.bits)
       for name in ("w", "flips", "w_hat", "s", "a", "decoded", "b", "b_hat")},
    **{name: (_positions_text, gf2.position_array)
       for name in ("R", "T0", "T1", "E0", "E1", "E_c")},
    "announced_sets": (
        lambda sets: "[" + ",".join(map(_positions_text, sets)) + "]",
        lambda sets: [gf2.position_array(e) for e in sets],
    ),
    "announced_rest": (  # keys in sorted order
        lambda r: '{"bits":' + _dumps(_bits_str(r["bits"]))
        + ',"positions":' + _positions_text(r["positions"]) + "}",
        lambda r: {"positions": gf2.position_array(r["positions"]), "bits": gf2.bits(r["bits"])},
    ),
    "bob_values": (_map_text, _position_map),
    "deferred": (_map_text, _position_map),
}


@dataclass
class Transcript:
    """Complete lab record of one run: every announcement plus both
    parties' private data. Hiding is enforced by the oracle interface
    during the run, not by censoring the record afterwards."""

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
        """What one _dumps of the fields' plain values writes: each field in
        sorted order, as its codec's text, or by _dumps if None or codec-less."""
        parts = []
        for name in sorted(fld.name for fld in fields(self)):
            value = getattr(self, name)
            codec = _CODECS.get(name)
            text = _dumps(value) if value is None or codec is None else codec[0](value)
            parts.append(f'"{name}":{text}')
        return "{" + ",".join(parts) + "}"

    @classmethod
    def from_json(cls, text: str) -> "Transcript":
        d = json.loads(text)
        names = {fld.name for fld in fields(cls)}
        if d.keys() != names:
            raise DomainError(
                f"transcript keys: missing {sorted(names - d.keys())}, "
                f"unknown {sorted(d.keys() - names)}"
            )
        decoded = {
            name: value if value is None or name not in _CODECS
            else _CODECS[name][1](value)
            for name, value in d.items()
        }
        _check_run_positions(decoded)
        return cls(**decoded)


def _check_run_positions(d: dict) -> None:
    """DomainError unless each decoded position is one of the run's n
    photons and the announced rest has one bit per position."""
    rest, n = d["announced_rest"] or {}, getattr(d["params"], "n", 0)
    if rest and rest["bits"].size != rest["positions"].size:
        raise DomainError("announced_rest holds one bit per position")
    named = [(k, d[k]) for k in ("R", "T0", "T1", "E0", "E1", "E_c")]
    named += [("announced_sets", e) for e in d["announced_sets"] or ()]
    named += [("announced_rest", rest.get("positions"))]
    named += [(k, getattr(d[k], "positions", None)) for k in ("bob_values", "deferred")]
    for name, pos in named:
        if pos is not None and pos.size and (pos.min() < 0 or pos.max() >= n):
            raise DomainError(f"{name} positions must lie in [0, {n})")


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
    if force_c is not None and force_c not in (0, 1):
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

    dispatch, reception = transmit(w, theta, channel, params.mode, stream(seed, "channel"))
    eve_record = None
    if eve is not None:
        eve_record = attacks.eve_intercept(eve, reception, stream(seed, "eve"))

    rng_bob = stream(seed, "bob")
    record = attacks.apply_strategy(bob, reception, oracle, rng_bob)
    strategy_desc = {**bob.describe(), **record.runtime}

    coins = stream(seed, "test").random(params.n)
    R = np.nonzero(coins < 0.5)[0]
    passed, errors = alice_test(
        w, theta, record.w_hat_commit, record.theta_hat_commit, R, params.delta, oracle
    )

    base = dict(
        protocol="qkd" if qkd else "qot",
        params=params, channel=channel, strategy=strategy_desc,
        f=f, w=w, theta=theta, flips=dispatch.flips,
        theta_hat=record.theta_hat, w_hat=record.w_hat,
        theta_hat_commit=record.theta_hat_commit, w_hat_commit=record.w_hat_commit,
        R=R, test_errors=errors, passed=passed, b=b,
        bob_values=PositionMap(record.measured, record.values[record.measured]),
        eve=eve_record,
    )
    if not passed:
        return Transcript(abort_reason=TEST_FAILED, **base)

    # theta announced
    part = partition_and_choose_sets(theta, record.theta_hat, R, params.N, rng_bob)
    if part.shortage:
        return Transcript(abort_reason=SET_SHORTAGE, T0=part.T0, T1=part.T1, **base)
    attacks.finish_deferred(record, reception, theta, rng_bob)
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
    s, a = alice_announce_correction(b, w, E_pick, g, h)

    rest = None
    if announce_rest:
        others = gf2.complement_positions(E_pick, params.n)
        rest = {"positions": others, "bits": w[others]}

    b_hat, corrected = None, None
    if c == 0:
        b_hat, corrected = bob_decode(record.values[E_pick], s, g, a, h)

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
