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
from dataclasses import asdict, dataclass, field, fields
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
    """Run configuration. N defaults to floor(0.24 n); epsilon to 8 delta."""

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
        return {**asdict(self), "mode": self.mode.value}


class CommitmentOracle:
    """Ideal commitment ledger: binding (stored copy is immutable) and
    hiding (values leave only through open). Stands in for a secure
    commitment protocol."""

    def __init__(self):
        self._ledger: Dict[int, np.ndarray] = {}
        self._opened: Dict[int, set] = {}
        self._next = 0

    def commit(self, values) -> int:
        cid = self._next
        self._next += 1
        self._ledger[cid] = gf2.bits(values).copy()
        self._opened[cid] = set()
        return cid

    def open(self, cid: int, positions) -> np.ndarray:
        if cid not in self._ledger:
            raise ProtocolViolation(f"no commitment with id {cid}")
        stored = self._ledger[cid]
        pos = gf2.position_set(positions, stored.size)
        self._opened[cid].update(pos.tolist())
        return stored[pos].copy()

    def opened_positions(self, cid: int) -> List[int]:
        if cid not in self._ledger:
            raise ProtocolViolation(f"no commitment with id {cid}")
        return sorted(self._opened[cid])


_BASIS_ANGLES = np.array([0.0, math.pi / 4])  # indexed by quantum.PLUS, quantum.CROSS


def basis_angle(basis):
    """Measurement angle of a +/x basis label, elementwise over an array
    of labels."""
    return _BASIS_ANGLES[np.asarray(basis, dtype=np.intp)]


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
    (held, bit, probe) triples, so each one is computed once."""
    return abs(np.vdot(quantum.angle_basis(probe)[:, 1], quantum.angle_basis(held)[:, bit])) ** 2


class Reception:
    """Bob's end of the channel.

    Exposes only projective measurement; the encoding data stays private
    to the instance. EXACT_QUANTUM holds the full statevector, real like
    every BB84 encoding and probe rotation, and collapses it one block at a
    time (quantum.measure_photons measures each photon on the shrinking
    remainder and assembles the state once). CLASSICAL_FAST tracks one
    pure-qubit descriptor (angle, bit) per photon and samples the same Born
    rule.

    Measurement comes in blocks: measure_many takes k distinct positions,
    each with its angle, and consumes one uniform per photon in block
    order, in either mode. CLASSICAL_FAST draws the block's uniforms with
    one rng.random(k) call, which yields the same doubles as k scalar
    draws, so a block and a photon-by-photon loop leave the same outcomes
    and the same generator state. A block of one position (measure,
    measure_basis) skips the duplicate scan and draws one scalar.
    """

    def __init__(self, mode: Mode, n: int, encoded: np.ndarray, theta: np.ndarray):
        self.mode = mode
        self.n = n
        if mode is Mode.EXACT_QUANTUM:
            self._state = quantum.bb84_state(encoded, theta)
        else:
            self._angles = basis_angle(theta)
            self._bits = encoded.astype(np.uint8).copy()

    def measure_many(self, positions, angles, rng: np.random.Generator) -> np.ndarray:
        """Measure the photons at positions, in order, each at its angle
        (one angle may serve the whole block); returns the outcome bits."""
        pos = np.asarray(positions).ravel()
        if pos.size and pos.dtype.kind not in "iu":
            raise DomainError("measurement positions must be integers")
        angles = np.asarray(angles, dtype=float)
        if angles.shape not in ((), pos.shape):
            raise DimensionError("give one angle, or one per position")
        if pos.size == 1:
            return np.array([self._measure_one(int(pos[0]), float(angles.flat[0]), rng)],
                            dtype=np.uint8)
        pos = pos.astype(np.int64)
        angles = np.full(pos.shape, angles)
        ordered = np.sort(pos)
        if ordered.size and (ordered[0] < 0 or ordered[-1] >= self.n):
            raise DomainError("measurement position out of range")
        if ordered.size > 1 and (ordered[1:] == ordered[:-1]).any():
            raise DomainError("a block measures each position at most once")
        if self.mode is Mode.EXACT_QUANTUM:
            # a block holds few distinct angles: build each one's basis once
            probes = angles.tolist()
            rotation = {angle: quantum.angle_basis(angle) for angle in set(probes)}
            out, self._state = quantum.measure_photons(
                self._state, pos.tolist(), [rotation[angle] for angle in probes], rng
            )
            return out
        p1 = np.array([
            _born_p1(*t)
            for t in zip(self._angles[pos].tolist(), self._bits[pos].tolist(), angles.tolist())
        ])
        out = (rng.random(pos.size) < p1).astype(np.uint8)
        self._angles[pos] = angles
        self._bits[pos] = out
        return out

    def _measure_one(self, i: int, angle: float, rng: np.random.Generator) -> int:
        if not 0 <= i < self.n:
            raise DomainError("measurement position out of range")
        if self.mode is Mode.EXACT_QUANTUM:
            out, self._state = quantum.measure_photon(
                self._state, i, quantum.angle_basis(angle), rng
            )
            return out
        out = int(rng.random() < _born_p1(float(self._angles[i]), int(self._bits[i]), angle))
        self._angles[i] = angle
        self._bits[i] = out
        return out

    def measure(self, position: int, angle: float, rng: np.random.Generator) -> int:
        return int(self.measure_many([position], angle, rng)[0])

    def measure_basis(self, position: int, basis: int, rng: np.random.Generator) -> int:
        return self.measure(position, basis_angle(basis), rng)


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
    if mode is Mode.EXACT_QUANTUM and n > quantum.STATEVECTOR_MAX_N:
        raise ResourceError(f"EXACT_QUANTUM caps at n={quantum.STATEVECTOR_MAX_N}")
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
    g, h = gf2.bitmatrix(g), gf2.bitmatrix(h)
    w_hat_ec = gf2.bits(w_hat_ec, length=g.shape[1])
    s, a = gf2.bits(s), gf2.bits(a)
    particular, kern = gf2.solve_affine(g, s)
    if particular is None:
        return None, None
    dim = kern.shape[0]
    if (1 << dim) > DECODE_MAX_COSET:
        raise ResourceError(f"decode coset of 2^{dim} words exceeds the cap")
    base, target = gf2.pack_lanes([particular, w_hat_ec])
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

    _, best = min(nearest(block) for block in gf2.span_words(kern))
    corrected = gf2.unpack_lanes(np.array([best], dtype=np.uint64), w_hat_ec.size)[0]
    return a ^ gf2.matvec(h, corrected), corrected


# ---------------------------------------------------------------------------
# transcripts

def _bits_str(v: np.ndarray) -> str:
    return (np.asarray(v, dtype=np.uint8).ravel() + 48).tobytes().decode("ascii")


def _positions(v: np.ndarray) -> List[int]:
    return np.asarray(v).ravel().tolist()


def _position_array(v: List[int]) -> np.ndarray:
    return np.asarray(v, dtype=np.int64)


def _str_keys(m: dict) -> dict:
    return {str(k): int(v) for k, v in m.items()}


def _int_keys(m: dict) -> Dict[int, int]:
    return {int(k): int(v) for k, v in m.items()}


# (encode, decode) of every transcript field that is not plain JSON; None
# stays None. Every other field is written and read as it stands.
_CODECS = {
    "params": (ProtocolParams.to_json, lambda d: ProtocolParams(**d)),
    "channel": (
        lambda c: {"kind": c.kind.value, "p": c.p},
        lambda d: ChannelModel(ChannelKind(d["kind"]), d["p"]),
    ),
    "f": (lambda f: [_bits_str(row) for row in f], gf2.bitmatrix),
    "theta": (quantum.basis_text, quantum.basis_string),
    "theta_hat": (quantum.basis_text, quantum.basis_string),
    **{name: (_bits_str, gf2.bits)
       for name in ("w", "flips", "w_hat", "s", "a", "decoded", "b", "b_hat")},
    **{name: (_positions, _position_array)
       for name in ("R", "T0", "T1", "E0", "E1", "E_c")},
    "announced_sets": (
        lambda sets: [_positions(e) for e in sets],
        lambda sets: [_position_array(e) for e in sets],
    ),
    "announced_rest": (
        lambda r: {"positions": _positions(r["positions"]), "bits": _bits_str(r["bits"])},
        lambda r: {"positions": _position_array(r["positions"]), "bits": gf2.bits(r["bits"])},
    ),
    "bob_values": (_str_keys, _int_keys),
    "deferred": (_str_keys, _int_keys),
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
    bob_values: Dict[int, int] = field(default_factory=dict)
    deferred: Dict[int, int] = field(default_factory=dict)
    decoded: Optional[np.ndarray] = None
    b: Optional[np.ndarray] = None
    b_hat: Optional[np.ndarray] = None
    eve: Optional[dict] = None

    def to_json(self) -> str:
        d = {}
        for fld in fields(self):
            value = getattr(self, fld.name)
            if value is not None and fld.name in _CODECS:
                value = _CODECS[fld.name][0](value)
            d[fld.name] = value
        return json.dumps(d, sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "Transcript":
        d = json.loads(text)
        names = {fld.name for fld in fields(cls)}
        if d.keys() != names:
            raise DomainError(
                f"transcript keys: missing {sorted(names - d.keys())}, "
                f"unknown {sorted(d.keys() - names)}"
            )
        return cls(**{
            name: value if value is None or name not in _CODECS
            else _CODECS[name][1](value)
            for name, value in d.items()
        })


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
        bob_values=dict(record.outcomes), eve=eve_record,
    )
    if not passed:
        return Transcript(abort_reason=TEST_FAILED, **base)

    # theta announced
    part = partition_and_choose_sets(theta, record.theta_hat, R, params.N, rng_bob)
    if part.shortage:
        return Transcript(abort_reason=SET_SHORTAGE, T0=part.T0, T1=part.T1, **base)
    deferred = attacks.finish_deferred(record, reception, theta, rng_bob)
    base["bob_values"] = {**record.outcomes, **deferred}

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
        values = {**record.outcomes, **deferred}
        w_hat_ec = np.array([values[int(i)] for i in E_pick], dtype=np.uint8)
        b_hat, corrected = bob_decode(w_hat_ec, s, g, a, h)

    return Transcript(
        T0=part.T0, T1=part.T1, E0=part.E0,
        E1=None if qkd else part.E1,
        announced_sets=announced, alice_pick=pick, c=c, E_c=E_pick,
        s=s, a=a, announced_rest=rest, deferred=deferred,
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
