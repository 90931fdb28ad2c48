"""The record of a run and its text.

A run is configured by ProtocolParams (sizes, test threshold, channel
noise, mode and seed), from which its ChannelModel is made. It ends in a
Transcript: every announcement plus both parties' private data, Bob's
outcomes and deferred bits as PositionMaps, and on an abort one of
TEST_FAILED and SET_SHORTAGE as its reason.

A transcript's text is what _dumps, the one canonical JSON encoder
(sorted keys, no spaces), writes for its fields' plain values; _dumps
writes every CLI artifact too. Transcript.to_json writes the bit and
basis strings in one pass and the position text from cached tables, not
through the encoder, and checks each field's shape as it writes it.
Transcript.from_json reads a text back only if to_json writes it again.
"""

from __future__ import annotations

import functools
import itertools
import json
from dataclasses import dataclass, field, fields
from enum import Enum
from typing import Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from . import gf2, quantum
from .errors import DomainError

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
    n, m, r, N and seed are kept as Python ints (n, m and N at least 1, r
    and seed at least 0), delta, epsilon and noise_p as Python ints or
    floats (gf2.integer, gf2.number); noise_p must make a ChannelModel."""

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
        for name, least in (("n", 1), ("m", 1), ("r", 0), ("seed", 0)):
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
