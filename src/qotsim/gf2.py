"""Exact linear algebra over GF(2): vectors, matrices, spans, cosets,
minimum weight, restricted Hamming distance, and binary entropy.

Bit vectors and matrices are numpy uint8 arrays with entries in {0, 1}.
Position sets are sorted integer arrays over a universe {0, ..., n-1}.
All indexing is 0-based, here and in every serialized artifact.

Every module reads its operands through the rules here, each raising
DomainError that names the operand: integer (a size, a count, a radius,
a universe, as a Python int, at least least), number and numbers (a real
parameter, an angle, a probability: finite, no bool), position_array and
position_block (positions). Checks that relate operands (r + m <= N,
p < 1/2) stay with the code that relates them.

Span walks work on lane words instead: a bit vector of width n becomes a
row of ceil(n / 64) big-endian uint64 lanes (pack_lanes), position j
being bit 63 - j % 64 of lane j // 64 and the bits past n zero. Lane 0
holds the leading positions and each lane's top bit its first one, so
comparing lane tuples compares the bit vectors lexicographically; a word
of at most 64 bits is one integer, ordered as its bit vector, and its
Hamming weight is one bitwise_count. A walk starts from a given word
(_span_words's start, zero for span_words) and yields every span word
xor-ed with it, so a decode that starts from its offset reads each
word's distance as its weight, without a second pass over the block.
Rows of a block are picked by np.compress(mask, block, axis=0), never by
block[mask]: on a (2^15, 1) uint64 block numpy's 2-D boolean-mask path
took 84-100 us against 6-10 us for compress (numpy 2.4, 2-core Xeon).

Elimination works on row words: each row of a bit matrix becomes one
Python int (_row_words), position j being bit cols - 1 - j, so position 0
is the most significant bit as in pack_int, and a row operation is one
integer xor at any width.

Functions named with a leading underscore take uint8 arrays whose entries
are already known to be 0 or 1 and check nothing; the public ones check
their operands (bits, bitmatrix) and call them. A caller that has checked
its operands once, as protocol's runners and cosetrho's certificates
do, calls them directly.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from typing import Iterator, Optional, Union

import numpy as np

from .errors import DimensionError, DomainError, ResourceError

MIN_DISTANCE_MAX_ROWS = 24  # brute force walks 2^rows span elements
SPAN_BLOCK_ROWS = 16  # span_words blocks hold the span of this many rows


def _bit_array(values, what: str) -> np.ndarray:
    """values as a uint8 array, or DomainError unless every entry is 0 or 1.

    The check runs before the cast, which would wrap 256 to 0 and truncate
    0.5 to 0. uint8 input comes back uncopied.
    """
    a = np.asarray(values)
    if a.dtype.kind in "iu":
        # an entry other than 0 or 1 sets a bit above bit 0 of the or of
        # all entries, and a negative one its sign bit
        valid = not np.bitwise_or.reduce(a, axis=None) >> 1
    elif a.dtype.kind == "b":
        valid = True
    else:
        valid = bool(((a == 0) | (a == 1)).all())
    if not valid:
        raise DomainError(f"{what} entries must be 0 or 1")
    return a.astype(np.uint8, copy=False)


def bits(values, length: Optional[int] = None) -> np.ndarray:
    """Normalize to a uint8 bit vector, validating entries (a string's characters) are 0/1."""
    if isinstance(values, str):
        values = np.frombuffer(values.encode("ascii", "replace"), dtype=np.uint8) - ord("0")
    v = _bit_array(values, "bit vector").ravel()
    if length is not None and v.size != length:
        raise DimensionError(f"expected length {length}, got {v.size}")
    return v


def bitmatrix(values, rows: Optional[int] = None, cols: Optional[int] = None) -> np.ndarray:
    """Normalize to a 2-D uint8 bit matrix; rows may be '0101' strings."""
    if isinstance(values, (list, tuple)) and values and all(
        isinstance(row, str) for row in values
    ):
        values = [bits(row) for row in values]
    m = _bit_array(values, "bit matrix")
    if m.ndim != 2:
        raise DimensionError("bit matrix must be 2-dimensional")
    if rows is not None and m.shape[0] != rows:
        raise DimensionError(f"expected {rows} rows, got {m.shape[0]}")
    if cols is not None and m.shape[1] != cols:
        raise DimensionError(f"expected {cols} cols, got {m.shape[1]}")
    return m


_BOOL_TYPES = frozenset({bool, np.bool_})


def integer(value, what: str, least: Optional[int] = None) -> int:
    """value as a Python int: a Python or numpy integer, at least least
    when that is given. A bool, a float or any other type raises
    DomainError naming what, instead of being read as an integer (True as
    1, 1.5 truncated), and so does an integer below least."""
    if type(value) is not int:
        if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
            raise DomainError(f"{what} must be an integer, not {type(value).__name__}")
        value = int(value)
    if least is not None and value < least:
        raise DomainError(f"{what} must be at least {least}, got {value}")
    return value


def number(value, what: str) -> Union[int, float]:
    """value as a finite Python int or float: a Python or numpy integer or
    float. A bool (not read as 1), any other type, NaN, +-inf or an int
    past the float range raises DomainError naming what."""
    if type(value) is not float and type(value) is not int:
        if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
            raise DomainError(f"{what} must be a number, not {value!r}")
        value = float(value) if isinstance(value, (float, np.floating)) else int(value)
    if not -sys.float_info.max <= value <= sys.float_info.max:  # NaN fails too
        shown = repr(value) if type(value) is float else f"an int of {value.bit_length()} bits"
        raise DomainError(f"{what} must be finite, not {shown}")
    return value


def numbers(values, what: str) -> np.ndarray:
    """values, a number or an array of them, as a float64 array, each entry
    held to the rule of number (a bool that numpy would cast among ints or
    floats too). float64 array input comes back uncopied."""
    a = np.asarray(values)
    if a.dtype.kind not in "iuf" or _lists_a_bool(values, a.ndim):
        raise DomainError(f"{what} must be numbers")
    a = a.astype(np.float64, copy=False)
    if not np.isfinite(a).all():
        raise DomainError(f"{what} must be finite")
    return a


def position_array(members) -> np.ndarray:
    """members as a flat int64 array, in their given order.

    Entries must be integers: floats and bools raise DomainError instead of
    being truncated, and so does a uint64 entry past int64, instead of
    wrapping to a negative one. int64 array input comes back uncopied.
    """
    e = np.asarray(members)
    if e.size and (e.dtype.kind not in "iu" or _lists_a_bool(members, e.ndim)):
        raise DomainError("positions must be integers")
    if e.dtype == np.uint64 and e.size and e.max() >> np.uint64(63):
        raise DomainError("positions must be below 2^63")
    return e.ravel().astype(np.int64, copy=False)


def _lists_a_bool(members, ndim: int) -> bool:
    """Whether input that numpy reads as numbers lists a bool: numpy casts
    a list that mixes ints or floats with bools to int64 or float64. A
    scalar it reads so is no bool."""
    if not ndim or isinstance(members, (np.ndarray, range)):
        return False
    entries = members if ndim == 1 else np.asarray(members, dtype=object).ravel()
    return not _BOOL_TYPES.isdisjoint(map(type, entries))


def position_set(members, universe: int) -> np.ndarray:
    """Sorted duplicate-free index array over {0, ..., universe-1}.

    Entries are checked by position_array. Input that is already strictly
    increasing comes back as is, so the result may share memory with
    members: callers only read it.
    """
    e, universe = position_array(members), integer(universe, "a position universe")
    if e.size > 1 and not (e[1:] > e[:-1]).all():
        e = np.sort(e)  # np.unique would import numpy.ma
        e = e[np.concatenate(([True], e[1:] != e[:-1]))]
    if e.size and (e[0] < 0 or e[-1] >= universe):
        raise DomainError(f"positions must lie in [0, {universe})")
    return e


def position_block(members, universe: int) -> np.ndarray:
    """members as distinct int64 positions in [0, universe), in their given
    order: a block to measure. Entries are checked by position_array, so
    int64 array input comes back uncopied. A strictly increasing block is
    distinct as it stands; only another one is sorted to find repeats.
    """
    e, universe = position_array(members), integer(universe, "a position universe")
    if not e.size:
        return e
    ordered = e if (e[1:] > e[:-1]).all() else np.sort(e)
    if ordered[0] < 0 or ordered[-1] >= universe:
        raise DomainError(f"positions must lie in [0, {universe})")
    if ordered is not e and (ordered[1:] == ordered[:-1]).any():
        raise DomainError("a block holds each position at most once")
    return e


def complement_positions(e: np.ndarray, universe: int) -> np.ndarray:
    mask = np.ones(universe, dtype=bool)
    mask[np.asarray(e, dtype=np.int64)] = False
    return np.nonzero(mask)[0]


def random_bits(rng: np.random.Generator, length: int) -> np.ndarray:
    return rng.integers(0, 2, size=length, dtype=np.uint8)


def random_bitmatrix(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    return rng.integers(0, 2, size=(rows, cols), dtype=np.uint8)


def matvec(m: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Matrix-vector product with sums taken modulo 2."""
    m, v = bitmatrix(m), bits(v)
    if m.shape[1] != v.size:
        raise DimensionError("matvec dimension mismatch")
    return _matvec(m, v)


def _matvec(m: np.ndarray, v: np.ndarray) -> np.ndarray:
    return (m.astype(np.int64) @ v.astype(np.int64) & 1).astype(np.uint8)


@dataclass(frozen=True)
class RowReduction:
    matrix: np.ndarray
    rank: int
    pivots: tuple


def row_reduce(m: np.ndarray) -> RowReduction:
    """Reduced row echelon form over GF(2)."""
    return _row_reduce(bitmatrix(m))


def _row_reduce(a: np.ndarray) -> RowReduction:
    """row_reduce on row words. Each row is cleared of the pivots found so
    far; if a bit is left, its leading bit is a new pivot, cleared from the
    rows already kept. The kept rows, by pivot column, are the RREF."""
    rows, cols = a.shape
    kept = {}  # leading bit -> reduced row word; column j is bit cols - 1 - j
    for word in _row_words(a):
        for lead, row in kept.items():
            if word >> lead & 1:
                word ^= row
        if word:
            new = word.bit_length() - 1
            for lead, row in kept.items():
                if row >> new & 1:
                    kept[lead] = row ^ word
            kept[new] = word
    leads = sorted(kept, reverse=True)
    matrix = _rows_from_words([kept[lead] for lead in leads] + [0] * (rows - len(leads)), cols)
    pivots = tuple(cols - 1 - lead for lead in leads)
    return RowReduction(matrix=matrix, rank=len(leads), pivots=pivots)


def rank(m: np.ndarray) -> int:
    return row_reduce(m).rank


def _kernel_from(red: RowReduction, cols: int) -> np.ndarray:
    """Kernel basis of the first cols columns of a reduced matrix, one row
    per free column. Pivots at or past cols (an augmented column) are
    skipped: the RREF of [m | x] restricted to m's columns is m's RREF."""
    pivots = [c for c in red.pivots if c < cols]
    taken = set(pivots)
    free = [c for c in range(cols) if c not in taken]
    basis = np.zeros((len(free), cols), dtype=np.uint8)
    basis[np.arange(len(free)), free] = 1
    # pivot row i of the reduced matrix belongs to pivots[i]
    basis[:, pivots] = red.matrix[: len(pivots)][:, free].T
    return basis


def kernel_basis(m: np.ndarray) -> np.ndarray:
    """Basis of {v : m v = 0}, one row per free column; shape (dim, cols)."""
    m = bitmatrix(m)
    return _kernel_from(_row_reduce(m), m.shape[1])


def solve_affine(m: np.ndarray, x: np.ndarray):
    """One solution of m beta = x plus a kernel basis.

    Returns (particular, kernel_basis); particular is None when the system
    is inconsistent. The solution coset is particular xor span(kernel_basis).
    One elimination of [m | x] yields both.
    """
    m, x = bitmatrix(m), bits(x)
    if m.shape[0] != x.size:
        raise DimensionError("solve_affine dimension mismatch")
    return _solve_affine(m, x)


def _solve_affine(m: np.ndarray, x: np.ndarray):
    """solve_affine of a bit matrix and a bit vector of its row count."""
    cols = m.shape[1]
    red = _row_reduce(np.concatenate([m, x.reshape(-1, 1)], axis=1))
    return _coset(red, cols, red.matrix[:, cols]), _kernel_from(red, cols)


def _coset(red: RowReduction, cols: int, carried: np.ndarray) -> Optional[np.ndarray]:
    """The solution of m beta = x whose free columns are 0, from any RREF
    of [m | X] (m its first cols columns) and x carried through the same
    elimination: the carried bits on m's pivot rows, or None when a row
    past m's rank carries a 1."""
    pivots = [c for c in red.pivots if c < cols]
    if carried[len(pivots) :].any():
        return None
    beta = np.zeros(cols, dtype=np.uint8)
    beta[pivots] = carried[: len(pivots)]
    return beta


class Memo:
    """Results derived from one code, each computed once and kept for the
    life of the code that owns the memo, at most MEMO_MAX of them; past
    that bound, results are computed and returned as computed, without
    being kept. Kept arrays are made read-only, because every caller gets
    the same one.

    MEMO_MAX bounds the memo; it is not a tuned size. Every kept array is
    small: a particular solution holds N bits, a low ball (cosetrho) at
    most 2^N int64 states and its shared cosets at most two int64 entries
    per state, so at the density cap N = 10 no array exceeds 16 KiB and a
    full memo holds at most 4 MiB.
    """

    MEMO_MAX = 256

    def __init__(self):
        self._kept: dict = {}

    def get(self, key, compute):
        """The kept result for key, else compute()'s, kept if there is room."""
        try:
            return self._kept[key]
        except KeyError:
            pass
        value = compute()
        if len(self._kept) < self.MEMO_MAX:
            if isinstance(value, np.ndarray):
                value.setflags(write=False)
            self._kept[key] = value
        return value


@dataclass(frozen=True, eq=False)
class LinearCode:
    """A code presented by its (r+m) x N generator-of-the-dual matrix f.

    The first r rows form g (error correction), the next m rows form h
    (privacy amplification). k = N - r - m counts the residual degrees of
    freedom of the coset {beta : f beta = x}.

    f is kept as a read-only copy, so the facts derived from it once per
    code (min distance, kernel, row span, coset solver, and the results in
    memo) cannot go stale. r and m are kept as Python ints. Two codes are
    equal, and hash alike, when f, its shape, r and m are.
    """

    f: np.ndarray
    r: int
    m: int

    def __post_init__(self):
        f = bitmatrix(self.f).copy()
        f.setflags(write=False)
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "r", integer(self.r, "r", least=0))
        object.__setattr__(self, "m", integer(self.m, "m", least=0))
        if f.shape[0] != self.r + self.m:
            raise DimensionError("f must have r+m rows")
        if self.r + self.m > f.shape[1]:
            raise DomainError("r+m may not exceed N")

    def _key(self) -> tuple:
        return self.f.tobytes(), self.f.shape, self.r, self.m

    def __eq__(self, other):
        if not isinstance(other, LinearCode):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    @property
    def N(self) -> int:
        return int(self.f.shape[1])

    @property
    def k(self) -> int:
        return self.N - self.r - self.m

    @property
    def g(self) -> np.ndarray:
        return self.f[: self.r]

    @property
    def h(self) -> np.ndarray:
        return self.f[self.r :]

    @functools.cached_property
    def distance(self):
        """min_distance of f, computed once per code."""
        return min_distance(self.f)

    @functools.cached_property
    def _reduction(self) -> RowReduction:
        """The RREF of [f | I], the code's one elimination: restricted to
        f's columns it is RREF(f), which gives the kernel, and its last
        columns carry a syndrome through it for _coset."""
        rows = self.f.shape[0]
        return _row_reduce(np.concatenate([self.f, np.eye(rows, dtype=np.uint8)], axis=1))

    @functools.cached_property
    def kernel(self) -> np.ndarray:
        """kernel_basis(f), one row per free column."""
        return _kernel_from(self._reduction, self.N)

    @functools.cached_property
    def memo(self) -> Memo:
        """Per-syndrome and per-ball results for this code (particular
        solutions here, low balls and their shared row-span cosets in
        cosetrho)."""
        return Memo()

    @functools.cached_property
    def kernel_span(self) -> np.ndarray:
        """Every element of ker f, one bit row each, in span_words order."""
        return unpack_lanes(np.concatenate(list(span_words(self.kernel))), self.N)

    @functools.cached_property
    def row_span(self) -> np.ndarray:
        """Every element of the row span of f, one lane word each, in
        span_words order: 2^(r+m) words, so only small codes should ask."""
        return np.concatenate(list(span_words(self.f)))

    def particular(self, x) -> Optional[np.ndarray]:
        """solve_affine(f, x)'s particular solution, bit for bit (RREF is
        unique), by one matvec; None when x is not in the image of f. Each
        syndrome's solution is computed once and kept (read-only) in memo."""
        return self._particular(bits(x, length=self.f.shape[0]))

    def _particular(self, x: np.ndarray) -> Optional[np.ndarray]:
        """particular for a syndrome already checked to be r+m bits."""
        return self.memo.get(("particular", x.tobytes()), lambda: self._solve(x))

    def _solve(self, x: np.ndarray) -> Optional[np.ndarray]:
        red = self._reduction
        return _coset(red, self.N, red.matrix[:, self.N :] @ x & 1)


def parity_code(n_cols: int) -> LinearCode:
    """The r=0, m=1 all-ones code: t is the parity of the whole string."""
    n_cols = integer(n_cols, "n_cols", least=1)
    return LinearCode(f=np.ones((1, n_cols), dtype=np.uint8), r=0, m=1)


def _row_words(m: np.ndarray) -> list:
    """Each row of a uint8 bit matrix as one int, position 0 most
    significant: the row's packbits bytes read big-endian, less the pad."""
    rows, cols = m.shape
    packed = np.packbits(m, axis=1)
    width = packed.shape[1]
    if not width:
        return [0] * rows
    pad, raw = 8 * width - cols, packed.tobytes()
    return [int.from_bytes(raw[i : i + width], "big") >> pad for i in range(0, len(raw), width)]


def _rows_from_words(words, cols: int) -> np.ndarray:
    """_row_words inverted: ints below 2^cols as a (len(words), cols) bit
    matrix."""
    width = -(-cols // 8)
    pad = 8 * width - cols
    raw = b"".join([(word << pad).to_bytes(width, "big") for word in words])
    packed = np.frombuffer(raw, dtype=np.uint8).reshape(len(words), width)
    return np.unpackbits(packed, axis=1, count=cols)


def pack_int(v: np.ndarray) -> int:
    """Bit vector to integer, position 0 most significant."""
    return _pack_int(bits(v))


def _pack_int(v: np.ndarray) -> int:
    """pack_int of a uint8 bit vector: its packbits bytes read big-endian,
    less the pad."""
    return int.from_bytes(np.packbits(v).tobytes(), "big") >> (-v.size % 8)


def unpack_int(value: int, length: int) -> np.ndarray:
    """pack_int inverted: the length-bit vector of value in [0, 2^length)."""
    value = integer(value, "unpack_int value")
    length = integer(length, "unpack_int length", least=0)
    if not 0 <= value < 1 << length:
        raise DomainError(f"unpack_int needs 0 <= value < 2^length, got {value} in {length} bits")
    return _rows_from_words([value], length)[0]


def pack_lanes(m) -> np.ndarray:
    """Rows of a bit matrix as lane words: shape (rows, ceil(cols / 64))
    uint64, position j at bit 63 - j % 64 of lane j // 64, zero past cols."""
    return _pack_lanes(bitmatrix(m))


def _pack_lanes(m: np.ndarray) -> np.ndarray:
    rows, cols = m.shape
    lanes = np.zeros((rows, -(-cols // 64)), dtype=">u8")
    lanes.view(np.uint8)[:, : -(-cols // 8)] = np.packbits(m, axis=1)
    return lanes.astype(np.uint64)


def unpack_lanes(words: np.ndarray, width: int) -> np.ndarray:
    """Rows of lane words back to a (rows, width) bit matrix."""
    raw = np.ascontiguousarray(words, dtype=">u8").view(np.uint8)
    return np.unpackbits(raw, axis=1, count=width)


def lane_weights(words: np.ndarray) -> np.ndarray:
    """Hamming weight of each row of lane words; one bitwise_count per word
    of one lane, and a sum over the lanes of wider words."""
    counts = np.bitwise_count(words)
    return counts[:, 0] if counts.shape[1] == 1 else counts.sum(axis=1)


def lane_prefix(words: np.ndarray, width: int) -> np.ndarray:
    """The first width < 64 positions of each row of lane words as an
    int64, position 0 most significant (pack_int's order)."""
    if not 0 <= width < 64:
        raise DomainError("lane prefixes hold 0 to 63 positions")
    if width == 0:
        return np.zeros(len(words), dtype=np.int64)
    return (words[:, 0] >> np.uint64(64 - width)).astype(np.int64)


def _xor_doubling(lanes: np.ndarray, start: Union[np.ndarray, int]) -> np.ndarray:
    """Every xor of the lane-word rows, row 0 the most significant index
    bit, each xor-ed with start: row 0 of the result is start itself, and
    each doubling xors one row into the rows made so far. Nothing else
    fills the array, so a nonzero start costs no extra pass."""
    span = np.empty((1 << len(lanes), lanes.shape[1]), dtype=np.uint64)
    span[0] = start
    for i, row in enumerate(lanes[::-1]):
        np.bitwise_xor(span[: 1 << i], row, out=span[1 << i : 2 << i])
    return span


def span_words(m: np.ndarray) -> Iterator[np.ndarray]:
    """Row span of m as pack_lanes rows, in itertools.product order: word i
    xors the rows picked by the bits of i, row 0 most significant.

    Yields consecutive blocks of at most 2^SPAN_BLOCK_ROWS words: the span
    of the last SPAN_BLOCK_ROWS rows xor-ed with each word of the span of
    the rest. Lane words keep words of any width exact. Lane 0 holds the
    leading positions with position 0 at its top bit, so the integer order
    of one-lane words, and the tuple order of wider ones, is the
    lexicographic order of the bit vectors.

    Every block is a fresh array: a span of at most SPAN_BLOCK_ROWS rows is
    yielded as built, as its only block. The walk starts from the zero
    word; _span_words also takes another start word. Pick a block's rows
    by np.compress(mask, block, axis=0): on 2^15 one-lane words it took
    6-10 us, where block[mask] took 84-100 us.
    """
    return _span_words(bitmatrix(m))


def _span_words(m: np.ndarray, start: Union[np.ndarray, int] = 0) -> Iterator[np.ndarray]:
    """span_words of a bit matrix, every word xor-ed with start (a lane
    word of m's width, or 0): word i is start xor the rows picked by the
    bits of i. start seeds row 0 of the low block, and each high word is
    xor-ed into that block as for a zero start."""
    lanes = _pack_lanes(m)
    split = max(lanes.shape[0] - SPAN_BLOCK_ROWS, 0)
    low = _xor_doubling(lanes[split:], start)
    if not split:
        yield low
        return
    for high in _xor_doubling(lanes[:split], 0):
        yield high ^ low


def min_distance(code: Union[LinearCode, np.ndarray]):
    """Minimum Hamming weight over nonzero row-span elements of f.

    Takes the least weight over the span_words blocks of the 2^rows span
    elements, one block at a time, leaving out word 0 (the empty xor).
    Another zero word exists only when f's rows are dependent, so only a
    block whose least weight is 0 is scanned again for its least nonzero
    weight. Returns math.inf when the span is {0}. A LinearCode answers
    from its cached distance.
    """
    if isinstance(code, LinearCode):
        return code.distance
    f = bitmatrix(code)
    rows = f.shape[0]
    if rows > MIN_DISTANCE_MAX_ROWS:
        raise ResourceError(f"min_distance caps at {MIN_DISTANCE_MAX_ROWS} rows, got {rows}")
    least = math.inf
    for i, block in enumerate(_span_words(f)):
        w = lane_weights(block)[0 if i else 1 :]
        low = int(w.min()) if w.size else math.inf
        if low == 0:
            low = int(w[w > 0].min()) if w.any() else math.inf
        least = min(least, low)
    return least


def binary_entropy(x: float) -> float:
    """H(x) = -(x lg x + (1-x) lg(1-x)), with 0 lg 0 = 0."""
    x = number(x, "binary_entropy argument")
    if not 0 <= x <= 1:
        raise DomainError("binary_entropy argument outside [0, 1]")
    if x == 0.0 or x == 1.0:
        return 0.0
    return -(x * math.log2(x) + (1.0 - x) * math.log2(1.0 - x))


def binary_entropy_inverse(y: float) -> float:
    """The x in [0, 1/2] with H(x) = y, by bisection to within 1e-12."""
    y = number(y, "binary_entropy_inverse argument")
    if not 0 <= y <= 1:
        raise DomainError("binary_entropy_inverse argument outside [0, 1]")
    lo, hi = 0.0, 0.5
    while hi - lo > 1e-12:
        mid = (lo + hi) / 2.0
        if binary_entropy(mid) < y:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0
