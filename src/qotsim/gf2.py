"""Exact linear algebra over GF(2): vectors, matrices, spans, cosets,
minimum weight, restricted Hamming distance, and binary entropy.

Bit vectors and matrices are numpy uint8 arrays with entries in {0, 1}.
Position sets are sorted integer arrays over a universe {0, ..., n-1}.
All indexing is 0-based, here and in every serialized artifact.

Span walks work on lane words instead: a bit vector of width n becomes a
row of ceil(n / 64) big-endian uint64 lanes (pack_lanes), position j
being bit 63 - j % 64 of lane j // 64 and the bits past n zero. Lane 0
holds the leading positions and each lane's top bit its first one, so
comparing lane tuples compares the bit vectors lexicographically; a word
of at most 64 bits is one integer, ordered as its bit vector, and its
Hamming weight is one bitwise_count.

Elimination works on row words: each row of a bit matrix becomes one
Python int (_row_words), position j being bit cols - 1 - j, so position 0
is the most significant bit as in pack_int, and a row operation is one
integer xor at any width.

Functions named with a leading underscore take uint8 arrays whose entries
are already known to be 0 or 1 and check nothing; the public ones check
their operands (bits, bitmatrix) and call them. A caller that has checked
its operands once, as protocol.bob_decode and cosetrho's certificates
do, calls them directly.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import Iterator, Optional, Tuple, Union

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
    """Normalize to a uint8 bit vector, validating entries are 0/1."""
    if isinstance(values, str):
        values = [int(ch) for ch in values]
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
    """Whether input that numpy reads as integers lists a bool: numpy casts
    a list that mixes ints and bools to int64."""
    if isinstance(members, (np.ndarray, range)):
        return False
    entries = members if ndim == 1 else np.asarray(members, dtype=object).ravel()
    return not _BOOL_TYPES.isdisjoint(map(type, entries))


def position_set(members, universe: int) -> np.ndarray:
    """Sorted duplicate-free index array over {0, ..., universe-1}.

    Entries are checked by position_array. Input that is already strictly
    increasing comes back as is, so the result may share memory with
    members: callers only read it.
    """
    e = position_array(members)
    if e.size > 1 and not (e[1:] > e[:-1]).all():
        e = np.unique(e)
    if e.size and (e[0] < 0 or e[-1] >= universe):
        raise DomainError(f"positions must lie in [0, {universe})")
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
    cols = m.shape[1]
    red = _row_reduce(np.concatenate([m, x.reshape(-1, 1)], axis=1))
    kern = _kernel_from(red, cols)
    if cols in red.pivots:  # pivot in the augmented column: inconsistent
        return None, kern
    particular = np.zeros(cols, dtype=np.uint8)
    particular[list(red.pivots)] = red.matrix[: red.rank, cols]
    return particular, kern


class Memo:
    """Results derived from one code, each computed once and kept for the
    life of the code that owns the memo, at most MEMO_MAX of them holding
    at most MEMO_MAX_BYTES of arrays in all; past either bound, results
    are computed and returned as computed, without being kept. Kept arrays
    are made read-only, because every caller gets the same one.

    MEMO_MAX and MEMO_MAX_BYTES bound the memo; they are not tuned sizes.
    Measured, a code keeps at most 26 results in the bench certify lists,
    criteria 01 and 03 and the density-check runs: one particular solution
    per syndrome (8, for 3 rows of f), one low ball per radius (2) and one
    certificate ball block per syndrome and ball (16), at most 81 KB of
    arrays outside density-check. A ball block over a ball of L basis
    states holds 8 L^2 bytes, so the byte bound keeps the small blocks
    that certificates share and recomputes the multi-megabyte blocks of
    wide balls at N = 10, which a code seldom asks for twice.
    """

    MEMO_MAX = 256
    MEMO_MAX_BYTES = 1 << 20

    def __init__(self):
        self._kept: dict = {}
        self._bytes = 0

    def get(self, key, compute):
        """The kept result for key, else compute()'s, kept if there is room."""
        try:
            return self._kept[key]
        except KeyError:
            pass
        value = compute()
        array = isinstance(value, np.ndarray)
        size = value.nbytes if array else 0
        if len(self._kept) < self.MEMO_MAX and self._bytes + size <= self.MEMO_MAX_BYTES:
            if array:
                value.setflags(write=False)
            self._kept[key] = value
            self._bytes += size
        return value


@dataclass(frozen=True)
class LinearCode:
    """A code presented by its (r+m) x N generator-of-the-dual matrix f.

    The first r rows form g (error correction), the next m rows form h
    (privacy amplification). k = N - r - m counts the residual degrees of
    freedom of the coset {beta : f beta = x}.

    f is kept as a read-only copy, so the facts derived from it once per
    code (min distance, kernel, row span, coset solver, and the results in
    memo) cannot go stale.
    """

    f: np.ndarray
    r: int
    m: int

    def __post_init__(self):
        f = bitmatrix(self.f).copy()
        f.setflags(write=False)
        object.__setattr__(self, "f", f)
        if self.r < 0 or self.m < 0:
            raise DomainError("row counts must be nonnegative")
        if f.shape[0] != self.r + self.m:
            raise DimensionError("f must have r+m rows")
        if self.r + self.m > f.shape[1]:
            raise DomainError("r+m may not exceed N")

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
        columns give the syndrome map."""
        rows = self.f.shape[0]
        return _row_reduce(np.concatenate([self.f, np.eye(rows, dtype=np.uint8)], axis=1))

    @functools.cached_property
    def kernel(self) -> np.ndarray:
        """kernel_basis(f), one row per free column."""
        return _kernel_from(self._reduction, self.N)

    @functools.cached_property
    def _syndrome_map(self) -> Tuple[np.ndarray, np.ndarray]:
        """(E, the pivot columns of f), from the RREF of [f | I]: E f is
        RREF(f), so E x carries a syndrome x through the elimination that
        solve_affine performs on [f | x]. The first rank entries of E x are
        beta0 on the pivot columns; the rest vanish iff x is in the image."""
        n, red = self.N, self._reduction
        pivots = np.array([c for c in red.pivots if c < n], dtype=np.intp)
        return red.matrix[:, n:].astype(np.int64), pivots

    @functools.cached_property
    def memo(self) -> Memo:
        """Per-syndrome and per-ball results for this code (particular
        solutions here, low-ball indices and ball blocks in cosetrho)."""
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
        carry, pivots = self._syndrome_map
        carried = carry @ x & 1
        if carried[pivots.size :].any():
            return None
        beta0 = np.zeros(self.N, dtype=np.uint8)
        beta0[pivots] = carried[: pivots.size]
        return beta0


def parity_code(n_cols: int) -> LinearCode:
    """The r=0, m=1 all-ones code: t is the parity of the whole string."""
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
    return _row_words(v.reshape(1, -1))[0]


def unpack_int(value: int, length: int) -> np.ndarray:
    """pack_int inverted: the length-bit vector of value in [0, 2^length)."""
    value = operator.index(value)
    if length < 0 or not 0 <= value < 1 << length:
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


def _xor_doubling(lanes: np.ndarray) -> np.ndarray:
    """Every xor of the lane-word rows, row 0 the most significant index bit."""
    span = np.zeros((1 << len(lanes), lanes.shape[1]), dtype=np.uint64)
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
    yielded as built, as its only block.
    """
    return _span_words(bitmatrix(m))


def _span_words(m: np.ndarray) -> Iterator[np.ndarray]:
    lanes = _pack_lanes(m)
    split = max(lanes.shape[0] - SPAN_BLOCK_ROWS, 0)
    low = _xor_doubling(lanes[split:])
    if not split:
        yield low
        return
    for high in _xor_doubling(lanes[:split]):
        yield high ^ low


def min_distance(code: Union[LinearCode, np.ndarray]):
    """Minimum Hamming weight over nonzero row-span elements of f.

    Takes the least nonzero weight over the span_words blocks of the
    2^rows span elements. Returns math.inf when the span is {0}. A
    LinearCode answers from its cached distance.
    """
    if isinstance(code, LinearCode):
        return code.distance
    f = bitmatrix(code)
    rows = f.shape[0]
    if rows > MIN_DISTANCE_MAX_ROWS:
        raise ResourceError(f"min_distance caps at {MIN_DISTANCE_MAX_ROWS} rows, got {rows}")
    weights = (lane_weights(block) for block in _span_words(f))
    return min((int(w[w > 0].min()) for w in weights if w.any()), default=math.inf)


def binary_entropy(x: float) -> float:
    """H(x) = -(x lg x + (1-x) lg(1-x)), with 0 lg 0 = 0."""
    if x < 0.0 or x > 1.0:
        raise DomainError("binary_entropy argument outside [0, 1]")
    if x == 0.0 or x == 1.0:
        return 0.0
    return -(x * math.log2(x) + (1.0 - x) * math.log2(1.0 - x))


def binary_entropy_inverse(y: float, tol: float = 1e-12) -> float:
    """The x in [0, 1/2] with H(x) = y, by bisection."""
    if y < 0.0 or y > 1.0:
        raise DomainError("binary_entropy_inverse argument outside [0, 1]")
    lo, hi = 0.0, 0.5
    while hi - lo > tol:
        mid = (lo + hi) / 2.0
        if binary_entropy(mid) < y:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0
