"""Exact linear algebra over GF(2): vectors, matrices, spans, cosets,
minimum weight, restricted Hamming distance, and binary entropy.

Bit vectors and matrices are numpy uint8 arrays with entries in {0, 1}.
Position sets are sorted integer arrays over a universe {0, ..., n-1}.
All indexing is 0-based, here and in every serialized artifact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Optional, Union

import numpy as np

from .errors import DimensionError, DomainError, ResourceError

MIN_DISTANCE_MAX_ROWS = 24  # brute force walks 2^rows span elements
SPAN_BLOCK_ROWS = 16  # span_words blocks hold the span of this many rows


def bits(values, length: Optional[int] = None) -> np.ndarray:
    """Normalize to a uint8 bit vector, validating entries are 0/1."""
    if isinstance(values, str):
        values = [int(ch) for ch in values]
    v = np.asarray(values, dtype=np.uint8).ravel()
    if v.size == 0:
        v = v.reshape(0)
    if not (v <= 1).all():
        raise DomainError("bit vector entries must be 0 or 1")
    if length is not None and v.size != length:
        raise DimensionError(f"expected length {length}, got {v.size}")
    return v


def bitmatrix(values, rows: Optional[int] = None, cols: Optional[int] = None) -> np.ndarray:
    """Normalize to a 2-D uint8 bit matrix; rows may be '0101' strings."""
    if isinstance(values, (list, tuple)) and values and all(
        isinstance(row, str) for row in values
    ):
        values = [bits(row) for row in values]
    m = np.asarray(values, dtype=np.uint8)
    if m.ndim != 2:
        raise DimensionError("bit matrix must be 2-dimensional")
    if not (m <= 1).all():
        raise DomainError("bit matrix entries must be 0 or 1")
    if rows is not None and m.shape[0] != rows:
        raise DimensionError(f"expected {rows} rows, got {m.shape[0]}")
    if cols is not None and m.shape[1] != cols:
        raise DimensionError(f"expected {cols} cols, got {m.shape[1]}")
    return m


def position_set(members, universe: int) -> np.ndarray:
    """Sorted duplicate-free index array over {0, ..., universe-1}.

    Input that is already strictly increasing comes back as is, so the
    result may share memory with members: callers only read it.
    """
    e = np.asarray(members, dtype=np.int64).ravel()
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


def bitxor(v: np.ndarray, vp: np.ndarray) -> np.ndarray:
    """Componentwise exclusive-or."""
    v, vp = bits(v), bits(vp)
    if v.size != vp.size:
        raise DimensionError("xor operands differ in length")
    return v ^ vp


def bitdot(v: np.ndarray, vp: np.ndarray) -> int:
    """Parity of the componentwise AND."""
    v, vp = bits(v), bits(vp)
    if v.size != vp.size:
        raise DimensionError("dot operands differ in length")
    return int(np.bitwise_and(v, vp).sum() & 1)


def matvec(m: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Matrix-vector product with sums taken modulo 2."""
    m, v = bitmatrix(m), bits(v)
    if m.shape[1] != v.size:
        raise DimensionError("matvec dimension mismatch")
    return (m.astype(np.int64) @ v.astype(np.int64) & 1).astype(np.uint8)


@dataclass(frozen=True)
class RowReduction:
    matrix: np.ndarray
    rank: int
    pivots: tuple


def row_reduce(m: np.ndarray) -> RowReduction:
    """Reduced row echelon form over GF(2)."""
    a = bitmatrix(m).copy()
    rows, cols = a.shape
    pivots = []
    row = 0
    for col in range(cols):
        if row >= rows:
            break
        hits = np.nonzero(a[row:, col])[0]
        if hits.size == 0:
            continue
        swap = row + hits[0]
        if swap != row:
            a[[row, swap]] = a[[swap, row]]
        # xor the pivot row into every other row with a 1 in this column
        others = a[:, col].copy()
        others[row] = 0
        a ^= others[:, None] & a[row]
        pivots.append(col)
        row += 1
    return RowReduction(matrix=a, rank=row, pivots=tuple(pivots))


def rank(m: np.ndarray) -> int:
    return row_reduce(m).rank


def _kernel_from(red: RowReduction, cols: int) -> np.ndarray:
    """Kernel basis of the first cols columns of a reduced matrix, one row
    per free column. Pivots at or past cols (an augmented column) are
    skipped: the RREF of [m | x] restricted to m's columns is m's RREF."""
    pivots = [c for c in red.pivots if c < cols]
    free = [c for c in range(cols) if c not in pivots]
    basis = np.zeros((len(free), cols), dtype=np.uint8)
    for i, fc in enumerate(free):
        basis[i, fc] = 1
        for prow, pcol in enumerate(pivots):
            basis[i, pcol] = red.matrix[prow, fc]
    return basis


def kernel_basis(m: np.ndarray) -> np.ndarray:
    """Basis of {v : m v = 0}, one row per free column; shape (dim, cols)."""
    m = bitmatrix(m)
    return _kernel_from(row_reduce(m), m.shape[1])


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
    red = row_reduce(np.concatenate([m, x.reshape(-1, 1)], axis=1))
    kern = _kernel_from(red, cols)
    if cols in red.pivots:  # pivot in the augmented column: inconsistent
        return None, kern
    particular = np.zeros(cols, dtype=np.uint8)
    for r, c in enumerate(red.pivots):
        particular[c] = red.matrix[r, cols]
    return particular, kern


def in_row_span(m: np.ndarray, v: np.ndarray) -> bool:
    """True iff v is a GF(2) combination of the rows of m."""
    m, v = bitmatrix(m), bits(v)
    if m.shape[1] != v.size:
        raise DimensionError("in_row_span dimension mismatch")
    base = row_reduce(m).rank
    return row_reduce(np.vstack([m, v])).rank == base


@dataclass(frozen=True)
class LinearCode:
    """A code presented by its (r+m) x N generator-of-the-dual matrix f.

    The first r rows form g (error correction), the next m rows form h
    (privacy amplification). k = N - r - m counts the residual degrees of
    freedom of the coset {beta : f beta = x}.
    """

    f: np.ndarray
    r: int
    m: int

    def __post_init__(self):
        f = bitmatrix(self.f)
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


def parity_code(n_cols: int) -> LinearCode:
    """The r=0, m=1 all-ones code: t is the parity of the whole string."""
    return LinearCode(f=np.ones((1, n_cols), dtype=np.uint8), r=0, m=1)


def pack_int(v: np.ndarray) -> int:
    """Bit vector to integer, position 0 most significant."""
    out = 0
    for b in bits(v):
        out = (out << 1) | int(b)
    return out


def unpack_int(value: int, length: int) -> np.ndarray:
    return np.array([(value >> (length - 1 - i)) & 1 for i in range(length)], dtype=np.uint8)


def _xor_doubling(packed: np.ndarray) -> np.ndarray:
    """Every xor of the packed rows, row 0 the most significant index bit."""
    span = np.zeros((1 << len(packed), packed.shape[1]), dtype=np.uint8)
    for i, row in enumerate(packed[::-1]):
        np.bitwise_xor(span[: 1 << i], row, out=span[1 << i : 2 << i])
    return span


def span_words(m: np.ndarray) -> Iterator[np.ndarray]:
    """Row span of m as np.packbits rows, in itertools.product order: word i
    xors the rows picked by the bits of i, row 0 most significant.

    Yields consecutive blocks of at most 2^SPAN_BLOCK_ROWS words: the span
    of the last SPAN_BLOCK_ROWS rows xor-ed with each word of the span of
    the rest. Packed bytes keep words of any width exact, and their byte
    order is the lexicographic order of the bit vectors.
    """
    packed = np.packbits(bitmatrix(m), axis=1)
    split = max(packed.shape[0] - SPAN_BLOCK_ROWS, 0)
    low = _xor_doubling(packed[split:])
    for high in _xor_doubling(packed[:split]):
        yield high ^ low


def min_distance(code: Union[LinearCode, np.ndarray]):
    """Minimum Hamming weight over nonzero row-span elements of f.

    Takes the least nonzero weight over the span_words blocks of the
    2^rows span elements. Returns math.inf when the span is {0}.
    """
    f = code.f if isinstance(code, LinearCode) else bitmatrix(code)
    rows = f.shape[0]
    if rows > MIN_DISTANCE_MAX_ROWS:
        raise ResourceError(f"min_distance caps at {MIN_DISTANCE_MAX_ROWS} rows, got {rows}")
    weights = (np.bitwise_count(block).sum(axis=1) for block in span_words(f))
    return min((int(w[w > 0].min()) for w in weights if w.any()), default=math.inf)


def hamming_distance(a: np.ndarray, b: np.ndarray) -> int:
    a, b = bits(a), bits(b)
    if a.size != b.size:
        raise DimensionError("hamming operands differ in length")
    return int((a ^ b).sum())


def hamming_distance_on(e: np.ndarray, a: np.ndarray, b: np.ndarray) -> int:
    """Count of disagreement positions inside the position set e."""
    a, b = bits(a), bits(b)
    if a.size != b.size:
        raise DimensionError("hamming operands differ in length")
    e = position_set(e, a.size)
    return int((a[e] ^ b[e]).sum())


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
