"""Exact GF(2) helpers: representation, elimination, codes, distances."""

import functools
import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qotsim import attacks, cosetrho, gf2, protocol, quantum
from qotsim.errors import DimensionError, DomainError, ResourceError


def test_bits_accepts_strings_and_lists():
    assert np.array_equal(gf2.bits("0101"), [0, 1, 0, 1])
    assert np.array_equal(gf2.bits([1, 0]), [1, 0])
    assert gf2.bits([]).size == 0


def test_bits_validates_entries_and_length():
    with pytest.raises(DomainError):
        gf2.bits([0, 2])
    with pytest.raises(DimensionError):
        gf2.bits("101", length=4)


def test_bits_rejects_entries_a_uint8_cast_would_wrap():
    with pytest.raises(DomainError):
        gf2.bits(np.array([256, 1]))


def test_bits_rejects_negative_entries():
    with pytest.raises(DomainError):
        gf2.bits(np.array([-255]))


def test_bits_rejects_fractional_entries():
    with pytest.raises(DomainError):
        gf2.bits(np.array([0.5, 1.7]))


def test_bitmatrix_rejects_fractional_entries():
    with pytest.raises(DomainError):
        gf2.bitmatrix([[0.5, 1.0]])


@pytest.mark.parametrize("text", ["0a", " 1", "1.", "1 ", "+1", "2", "\u0661", "0\u0661", "\ud800"])
def test_bit_strings_are_read_by_the_bit_rule(text):
    """A string's characters other than 0 and 1 raise DomainError, as any
    other non-bit entry does, instead of ValueError from int(); a Unicode
    digit such as the Arabic-Indic one is refused, not read as 1."""
    with pytest.raises(DomainError, match="^bit vector entries must be 0 or 1$"):
        gf2.bits(text)
    with pytest.raises(DomainError, match="^bit vector entries must be 0 or 1$"):
        gf2.bitmatrix(["01", text])


def test_bits_keeps_exact_zeros_and_ones_of_any_dtype():
    for values in ([0, 1], np.array([0.0, 1.0]), np.array([False, True]), np.array([0, 1], dtype=np.int8)):
        got = gf2.bits(values)
        assert got.dtype == np.uint8 and np.array_equal(got, [0, 1])
    v = np.array([1, 0], dtype=np.uint8)
    assert np.shares_memory(gf2.bits(v), v)


def test_bitmatrix_accepts_string_rows():
    m = gf2.bitmatrix(["10", "01"])
    assert np.array_equal(m, np.eye(2, dtype=np.uint8))
    assert np.array_equal(gf2.bitmatrix(["10", "01"]), gf2.bitmatrix([[1, 0], [0, 1]]))


def test_bitmatrix_validates_shape():
    with pytest.raises(DimensionError):
        gf2.bitmatrix([1, 0, 1])
    with pytest.raises(DimensionError):
        gf2.bitmatrix(["101"], rows=2)
    with pytest.raises(DomainError):
        gf2.bitmatrix([[0, 3]])


def test_position_set_sorts_and_dedupes():
    assert np.array_equal(gf2.position_set([3, 1, 3], 5), [1, 3])
    assert gf2.position_set([], 5).size == 0
    with pytest.raises(DomainError):
        gf2.position_set([5], 5)
    with pytest.raises(DomainError):
        gf2.position_set([-1], 5)


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        st.lists(st.integers(-4, 40), max_size=30),
        st.lists(st.integers(-4, 40), max_size=30).map(sorted),
        st.sets(st.integers(-4, 40), max_size=30).map(sorted),
    )
)
def test_position_set_is_unique_of_its_input(members):
    expect = np.unique(np.asarray(members, dtype=np.int64))
    if expect.size and (expect[0] < 0 or expect[-1] >= 36):
        with pytest.raises(DomainError):
            gf2.position_set(members, 36)
        return
    got = gf2.position_set(np.array(members, dtype=np.int64), 36)
    assert got.dtype == expect.dtype
    assert np.array_equal(got, expect)


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        st.lists(st.integers(-4, 40), max_size=30),
        st.lists(st.integers(-4, 40), max_size=30).map(sorted),
        st.sets(st.integers(-4, 40), max_size=30).map(sorted),
    ),
    st.integers(0, 40),
)
def test_position_block_returns_a_valid_block_uncopied(members, universe):
    """An int64 block of distinct positions in range comes back as given,
    sharing memory; a repeat or a position out of range raises."""
    e = np.array(members, dtype=np.int64)
    if len(set(members)) == len(members) and all(0 <= i < universe for i in members):
        got = gf2.position_block(e, universe)
        assert got.dtype == np.int64 and np.array_equal(got, e)
        assert not e.size or np.shares_memory(got, e)
    else:
        with pytest.raises(DomainError):
            gf2.position_block(e, universe)


def test_complement_positions():
    assert np.array_equal(gf2.complement_positions([0, 2], 4), [1, 3])
    assert np.array_equal(gf2.complement_positions([], 3), [0, 1, 2])


def test_matvec_small_example():
    f = gf2.bitmatrix([[1, 1, 0], [0, 1, 1]])
    assert np.array_equal(gf2.matvec(f, [1, 0, 1]), [1, 1])
    with pytest.raises(DimensionError):
        gf2.matvec(f, [1, 0])


def test_row_reduce_rank_examples():
    assert gf2.rank(np.eye(4, dtype=np.uint8)) == 4
    assert gf2.rank(gf2.bitmatrix([[1, 1], [1, 1]])) == 1
    assert gf2.rank(np.zeros((3, 5), dtype=np.uint8)) == 0
    red = gf2.row_reduce(gf2.bitmatrix([[0, 1, 1], [1, 1, 0]]))
    assert red.pivots == (0, 1)
    assert red.rank == 2


@pytest.mark.parametrize("trial", range(20))
def test_kernel_basis_spans_the_kernel(trial):
    rng = np.random.default_rng(400 + trial)
    rows, cols = int(rng.integers(1, 5)), int(rng.integers(2, 9))
    m = gf2.random_bitmatrix(rng, rows, cols)
    kern = gf2.kernel_basis(m)
    assert kern.shape[0] == cols - gf2.rank(m)
    assert gf2.rank(kern) == kern.shape[0]
    for row in kern:
        assert not gf2.matvec(m, row).any()


@pytest.mark.parametrize("trial", range(20))
def test_solve_affine_solves_or_reports_inconsistency(trial):
    rng = np.random.default_rng(500 + trial)
    rows, cols = int(rng.integers(1, 5)), int(rng.integers(2, 9))
    m = gf2.random_bitmatrix(rng, rows, cols)
    x = gf2.matvec(m, gf2.random_bits(rng, cols))
    particular, kern = gf2.solve_affine(m, x)
    assert particular is not None
    assert np.array_equal(gf2.matvec(m, particular), x)
    assert kern.shape[0] == cols - gf2.rank(m)


def test_solve_affine_inconsistent():
    particular, kern = gf2.solve_affine([[1, 1], [1, 1]], [0, 1])
    assert particular is None
    assert kern.shape[0] == 1


def test_solve_affine_zero_rows():
    # no constraints at all: every vector solves
    particular, kern = gf2.solve_affine(np.zeros((0, 3), dtype=np.uint8), [])
    assert np.array_equal(particular, [0, 0, 0])
    assert kern.shape[0] == 3


def test_linear_code_split_and_k():
    code = gf2.LinearCode(f=gf2.bitmatrix(["1100", "0110", "0011"]), r=2, m=1)
    assert code.N == 4
    assert code.k == 1
    assert np.array_equal(code.g, gf2.bitmatrix(["1100", "0110"]))
    assert np.array_equal(code.h, gf2.bitmatrix(["0011"]))


def test_linear_code_validation():
    with pytest.raises(DimensionError):
        gf2.LinearCode(f=gf2.bitmatrix(["11"]), r=1, m=1)
    with pytest.raises(DomainError):
        gf2.LinearCode(f=gf2.bitmatrix(["11", "10", "01"]), r=2, m=1)
    with pytest.raises(DomainError):
        gf2.LinearCode(f=gf2.bitmatrix(["11"]), r=-1, m=2)


def test_linear_code_keeps_numpy_row_counts_as_python_ints():
    """Bool and float row counts are refused in
    test_counts_and_radii_that_are_not_integers_are_refused."""
    code = gf2.LinearCode(f=gf2.bitmatrix(["110", "011"]), r=np.int64(1), m=np.uint8(1))
    assert type(code.r) is int and type(code.m) is int
    assert code.g.shape == code.h.shape == (1, 3)


@settings(max_examples=100, deadline=None)
@given(rows=st.integers(1, 5), extra=st.integers(0, 4), seed=st.integers(0, 2**32 - 1),
       data=st.data())
def test_equal_codes_hash_alike(rows, extra, seed, data):
    """Codes compare and hash by (f, its shape, r, m): the same f given as
    another array type is the same code, a flipped bit or another split
    of the rows is another."""
    f = gf2.random_bitmatrix(np.random.default_rng(seed), rows, rows + extra)
    r = data.draw(st.integers(0, rows))
    code = gf2.LinearCode(f=f, r=r, m=rows - r)
    twin = gf2.LinearCode(f=f.astype(np.int64).tolist(), r=np.int64(r), m=rows - r)
    assert code == twin and hash(code) == hash(twin) and len({code, twin}) == 1
    flipped = f.copy()
    flipped[data.draw(st.integers(0, rows - 1)), data.draw(st.integers(0, rows + extra - 1))] ^= 1
    others = [gf2.LinearCode(f=flipped, r=r, m=rows - r)]
    if r:
        others.append(gf2.LinearCode(f=f, r=r - 1, m=rows - r + 1))
    for other in others:
        assert other != code
    assert code != (f, r, rows - r)


def test_linear_code_keeps_a_read_only_copy_of_f():
    f = gf2.bitmatrix(["110", "011"])
    code = gf2.LinearCode(f=f, r=1, m=1)
    assert gf2.min_distance(code) == 2
    f[0] = 0  # the caller's array is not the code's
    assert np.array_equal(code.f, gf2.bitmatrix(["110", "011"]))
    with pytest.raises(ValueError):
        code.f[0, 0] = 0
    with pytest.raises(ValueError):
        code.h[0, 0] = 1
    assert code.distance == gf2.min_distance(code.f) == 2


def test_parity_code():
    code = gf2.parity_code(5)
    assert code.r == 0 and code.m == 1
    assert np.array_equal(code.f, np.ones((1, 5), dtype=np.uint8))
    assert gf2.min_distance(code) == 5


def test_pack_int_position_zero_most_significant():
    assert gf2.pack_int([1, 0, 0]) == 4
    assert gf2.pack_int([0, 0, 1]) == 1
    assert gf2.pack_int([]) == 0


@pytest.mark.parametrize("trial", range(10))
def test_pack_unpack_roundtrip(trial):
    rng = np.random.default_rng(600 + trial)
    v = gf2.random_bits(rng, int(rng.integers(1, 12)))
    assert np.array_equal(gf2.unpack_int(gf2.pack_int(v), v.size), v)


@settings(max_examples=100, deadline=None)
@given(width=st.integers(0, 200), seed=st.integers(0, 2**32 - 1))
def test_pack_int_is_the_bit_loop_at_any_width(width, seed):
    v = gf2.random_bits(np.random.default_rng(seed), width)
    expected = 0
    for b in v:
        expected = (expected << 1) | int(b)
    assert gf2.pack_int(v) == expected
    assert np.array_equal(gf2.unpack_int(expected, width), v)


@pytest.mark.parametrize("value, length", [(5, 2), (4, 2), (1, 0), (-1, 3), (0, -1), (2**64, 64)])
def test_unpack_int_rejects_a_value_outside_its_width(value, length):
    with pytest.raises(DomainError):
        gf2.unpack_int(value, length)


def test_unpack_int_at_the_edges_of_its_width():
    assert gf2.unpack_int(0, 0).shape == (0,)
    assert np.array_equal(gf2.unpack_int(3, 2), [1, 1])
    assert np.array_equal(gf2.unpack_int(2**64 - 1, 64), np.ones(64))


@pytest.mark.parametrize("trial", range(30))
def test_min_distance_matches_exhaustive_enumeration(trial):
    rng = np.random.default_rng(700 + trial)
    rows, cols = int(rng.integers(1, 5)), int(rng.integers(2, 10))
    f = gf2.random_bitmatrix(rng, rows, cols)
    best = math.inf
    for combo in itertools.product([0, 1], repeat=rows):
        if not any(combo):
            continue
        word = np.zeros(cols, dtype=np.uint8)
        for i, c in enumerate(combo):
            if c:
                word ^= f[i]
        if word.any():
            best = min(best, int(word.sum()))
    assert gf2.min_distance(f) == best


def test_min_distance_zero_span_and_cap():
    assert gf2.min_distance(np.zeros((2, 4), dtype=np.uint8)) == math.inf
    assert gf2.min_distance(np.zeros((0, 4), dtype=np.uint8)) == math.inf
    with pytest.raises(ResourceError):
        gf2.min_distance(np.zeros((25, 26), dtype=np.uint8))


def test_min_distance_runs_at_the_row_cap():
    rows = gf2.MIN_DISTANCE_MAX_ROWS
    f = np.hstack([np.eye(rows, dtype=np.uint8), np.ones((rows, 2), dtype=np.uint8)])
    # one row weighs 3; any two rows cancel the all-ones columns and weigh 2
    assert gf2.min_distance(f) == 2


@st.composite
def bit_matrices(draw, min_rows=0, max_rows=10, min_cols=1, max_cols=130):
    """Random bit matrices; in some the last row is the xor of the first two."""
    rows = draw(st.integers(min_rows, max_rows))
    cols = draw(st.integers(min_cols, max_cols))
    m = gf2.random_bitmatrix(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), rows, cols)
    if rows >= 3 and draw(st.booleans()):
        m[-1] = m[0] ^ m[1]
    return m


def product_span(m):
    """Word i xors the rows of m picked by the bits of i, row 0 most significant."""
    combos = np.array(list(itertools.product((0, 1), repeat=m.shape[0])), dtype=float)
    return (combos @ m % 2).astype(np.uint8)


def unpacked_span(m):
    blocks = list(gf2.span_words(m))
    block = 1 << min(m.shape[0], gf2.SPAN_BLOCK_ROWS)
    assert [len(b) for b in blocks] == [block] * ((1 << m.shape[0]) // block)
    assert all(b.dtype == np.uint64 and b.shape[1] == -(-m.shape[1] // 64) for b in blocks)
    return gf2.unpack_lanes(np.concatenate(blocks), m.shape[1])


@settings(max_examples=100, deadline=None)
@given(bit_matrices())
def test_span_words_matches_itertools_product(m):
    assert np.array_equal(unpacked_span(m), product_span(m))


@settings(max_examples=4, deadline=None)
@given(bit_matrices(min_rows=gf2.SPAN_BLOCK_ROWS + 1, max_rows=gf2.SPAN_BLOCK_ROWS + 1, min_cols=65, max_cols=129))
def test_span_words_across_a_block_boundary(m):
    """One walk crosses a block boundary (17 rows) and a lane boundary."""
    assert np.array_equal(unpacked_span(m), product_span(m))


@pytest.mark.parametrize("rows", [0, 5, gf2.SPAN_BLOCK_ROWS, gf2.SPAN_BLOCK_ROWS + 1])
def test_span_words_blocks_are_fresh_arrays(rows):
    """Writing into a yielded block changes no later walk of the same
    matrix, whether the span is one block or several."""
    m = gf2.random_bitmatrix(np.random.default_rng(rows), rows, 70)
    before = [block.copy() for block in gf2.span_words(m)]
    for block in gf2.span_words(m):
        block ^= np.uint64(2**64 - 1)
    assert all(np.array_equal(a, b) for a, b in zip(gf2.span_words(m), before, strict=True))


def test_writing_into_a_codes_spans_changes_no_later_walk():
    code = gf2.LinearCode(f=gf2.random_bitmatrix(np.random.default_rng(3), 3, 12), r=1, m=2)
    rows_before = np.concatenate(list(gf2.span_words(code.f)))
    kernel_before = np.concatenate(list(gf2.span_words(code.kernel)))
    code.row_span[:] = 0
    code.kernel_span[:] = 1
    assert np.array_equal(np.concatenate(list(gf2.span_words(code.f))), rows_before)
    assert np.array_equal(np.concatenate(list(gf2.span_words(code.kernel))), kernel_before)


@settings(max_examples=200, deadline=None)
@given(
    width=st.one_of(st.sampled_from([0, 63, 64, 65, 128, 129]), st.integers(0, 130)),
    rows=st.integers(0, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_pack_lanes_round_trips(width, rows, seed):
    m = gf2.random_bitmatrix(np.random.default_rng(seed), rows, width)
    words = gf2.pack_lanes(m)
    assert words.dtype == np.uint64 and words.shape == (rows, -(-width // 64))
    assert np.array_equal(gf2.unpack_lanes(words, width), m)


@pytest.mark.parametrize("width", [63, 64, 65, 128, 129])
def test_pack_lanes_puts_position_zero_at_the_top_of_lane_zero(width):
    for j in (0, width // 2, width - 1):
        v = np.zeros(width, dtype=np.uint8)
        v[j] = 1
        lanes = gf2.pack_lanes([v])[0]
        assert [int(x) for x in lanes] == [
            1 << (63 - j % 64) if lane == j // 64 else 0 for lane in range(lanes.size)
        ]


@settings(max_examples=200, deadline=None)
@given(width=st.integers(1, 64), seed=st.integers(0, 2**32 - 1))
def test_one_lane_integer_order_is_lexicographic_order(width, seed):
    m = gf2.random_bitmatrix(np.random.default_rng(seed), 2, width)
    a, b = (int(w) for w in gf2.pack_lanes(m)[:, 0])
    assert (a < b) == (m[0].tolist() < m[1].tolist())
    assert (a == b) == (m[0].tolist() == m[1].tolist())
    if width < 64:
        assert gf2.lane_prefix(gf2.pack_lanes(m), width).tolist() == [gf2.pack_int(row) for row in m]


def python_min_distance(f):
    """Least nonzero weight over the row span, on Python integers alone."""
    span = {0}
    for row in f.tolist():
        word = int("".join(map(str, row)) or "0", 2)
        span |= {x ^ word for x in span}
    return min((bin(x).count("1") for x in span if x), default=math.inf)


@settings(max_examples=60, deadline=None)
@given(bit_matrices(max_rows=9, min_cols=60, max_cols=135))
def test_min_distance_matches_a_python_reference_across_lanes(f):
    assert gf2.min_distance(f) == python_min_distance(f)


@settings(max_examples=40, deadline=None)
@given(
    rows=st.integers(2, 9),
    cols=st.integers(1, 135),
    pick=st.data(),
    seed=st.integers(0, 2**32 - 1),
)
def test_min_distance_with_a_repeated_row(rows, cols, pick, seed):
    """A repeated row puts a zero word inside block 0, past word 0."""
    f = gf2.random_bitmatrix(np.random.default_rng(seed), rows, cols)
    i, j = pick.draw(st.lists(st.integers(0, rows - 1), min_size=2, max_size=2, unique=True))
    f[j] = f[i]
    assert gf2.min_distance(f) == python_min_distance(f)


@pytest.mark.parametrize("cols", [40, 70])
@pytest.mark.parametrize("rows", [gf2.SPAN_BLOCK_ROWS + 1, gf2.SPAN_BLOCK_ROWS + 2])
def test_min_distance_with_a_zero_word_only_past_block_0(rows, cols):
    """Only the last row is dependent, the xor of row 0 and some others:
    the one zero word past word 0 picks row 0, so it lies in a later
    block, and block 0 holds no zero word but its first."""
    rng = np.random.default_rng(rows * 1000 + cols)
    f = gf2.random_bitmatrix(rng, rows, cols)
    assert gf2.rank(f[:-1]) == rows - 1
    picked = gf2.random_bits(rng, rows - 1)
    picked[0] = 1
    f[-1] = gf2.matvec(f[:-1].T, picked)
    assert gf2.rank(f) == rows - 1
    weights = [gf2.lane_weights(block) for block in gf2.span_words(f)]
    assert weights[0][1:].all() and not all(w.all() for w in weights[1:])
    assert gf2.min_distance(f) == python_min_distance(f)


@settings(max_examples=50, deadline=None)
@given(bit_matrices(max_rows=8, min_cols=65))
def test_min_distance_matches_exhaustive_search_on_wide_words(f):
    weights = product_span(f).sum(axis=1)
    expected = int(weights[weights > 0].min()) if weights.any() else math.inf
    assert gf2.min_distance(f) == expected


@settings(max_examples=100, deadline=None)
@given(bit_matrices(max_cols=20))
def test_rank_nullity(m):
    kern = gf2.kernel_basis(m)
    assert gf2.rank(m) + kern.shape[0] == m.shape[1]
    assert gf2.rank(kern) == kern.shape[0]
    assert not any(gf2.matvec(m, v).any() for v in kern)


@settings(max_examples=100, deadline=None)
@given(bit_matrices(max_cols=20), st.integers(0, 2**32 - 1))
def test_solve_affine_agrees_with_matvec(m, seed):
    rng = np.random.default_rng(seed)
    u = gf2.random_bits(rng, m.shape[1])
    particular, kern = gf2.solve_affine(m, gf2.matvec(m, u))
    assert np.array_equal(gf2.matvec(m, particular), gf2.matvec(m, u))
    # every solution is in the coset: u ^ particular lies in the span of kern
    assert gf2.rank(np.vstack([kern, u ^ particular])) == kern.shape[0]
    x = gf2.random_bits(rng, m.shape[0])
    particular, _ = gf2.solve_affine(m, x)
    solvable = gf2.rank(np.hstack([m, x.reshape(-1, 1)])) == gf2.rank(m)
    assert (particular is not None) == solvable
    if solvable:
        assert np.array_equal(gf2.matvec(m, particular), x)


@settings(max_examples=200, deadline=None)
@given(bit_matrices(max_cols=20), st.integers(0, 2**32 - 1), st.booleans())
def test_solve_affine_kernel_is_kernel_basis(m, seed, consistent):
    """The one elimination of [m | x] gives kernel_basis(m) row for row,
    whether or not x lies in the image of m."""
    rng = np.random.default_rng(seed)
    if consistent:
        x = gf2.matvec(m, gf2.random_bits(rng, m.shape[1]))
    else:
        x = gf2.random_bits(rng, m.shape[0])
    particular, kern = gf2.solve_affine(m, x)
    assert np.array_equal(kern, gf2.kernel_basis(m))
    if consistent:
        assert particular is not None
    if particular is not None:
        assert np.array_equal(gf2.matvec(m, particular), x)


def reference_row_reduce(m) -> gf2.RowReduction:
    """RREF by the column-at-a-time numpy elimination that row_reduce
    replaced with row words: for each column, swap up the first row at or
    below the current one with a 1 there, then clear that column from every
    other row."""
    a = gf2.bitmatrix(m).copy()
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
        others = a[:, col].copy()
        others[row] = 0
        a ^= others[:, None] & a[row]
        pivots.append(col)
        row += 1
    return gf2.RowReduction(matrix=a, rank=row, pivots=tuple(pivots))


def reference_kernel(red: gf2.RowReduction, cols: int) -> np.ndarray:
    """One kernel row per free column c below cols: 1 at c, and at each
    pivot the entry of column c in that pivot's row."""
    pivots = [c for c in red.pivots if c < cols]
    rows = []
    for c in range(cols):
        if c not in pivots:
            v = np.zeros(cols, dtype=np.uint8)
            v[c] = 1
            for i, p in enumerate(pivots):
                v[p] = red.matrix[i, c]
            rows.append(v)
    return np.array(rows, dtype=np.uint8).reshape(len(rows), cols)


def reference_solve(m: np.ndarray, x: np.ndarray):
    cols = m.shape[1]
    red = reference_row_reduce(np.concatenate([m, x.reshape(-1, 1)], axis=1))
    kern = reference_kernel(red, cols)
    if cols in red.pivots:
        return None, kern
    particular = np.zeros(cols, dtype=np.uint8)
    for i, c in enumerate(red.pivots):
        particular[c] = red.matrix[i, cols]
    return particular, kern


@pytest.mark.parametrize("cols", [0, 1, 7, 8, 63, 64, 65, 129, 200])
@settings(max_examples=40, deadline=None)
@given(
    rows=st.integers(0, 12),
    density=st.sampled_from([0.1, 0.5, 0.9]),
    dependent=st.booleans(),
    consistent=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@example(rows=0, density=0.5, dependent=False, consistent=False, seed=0)
def test_elimination_on_row_words_is_the_column_loop_bit_for_bit(
    cols, rows, density, dependent, consistent, seed
):
    """row_reduce, rank, kernel_basis, solve_affine and LinearCode.particular
    against the column loop, across the 64-bit word edge and past two words."""
    rng = np.random.default_rng(seed)
    m = (rng.random((rows, cols)) < density).astype(np.uint8)
    if rows >= 3 and dependent:
        m[-1] = m[0] ^ m[1]
    ref = reference_row_reduce(m)
    red = gf2.row_reduce(m)
    assert red.matrix.dtype == np.uint8 and red.matrix.shape == (rows, cols)
    assert np.array_equal(red.matrix, ref.matrix)
    assert (red.rank, red.pivots) == (ref.rank, ref.pivots)
    assert all(type(c) is int for c in red.pivots)
    assert gf2.rank(m) == ref.rank
    assert np.array_equal(gf2.kernel_basis(m), reference_kernel(ref, cols))

    x = gf2.matvec(m, gf2.random_bits(rng, cols)) if consistent else gf2.random_bits(rng, rows)
    particular, kern = gf2.solve_affine(m, x)
    ref_particular, ref_kern = reference_solve(m, x)
    assert np.array_equal(kern, ref_kern)
    assert (particular is None) == (ref_particular is None)
    if particular is not None:
        assert particular.dtype == np.uint8 and np.array_equal(particular, ref_particular)
    if rows <= cols:
        beta0 = gf2.LinearCode(f=m, r=rows, m=0).particular(x)
        assert (beta0 is None) == (ref_particular is None)
        if beta0 is not None:
            assert np.array_equal(beta0, ref_particular)


def test_binary_entropy_values():
    assert gf2.binary_entropy(0.0) == 0.0
    assert gf2.binary_entropy(1.0) == 0.0
    assert gf2.binary_entropy(0.5) == 1.0
    assert abs(gf2.binary_entropy(0.3) - gf2.binary_entropy(0.7)) < 1e-15
    with pytest.raises(DomainError):
        gf2.binary_entropy(1.5)


@pytest.mark.parametrize("y", [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0])
def test_binary_entropy_inverse_roundtrip(y):
    x = gf2.binary_entropy_inverse(y)
    assert 0.0 <= x <= 0.5
    assert abs(gf2.binary_entropy(x) - y) < 1e-10


def test_binary_entropy_inverse_domain():
    with pytest.raises(DomainError):
        gf2.binary_entropy_inverse(-0.1)


@st.composite
def code_matrices(draw):
    """f for a LinearCode (rows <= cols), often square (r + m = N) and, from
    three rows on, sometimes rank-deficient."""
    cols = draw(st.integers(1, 10))
    rows = draw(st.one_of(st.just(cols), st.integers(0, cols)))
    return draw(bit_matrices(min_rows=rows, max_rows=rows, min_cols=cols, max_cols=cols))


@settings(max_examples=200, deadline=None)
@given(code_matrices(), st.integers(0, 2**32 - 1), st.booleans())
def test_linear_code_solver_is_solve_affine_bit_for_bit(f, seed, consistent):
    """The cached [f | I] reduction gives solve_affine's particular solution
    and kernel_basis's rows exactly, and None for a syndrome outside the
    image of f."""
    rng = np.random.default_rng(seed)
    rows = f.shape[0]
    code = gf2.LinearCode(f=f, r=rows // 2, m=rows - rows // 2)
    x = gf2.random_bits(rng, rows)
    if consistent:
        x = gf2.matvec(f, gf2.random_bits(rng, f.shape[1]))
    particular, kern = gf2.solve_affine(f, x)
    beta0 = code.particular(x)
    assert (beta0 is None) == (particular is None)
    if particular is not None:
        assert beta0.dtype == np.uint8 and np.array_equal(beta0, particular)
    assert code.kernel.dtype == np.uint8
    assert np.array_equal(code.kernel, kern)
    assert np.array_equal(code.kernel, gf2.kernel_basis(f))


def test_a_code_row_reduces_once(monkeypatch):
    """The kernel basis and the syndrome map come from one reduction of
    [f | I] per code."""
    reduced = []
    real = gf2._row_reduce
    monkeypatch.setattr(gf2, "_row_reduce", lambda a: reduced.append(a.shape) or real(a))
    code = gf2.LinearCode(f=gf2.bitmatrix(["1110000", "0011100", "0011100"]), r=1, m=2)
    assert code.kernel.shape == (5, 7) and code.particular([1, 0, 0]) is not None
    assert code.kernel_span.shape == (32, 7) and code.particular([0, 1, 0]) is None
    assert reduced == [(3, 10)]


@pytest.mark.parametrize("bad", [[1.5, 2.9], [0.7, 3.2], [True, False], np.array([1.0]),
                                 [1, True], [True], np.array([True])],
                         ids=["floats", "float-bits", "bools", "integral-float",
                              "int-and-bool", "bool", "bool-array"])
@pytest.mark.parametrize("entry", [
    lambda e: gf2.position_set(e, 4),
    lambda e: attacks.store_subset(positions=e),
    lambda e: cosetrho.lemma1_certificate(gf2.parity_code(4), "0000", [0], [1], e, 1, "0000"),
], ids=["position_set", "store_subset", "lemma1_certificate"])
def test_positions_that_are_not_integers_are_refused(entry, bad):
    """A float or bool position raises DomainError instead of being
    truncated; an empty list of positions stays valid."""
    with pytest.raises(DomainError, match="integers"):
        entry(bad)
    entry([])


@functools.cache
def small_params():
    return protocol.ProtocolParams(n=8, m=1, r=0, delta=0.25, N=2)


@functools.cache
def honest_run():
    tr = protocol.run_string_qot(small_params(), [1])
    assert tr.abort_reason is None
    return tr


def ones_code(r, m):
    """A LinearCode of all-ones rows over 3 columns, r + m of them when r
    and m are valid counts (2 otherwise: the code then refuses r or m)."""
    rows = r + m if all(type(c) is int and c >= 0 for c in (r, m)) else 2
    return gf2.LinearCode(f=np.ones((rows, 3), dtype=np.uint8), r=r, m=m)


# Every entry point that reads a count, a size or a radius: (id, a call that
# takes the operand, its least valid value or None when only its type is
# checked here, the name its errors give it). Every entry takes 1.
OPERANDS = [
    ("view_small_distance_defect-t",
     lambda v: attacks.view_small_distance_defect(honest_run(), attacks.honest(), range(8), v),
     0, "ball radius"),
    ("ball_projector-t", lambda v: quantum.ball_projector([0, 1], "00", v), 0, "ball radius"),
    ("random_ok_decomposition-trials",
     lambda v: attacks.random_ok_decomposition(small_params(), v), 1, "trials"),
    ("store_attack_test_statistics-trials",
     lambda v: attacks.store_attack_test_statistics(small_params(), 0.5, v,
                                                    np.random.default_rng(0)),
     1, "trials"),
    ("information_account-budget",
     lambda v: attacks.information_account(small_params(), attacks.honest(),
                                           attacks.InfoMethod.MONTE_CARLO, budget=v),
     1, "budget"),
    ("gv_trials-trials", lambda v: cosetrho.gv_trials(8, 2, 0.0, v, np.random.default_rng),
     1, "trials"),
    ("gv_trials-rows", lambda v: cosetrho.gv_trials(8, v, 0.0, 1, np.random.default_rng),
     0, "rows"),
    ("gv_trials-n_cols", lambda v: cosetrho.gv_trials(v, 0, 0.0, 1, np.random.default_rng),
     None, "n_cols"),
    ("unpack_int-value", lambda v: gf2.unpack_int(v, 1), None, "unpack_int value"),
    ("unpack_int-length", lambda v: gf2.unpack_int(0, v), 0, "unpack_int length"),
    ("LinearCode-r", lambda v: ones_code(r=v, m=1), 0, "r"),
    ("LinearCode-m", lambda v: ones_code(r=1, m=v), 0, "m"),
    ("store_subset-count", lambda v: attacks.store_subset(count=v), 0, "store count"),
    ("run_string_qot-force_c", lambda v: protocol.run_string_qot(small_params(), [1], force_c=v),
     None, "force_c"),
    ("lemma1_certificate-t",
     lambda v: cosetrho.lemma1_certificate(gf2.parity_code(4), "0000", [0], [1], range(4), v,
                                           "0000"),
     0, "ball radius"),
    ("parity_code-n_cols", gf2.parity_code, 1, "n_cols"),
    ("induction_form-n_cols", lambda v: cosetrho.induction_form([], v), 0, "n_cols"),
    ("position_set-universe", lambda v: gf2.position_set([0], v), None, "position universe"),
    ("position_block-universe", lambda v: gf2.position_block([0], v), None, "position universe"),
    ("ProtocolParams-n", lambda v: protocol.ProtocolParams(n=v, m=1, r=0, delta=0.25, N=1),
     1, "n"),
    ("ProtocolParams-m", lambda v: protocol.ProtocolParams(n=8, m=v, r=0, delta=0.25, N=2),
     1, "m"),
    ("ProtocolParams-r", lambda v: protocol.ProtocolParams(n=8, m=1, r=v, delta=0.25, N=2),
     0, "r"),
    ("ProtocolParams-N", lambda v: protocol.ProtocolParams(n=8, m=1, r=0, delta=0.25, N=v),
     1, "N"),
]


@pytest.mark.parametrize("bad", [True, np.True_, 1.5, np.float64(1.0), "1"],
                         ids=["bool", "numpy-bool", "float", "integral-float", "text"])
@pytest.mark.parametrize("entry", [entry for _, entry, _, _ in OPERANDS],
                         ids=[name for name, _, _, _ in OPERANDS])
def test_counts_and_radii_that_are_not_integers_are_refused(entry, bad):
    """A bool, a float or a string where a radius, a count or a size is due
    raises DomainError instead of being read as 1 or truncated; 1 itself
    is valid everywhere."""
    with pytest.raises(DomainError, match="must be an integer"):
        entry(bad)
    entry(1)


@pytest.mark.parametrize("entry, least, what",
                         [row[1:] for row in OPERANDS if row[2] is not None],
                         ids=[row[0] for row in OPERANDS if row[2] is not None])
def test_counts_and_radii_below_their_bound_are_refused(entry, least, what):
    """Each bounded operand goes through gf2.integer's lower bound: the
    bound itself is valid, and one below it raises DomainError naming the
    operand and the bound."""
    entry(least)
    with pytest.raises(DomainError, match=f"{what} must be at least {least}, got {least - 1}"):
        entry(least - 1)


def test_integer_keeps_python_ints_and_reads_numpy_ones():
    value = 2**70
    assert gf2.integer(value, "a size", least=0) is value
    assert type(gf2.integer(np.uint64(2**63), "a size")) is int
    assert gf2.integer(np.int8(-3), "a shift", least=-3) == -3
    with pytest.raises(DomainError, match="a shift must be at least -2, got -3"):
        gf2.integer(np.int8(-3), "a shift", least=-2)


def small_reception():
    return protocol.Reception(protocol.Mode.CLASSICAL_FAST, 2, np.zeros(2, dtype=np.uint8),
                              np.zeros(2, dtype=np.uint8))


# Every entry point that reads a real number, alone or in an array: (id, a
# call that takes the operand and returns what it made of it, the name its
# errors give it). Every entry takes 0.25.
NUMBER_OPERANDS = [
    ("ChannelModel-p", lambda v: protocol.ChannelModel(v).p, "flip probability"),
    ("ProtocolParams-delta",
     lambda v: protocol.ProtocolParams(n=8, m=1, r=0, delta=v, N=2).delta, "delta"),
    ("ProtocolParams-epsilon",
     lambda v: protocol.ProtocolParams(n=8, m=1, r=0, delta=0.25, N=2, epsilon=v).epsilon,
     "epsilon"),
    ("ProtocolParams-noise_p",
     lambda v: protocol.ProtocolParams(n=8, m=1, r=0, delta=0.25, N=2, noise_p=v).noise_p,
     "flip probability"),
    ("Reception.measure",
     lambda v: small_reception().measure(0, v, np.random.default_rng(0)), "measurement angle"),
    ("Reception.measure_many",
     lambda v: small_reception().measure_many([0, 1], v, np.random.default_rng(0)).tolist(),
     "measurement angles"),
    ("AttackStrategy-angle", lambda v: attacks.fixed_basis(v).angle, "angle"),
    ("store_attack_test_statistics-fraction",
     lambda v: attacks.store_attack_test_statistics(small_params(), v, 2,
                                                    np.random.default_rng(0)),
     "fraction"),
    ("information_account-prior",
     lambda v: attacks.information_account(small_params(), attacks.honest(),
                                           prior=[v, 0.75]).mutual_information,
     "prior"),
    ("gv_trials-eta", lambda v: cosetrho.gv_trials(8, 2, v, 1, np.random.default_rng), "eta"),
    ("binary_entropy", gf2.binary_entropy, "binary_entropy argument"),
    ("binary_entropy_inverse", gf2.binary_entropy_inverse, "binary_entropy_inverse argument"),
    ("angle_basis", lambda v: quantum.angle_basis(v).tolist(), "rotation angle"),
    ("density_from_ensemble",
     lambda v: quantum.density_from_ensemble(np.eye(2), [v, 0.75]).tolist(),
     "ensemble probabilities"),
]


@pytest.mark.parametrize("bad", [True, np.True_, "0.3", None, math.nan, math.inf, -math.inf,
                                 10**400],
                         ids=["bool", "numpy-bool", "text", "none", "nan", "inf", "-inf",
                              "past-float"])
@pytest.mark.parametrize("entry, what", [row[1:] for row in NUMBER_OPERANDS],
                         ids=[row[0] for row in NUMBER_OPERANDS])
def test_numbers_that_are_not_finite_ints_or_floats_are_refused(entry, what, bad):
    """A bool, text, None, NaN, +-inf or an int past the float range where
    a real number is due raises DomainError naming the operand, by the
    rule of gf2.number, instead of being read as 1 or 0.3, a TypeError, a
    NaN result or a bisection that never ends. An epsilon of None is its
    default, 8 delta."""
    if bad is None and what == "epsilon":
        assert entry(bad) == 2.0
        return
    with pytest.raises(DomainError, match=what):
        entry(bad)


@pytest.mark.parametrize("entry", [row[1] for row in NUMBER_OPERANDS],
                         ids=[row[0] for row in NUMBER_OPERANDS])
def test_numpy_floats_are_read_as_python_floats(entry):
    """np.float64 is accepted wherever a Python float is, gives the same
    result and is kept as a Python float."""
    got, want = entry(np.float64(0.25)), entry(0.25)
    assert got == want and type(got) is type(want)


def test_number_keeps_python_ints_and_floats():
    assert gf2.number(0, "delta") == 0 and type(gf2.number(np.int64(3), "delta")) is int
    assert type(gf2.number(np.float32(0.5), "delta")) is float
    assert '"delta":0,' in protocol.run_string_qot(
        protocol.ProtocolParams(n=8, m=1, r=0, delta=0, N=2), [1]).to_json()
    angles = np.array([0.5, 1.5])
    assert gf2.numbers(angles, "angles") is angles
    with pytest.raises(DomainError, match="angles must be numbers"):
        gf2.numbers([0.5, True], "angles")  # numpy reads it as [0.5, 1.0]


def test_a_universe_that_is_not_an_integer_is_refused():
    """position_set and position_block read their universe by gf2.integer,
    so 1.5 no longer bounds positions as if it were an int; a numpy
    integer universe still works."""
    for call in (gf2.position_set, gf2.position_block):
        with pytest.raises(DomainError, match="position universe must be an integer"):
            call([1], 1.5)
        with pytest.raises(DomainError, match="position universe must be an integer"):
            call([], True)
        assert call([1], np.int64(2)).tolist() == [1]


@pytest.mark.parametrize("bad", [[2**63], [2**64 - 1], np.array([2**63], dtype=np.uint64)],
                         ids=["list", "top", "uint64-array"])
def test_positions_past_int64_are_refused_not_wrapped(bad):
    """numpy reads a JSON or Python integer in [2^63, 2^64) as uint64, which
    int64 would wrap to a negative position."""
    with pytest.raises(DomainError, match="below 2\\^63"):
        gf2.position_array(bad)
    with pytest.raises(DomainError, match="below 2\\^63"):
        attacks.store_subset(positions=bad)
    top = np.array([0, 2**63 - 1], dtype=np.uint64)
    assert gf2.position_array(top).tolist() == [0, 2**63 - 1]


def test_int64_positions_come_back_uncopied():
    e = np.array([4, 1, 7], dtype=np.int64)
    assert np.shares_memory(gf2.position_array(e), e)


def test_particular_solutions_are_solved_once_per_syndrome(monkeypatch):
    """A code keeps each syndrome's solution, None included, read-only in
    its memo; another code solves its own."""
    solved = []
    real = gf2.LinearCode._solve
    monkeypatch.setattr(gf2.LinearCode, "_solve", lambda self, x: solved.append(x) or real(self, x))
    code = gf2.LinearCode(f=gf2.bitmatrix(["110", "110"]), r=1, m=1)
    first = code.particular([1, 1])
    assert code.particular(np.array([1, 1], dtype=np.int64)) is first
    assert code.particular([0, 1]) is None and code.particular([0, 1]) is None
    assert len(solved) == 2
    with pytest.raises(ValueError):
        first[0] = 0
    other = gf2.LinearCode(f=gf2.bitmatrix(["110", "110"]), r=1, m=1)
    assert np.array_equal(other.particular([1, 1]), first) and len(solved) == 3


def test_memo_keeps_at_most_memo_max_results():
    """The first MEMO_MAX results are kept, arrays read-only; past the bound
    each is computed again on every call and returned as computed."""
    memo = gf2.Memo()
    computed = []
    kept = memo.get("array", lambda: np.zeros(60, dtype=np.uint8))
    assert memo.get("array", lambda: pytest.fail("kept result recomputed")) is kept
    assert not kept.flags.writeable
    for key in range(gf2.Memo.MEMO_MAX + 4):
        assert memo.get(key, lambda: computed.append(key) or key * 2) == key * 2
    assert memo.get(0, lambda: pytest.fail("kept result recomputed")) == 0
    last = gf2.Memo.MEMO_MAX + 3
    assert memo.get(last, lambda: computed.append(last) or last * 2) == last * 2
    assert computed.count(last) == 2 and len(computed) == gf2.Memo.MEMO_MAX + 5
    past = memo.get("late array", lambda: np.zeros(4, dtype=np.uint8))
    assert past.flags.writeable and memo.get("late array", lambda: past.copy()) is not past
