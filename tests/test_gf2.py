"""Exact GF(2) helpers: representation, elimination, codes, distances."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qotsim import gf2
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


def test_complement_positions():
    assert np.array_equal(gf2.complement_positions([0, 2], 4), [1, 3])
    assert np.array_equal(gf2.complement_positions([], 3), [0, 1, 2])


def test_bitxor_bitdot():
    assert np.array_equal(gf2.bitxor("1100", "1010"), [0, 1, 1, 0])
    assert gf2.bitdot("110", "011") == 1
    assert gf2.bitdot("110", "001") == 0
    with pytest.raises(DimensionError):
        gf2.bitxor("11", "1")
    with pytest.raises(DimensionError):
        gf2.bitdot("11", "1")


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


def test_in_row_span():
    m = gf2.bitmatrix([[1, 1, 0], [0, 1, 1]])
    assert gf2.in_row_span(m, [1, 0, 1])
    assert not gf2.in_row_span(m, [1, 0, 0])
    assert gf2.in_row_span(m, [0, 0, 0])


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
    return np.unpackbits(np.concatenate(blocks), axis=1, count=m.shape[1])


@settings(max_examples=100, deadline=None)
@given(bit_matrices())
def test_span_words_matches_itertools_product(m):
    assert np.array_equal(unpacked_span(m), product_span(m))


@settings(max_examples=4, deadline=None)
@given(bit_matrices(min_rows=gf2.SPAN_BLOCK_ROWS + 1, max_rows=gf2.SPAN_BLOCK_ROWS + 1, max_cols=24))
def test_span_words_across_a_block_boundary(m):
    assert np.array_equal(unpacked_span(m), product_span(m))


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
    assert gf2.in_row_span(kern, u ^ particular)  # every solution is in the coset
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


def test_hamming_distances():
    assert gf2.hamming_distance("1010", "0010") == 1
    with pytest.raises(DimensionError):
        gf2.hamming_distance("10", "1")
    # only positions inside e count
    assert gf2.hamming_distance_on([0, 2], "101", "001") == 1
    assert gf2.hamming_distance_on([], "101", "001") == 0


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
