import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from braidinv import (
    EnumerationLimitError,
    LaurentPolynomial,
    WheelGraph,
    determinant_fraction_free,
    is_perfect_square,
    laplacian,
    lucas,
    residue_mod8,
    spanning_trees_bruteforce,
    wheel_spanning_trees,
)


def test_lucas_golden_values():
    assert [lucas(n) for n in range(1, 13)] == [
        1, 3, 4, 7, 11, 18, 29, 47, 76, 123, 199, 322,
    ]


def test_lucas_recurrence_holds_far_out():
    for n in (40, 97, 300):
        assert lucas(n) == lucas(n - 1) + lucas(n - 2)


def test_lucas_mod_8_has_period_12():
    residues = [lucas(n) % 8 for n in range(1, 201)]
    assert residues[:12] == [1, 3, 4, 7, 3, 2, 5, 7, 4, 3, 7, 2]
    for i in range(len(residues) - 12):
        assert residues[i + 12] == residues[i]


def test_lucas_rejects_nonpositive_index():
    with pytest.raises(ValueError):
        lucas(0)


def test_lucas_grows_past_100_digits():
    assert len(str(lucas(482))) == 101
    assert len(str(lucas(484))) == 102


def test_wheel_graph_shape():
    g = WheelGraph(5)
    assert g.vertex_count == 6
    assert g.hub == 5
    assert len(g.edges()) == 10
    degrees = [0] * g.vertex_count
    for a, b in g.edges():
        degrees[a] += 1
        degrees[b] += 1
    assert degrees == [3, 3, 3, 3, 3, 5]


def test_wheel_graph_rim_two_has_doubled_edge():
    g = WheelGraph(2)
    assert sorted(tuple(sorted(e)) for e in g.edges()) == [
        (0, 1), (0, 1), (0, 2), (1, 2),
    ]


def test_wheel_graph_validates_rim():
    with pytest.raises(ValueError):
        WheelGraph(1)


def test_laplacian_rows_sum_to_zero():
    g = WheelGraph(4)
    m = laplacian(g)
    for row in m:
        assert sum(row) == 0
    assert m[g.hub][g.hub] == 4


def test_determinant_fraction_free():
    assert determinant_fraction_free([[2, 1], [1, 2]]) == 3
    assert determinant_fraction_free([[0, 1], [1, 0]]) == -1
    assert determinant_fraction_free([[1, 2], [2, 4]]) == 0
    assert determinant_fraction_free([[7]]) == 7


def test_determinant_matches_cofactor_expansion():
    m = [
        [4, -1, 0, -1],
        [-1, 3, -1, 0],
        [0, -1, 4, -1],
        [-1, 0, -1, 3],
    ]

    def det(rows):
        if len(rows) == 1:
            return rows[0][0]
        total = 0
        for j, lead in enumerate(rows[0]):
            if not lead:
                continue
            minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
            total += (-1) ** j * lead * det(minor)
        return total

    assert determinant_fraction_free(m) == det(m)


def _cofactor_det(rows):
    if len(rows) == 1:
        return rows[0][0]
    total = LaurentPolynomial()
    for j, lead in enumerate(rows[0]):
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        total += (-1) ** j * lead * _cofactor_det(minor)
    return total


# Sparse entries, so that later pivots vanish too and force row swaps.
laurent = st.one_of(
    st.just(LaurentPolynomial()),
    st.dictionaries(st.integers(-3, 3), st.integers(-4, 4), max_size=3).map(
        LaurentPolynomial
    ),
)


@st.composite
def laurent_matrices(draw):
    size = draw(st.integers(1, 5))
    m = [[draw(laurent) for _ in range(size)] for _ in range(size)]
    if draw(st.booleans()):
        m[0][0] = LaurentPolynomial()
    if draw(st.booleans()):
        # Make the last row a combination of the others: singular.
        factors = [draw(laurent) for _ in range(size - 1)]
        m[-1] = [
            sum((f * row[j] for f, row in zip(factors, m)), LaurentPolynomial())
            for j in range(size)
        ]
    return m


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(laurent_matrices())
def test_determinant_fraction_free_over_laurent_polynomials(m):
    det = determinant_fraction_free(m)
    assert isinstance(det, LaurentPolynomial)
    assert det == _cofactor_det(m)


def test_determinant_fraction_free_refuses_a_matrix_that_is_not_square():
    for matrix, lengths in (
        ([[1, 2]], "1 rows of lengths [2]"),
        ([[1, 2, 3], [4, 5, 6]], "2 rows of lengths [3, 3]"),
        ([[1, 2], [3]], "2 rows of lengths [2, 1]"),
        ([[1], []], "2 rows of lengths [1, 0]"),
    ):
        with pytest.raises(ValueError) as excinfo:
            determinant_fraction_free(matrix)
        assert str(excinfo.value) == f"determinant needs a square matrix, got {lengths}"


# Which entries may be nonzero.  Elimination skips every row whose entry in
# the pivot column is zero, so these shapes leave rows behind for several
# steps before they are used again.
SHAPES = {
    "full": lambda i, j, size: True,
    "tridiagonal": lambda i, j, size: abs(i - j) <= 1,
    # The wheel minors: tridiagonal plus a dense last row and column.
    "arrow": lambda i, j, size: abs(i - j) <= 1 or size - 1 in (i, j),
    "upper arrow": lambda i, j, size: abs(i - j) <= 1 or 0 in (i, j),
}


@st.composite
def sparse_matrices(draw, entries, zero):
    size = draw(st.integers(1, 6))
    shape = SHAPES[draw(st.sampled_from(sorted(SHAPES)))]
    m = [
        [draw(entries) if shape(i, j, size) and draw(st.booleans()) else zero
         for j in range(size)]
        for i in range(size)
    ]
    if draw(st.booleans()):
        # Make the last row a combination of the others: singular.
        factors = [draw(entries) for _ in range(size - 1)]
        m[-1] = [sum((f * row[j] for f, row in zip(factors, m)), zero) for j in range(size)]
    return m


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(sparse_matrices(st.integers(-5, 5), 0))
@example([[0, 0, 1], [0, 2, 0], [0, 3, 4]])  # singular: no pivot in column 0
@example([[1, 0, 2], [0, 0, 0], [3, 0, 5]])  # a zero row: no pivot in column 1
@example([[2, 0, 1], [0, 3, 0], [4, 0, 2]])  # singular at the last step
def test_determinant_fraction_free_on_sparse_integer_matrices(m):
    det = determinant_fraction_free(m)
    assert isinstance(det, int)
    assert det == _cofactor_det(m)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(sparse_matrices(laurent, LaurentPolynomial()))
@example([[LaurentPolynomial({1: 1}), LaurentPolynomial()], [LaurentPolynomial()] * 2])
def test_determinant_fraction_free_on_sparse_laurent_matrices(m):
    assert determinant_fraction_free(m) == _cofactor_det(m)


def test_determinant_fraction_free_swaps_in_a_row_that_skipped_steps():
    # Row 3 has zeros in columns 0 and 1, so it skips steps 0 and 1; step 2
    # finds a zero pivot and swaps it in, then eliminates row 4 with it.  The
    # row it swaps out (zero in column 2) skips step 2 and ends up last.  Had
    # the swap left the two rows' levels behind, the swapped-in row would be
    # scaled by p_1 / p_0 = 21 / 5, which no integer division gets right.
    m = [
        [5, 1, 1, 3, 1],
        [4, 5, 2, 6, 2],
        [5, 1, 1, 4, 1],
        [0, 0, 3, 1, 2],
        [0, 1, 1, 2, 5],
    ]
    det = _cofactor_det(m)
    assert det != 0
    assert determinant_fraction_free(m) == det
    t = LaurentPolynomial({1: 1})
    m = [[entry * t for entry in row] for row in m]
    assert determinant_fraction_free(m) == _cofactor_det(m) == det * t**5


def test_wheel_spanning_tree_golden_values():
    assert [wheel_spanning_trees(n) for n in (2, 3, 4, 5, 6)] == [
        5, 16, 45, 121, 320,
    ]


def test_wheel_spanning_trees_match_lucas():
    for n in range(2, 25):
        assert wheel_spanning_trees(n) == lucas(2 * n) - 2


def test_wheel_spanning_trees_match_lucas_up_to_200():
    for n in range(2, 201):
        assert wheel_spanning_trees(n) == lucas(2 * n) - 2, n


def test_bruteforce_agrees_with_matrix_tree():
    for n in range(2, 7):
        g = WheelGraph(n)
        assert spanning_trees_bruteforce(g) == wheel_spanning_trees(n)


def test_bruteforce_refuses_large_graphs():
    with pytest.raises(EnumerationLimitError):
        spanning_trees_bruteforce(WheelGraph(11))
    assert spanning_trees_bruteforce(WheelGraph(11), max_edges=22) == lucas(22) - 2


def test_is_perfect_square():
    assert is_perfect_square(0) == (True, 0)
    assert is_perfect_square(121) == (True, 11)
    assert is_perfect_square(2) == (False, None)
    assert is_perfect_square(-4) == (False, None)
    big = (10 ** 60 + 7) ** 2
    assert is_perfect_square(big) == (True, 10 ** 60 + 7)


def test_residue_mod8():
    assert residue_mod8(47) == 7
    assert residue_mod8(123) == 3
    assert residue_mod8(121) == 1
