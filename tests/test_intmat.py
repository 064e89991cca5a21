import json
import random
from decimal import Decimal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    dense_product,
    det_cofactor,
    from_json_dict,
    identity,
    is_upper_triangular,
    matrix_diff,
)
from parikhseq.intmat import IntMatrix
from parikhseq.seqmat import seq_matrix, seq_matrix_direct
from parikhseq.words import GapPattern


def random_matrix(rng, dim, lo=-9, hi=9):
    return IntMatrix([[rng.randint(lo, hi) for _ in range(dim)] for _ in range(dim)])


class TestMultiply:
    def test_letter_matrix_chain(self):
        # the four single-letter factors of abcb over a<b<c, multiplied out
        def unit_with(q):
            rows = [[1 if i == j else 0 for j in range(4)] for i in range(4)]
            rows[q][q + 1] = 1
            return IntMatrix(rows)

        product = unit_with(0) * unit_with(1) * unit_with(2) * unit_with(1)
        assert product == IntMatrix(
            [[1, 1, 2, 1], [0, 1, 2, 1], [0, 0, 1, 1], [0, 0, 0, 1]]
        )

    def test_identity(self):
        rng = random.Random(10)
        a = random_matrix(rng, 5)
        assert a * identity(5) == a
        assert identity(5) * a == a

    def test_associative(self):
        rng = random.Random(11)
        for _ in range(50):
            dim = rng.randint(1, 5)
            a, b, c = (random_matrix(rng, dim) for _ in range(3))
            assert (a * b) * c == a * (b * c)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            identity(2) * identity(3)

    def test_triangular_closure(self):
        rng = random.Random(12)
        for _ in range(50):
            dim = rng.randint(1, 5)
            def upper(unit):
                rows = [
                    [
                        (1 if unit else rng.randint(0, 5)) if i == j
                        else (rng.randint(0, 5) if j > i else 0)
                        for j in range(dim)
                    ]
                    for i in range(dim)
                ]
                return IntMatrix(rows)

            assert is_upper_triangular(upper(False) * upper(False))
            assert (upper(True) * upper(True)).is_unit_upper_triangular()


@st.composite
def small_entry_matrices(draw) -> IntMatrix:
    """1-6-dimensional matrices over {-1, 0, 1, 2}; each draw either fills
    the part below the diagonal or leaves it zero, and either fills the
    diagonal or sets it to 1, so every combination of the two checks occurs."""
    dim = draw(st.integers(1, 6))
    entry = st.sampled_from([0, 1, -1, 2])
    fill_lower, fill_diagonal = draw(st.booleans()), draw(st.booleans())
    rows = [
        [
            draw(entry)
            if (j > i or (j < i and fill_lower) or (i == j and fill_diagonal))
            else int(i == j)
            for j in range(dim)
        ]
        for i in range(dim)
    ]
    return IntMatrix(rows)


class TestUnitUpperTriangular:
    @settings(max_examples=400, deadline=None)
    @given(small_entry_matrices())
    def test_matches_triangular_oracle_and_unit_diagonal(self, m):
        unit_diagonal = all(m.rows[i][i] == 1 for i in range(m.dim))
        assert m.is_unit_upper_triangular() == (is_upper_triangular(m) and unit_diagonal)


NONZERO = st.one_of(st.integers(-5, -1), st.integers(1, 5), st.sampled_from([10**40, -10**40]))


@st.composite
def sparse_matrices(draw, dim: int) -> IntMatrix:
    """The identity, the zero matrix, or at most half the cells nonzero."""
    kind = draw(st.sampled_from(["identity", "zero", "sparse"]))
    if kind == "identity":
        return identity(dim)
    cells = [0] * (dim * dim)
    if kind == "sparse":
        filled = draw(st.sets(st.integers(0, dim * dim - 1), max_size=dim * dim // 2))
        for cell in filled:
            cells[cell] = draw(NONZERO)
    return IntMatrix([cells[i * dim : (i + 1) * dim] for i in range(dim)])


@st.composite
def sparse_pairs(draw) -> tuple[IntMatrix, IntMatrix]:
    dim = draw(st.integers(1, 12))
    return draw(sparse_matrices(dim)), draw(sparse_matrices(dim))


class TestSparseProduct:
    """The product skips zero entries; the dense textbook sum is its oracle."""

    @settings(max_examples=300, deadline=None)
    @given(sparse_pairs())
    def test_matches_dense_product(self, pair):
        a, b = pair
        assert a * b == dense_product(a, b)

    def test_four_blocks_at_the_largest_stream_pattern(self):
        # d = 30: 90 x 90 matrices, the homomorphism the benchmark relies on
        q = GapPattern.parse("abbabaabbaababbabaababbabaab.abb")
        rng = random.Random(17)
        blocks = ["".join(rng.choice("ab") for _ in range(300)) for _ in range(4)]
        product = identity(90)
        for block in blocks:
            product = product * seq_matrix_direct(q, block).matrix
        assert product == seq_matrix(q, "".join(blocks)).matrix

    def test_non_matrix_operand(self):
        m = identity(2)
        assert m.__mul__(2) is NotImplemented
        with pytest.raises(TypeError):
            m * 2


class TestMinor:
    M = IntMatrix([[1, 2, 0, 0], [0, 1, 1, 0], [0, 0, 1, 2], [0, 0, 0, 1]])

    def test_selection(self):
        assert self.M.minor([1, 2], [2, 3]) == IntMatrix([[2, 0], [1, 1]])

    def test_full_selection_is_identity_operation(self):
        assert self.M.minor(range(1, 5), range(1, 5)) == self.M

    def test_single_cell(self):
        assert self.M.minor([1], [4]) == IntMatrix([[0]])

    def test_errors(self):
        with pytest.raises(ValueError):
            self.M.minor([1, 2], [1])
        with pytest.raises(ValueError):
            self.M.minor([0], [1])
        with pytest.raises(ValueError):
            self.M.minor([5], [1])

    def test_entry_accessor(self):
        assert self.M.entry(1, 2) == 2
        assert self.M.entry(3, 4) == 2
        with pytest.raises(ValueError):
            self.M.entry(0, 1)


class TestDeterminant:
    def test_unit_upper_triangular(self):
        m = IntMatrix([[1, 7, 3], [0, 1, -2], [0, 0, 1]])
        assert m.det() == 1

    def test_two_by_two(self):
        assert IntMatrix([[2, 0], [1, 1]]).det() == 2

    def test_single_zero(self):
        assert IntMatrix([[0]]).det() == 0

    def test_zero_pivot_needs_swap(self):
        assert IntMatrix([[0, 1], [1, 0]]).det() == -1

    def test_singular(self):
        assert IntMatrix([[1, 2], [2, 4]]).det() == 0

    def test_matches_cofactor_expansion(self):
        rng = random.Random(13)
        for _ in range(300):
            dim = rng.randint(1, 4)
            m = random_matrix(rng, dim)
            assert m.det() == det_cofactor([list(r) for r in m.rows])

    def test_larger_dims_against_cofactor(self):
        rng = random.Random(14)
        for _ in range(40):
            m = random_matrix(rng, 5)
            assert m.det() == det_cofactor([list(r) for r in m.rows])

    def test_big_integers_stay_exact(self):
        big = 10**30
        m = IntMatrix([[big, 1], [1, big]])
        assert m.det() == big * big - 1


class TestJson:
    def test_round_trip(self):
        m = IntMatrix([[10**25, -3], [0, 7]])
        data = json.loads(json.dumps(m.to_json_dict()))
        assert data["dim"] == 2
        assert data["rows"][0][0] == str(10**25)
        assert from_json_dict(data) == m

    def test_dim_mismatch_rejected(self):
        with pytest.raises(ValueError):
            from_json_dict({"dim": 3, "rows": [["1"]]})


class TestValueType:
    def test_fields_refuse_assignment(self):
        m = IntMatrix([[1, 2], [3, 4]])
        for name in ("rows", "dim", "other"):
            with pytest.raises(AttributeError):
                setattr(m, name, getattr(m, name, None))
            with pytest.raises(AttributeError):
                delattr(m, name)
        assert m.rows == ((1, 2), (3, 4)) and m.dim == 2

    def test_equal_values_hash_equal(self):
        a = IntMatrix([[1, 2], [3, 4]])
        b = IntMatrix(((True, 2), (3, 4)))  # any rows of ints, kept as int tuples
        assert a == b and hash(a) == hash(b)
        assert a != IntMatrix([[1, 2], [3, 5]])
        assert len({a, b, IntMatrix([[1, 2], [3, 5]])}) == 2
        assert type(b.rows[0][0]) is int

    @pytest.mark.parametrize("entry", [2.5, 3.0, "3", Decimal(3)])
    def test_non_integer_entries_refused(self, entry):
        # an exact matrix is never rounded or parsed into one
        with pytest.raises(TypeError):
            IntMatrix([[1, entry], [0, 1]])


class TestDiff:
    def test_reports_differing_cells(self):
        a = IntMatrix([[1, 2], [3, 4]])
        b = IntMatrix([[1, 5], [3, 4]])
        assert matrix_diff(a, b) == [(1, 2, 2, 5)]
        assert matrix_diff(a, a) == []
