import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import (
    Piece,
    block_piece,
    enum_piece,
    factor_matrix,
    identity,
    induced_by,
    is_upper_triangular,
    seq_matrix_cells,
    seq_matrix_letter,
    step_forms,
)
from parikhseq import packed
from parikhseq.counting import count_gapped, fragment_counts
from parikhseq.intmat import IntMatrix
from parikhseq.parikh import parikh_matrix
from parikhseq.seqmat import (
    BLOCKS,
    SeqFold,
    SeqMatrix,
    minor_index_set,
    seq_matrix,
    seq_matrix_direct,
)
from parikhseq.words import Alphabet, GapPattern, PatternError

ABC_SIGMA = GapPattern(("abc",))
AB_C = GapPattern.parse("ab.c")
A_ABA_A = GapPattern.parse("a.aba.a")


def blocks_of(sm):
    return {name: [list(r) for r in block.rows] for name, block in sm.blocks().items()}


def random_word(rng, alphabet, max_len):
    return "".join(rng.choice(alphabet) for _ in range(rng.randint(0, max_len)))


def random_pattern(rng, alphabet, min_flat=2):
    while True:
        factors = tuple(
            "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 3)))
            for _ in range(rng.randint(1, 3))
        )
        if sum(map(len, factors)) >= min_flat:
            return GapPattern(factors)


class TestEntryLayout:
    def test_gapped_pattern_cells(self):
        q = AB_C
        assert block_piece(q, "E", 1, 1) == Piece(("a",), False, True)
        assert block_piece(q, "E", 1, 2) == Piece(("ab",), False, False)
        assert block_piece(q, "E", 2, 2) == Piece(("b",), False, False)
        assert block_piece(q, "F", 1, 2) == Piece(("ab", "c"), False, False)
        assert block_piece(q, "S", 1, 1) == Piece(("b",), True, False)
        assert block_piece(q, "S", 2, 2) == Piece(("c",), False, False)
        assert block_piece(q, "C", 1, 2) == Piece(("b",), True, False)
        # diagonal: empty piece, both-anchored off boundaries, free on them
        assert block_piece(q, "C", 1, 1) == Piece((), True, True)
        assert block_piece(q, "C", 2, 2) == Piece((), False, False)

    def test_bullet_free_pattern_reduces_to_factor_layout(self):
        q = ABC_SIGMA
        assert block_piece(q, "E", 1, 1) == Piece(("a",), False, True)
        assert block_piece(q, "E", 1, 2) == Piece(("ab",), False, True)
        assert block_piece(q, "F", 1, 2) == Piece(("abc",), False, False)
        assert block_piece(q, "S", 1, 2) == Piece(("bc",), True, False)
        assert block_piece(q, "C", 1, 2) == Piece(("b",), True, True)
        assert block_piece(q, "C", 1, 1) == Piece((), True, True)
        assert block_piece(q, "C", 2, 2) == Piece((), True, True)

    def test_three_factor_pattern_corner_cells(self):
        q = A_ABA_A
        # suffix cell at a boundary column is unanchored
        assert block_piece(q, "E", 1, 1) == Piece(("a",), False, False)
        # whole-block cell with both ends on boundaries is a plain factor count
        assert block_piece(q, "C", 1, 4) == Piece(("aba",), False, False)

    def test_full_matrix_cells(self):
        # block placement in the 6x6 matrix of ab.c: E at (1, 3), F at
        # (1, 5), C at (3, 3), identity on the outer diagonal blocks
        sm = seq_matrix_direct(AB_C, "babcab")
        m = sm.matrix
        assert m.dim == 6
        assert (m.entry(1, 1), m.entry(5, 5), m.entry(6, 6)) == (1, 1, 1)
        assert m.entry(2, 1) == 0
        assert block_piece(AB_C, "E", 1, 1) == Piece(("a",), False, True)
        assert m.entry(1, 3) == sm.block("E").entry(1, 1)
        assert block_piece(AB_C, "F", 1, 2) == Piece(("ab", "c"), False, False)
        assert m.entry(1, 6) == sm.block("F").entry(1, 2)
        assert block_piece(AB_C, "C", 2, 2) == Piece((), False, False)
        assert m.entry(4, 4) == sm.block("C").entry(2, 2) == 1
        with pytest.raises(ValueError):
            block_piece(AB_C, "E", 0, 1)
        with pytest.raises(ValueError):
            sm.block("X")

    def test_flat_length_one_rejected(self):
        with pytest.raises(PatternError):
            seq_matrix_direct(GapPattern(("a",)), "")


class TestFactorMatrix:
    def test_single_letter_word(self):
        sm = factor_matrix("abc", "b")
        assert blocks_of(sm) == {
            "E": [[0, 0], [0, 1]],
            "F": [[0, 0], [0, 0]],
            "C": [[0, 1], [0, 0]],
            "S": [[1, 0], [0, 0]],
        }

    def test_longer_word(self):
        sm = factor_matrix("abc", "cabc")
        assert blocks_of(sm) == {
            "E": [[0, 0], [0, 0]],
            "F": [[1, 1], [0, 1]],
            "C": [[0, 0], [0, 0]],
            "S": [[0, 0], [0, 1]],
        }

    def test_product_matches_concatenation(self):
        lhs = factor_matrix("abc", "b").matrix * factor_matrix("abc", "cabc").matrix
        combined = factor_matrix("abc", "bcabc")
        assert lhs == combined.matrix
        assert blocks_of(combined) == {
            "E": [[0, 0], [0, 0]],
            "F": [[1, 1], [0, 2]],
            "C": [[0, 0], [0, 0]],
            "S": [[1, 1], [0, 0]],
        }

    def test_empty_word_is_identity(self):
        assert factor_matrix("abc", "").matrix == identity(6)

    def test_two_letter_sigma_is_three_by_three(self):
        # cells: ends-with-a, count of ab, is-empty, starts-with-b
        m = factor_matrix("ab", "ba").matrix
        assert m.dim == 3
        assert (m.entry(1, 2), m.entry(1, 3), m.entry(2, 2), m.entry(2, 3)) == (
            1, 0, 0, 1,
        )
        m = factor_matrix("ab", "aab").matrix
        assert (m.entry(1, 2), m.entry(1, 3), m.entry(2, 2), m.entry(2, 3)) == (
            0, 1, 0, 0,
        )
        assert factor_matrix("ab", "").matrix == identity(3)

    def test_short_sigma_rejected(self):
        with pytest.raises(PatternError):
            factor_matrix("a", "abc")


class TestSequenceMatrix:
    def test_first_factor_word(self):
        assert blocks_of(seq_matrix(AB_C, "babcab")) == {
            "E": [[0, 2], [0, 3]],
            "F": [[2, 1], [0, 2]],
            "C": [[0, 1], [0, 1]],
            "S": [[1, 1], [0, 1]],
        }

    def test_second_factor_word(self):
        assert blocks_of(seq_matrix(AB_C, "cbcba")) == {
            "E": [[1, 0], [0, 2]],
            "F": [[0, 0], [0, 1]],
            "C": [[0, 0], [0, 1]],
            "S": [[0, 0], [0, 2]],
        }

    def test_product_blocks(self):
        product = seq_matrix(AB_C, "babcab").matrix * seq_matrix(AB_C, "cbcba").matrix
        assert product == seq_matrix(AB_C, "babcabcbcba").matrix
        combined = seq_matrix(AB_C, "babcabcbcba")
        assert blocks_of(combined) == {
            "E": [[1, 2], [0, 5]],
            "F": [[2, 5], [0, 9]],
            "C": [[0, 1], [0, 1]],
            "S": [[1, 3], [0, 3]],
        }

    def test_empty_word_is_identity_for_every_pattern(self):
        for text in ("ab.c", "a.aba.a", "abc", "ab.ba.b"):
            q = GapPattern.parse(text)
            n = 3 * (q.flat_length - 1)
            assert seq_matrix(q, "").matrix == identity(n)
            assert seq_matrix_direct(q, "").matrix == identity(n)

    def test_flat_length_one_rejected(self):
        with pytest.raises(PatternError):
            seq_matrix(GapPattern(("a",)), "")

    def test_wrong_dimension_rejected(self):
        # ab.c has block dimension 2, so its matrices are 6 x 6
        with pytest.raises(ValueError, match="does not match pattern dim 6"):
            SeqMatrix(AB_C, identity(9))

    def test_fields_refuse_assignment(self):
        sm = seq_matrix(AB_C, "babcab")
        for name in ("pattern", "matrix", "other"):
            with pytest.raises(AttributeError):
                setattr(sm, name, getattr(sm, name, None))
            with pytest.raises(AttributeError):
                delattr(sm, name)

    def test_equal_values_hash_equal(self):
        fold, direct = seq_matrix(AB_C, "babcab"), seq_matrix_direct(AB_C, "babcab")
        assert fold == direct and hash(fold) == hash(direct)
        assert fold != seq_matrix(AB_C, "babca")
        # the same matrix under another pattern of the same dimension differs
        assert SeqMatrix(GapPattern.parse("ab.b"), fold.matrix) != fold


class TestLetterGenerators:
    def test_pattern_letter_cells(self):
        m = seq_matrix_letter(AB_C, "b")
        sm_blocks = blocks_of(seq_matrix(AB_C, "b"))
        assert m == seq_matrix_direct(AB_C, "b").matrix
        assert sm_blocks["C"][0][1] == 1
        assert sm_blocks["E"][1][1] == 1
        assert sm_blocks["F"] == [[0, 0], [0, 0]]

    def test_letter_outside_pattern(self):
        m = seq_matrix_letter(AB_C, "d")
        sm = seq_matrix(AB_C, "d")
        assert m == sm.matrix
        assert blocks_of(sm) == {
            "E": [[0, 0], [0, 0]],
            "F": [[0, 0], [0, 0]],
            "C": [[0, 0], [0, 1]],
            "S": [[0, 0], [0, 0]],
        }

    def test_three_factor_letter_cells(self):
        sm_blocks = blocks_of(seq_matrix(A_ABA_A, "a"))
        assert sm_blocks["E"][0][0] == 1
        assert sm_blocks["S"][3][3] == 1
        assert sm_blocks["C"][0][1] == 1
        assert sm_blocks["C"][2][3] == 1
        assert seq_matrix_letter(A_ABA_A, "a") == seq_matrix_direct(A_ABA_A, "a").matrix

    def test_invalid_letter(self):
        with pytest.raises(PatternError):
            seq_matrix_letter(AB_C, "!")
        with pytest.raises(PatternError):
            seq_matrix_letter(AB_C, "ab")


class TestDirectEqualsFold:
    def test_fuzzed(self):
        rng = random.Random(30)
        for _ in range(200):
            q = random_pattern(rng, "abc")
            w = random_word(rng, "abc", 20)
            assert seq_matrix(q, w) == seq_matrix_direct(q, w)

    def test_fold_object_is_incremental(self):
        fold = SeqFold(AB_C)
        for ch in "babcab":
            fold.push(ch)
        assert fold.result() == seq_matrix(AB_C, "babcab")
        # keep pushing after taking a result
        fold.extend("cbcba")
        assert fold.result() == seq_matrix(AB_C, "babcabcbcba")


@st.composite
def pattern_and_word(draw):
    """Gap pattern of flat length 2-12 and a word of 0-40 letters, both over
    a 2- or 3-letter alphabet, plus a split point of the word."""
    alphabet = draw(st.sampled_from(["ab", "abc"]))
    letters = st.sampled_from(alphabet)
    flat = "".join(draw(st.lists(letters, min_size=2, max_size=12)))
    cuts = sorted(draw(st.sets(st.integers(1, len(flat) - 1))))
    bounds = [0, *cuts, len(flat)]
    pattern = GapPattern(tuple(flat[i:j] for i, j in zip(bounds, bounds[1:])))
    word = "".join(draw(st.lists(letters, max_size=40)))
    return pattern, word, draw(st.integers(0, len(word)))


class TestFoldProperties:
    @settings(max_examples=150, deadline=None)
    @given(pattern_and_word())
    def test_fold_equals_direct(self, case):
        q, w, split = case
        fold = SeqFold(q)
        fold.extend(w[:split])
        early = fold.result()
        assert early == seq_matrix_direct(q, w[:split])
        # pushing after result() continues the same fold ...
        fold.extend(w[split:])
        assert fold.result() == seq_matrix_direct(q, w)
        # ... and leaves the earlier result as it was, though columns are shared
        assert early == seq_matrix_direct(q, w[:split])

    @pytest.mark.parametrize("pattern", ["abababababababababab.ab", "ab.ba.ab.ba.ab"])
    def test_long_word_sparse_and_dense(self, pattern):
        q = GapPattern.parse(pattern)
        rng = random.Random(33)
        w = "".join(rng.choice("ab") for _ in range(3000))
        assert seq_matrix(q, w) == seq_matrix_direct(q, w)

    @pytest.mark.parametrize("letter", ["!", "ab", "", " "])
    def test_invalid_letter_leaves_state(self, letter):
        fold = SeqFold(AB_C)
        fold.extend("abcab")
        before = fold.result()
        with pytest.raises(PatternError):
            fold.push(letter)
        assert fold.result() == before
        fold.extend("cba")
        assert fold.result() == seq_matrix_direct(AB_C, "abcabcba")


class TestPackedColumns:
    """SeqFold packs each column into one int whose limbs widen when the
    letter count reaches 2**16, 2**17, ..."""

    @pytest.mark.parametrize("pattern", ["abababababababababab.ab", "ab.ba.ab.ba.ab"])
    def test_fold_across_the_width_step(self, pattern):
        q = GapPattern.parse(pattern)
        rng = random.Random(37)
        w = "".join(rng.choice("ab") for _ in range(2**16 + 5))
        fold = SeqFold(q)
        fold.extend(w[: 2**16 - 1])
        assert step_forms(fold) == {"generated"}  # the widen rebuilds generated steps
        early = fold.result()
        assert early == seq_matrix_direct(q, w[: 2**16 - 1])
        fold.push(w[2**16 - 1])
        assert step_forms(fold) == {"generated"}
        assert fold.result() == seq_matrix_direct(q, w[: 2**16])
        fold.extend(w[2**16 :])
        assert fold.result() == seq_matrix_direct(q, w)
        # a result taken before the columns were repacked stays as it was
        assert early == seq_matrix_direct(q, w[: 2**16 - 1])

    def test_single_run_entry_past_sixteen_bits(self):
        # F counts the 2**16 + 3 factors ab: without widening, its 17-bit
        # limb would reach the guard bit
        q = GapPattern.parse("ab")
        w = "ab" * (2**16 + 3)
        result = seq_matrix(q, w)
        assert result.block("F").entry(1, 1) == 2**16 + 3
        assert result == seq_matrix_direct(q, w)

    def test_thirty_one_runs(self):
        q = GapPattern(tuple("ab" * 15 + "a"))
        rng = random.Random(38)
        w = "".join(rng.choice("ab") for _ in range(3000))
        assert seq_matrix(q, w) == seq_matrix_direct(q, w)

    def test_guard_bit_raises_on_too_narrow_limbs(self, monkeypatch):
        # one-run limbs of 2 + 1 bits hold entries up to 3; F reaches 4
        # after four ab
        monkeypatch.setattr(packed, "_run_bits", lambda n: 2)
        q = GapPattern.parse("ab")
        fold = SeqFold(q)
        fold.extend("ababab")
        assert fold.result() == seq_matrix_direct(q, "ababab")
        fold.extend("ab")
        with pytest.raises(RuntimeError, match="overflowed"):
            fold.result()


class TestGeneratedSteps:
    """A fold walks each letter's plan for its first packed._LOOP_LETTERS
    letters, then runs one generated function per letter."""

    SWITCH = packed._LOOP_LETTERS + 1  # the push that generates the steps

    @pytest.mark.parametrize("pattern", ["ab.b.ab", "ab.ba.ab.ba.ab", "abc.ca.bc.ab.c"])
    def test_fold_equals_direct_around_the_switch(self, pattern):
        q = GapPattern.parse(pattern)
        rng = random.Random(39)
        w = "".join(rng.choice("abc") for _ in range(self.SWITCH + 80))
        fold = SeqFold(q)
        done = 0
        # just before, at and past the switch
        for n, form in ((self.SWITCH - 1, "loop"), (self.SWITCH, "generated"), (len(w), "generated")):
            fold.extend(w[done:n])
            done = n
            assert step_forms(fold) == {form}
            assert fold.result() == seq_matrix_direct(q, w[:n])

    def test_thirty_one_runs_past_the_switch(self):
        # W = 31 * 16 + 1 bits, so the unit of E's row 30 is
        # 1 << 29 * 497, which has over 4300 decimal digits: a generated
        # step binds it as a default instead of printing it
        q = GapPattern(tuple("ab" * 15 + "a"))
        rng = random.Random(40)
        w = "".join(rng.choice("ab") for _ in range(self.SWITCH + 5))
        fold = SeqFold(q)
        fold.extend(w)
        assert step_forms(fold) == {"generated"}
        assert fold.result() == seq_matrix_direct(q, w)

    def test_guard_bit_raises_after_the_switch(self, monkeypatch):
        # as in TestPackedColumns, limbs of 2 + 1 bits and F reaching 4
        # after four ab; the prefix of b keeps every entry below 2
        monkeypatch.setattr(packed, "_run_bits", lambda n: 2)
        q = GapPattern.parse("ab")
        w = "b" * self.SWITCH + "ababab"
        fold = SeqFold(q)
        fold.extend(w)
        assert step_forms(fold) == {"generated"}
        assert fold.result() == seq_matrix_direct(q, w)
        fold.extend("ab")
        with pytest.raises(RuntimeError, match="overflowed"):
            fold.result()

    @pytest.mark.parametrize("length", [SWITCH - 1, SWITCH + 10])
    @pytest.mark.parametrize("letter", ["!", "ab", ""])
    def test_invalid_letter_leaves_state(self, length, letter):
        # at SWITCH - 1 letters the rejected push would have been the switch
        rng = random.Random(41)
        w = "".join(rng.choice("abc") for _ in range(length))
        fold = SeqFold(AB_C)
        fold.extend(w)
        before = fold.result()
        with pytest.raises(PatternError):
            fold.push(letter)
        assert fold.result() == before
        fold.extend("cba")
        assert step_forms(fold) == {"generated"}
        assert fold.result() == seq_matrix_direct(AB_C, w + "cba")


class TestHomomorphism:
    def test_fuzzed_exact(self):
        rng = random.Random(31)
        for _ in range(200):
            q = random_pattern(rng, "abc")
            w1 = random_word(rng, "abc", 20)
            w2 = random_word(rng, "abc", 20)
            lhs = seq_matrix(q, w1).matrix * seq_matrix(q, w2).matrix
            assert lhs == seq_matrix(q, w1 + w2).matrix


class TestStructuralInvariants:
    def test_whole_block_diagonal(self):
        rng = random.Random(32)
        for _ in range(100):
            q = random_pattern(rng, "ab")
            w = random_word(rng, "ab", 8)
            c = seq_matrix(q, w).block("C")
            d = q.flat_length - 1
            for i in range(1, d + 1):
                expected = 1 if i in q.boundaries else (1 if w == "" else 0)
                assert c.entry(i, i) == expected

    def test_upper_triangular_with_unit_outer_blocks(self):
        rng = random.Random(33)
        for _ in range(50):
            q = random_pattern(rng, "ab")
            w = random_word(rng, "ab", 10)
            m = seq_matrix(q, w).matrix
            assert is_upper_triangular(m)
            d = q.flat_length - 1
            for i in range(1, d + 1):
                assert m.entry(i, i) == 1
                assert m.entry(2 * d + i, 2 * d + i) == 1

    def test_minor_cells_count_gapped_occurrences(self):
        rng = random.Random(34)
        for _ in range(100):
            q = random_pattern(rng, "ab")
            w = random_word(rng, "ab", 10)
            full = seq_matrix(q, w).matrix
            idx = minor_index_set(q)
            x = len(q.factors)
            for i in range(1, x + 1):
                for j in range(i, x + 1):
                    expected = count_gapped(w, q.factor_slice(i, j))
                    assert full.entry(idx[i - 1], idx[j]) == expected

    def test_single_letter_factors_match_induced_parikh_matrix(self):
        rng = random.Random(35)
        for _ in range(80):
            x = rng.randint(2, 3)
            factors = tuple(rng.choice("ab") for _ in range(x))
            q = GapPattern(factors)
            w = random_word(rng, "ab", 10)
            idx = minor_index_set(q)
            minor = seq_matrix(q, w).matrix.minor(idx, idx)
            ctx = induced_by("".join(factors), Alphabet.parse("ab"))
            assert minor == parikh_matrix(ctx, w)


class TestDirectAgainstEnumeration:
    def test_every_cell_counts_its_piece(self):
        rng = random.Random(36)
        for _ in range(30):
            q = random_pattern(rng, "ab")
            w = random_word(rng, "ab", 8)
            sm = seq_matrix_direct(q, w)
            d = q.flat_length - 1
            for name in BLOCKS:
                block = sm.block(name)
                for i in range(1, d + 1):
                    for j in range(i, d + 1):
                        cell = block_piece(q, name, i, j)
                        expected = enum_piece(
                            w, cell.runs, cell.left_anchored, cell.right_anchored
                        )
                        assert block.entry(i, j) == expected


@st.composite
def cells_case(draw):
    """A pattern of 1-6 factors drawn from a pool of 1-3, so factors repeat,
    and a word of 0-60 letters over one or two of the pattern's letters (c
    in a pattern over abc is then absent from the word)."""
    letters = draw(st.sampled_from(["a", "ab", "abc"]))
    pool = draw(st.lists(st.text(letters, min_size=1, max_size=3), min_size=1, max_size=3))
    factors = tuple(draw(st.lists(st.sampled_from(pool), min_size=1, max_size=6)))
    assume(sum(map(len, factors)) >= 2)
    word = draw(st.text(draw(st.sampled_from(["a", "ab", letters])), max_size=60))
    return GapPattern(factors), word


class TestDirectAgainstCells:
    """seq_matrix_direct fills each row from one walk; the oracle counts
    every cell as its own piece."""

    @settings(max_examples=200, deadline=None)
    @given(cells_case())
    def test_rows_equal_cells(self, case):
        q, w = case
        assert seq_matrix_direct(q, w) == seq_matrix_cells(q, w)

    @pytest.mark.parametrize(
        "pattern, word, blocks",
        [
            # S and C row 1 start at b, anchored, and w starts with a
            ("ab.c", "abc", {"E": [[0, 1], [0, 1]], "F": [[1, 1], [0, 1]],
                             "C": [[0, 0], [0, 1]], "S": [[0, 0], [0, 1]]}),
            # the walk from 1 finds no ab at the boundary 2 and stops
            ("ab.a", "ba", {"E": [[1, 0], [0, 1]], "F": [[0, 0], [0, 1]],
                            "C": [[0, 1], [0, 1]], "S": [[1, 1], [0, 1]]}),
            # E(1, 2) pins aa, longer than w, to the end; C(1, 2) pins a,
            # equal to w, to both ends
            ("aab", "a", {"E": [[1, 0], [0, 1]], "F": [[0, 0], [0, 0]],
                          "C": [[0, 1], [0, 0]], "S": [[1, 0], [0, 0]]}),
            # C(1, 2) pins b to both ends: w = b, then w = bb
            ("abc", "b", {"E": [[0, 0], [0, 1]], "F": [[0, 0], [0, 0]],
                          "C": [[0, 1], [0, 0]], "S": [[1, 0], [0, 0]]}),
            ("abc", "bb", {"E": [[0, 0], [0, 1]], "F": [[0, 0], [0, 0]],
                           "C": [[0, 0], [0, 0]], "S": [[1, 0], [0, 0]]}),
            # d = 1: ends with a, count of ab, is empty, starts with b
            ("ab", "aab", {"E": [[0]], "F": [[1]], "C": [[0]], "S": [[0]]}),
            ("ab", "ba", {"E": [[1]], "F": [[0]], "C": [[0]], "S": [[1]]}),
            # d = 1 on a boundary: counts of a, a.b and b
            ("a.b", "abab", {"E": [[2]], "F": [[3]], "C": [[1]], "S": [[2]]}),
            ("a.b", "", {"E": [[0]], "F": [[0]], "C": [[1]], "S": [[0]]}),
        ],
    )
    def test_edge_cases(self, pattern, word, blocks):
        q = GapPattern.parse(pattern)
        sm = seq_matrix_direct(q, word)
        assert blocks_of(sm) == blocks
        assert sm == seq_matrix_cells(q, word) == seq_matrix(q, word)

    def test_walk_stops_at_a_zero_count(self):
        # from 1 over ab.a: a ends w, ab is absent, so ab.a is too
        memo = {}
        assert fragment_counts("ba", "aba", {2}, 1, False, memo) == ([1, 0, 0], [1, 0, 0])
        assert memo == {"a": [2], "ab": []}

    def test_anchored_first_run_not_a_prefix(self):
        # from 2, anchored: b is not a prefix of abc; the memo is not used
        memo = {}
        assert fragment_counts("abc", "abc", {2}, 2, True, memo) == ([0, 0], [0, 0])
        assert memo == {}
        # b is a prefix of bcb, and c starts past it but does not end w
        assert fragment_counts("bcb", "abc", {2}, 2, True, memo) == ([1, 1], [1, 0])
