import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import enum_subword, identity, induced_by, is_classic, letter_matrix
from parikhseq import packed
from parikhseq.counting import count_subword
from parikhseq.intmat import IntMatrix
from parikhseq.minors import check_minor_nonneg
from parikhseq.parikh import (
    ParikhContext,
    ParikhFold,
    parikh_matrix,
    parikh_matrix_direct,
)
from parikhseq.words import Alphabet, PatternError

ABC = Alphabet.parse("abc")


class TestLetterMatrix:
    def test_classic_single_positions(self):
        ctx = ParikhContext.classic(ABC)
        assert letter_matrix(ctx, "a") == IntMatrix(
            [[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
        )
        assert letter_matrix(ctx, "b") == IntMatrix(
            [[1, 0, 0, 0], [0, 1, 1, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
        )

    def test_repeated_inducing_letter_sets_several_cells(self):
        ctx = induced_by("aa")
        expected = IntMatrix([[1, 1, 0], [0, 1, 1], [0, 0, 1]])
        assert letter_matrix(ctx, "a") == expected
        # cross-check against the entry law on the one-letter word
        assert letter_matrix(ctx, "a") == parikh_matrix_direct(ctx, "a")

    def test_unknown_symbol(self):
        with pytest.raises(PatternError):
            letter_matrix(ParikhContext.classic(ABC), "z")


class TestParikhMatrix:
    def test_worked_example(self):
        ctx = ParikhContext.classic(ABC)
        assert parikh_matrix(ctx, "abcb") == IntMatrix(
            [[1, 1, 2, 1], [0, 1, 2, 1], [0, 0, 1, 1], [0, 0, 0, 1]]
        )

    def test_empty_word_is_identity(self):
        for inducing in ("abc", "aa", "cdc"):
            ctx = induced_by(inducing)
            assert parikh_matrix(ctx, "") == identity(len(inducing) + 1)

    def test_extended_mapping_values(self):
        ctx = induced_by("cdc")
        m = parikh_matrix(ctx, "cdc")
        assert m.entry(1, 2) == 2
        assert m.entry(1, 3) == 1
        assert m.entry(1, 4) == 1
        assert m.entry(2, 3) == 1
        assert m.entry(2, 4) == 1
        assert m.entry(3, 4) == 2
        assert m == parikh_matrix_direct(ctx, "cdc")

    def test_unknown_symbol_in_word(self):
        with pytest.raises(PatternError):
            parikh_matrix(ParikhContext.classic(ABC), "abz")

    def test_classic_flag(self):
        assert is_classic(ParikhContext.classic(ABC))
        assert not is_classic(induced_by("cdc"))
        assert not is_classic(ParikhContext(ABC, "ba"))


class TestHomomorphism:
    def test_fuzzed_exact(self):
        rng = random.Random(20)
        for _ in range(300):
            inducing = "".join(rng.choice("abc") for _ in range(rng.randint(1, 4)))
            ctx = induced_by(inducing, ABC)
            w1 = "".join(rng.choice("abc") for _ in range(rng.randint(0, 10)))
            w2 = "".join(rng.choice("abc") for _ in range(rng.randint(0, 10)))
            assert parikh_matrix(ctx, w1) * parikh_matrix(ctx, w2) == parikh_matrix(
                ctx, w1 + w2
            )


class TestEntryLaw:
    def test_every_cell_counts_a_subword(self):
        rng = random.Random(21)
        for _ in range(200):
            inducing = "".join(rng.choice("abc") for _ in range(rng.randint(1, 4)))
            ctx = induced_by(inducing, ABC)
            w = "".join(rng.choice("abc") for _ in range(rng.randint(0, 10)))
            assert parikh_matrix(ctx, w) == parikh_matrix_direct(ctx, w)

    def test_direct_equals_fold_on_a_long_word(self):
        ctx = induced_by("abcba")
        rng = random.Random(31)
        w = "".join(rng.choice("abc") for _ in range(300))
        assert parikh_matrix_direct(ctx, w) == parikh_matrix(ctx, w)

    def test_direct_oracle_against_enumeration(self):
        rng = random.Random(24)
        for _ in range(60):
            inducing = "".join(rng.choice("ab") for _ in range(rng.randint(1, 3)))
            ctx = induced_by(inducing, Alphabet.parse("ab"))
            w = "".join(rng.choice("ab") for _ in range(rng.randint(0, 8)))
            m = parikh_matrix_direct(ctx, w)
            for i in range(1, ctx.dim):
                for j in range(i, ctx.dim):
                    assert m.entry(i, j + 1) == enum_subword(w, inducing[i - 1 : j])

    def test_against_enumeration_oracle(self):
        rng = random.Random(22)
        for _ in range(60):
            ctx = ParikhContext.classic(Alphabet.parse("ab"))
            w = "".join(rng.choice("ab") for _ in range(rng.randint(0, 10)))
            m = parikh_matrix(ctx, w)
            assert m.entry(1, 2) == enum_subword(w, "a")
            assert m.entry(1, 3) == enum_subword(w, "ab")
            assert m.entry(2, 3) == enum_subword(w, "b")


class TestMinorNonnegativity:
    def test_exhaustive_binary_words(self):
        ctx = ParikhContext.classic(Alphabet.parse("ab"))
        for n in range(7):
            for letters in product("ab", repeat=n):
                m = parikh_matrix(ctx, "".join(letters))
                assert check_minor_nonneg(m, m.dim).all_nonnegative

    def test_random_words_up_to_dim_five(self):
        rng = random.Random(23)
        for alpha_text in ("abc", "abcd"):
            ctx = ParikhContext.classic(Alphabet.parse(alpha_text))
            for _ in range(40):
                w = "".join(
                    rng.choice(alpha_text) for _ in range(rng.randint(0, 12))
                )
                m = parikh_matrix(ctx, w)
                assert check_minor_nonneg(m, m.dim).all_nonnegative


class TestPackedColumns:
    """ParikhFold packs each column into one int whose limbs widen when the
    letter count reaches 2**16, 2**17, ..."""

    @pytest.mark.parametrize("inducing", ["ab", "abcba"])
    def test_fold_across_the_width_step(self, inducing):
        ctx = induced_by(inducing)  # classic for ab
        rng = random.Random(25)
        w = "".join(rng.choice(ctx.alphabet.concat()) for _ in range(2**16 + 5))
        fold = ParikhFold(ctx)
        fold.extend(w[: 2**16 - 1])
        assert fold._runner is not None
        early = fold.result()
        assert early == parikh_matrix_direct(ctx, w[: 2**16 - 1])
        fold.push(w[2**16 - 1])
        assert fold._runner is None  # the widen drops the runner ...
        assert fold.result() == parikh_matrix_direct(ctx, w[: 2**16])
        fold.extend(w[2**16 :])
        assert fold._runner is not None  # ... and the next string rebuilds it
        final = fold.result()
        assert final == parikh_matrix_direct(ctx, w)
        assert final.entry(1, len(inducing) + 1) == count_subword(w, inducing)
        # a result taken before the columns were repacked stays as it was
        assert early == parikh_matrix_direct(ctx, w[: 2**16 - 1])

    def test_single_letter_entry_past_sixteen_bits(self):
        # k = 1: without widening, the 17-bit limb of the count of a would
        # reach the guard bit
        ctx = induced_by("a")
        assert parikh_matrix(ctx, "a" * (2**16 + 3)).entry(1, 2) == 2**16 + 3

    def test_guard_bit_raises_on_too_narrow_limbs(self, monkeypatch):
        # with k = 2, limbs of 2 * 2 + 1 bits hold entries up to 15; the
        # count of ab as a subword is 15 after (ab)^5 and 21 after (ab)^6
        monkeypatch.setattr(packed, "_run_bits", lambda n: 2)
        ctx = ParikhContext.classic(Alphabet.parse("ab"))
        fold = ParikhFold(ctx)
        fold.extend("ab" * 5)
        assert fold.result() == parikh_matrix_direct(ctx, "ab" * 5)
        fold.extend("ab")
        with pytest.raises(RuntimeError, match="overflowed"):
            fold.result()

    @settings(max_examples=150, deadline=None)
    @given(
        st.text(alphabet="abc", min_size=1, max_size=6),
        st.text(alphabet="abc", max_size=40),
    )
    def test_fold_equals_direct(self, inducing, w):
        ctx = induced_by(inducing, ABC)
        assert parikh_matrix(ctx, w) == parikh_matrix_direct(ctx, w)


class TestGeneratedSteps:
    """A fold pushes its first packed._LOOP_LETTERS letters one by one,
    walking each letter's plan; from letter 1025 on, extend folds each
    string through one generated chunk runner that inlines every letter's
    plan."""

    SWITCH = packed._LOOP_LETTERS + 1  # the first letter a runner folds

    @pytest.mark.parametrize("inducing", ["ab", "abcba"])
    def test_fold_equals_direct_around_the_switch(self, inducing):
        ctx = induced_by(inducing)
        rng = random.Random(26)
        w = "".join(rng.choice(ctx.alphabet.concat()) for _ in range(self.SWITCH + 80))
        fold = ParikhFold(ctx)
        done = 0
        # just before, at and past the switch
        for n, runs in ((self.SWITCH - 1, False), (self.SWITCH, True), (len(w), True)):
            fold.extend(w[done:n])
            done = n
            assert (fold._runner is not None) == runs
            assert fold.result() == parikh_matrix_direct(ctx, w[:n])

    def test_guard_bit_raises_after_the_switch(self, monkeypatch):
        # as in TestPackedColumns, limbs of 2 * 2 + 1 bits and the count of
        # ab reaching 21 after (ab)^6; c, outside the inducing word, changes
        # no entry
        monkeypatch.setattr(packed, "_run_bits", lambda n: 2)
        ctx = ParikhContext(ABC, "ab")
        w = "c" * self.SWITCH + "ab" * 5
        fold = ParikhFold(ctx)
        fold.extend(w)
        assert fold._runner is not None
        assert fold.result() == parikh_matrix_direct(ctx, w)
        fold.extend("ab")
        with pytest.raises(RuntimeError, match="overflowed"):
            fold.result()

    @pytest.mark.parametrize("inducing", ["ab", "abcba"])
    def test_one_step_per_letter(self, inducing):
        # no update clears a column, so every column stays live: the fold
        # keeps one table, with one step per letter pushed, and past the
        # switch its runner reaches no mask but _ALL
        ctx = ParikhContext(ABC, inducing)
        for length in (40, self.SWITCH + 200):
            rng = random.Random(28)
            w = "".join(rng.choice("abc") for _ in range(length))
            fold = ParikhFold(ctx)
            fold.extend(w)
            assert list(fold._tables) == [packed._ALL]
            assert sorted(fold._steps) == sorted(set(w[: packed._LOOP_LETTERS]))
            if length >= self.SWITCH:
                assert fold._runner[2] == [packed._ALL]
            assert fold.result() == parikh_matrix_direct(ctx, w)

    @pytest.mark.parametrize("length", [SWITCH - 1, SWITCH + 10])
    def test_invalid_letter_leaves_state(self, length):
        # at SWITCH - 1 letters the rejected push would have been the
        # runner's first letter; extend checks every letter of its string
        # before it folds any
        ctx = ParikhContext.classic(ABC)
        rng = random.Random(27)
        w = "".join(rng.choice("abc") for _ in range(length))
        fold = ParikhFold(ctx)
        fold.extend(w)
        before = fold.result()
        for letter in ("z", None):
            with pytest.raises(PatternError):
                fold.push(letter)
            assert fold.result() == before
        with pytest.raises(PatternError, match="'z'"):
            fold.extend("abc" * 20 + "z")
        assert fold.result() == before
        fold.extend("cba")
        assert fold._runner is not None
        assert fold.result() == parikh_matrix_direct(ctx, w + "cba")

    @pytest.mark.parametrize("length", [5, SWITCH + 10])
    def test_invalid_chunk_leaves_state(self, length):
        # extend checks every letter of its string against the alphabet
        # before it folds any, in both phases, and names the first letter
        # of the string outside it
        ctx = ParikhContext.classic(ABC)
        rng = random.Random(29)
        w = "".join(rng.choice("abc") for _ in range(length))
        fold = ParikhFold(ctx)
        fold.extend(w)
        before = fold.result()
        with pytest.raises(PatternError, match="'z'"):
            fold.extend("abc" * 20 + "zy")
        assert fold._n == length
        assert fold.result() == before
        fold.extend("cba")
        assert fold.result() == parikh_matrix_direct(ctx, w + "cba")
