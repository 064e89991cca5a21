import random
from itertools import product

import pytest

from oracles import enum_subword, induced_by, is_classic
from parikhseq.intmat import IntMatrix
from parikhseq.minors import check_minor_nonneg
from parikhseq.parikh import (
    ParikhContext,
    letter_matrix,
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
            assert parikh_matrix(ctx, "") == IntMatrix.identity(len(inducing) + 1)

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
