import hashlib
import random
import time
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import identity, witness_parikh_fold
from parikhseq.counting import count_gapped
from parikhseq.intmat import IntMatrix
from parikhseq.minors import (
    check_minor_nonneg,
    minor_index_set,
    special_minor,
    special_minor_from_matrix,
    verify_witness,
    witness_parikh_matrix,
    witness_text,
    witness_word,
)
from parikhseq.parikh import ParikhContext, parikh_matrix, parikh_matrix_direct
from parikhseq.seqmat import seq_matrix
from parikhseq.words import Alphabet, GapPattern, PatternError

A_ABA_A = GapPattern.parse("a.aba.a")
REFERENCE_MINOR = IntMatrix([[1, 2, 0, 0], [0, 1, 1, 0], [0, 0, 1, 2], [0, 0, 0, 1]])


def random_word(rng, alphabet, max_len):
    return "".join(rng.choice(alphabet) for _ in range(rng.randint(0, max_len)))


def seeded_word(seed, alphabet, n):
    return "".join(random.Random(seed).choices(alphabet, k=n))


def random_pattern(rng, alphabet, max_factors=3):
    factors = tuple(
        "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 3)))
        for _ in range(rng.randint(1, max_factors))
    )
    return GapPattern(factors)


class TestSpecialMinor:
    def test_three_factor_example(self):
        assert special_minor(A_ABA_A, "aba") == REFERENCE_MINOR

    def test_two_factor_example(self):
        q = GapPattern.parse("ab.c")
        assert special_minor(q, "babcabcbcba") == IntMatrix(
            [[1, 2, 5], [0, 1, 3], [0, 0, 1]]
        )

    def test_single_letter_factors_give_classic_matrix(self):
        q = GapPattern.parse("a.b")
        expected = IntMatrix([[1, 1, 1], [0, 1, 1], [0, 0, 1]])
        assert special_minor(q, "ab") == expected
        ctx = ParikhContext.classic(Alphabet.parse("ab"))
        assert expected == parikh_matrix(ctx, "ab")

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_rows_equal_cell_by_cell_counts(self, data):
        # factors drawn from a small pool repeat, and those with c never
        # occur in the word over ab
        run = st.lists(st.sampled_from("abc"), min_size=1, max_size=3).map("".join)
        pool = data.draw(st.lists(run, min_size=1, max_size=4))
        q = GapPattern(tuple(data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=8))))
        w = "".join(data.draw(st.lists(st.sampled_from("ab"), max_size=14)))
        n = len(q.factors) + 1
        expected = IntMatrix([
            [count_gapped(w, q.factor_slice(i, j - 1)) if i < j else int(i == j)
             for j in range(1, n + 1)]
            for i in range(1, n + 1)
        ])
        assert special_minor(q, w) == expected

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_one_letter_factors_give_the_induced_parikh_matrix(self, data):
        # with one-letter factors v_1 . ... . v_k a gap pattern is a scattered
        # subword, so the minor is the Parikh matrix of w induced by v; the
        # two sides come from independent DPs
        alphabet = data.draw(st.sampled_from(["ab", "abc"]))
        letters = st.sampled_from(alphabet)
        v = "".join(data.draw(st.lists(letters, min_size=1, max_size=8)))
        w = "".join(data.draw(st.lists(letters, max_size=14)))
        ctx = ParikhContext(Alphabet.parse(alphabet), v)
        assert special_minor(GapPattern(tuple(v)), w) == parikh_matrix_direct(ctx, w)

    def test_index_set(self):
        assert minor_index_set(A_ABA_A) == (1, 5, 8, 12)
        assert minor_index_set(GapPattern.parse("ab.c")) == (1, 4, 6)
        assert minor_index_set(GapPattern(("ab",))) == (1, 3)

    def test_index_set_rejects_flat_length_one(self):
        # the same rule and error as every matrix builder (seqmat.block_dim)
        with pytest.raises(PatternError, match="flat length 1"):
            minor_index_set(GapPattern.parse("a"))

    def test_extraction_matches_direct(self):
        for text, w in [
            ("a.aba.a", "aba"),
            ("ab.c", "babcabcbcba"),
            ("ab", "abab"),
            ("a.b.a", "aabbaa"),
        ]:
            q = GapPattern.parse(text)
            assert special_minor_from_matrix(seq_matrix(q, w)) == special_minor(q, w)

    def test_extraction_fuzzed(self):
        rng = random.Random(40)
        for _ in range(150):
            q = random_pattern(rng, "abc")
            if q.flat_length < 2:
                continue
            w = random_word(rng, "abc", 12)
            assert special_minor_from_matrix(seq_matrix(q, w)) == special_minor(q, w)


class TestWitnessWord:
    def test_three_factor_example(self):
        witness = witness_word(A_ABA_A, "aba")
        assert witness == (3, 3, 2, 1, 1)
        assert witness_text(witness, 3) == "a3a3a2a1a1"
        assert witness_parikh_matrix(witness, 3) == REFERENCE_MINOR

    def test_disjoint_single_letters(self):
        assert witness_word(GapPattern.parse("a.b"), "ab") == (1, 2)

    def test_empty_word(self):
        assert witness_word(GapPattern.parse("ab.ba"), "") == ()
        _, minor, ok = verify_witness(GapPattern.parse("ab.ba"), "")
        assert ok and minor == identity(3)

    def test_prefix_ordered_nonoverlapping_pair_regression(self):
        # q2 and q3 never overlap in w, yet their symbols must stay in span
        # order after the q1/q2 orientation is enforced
        q = GapPattern.parse("ba.a.b")
        witness = witness_word(q, "ba")
        assert witness == (3, 2, 1)
        assert witness_parikh_matrix(witness, 3) == special_minor(q, "ba")

    @pytest.mark.parametrize(
        "text, w, expected",
        [
            ("a.b", "abba", (1, 2, 2, 1)),
            ("ab.ba", "abab", (2, 1, 1)),
            ("a.a", "aaa", (2, 1, 2, 1, 2, 1)),
            ("aa.a", "aaaa", (2, 2, 1, 2, 1, 2, 1)),
            ("ab.b.a", "abba", (3, 2, 1, 2, 3)),
            ("a.aba.a", "ababa", (3, 3, 2, 1, 3, 2, 1, 1)),
            ("abc.bca.cab.acb", "abcabca", (3, 2, 1, 2, 1)),
            ("a.aa.a", "aaa", (3, 3, 2, 1, 3, 2, 1, 1)),
            # equal starts on non-adjacent factors: the smaller key first
            ("a.b.ab", "abab", (3, 1, 2, 3, 1, 2)),
            ("a.b.a", "aba", (3, 1, 2, 3, 1)),
            # q_1 and q_3 are not adjacent, so nothing orients their symbols:
            # the key puts these q_3 occurrences before earlier q_1 ones
            ("a.bab.b", "babb", (3, 3, 2, 3, 1)),
            ("a.bb.a", "aa", (3, 3, 1, 1)),
        ],
    )
    def test_pinned_order(self, text, w, expected):
        assert witness_word(GapPattern.parse(text), w) == expected

    @pytest.mark.parametrize(
        "text, alphabet, seed, length, digest",
        [
            (
                "a.b", "ab", 1, 2000,
                "2b66adf18c95c28f09afc6d87ea73b8fc3a519cb986ce840ea861cfb479c7399",
            ),
            (
                "aba.bba.aab", "ab", 2, 734,
                "c1876112294d8e7628efd48990c7f6dd00534cae739a34488b63b611611bc56c",
            ),
            (
                "abc.bca.cab.acb", "abc", 3, 276,
                "92ee82cacf664957b19f8e83eff050fbf04b07e5000fec0fa979355c90bf7f4a",
            ),
            (
                "ab.ab.ab", "ab", 4, 1494,
                "c0399c1e2e3810ccd7d2a93a3697a9800a9724e425d01572dbc1e3c738378301",
            ),
            (
                "a.aa.a", "ab", 5, 2623,
                "8c0f190a7179c2c101c897fc19e2e8a172293f172484bb45062ed214a7e59c62",
            ),
        ],
    )
    def test_pinned_order_on_long_words(self, text, alphabet, seed, length, digest):
        # sha256 of repr(witness) on a seeded 2000-letter word: the exact
        # symbol order is part of the output, not just the Parikh matrix
        w = seeded_word(seed, alphabet, 2000)
        witness = witness_word(GapPattern.parse(text), w)
        assert len(witness) == length
        assert hashlib.sha256(repr(witness).encode()).hexdigest() == digest

    def test_four_thousand_letters_under_a_second(self):
        # a.b on 4000 letters has ~2000 occurrences of each factor; an
        # explicit orientation graph would hold ~4 * 10**6 edges
        w = seeded_word(6, "ab", 4000)
        start = time.perf_counter()
        witness = witness_word(GapPattern.parse("a.b"), w)
        assert time.perf_counter() - start < 1.0
        assert len(witness) == 4000

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 10).flatmap(
        lambda x: st.tuples(st.lists(st.integers(1, x), max_size=40).map(tuple), st.just(x))
    ))
    def test_matrix_equals_fold_of_rendered_witness(self, case):
        witness, x = case
        assert witness_parikh_matrix(witness, x) == witness_parikh_fold(witness, x)

    def test_sixty_four_factors(self):
        # past any one-character rendering of the 64 factor indices
        q = GapPattern.parse(".".join("ab" * 32))
        w = seeded_word(6, "ab", 100)
        witness, minor, ok = verify_witness(q, w)
        assert ok and minor.dim == 65
        assert len(witness) == 32 * len(w)
        assert witness_parikh_matrix(witness, 64) == minor

    def test_witness_text_uses_commas_for_wide_patterns(self):
        assert witness_text((10, 2), 10) == "a10,a2"
        assert witness_text((1, 2), 2) == "a1a2"

    def test_reduction_fuzzed(self):
        rng = random.Random(41)
        for _ in range(300):
            q = random_pattern(rng, "abc")
            w = random_word(rng, "abc", 10)
            witness, minor, ok = verify_witness(q, w)
            assert ok, (q.render(), w, witness)

    def test_orientation_rule(self):
        # the k-th symbol l of the witness stands for the k-th occurrence of
        # q_l; then one factor's symbols follow its starts, and of adjacent
        # factors an occurrence A of q_l precedes an occurrence B of q_{l+1}
        # exactly when A ends before B starts
        rng = random.Random(43)
        absent = 0
        for _ in range(400):
            alphabet = rng.choice(("a", "ab", "abc"))
            q = random_pattern(rng, alphabet, max_factors=5)
            w = random_word(rng, alphabet, 14)
            starts = [
                [i + 1 for i in range(len(w)) if w.startswith(f, i)] for f in q.factors
            ]
            absent += sum(not s for s in starts)
            seen = [0] * len(starts)
            symbols = []
            for l in witness_word(q, w):
                symbols.append((l, starts[l - 1][seen[l - 1]]))
                seen[l - 1] += 1
            assert seen == [len(s) for s in starts]
            for (l, s), (m, t) in combinations(symbols, 2):
                if m == l:
                    assert s < t
                elif m == l + 1:
                    assert s + len(q.factors[l - 1]) <= t, (q.render(), w)
                elif m == l - 1:
                    assert t + len(q.factors[m - 1]) > s, (q.render(), w)
        assert absent

    def test_letter_counts_match_factor_counts(self):
        rng = random.Random(42)
        from parikhseq.counting import count_factor

        for _ in range(200):
            q = random_pattern(rng, "ab")
            w = random_word(rng, "ab", 10)
            witness = witness_word(q, w)
            for idx, factor in enumerate(q.factors, 1):
                assert witness.count(idx) == count_factor(w, factor)


class TestMinorSweep:
    def test_reference_minor_sweep(self):
        sweep = check_minor_nonneg(REFERENCE_MINOR, 4)
        assert sweep.all_nonnegative
        assert REFERENCE_MINOR.minor([1, 2], [2, 3]).det() == 2

    def test_identity_minors(self):
        sweep = check_minor_nonneg(identity(4), 4)
        assert sweep.all_nonnegative
        for rows in ([1, 2], [1, 3], [2, 4]):
            det = identity(4).minor(rows, [1, 2]).det()
            assert det in (0, 1)

    def test_two_factor_example_sweep(self):
        q = GapPattern.parse("ab.c")
        minor = special_minor(q, "babcabcbcba")
        assert check_minor_nonneg(minor, 3).all_nonnegative

    def test_detects_negative_minors(self):
        bad = IntMatrix([[1, 5, 1], [0, 1, 0], [0, 0, 1]])
        sweep = check_minor_nonneg(bad, 3)
        assert not sweep.all_nonnegative
        assert ((1, 2), (2, 3), -1) in sweep.violations

    def test_nonnegativity_covers_the_special_minor_only(self):
        # the claim is about the special minor: the full sequence matrix of
        # ab.ba on baba has negative 2x2 minors
        q = GapPattern.parse("ab.ba")
        full = seq_matrix(q, "baba").matrix
        pairs = list(combinations(range(1, full.dim + 1), 2))
        negative = [
            (rows, cols) for rows in pairs for cols in pairs
            if full.minor(rows, cols).det() < 0
        ]
        assert len(negative) == 30
        assert full.minor((1, 2), (2, 4)).det() == -1
        minor = special_minor(q, "baba")
        assert check_minor_nonneg(minor, minor.dim).all_nonnegative

    def test_requires_unit_upper_triangular(self):
        with pytest.raises(ValueError):
            check_minor_nonneg(IntMatrix([[2, 0], [0, 1]]), 2)

    def test_special_minors_fuzzed(self):
        rng = random.Random(43)
        for _ in range(150):
            q = random_pattern(rng, "ab")
            w = random_word(rng, "ab", 10)
            minor = special_minor(q, w)
            assert check_minor_nonneg(minor, minor.dim).all_nonnegative

    def test_elimination_agrees_with_cofactor_on_submatrices(self):
        from oracles import det_cofactor

        minor = special_minor(GapPattern.parse("ab.c.ba"), "abcbaabcba")
        n = minor.dim
        for order in range(1, n + 1):
            for rows in combinations(range(1, n + 1), order):
                for cols in combinations(range(1, n + 1), order):
                    sub = minor.minor(rows, cols)
                    assert sub.det() == det_cofactor([list(r) for r in sub.rows])
