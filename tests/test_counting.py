import random
from functools import cache
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import enum_factor, enum_gapped, enum_piece, enum_subword
from parikhseq.counting import (
    count_factor,
    count_gapped,
    count_piece,
    count_subword,
    factor_starts,
    gapped_prefix_counts,
    subword_prefix_counts,
)
from parikhseq.words import GapPattern, Piece


class TestCountSubword:
    @pytest.mark.parametrize(
        "w,u,expected",
        [
            ("aab", "a", 2),
            ("aaabb", "ab", 6),
            ("abcb", "", 1),
            ("", "", 1),
            ("", "a", 0),
            ("acbab", "ab", 3),
        ],
    )
    def test_reference_values(self, w, u, expected):
        assert count_subword(w, u) == expected

    def test_matches_enumeration(self):
        rng = random.Random(1)
        for _ in range(300):
            w = "".join(rng.choice("ab") for _ in range(rng.randint(0, 12)))
            u = "".join(rng.choice("ab") for _ in range(rng.randint(0, 4)))
            assert count_subword(w, u) == enum_subword(w, u)

    @settings(max_examples=300, deadline=None)
    @given(
        w=st.text("abc", max_size=12),
        # repeated letters, where the order of one letter's updates matters,
        # and d, which w never holds
        u=st.one_of(
            st.sampled_from(["abab", "aab", "aaa", "abba", "baab", "cc"]),
            st.text("abcd", max_size=5),
        ),
    )
    def test_repeated_and_missing_letters(self, w, u):
        assert count_subword(w, u) == enum_subword(w, u)


class TestSubwordPrefixCounts:
    @settings(max_examples=200, deadline=None)
    @given(w=st.text("abc", max_size=12), u=st.text("abcd", max_size=6))
    def test_prefix_j_counts_u_up_to_j(self, w, u):
        counts = subword_prefix_counts(w, u)
        assert counts == [count_subword(w, u[:j]) for j in range(len(u) + 1)]
        assert counts[-1] == enum_subword(w, u)
        # any sequences of hashables: the same counts on tuples of ints
        assert subword_prefix_counts(tuple(map(ord, w)), tuple(map(ord, u))) == counts


class TestCountFactor:
    @pytest.mark.parametrize(
        "w,u,expected",
        [
            ("bcabc", "bc", 2),
            ("bcabc", "abc", 1),
            ("", "a", 0),
            ("aaaa", "aa", 3),
            ("abc", "", 1),
        ],
    )
    def test_reference_values(self, w, u, expected):
        assert count_factor(w, u) == expected

    def test_factor_starts_are_one_based(self):
        assert factor_starts("bcabc", "bc") == [1, 4]

    def test_matches_enumeration(self):
        rng = random.Random(2)
        for _ in range(300):
            w = "".join(rng.choice("ab") for _ in range(rng.randint(0, 12)))
            u = "".join(rng.choice("ab") for _ in range(rng.randint(1, 4)))
            assert count_factor(w, u) == enum_factor(w, u)


class TestCountGapped:
    @pytest.mark.parametrize(
        "w,pattern,expected",
        [
            ("aabb", "ab.b", 1),
            ("aabb", "a.bb", 2),
            ("babcabcbcba", "ab.c", 5),
            ("", "a.bb", 0),
            ("aa", "a.a", 1),
        ],
    )
    def test_reference_values(self, w, pattern, expected):
        assert count_gapped(w, GapPattern.parse(pattern)) == expected

    def test_single_factor_equals_factor_count(self):
        rng = random.Random(3)
        for _ in range(200):
            w = "".join(rng.choice("ab") for _ in range(rng.randint(0, 12)))
            u = "".join(rng.choice("ab") for _ in range(rng.randint(1, 3)))
            assert count_gapped(w, GapPattern((u,))) == count_factor(w, u)

    def test_single_letter_factors_equal_subword_count(self):
        # exhaustive over binary words up to length 8
        for n in range(9):
            for letters in product("ab", repeat=n):
                w = "".join(letters)
                for u in ("a", "ab", "ba", "abb"):
                    pattern = GapPattern(tuple(u))
                    assert count_gapped(w, pattern) == count_subword(w, u)

    def test_matches_enumeration(self):
        rng = random.Random(4)
        cases = [("abab", ()), ("", ()), ("abab", ("ab", "c", "a")), ("abab", ("ba", "ab"))]
        for _ in range(300):
            w = "".join(rng.choice("ab") for _ in range(rng.randint(0, 12)))
            # c never occurs in w: the prefix counts are 0 from its factor on
            factors = tuple(
                "".join(rng.choice("ababc") for _ in range(rng.randint(1, 3)))
                for _ in range(rng.randint(0, 3))
            )
            cases.append((w, factors))
        for w, factors in cases:
            counts = gapped_prefix_counts(w, factors)
            assert counts == [enum_gapped(w, factors[:j]) for j in range(len(factors) + 1)]
            if factors:
                assert count_gapped(w, GapPattern(factors)) == counts[-1]
        assert gapped_prefix_counts("abab", ()) == [1]
        assert gapped_prefix_counts("abab", ("ab", "c", "a")) == [1, 2, 0, 0]


class TestCountPiece:
    def test_left_anchor(self):
        assert count_piece("babcab", Piece(("b", "c"), True, False)) == 1

    def test_no_anchors_single_run(self):
        assert count_piece("babcab", Piece(("ab",))) == 2

    def test_right_anchor(self):
        assert count_piece("aba", Piece(("a", "a"), False, True)) == 1

    def test_left_anchor_single_letter(self):
        # anchored tuples of 'a' in aba starting at position 1: exactly one
        assert enum_piece("aba", ("a",), True, False) == 1
        assert count_piece("aba", Piece(("a",), True, False)) == 1

    def test_empty_piece_conventions(self):
        for w in ("", "a", "abc"):
            assert count_piece(w, Piece(())) == 1
            assert count_piece(w, Piece((), True, False)) == 1
            assert count_piece(w, Piece((), False, True)) == 1
            assert count_piece(w, Piece((), True, True)) == (1 if w == "" else 0)

    def test_both_anchors_single_run_is_equality(self):
        rng = random.Random(5)
        for _ in range(200):
            w = "".join(rng.choice("ab") for _ in range(rng.randint(0, 6)))
            u = "".join(rng.choice("ab") for _ in range(rng.randint(1, 6)))
            expected = 1 if w == u else 0
            assert count_piece(w, Piece((u,), True, True)) == expected

    def test_unanchored_single_run_is_factor_count(self):
        rng = random.Random(6)
        for _ in range(200):
            w = "".join(rng.choice("ab") for _ in range(rng.randint(0, 10)))
            u = "".join(rng.choice("ab") for _ in range(rng.randint(1, 3)))
            assert count_piece(w, Piece((u,))) == count_factor(w, u)

    def test_matches_enumeration_with_anchors(self):
        rng = random.Random(7)
        for _ in range(400):
            w = "".join(rng.choice("ab") for _ in range(rng.randint(0, 12)))
            runs = tuple(
                "".join(rng.choice("ab") for _ in range(rng.randint(1, 3)))
                for _ in range(rng.randint(1, 3))
            )
            left = rng.random() < 0.5
            right = rng.random() < 0.5
            assert count_piece(w, Piece(runs, left, right)) == enum_piece(
                w, runs, left, right
            )

    def test_appending_letters_never_decreases_unanchored_counts(self):
        rng = random.Random(8)
        for _ in range(100):
            w = "".join(rng.choice("ab") for _ in range(rng.randint(0, 10)))
            runs = tuple(
                "".join(rng.choice("ab") for _ in range(rng.randint(1, 2)))
                for _ in range(rng.randint(1, 2))
            )
            piece = Piece(runs)
            before = count_piece(w, piece)
            assert count_piece(w + rng.choice("ab"), piece) >= before


@st.composite
def piece_and_word(draw):
    """Runs of 1-3 letters (1-4 of them) over ab or abc, random anchors, and
    a word of 0-14 letters over the same alphabet."""
    alphabet = draw(st.sampled_from(["ab", "abc"]))
    letters = st.sampled_from(alphabet)
    run = st.lists(letters, min_size=1, max_size=3).map("".join)
    runs = tuple(draw(st.lists(run, min_size=1, max_size=4)))
    piece = Piece(runs, draw(st.booleans()), draw(st.booleans()))
    return piece, "".join(draw(st.lists(letters, max_size=14)))


class TestSharedStarts:
    @settings(max_examples=400, deadline=None)
    @given(piece_and_word())
    def test_cached_starts_agree_with_enumeration(self, case):
        piece, w = case
        expected = enum_piece(w, piece.runs, piece.left_anchored, piece.right_anchored)
        assert count_piece(w, piece) == expected
        assert count_piece(w, piece, cache(factor_starts)) == expected

    @pytest.mark.parametrize(
        "w,runs,left,right,expected",
        [
            # the last run is longer than the word
            ("ab", ("a", "bab"), False, True, 0),
            # overlapping runs: aa at 1 or 2, then the final a
            ("aaaa", ("aa", "a"), False, True, 2),
            ("aaaa", ("aa", "aa"), False, True, 1),
            # both anchors with several runs
            ("ab", ("a", "b"), True, True, 1),
            ("aab", ("a", "b"), True, True, 1),
            ("abb", ("a", "b"), True, True, 1),
            ("ba", ("a", "b"), True, True, 0),
            ("abab", ("ab", "ab"), True, True, 1),
            ("aba", ("ab", "ba"), True, True, 0),
            # the first run occurs, but not at position 1
            ("ab", ("b",), True, False, 0),
            ("aba", ("b", "a"), True, False, 0),
            ("abab", ("b", "a", "b"), True, True, 0),
            # the last run occurs, but not at the end
            ("aba", ("a", "b"), False, True, 0),
        ],
    )
    def test_anchored_ends(self, w, runs, left, right, expected):
        assert enum_piece(w, runs, left, right) == expected
        piece = Piece(runs, left, right)
        assert count_piece(w, piece) == expected
        assert count_piece(w, piece, cache(factor_starts)) == expected

    def test_one_memo_across_words_keeps_words_apart(self):
        starts = cache(factor_starts)
        piece = Piece(("a", "b"))
        assert count_piece("aab", piece, starts) == 2
        assert count_piece("abab", piece, starts) == 3
        assert count_piece("ba", piece, starts) == 0
        assert count_piece("aab", Piece(("a", "b"), False, True), starts) == 2
        assert count_piece("abab", Piece(("a", "b"), True, False), starts) == 2

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_gapped_with_a_shared_memo_equals_without(self, data):
        # one memo for several patterns of one word, as special_minor shares it
        letters = st.sampled_from(data.draw(st.sampled_from(["ab", "abc"])))
        run = st.lists(letters, min_size=1, max_size=3).map("".join)
        patterns = data.draw(st.lists(st.lists(run, min_size=1, max_size=4), min_size=1, max_size=4))
        w = "".join(data.draw(st.lists(letters, max_size=14)))
        starts = cache(factor_starts)
        for runs in patterns:
            assert gapped_prefix_counts(w, runs, starts) == gapped_prefix_counts(w, runs)

    def test_starts_lists_are_not_mutated(self):
        lists = {}

        def starts(w, run):
            lists[run] = factor_starts(w, run)
            return lists[run]

        for piece in (Piece(("a", "b"), True, True), Piece(("a", "a", "b"), False, True)):
            count_piece("aabab", piece, starts)
        assert {run: factor_starts("aabab", run) for run in lists} == lists
