import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from oracles import pattern_letter, symbol_index
from parikhseq.words import (
    SYMBOL_CHARS,
    Alphabet,
    GapPattern,
    PatternError,
    Piece,
    parse_word,
)


class TestAlphabet:
    def test_parse_keeps_order(self):
        alpha = Alphabet.parse("bca")
        assert alpha.symbols == ("b", "c", "a")
        assert symbol_index(alpha, "c") == 2
        assert alpha.concat() == "bca"

    def test_rejects_empty(self):
        with pytest.raises(PatternError):
            Alphabet.parse("")

    def test_rejects_duplicates(self):
        with pytest.raises(PatternError):
            Alphabet.parse("aba")

    def test_rejects_non_symbol_chars(self):
        with pytest.raises(PatternError):
            Alphabet.parse("a!")

    def test_membership(self):
        alpha = Alphabet.parse("ab")
        assert "a" in alpha and "z" not in alpha
        with pytest.raises(PatternError):
            symbol_index(alpha, "z")


class TestParseWord:
    def test_plain(self):
        assert parse_word("abcb") == "abcb"

    def test_empty(self):
        assert parse_word("") == ""

    def test_alphabet_membership_enforced(self):
        with pytest.raises(PatternError):
            parse_word("abz", Alphabet.parse("ab"))

    def test_invalid_character(self):
        with pytest.raises(PatternError):
            parse_word("a b")


class TestGapPattern:
    def test_parse_two_factors(self):
        q = GapPattern.parse("ab.c")
        assert q.factors == ("ab", "c")
        assert q.flat == "abc"
        assert q.flat_length == 3
        assert q.boundaries == frozenset({2})

    def test_parse_three_factors(self):
        q = GapPattern.parse("a.aba.a")
        assert q.factors == ("a", "aba", "a")
        assert q.flat_length == 5
        assert q.boundaries == frozenset({1, 4})

    def test_bullet_alias(self):
        assert GapPattern.parse("ab•c") == GapPattern.parse("ab.c")

    @pytest.mark.parametrize("text", ["ab..c", ".ab", "ab.", "", "."])
    def test_malformed(self, text):
        with pytest.raises(PatternError):
            GapPattern.parse(text)

    @given(
        st.lists(
            st.text(alphabet=sorted(SYMBOL_CHARS), min_size=1, max_size=3), min_size=1, max_size=5
        )
    )
    @example(["a", "aba", "a"])
    def test_render_round_trip(self, factors):
        q = GapPattern(tuple(factors))
        assert q.render() == ".".join(factors)
        assert GapPattern.parse(q.render()) == q

    def test_letter_is_one_based(self):
        q = GapPattern.parse("ab.c")
        assert [pattern_letter(q, i) for i in (1, 2, 3)] == ["a", "b", "c"]
        with pytest.raises(ValueError):
            pattern_letter(q, 0)
        with pytest.raises(ValueError):
            pattern_letter(q, 4)


def _split_by_scan(q: GapPattern, i: int, j: int) -> tuple[str, ...]:
    # independent splitter: walk the flat letters, cutting after boundary positions
    runs = []
    current = ""
    for pos in range(i, j + 1):
        current += q.flat[pos - 1]
        if pos in q.boundaries and pos < j:
            runs.append(current)
            current = ""
    runs.append(current)
    return tuple(runs)


class TestPiece:
    def test_whole_pattern(self):
        q = GapPattern.parse("ab.c")
        assert q.piece(1, 3).runs == ("ab", "c")

    def test_interior_slice_skips_outside_boundaries(self):
        q = GapPattern.parse("a.aba.a")
        # boundaries {1, 4}: neither lies strictly inside [2, 3]
        assert q.piece(2, 4).runs == _split_by_scan(q, 2, 4) == ("aba",)

    def test_boundary_inside(self):
        q = GapPattern.parse("ab.c")
        assert q.piece(2, 3).runs == ("b", "c")

    def test_anchors_carried(self):
        q = GapPattern.parse("ab.c")
        p = q.piece(1, 2, left_anchored=True, right_anchored=True)
        assert p == Piece(("ab",), True, True)

    def test_empty_piece(self):
        q = GapPattern.parse("ab.c")
        p = q.piece(3, 2, left_anchored=True)
        assert p.is_empty and p.left_anchored and not p.right_anchored

    def test_out_of_range(self):
        q = GapPattern.parse("ab.c")
        with pytest.raises(ValueError):
            q.piece(0, 2)
        with pytest.raises(ValueError):
            q.piece(1, 4)

    def test_full_slice_reconstructs_pattern(self):
        for text in ["ab.c", "a.aba.a", "abc", "a.b.c", "ab.ba.b"]:
            q = GapPattern.parse(text)
            assert q.piece(1, q.flat_length).runs == q.factors

    def test_all_slices_match_scan_splitter(self):
        q = GapPattern.parse("ab.ba.b")
        for i in range(1, q.flat_length + 1):
            for j in range(i, q.flat_length + 1):
                assert q.piece(i, j).runs == _split_by_scan(q, i, j)


class TestFactorSlice:
    def test_sub_pattern(self):
        q = GapPattern.parse("a.aba.a")
        assert q.factor_slice(1, 2).render() == "a.aba"
        assert q.factor_slice(2, 2).render() == "aba"

    def test_bad_range(self):
        with pytest.raises(ValueError):
            GapPattern.parse("a.b").factor_slice(2, 1)
