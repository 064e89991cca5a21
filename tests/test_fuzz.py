import pytest

from parikhseq import fuzz
from parikhseq.intmat import IntMatrix
from parikhseq.seqmat import SeqMatrix
from parikhseq.words import GapPattern


def _off_by_one(m: IntMatrix) -> IntMatrix:
    """m with one more in its top right corner."""
    rows = [list(row) for row in m.rows]
    rows[0][-1] += 1
    return IntMatrix(rows)


class TestGenerators:
    def test_same_seed_same_cases(self):
        rng1 = fuzz._rng(7, "suite", 3)
        rng2 = fuzz._rng(7, "suite", 3)
        alpha1 = fuzz.random_alphabet(rng1)
        alpha2 = fuzz.random_alphabet(rng2)
        assert alpha1 == alpha2
        assert fuzz.random_pattern(rng1, alpha1) == fuzz.random_pattern(rng2, alpha2)
        assert fuzz.random_word(rng1, alpha1, 20) == fuzz.random_word(rng2, alpha2, 20)

    def test_pattern_bounds(self):
        for i in range(100):
            rng = fuzz._rng(0, "bounds", i)
            pattern = fuzz.random_pattern(rng, fuzz.random_alphabet(rng), min_flat=2)
            assert 1 <= len(pattern.factors) <= 3
            assert all(1 <= len(f) <= 3 for f in pattern.factors)
            assert pattern.flat_length >= 2


class TestShrinkers:
    def test_word_shrinks_to_minimal_failure(self):
        # failing predicate: word still contains both letters
        shrunk = fuzz._shrink_word("abbaba", lambda w: "a" in w and "b" in w)
        assert shrunk in ("ab", "ba")

    def test_word_shrink_keeps_failure(self):
        assert fuzz._shrink_word("aaa", lambda w: "aa" in w) == "aa"

    def test_pattern_shrink_drops_factors_and_letters(self):
        pattern = GapPattern(("ab", "ba", "a"))
        shrunk = fuzz._shrink_pattern(pattern, lambda p: "b" in p.flat)
        assert shrunk == GapPattern(("b",))

    def test_pattern_shrink_respects_min_flat(self):
        pattern = GapPattern(("ab", "ba"))
        shrunk = fuzz._shrink_pattern(pattern, lambda p: True, min_flat=2)
        assert shrunk.flat_length == 2


class TestSuites:
    def test_all_suites_pass_briefly(self):
        for name in fuzz.SUITES:
            report = fuzz.run_suite(name, seed=5, iters=20, max_len=3)
            assert report.passed, report
            assert report.suite == name

    def test_reports_are_deterministic(self):
        a = fuzz.run_suite("homomorphism", seed=9, iters=15, max_len=3)
        b = fuzz.run_suite("homomorphism", seed=9, iters=15, max_len=3)
        assert a == b

    def test_unknown_suite(self):
        with pytest.raises(ValueError):
            fuzz.run_suite("nonsense", 0, 1, 1)

    @pytest.mark.parametrize(
        "broken, extra, expected",
        [
            # ba is the sixth word over ab: '', a, b, aa, ab, ba
            ("a*a", ("ba",), fuzz.FuzzReport("gsh", 6, False, "expr=a*a w='ba'")),
            # three passing expressions of 127 words each, then cd, the 17th
            # word over abcd; the shrinker keeps it
            ("(ab.c)*d", ("cd",),
             fuzz.FuzzReport("gsh", 3 * 127 + 17, False, "expr=(ab.c)*d w='cd'")),
        ],
    )
    def test_gsh_failure_report(self, monkeypatch, broken, extra, expected):
        linearize = fuzz.gsh.linearize

        def off_by_one(e):
            linear = linearize(e)
            if e == fuzz.gsh.parse_expr(broken):
                terms = dict(linear.items())
                terms[extra] = terms.get(extra, 0) + 1
                linear = fuzz.gsh.LinearForm(terms)
            return linear

        monkeypatch.setattr(fuzz.gsh, "linearize", off_by_one)
        assert fuzz.run_gsh(6) == expected

    @pytest.mark.parametrize(
        "infix, expected",
        [
            ("ab", [
                fuzz.FuzzReport("homomorphism", 1, False, "pattern=bb w1='ab' w2='ab'"),
                fuzz.FuzzReport("fold", 1, False, "pattern=ab w='ab'"),
                fuzz.FuzzReport("witness", 1, False, "pattern=bb w='ab'"),
                fuzz.FuzzReport("entries", 1, False, "pattern=cbb w='ab'"),
            ]),
            # rarer failures pin the order of the cases drawn before them
            ("cab", [
                fuzz.FuzzReport("homomorphism", 31, False, "pattern=aa w1='cab' w2='cab'"),
                fuzz.FuzzReport("fold", 34, False, "pattern=cb w='cab'"),
                fuzz.FuzzReport("witness", 2, False, "pattern=cc w='cab'"),
                fuzz.FuzzReport("entries", 1, False, "pattern=cbb w='cab'"),
            ]),
        ],
    )
    def test_sequence_matrix_failure_reports(self, monkeypatch, infix, expected):
        seq_matrix = fuzz.seq_matrix

        def wrong_on_infix(pattern, w):
            sm = seq_matrix(pattern, w)
            return SeqMatrix(pattern, _off_by_one(sm.matrix)) if infix in w else sm

        monkeypatch.setattr(fuzz, "seq_matrix", wrong_on_infix)
        reports = [fuzz.run_suite(r.suite, 3, 200, 5) for r in expected]
        assert reports == expected

    @pytest.mark.parametrize(
        "infix, expected",
        [
            ("ab", [
                fuzz.FuzzReport("witness", 1, False, "pattern=b w='ab'"),
                fuzz.FuzzReport("minors", 15, False, "pattern=a.b w='ab'"),
            ]),
            ("cab", [
                fuzz.FuzzReport("witness", 2, False, "pattern=c w='cab'"),
                fuzz.FuzzReport("minors", 15, False, "pattern=a.b w='cab'"),
            ]),
        ],
    )
    def test_special_minor_failure_reports(self, monkeypatch, infix, expected):
        special_minor = fuzz.special_minor

        def wrong_on_infix(pattern, w):
            minor = special_minor(pattern, w)
            return _off_by_one(minor) if infix in w else minor

        monkeypatch.setattr(fuzz, "special_minor", wrong_on_infix)
        reports = [fuzz.run_suite(r.suite, 3, 200, 5) for r in expected]
        assert reports == expected
