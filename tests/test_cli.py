import hashlib
import io
import json
import os
import random
import subprocess
import sys
import time
from decimal import Decimal
from pathlib import Path

import pytest

from oracles import from_json_dict, identity
from parikhseq import cli, gsh
from parikhseq.intmat import IntMatrix
from parikhseq.parikh import ParikhFold
from parikhseq.seqmat import SeqFold, seq_matrix

SRC = Path(__file__).resolve().parent.parent / "src"


# matrix kinds that stream piped words through a fold
_PIPED_KINDS = [
    ("matrix", "sequence", "--pattern", "ab.ba"),
    ("matrix", "classic", "--alphabet", "ab"),
]


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCount:
    def test_gapped(self, capsys):
        code, out, _ = run_cli(capsys, "count", "--genseq", "ab.b", "aabb")
        assert code == 0 and out.strip() == "1"

    def test_subword(self, capsys):
        code, out, _ = run_cli(capsys, "count", "--subword", "ab", "aaabb")
        assert code == 0 and out.strip() == "6"

    def test_factor(self, capsys):
        code, out, _ = run_cli(capsys, "count", "--factor", "bc", "bcabc")
        assert code == 0 and out.strip() == "2"

    def test_empty_word(self, capsys):
        code, out, _ = run_cli(capsys, "count", "--genseq", "a.bb", "")
        assert code == 0 and out.strip() == "0"

    def test_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "count", "--subword", "ab", "aaabb", "--format", "json"
        )
        assert code == 0
        assert json.loads(out) == {"count": "6"}

    def test_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("aabb\n"))
        code, out, _ = run_cli(capsys, "count", "--genseq", "ab.b")
        assert code == 0 and out.strip() == "1"

    def test_file(self, capsys, tmp_path):
        path = tmp_path / "word.txt"
        path.write_text("aabb\n")
        code, out, _ = run_cli(capsys, "count", "--genseq", "ab.b", "--file", str(path))
        assert code == 0 and out.strip() == "1"

    def test_word_and_file_conflict(self, capsys, tmp_path):
        path = tmp_path / "word.txt"
        path.write_text("ab")
        code, _, err = run_cli(
            capsys, "count", "--genseq", "a.b", "ab", "--file", str(path)
        )
        assert code == 2 and "error" in err

    def test_bad_pattern(self, capsys):
        code, _, err = run_cli(capsys, "count", "--genseq", "a..b", "ab")
        assert code == 2 and "error" in err

    def test_missing_kind_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["count", "ab"])
        assert exc.value.code == 2


def test_consecutive_calls_share_one_parser(capsys):
    code, out, _ = run_cli(capsys, "count", "--subword", "ab", "aabb")
    assert code == 0 and out == "4\n"
    with pytest.raises(SystemExit) as exc:
        cli.main(["gsh", "linearize", "--maxlen", "3", "a"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --maxlen" in capsys.readouterr().err
    code, out, _ = run_cli(capsys, "gsh", "linearize", "a*a")
    assert code == 0 and out == "a + 2(a.a)\n"


class TestMatrix:
    def test_classic(self, capsys):
        code, out, _ = run_cli(
            capsys, "matrix", "classic", "--alphabet", "abc", "abcb"
        )
        assert code == 0
        assert [line.split() for line in out.strip().splitlines()] == [
            ["1", "1", "2", "1"],
            ["0", "1", "2", "1"],
            ["0", "0", "1", "1"],
            ["0", "0", "0", "1"],
        ]

    def test_classic_json_round_trip(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "matrix", "classic", "--alphabet", "abc", "abcb", "--format", "json",
        )
        assert code == 0
        data = json.loads(out)
        matrix = from_json_dict(data)
        assert matrix.entry(1, 3) == 2
        assert data["kind"] == "classic"
        assert data["length"] == 4

    def test_extended(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "matrix", "extended", "--alphabet", "cd", "--inducing", "cdc", "cdc",
            "--format", "json",
        )
        assert code == 0
        data = json.loads(out)
        assert data["inducing"] == "cdc"
        assert from_json_dict(data).entry(1, 2) == 2

    def test_sequence_blocks(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "matrix", "sequence", "--pattern", "ab.c", "babcabcbcba",
            "--format", "json",
        )
        assert code == 0
        data = json.loads(out)
        assert data["blocks"]["E"] == [["1", "2"], ["0", "5"]]
        assert data["blocks"]["F"] == [["2", "5"], ["0", "9"]]
        assert data["blocks"]["C"] == [["0", "1"], ["0", "1"]]
        assert data["blocks"]["S"] == [["1", "3"], ["0", "3"]]

    def test_sequence_text_names_blocks(self, capsys):
        code, out, _ = run_cli(
            capsys, "matrix", "sequence", "--pattern", "ab.c", "babcab"
        )
        assert code == 0
        for name in ("E:", "F:", "C:", "S:"):
            assert name in out

    def test_factor_kind(self, capsys):
        code, out, _ = run_cli(
            capsys, "matrix", "factor", "--alphabet", "abc", "bcabc",
            "--format", "json",
        )
        assert code == 0
        data = json.loads(out)
        assert data["blocks"]["F"] == [["1", "1"], ["0", "2"]]

    def test_sequence_stdin_streams(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("babcab\ncbcba\n"))
        code, out, _ = run_cli(
            capsys, "matrix", "sequence", "--pattern", "ab.c", "--format", "json"
        )
        assert code == 0
        data = json.loads(out)
        assert data["length"] == 11
        assert data["blocks"]["F"] == [["2", "5"], ["0", "9"]]

    @pytest.mark.parametrize("kind", _PIPED_KINDS)
    def test_whitespace_across_the_chunk_boundary(self, capsys, monkeypatch, kind):
        rng = random.Random(9)
        word = "".join(rng.choice("ab") for _ in range(70_000))
        # the first 64 KiB chunk ends in whitespace and the second starts
        # with it
        text = word[:65_530] + "\n" + word[65_530:65_534] + " \t\n" + word[65_534:] + "\n"
        assert text[65_535:65_538] == " \t\n"
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        piped = run_cli(capsys, *kind, "--format", "json")
        buffered = run_cli(capsys, *kind, "--format", "json", word)
        assert piped == buffered
        assert piped[0] == 0 and json.loads(piped[1])["length"] == 70_000

    @pytest.mark.parametrize("kind", _PIPED_KINDS)
    def test_invalid_symbol_in_second_chunk(self, capsys, monkeypatch, kind):
        monkeypatch.setattr("sys.stdin", io.StringIO("ab" * 35_000 + "!ab\n"))
        code, out, err = run_cli(capsys, *kind)
        assert code == 2
        assert "invalid symbol '!' in piped word" in err
        assert out == ""

    @pytest.mark.parametrize("kind", _PIPED_KINDS)
    def test_empty_stdin_is_the_empty_word(self, capsys, monkeypatch, kind):
        monkeypatch.setattr("sys.stdin", io.StringIO(""))
        piped = run_cli(capsys, *kind, "--format", "json")
        assert piped == run_cli(capsys, *kind, "--format", "json", "")
        assert piped[0] == 0 and json.loads(piped[1])["length"] == 0

    def test_short_pattern_rejected(self, capsys):
        code, _, err = run_cli(
            capsys, "matrix", "sequence", "--pattern", "a", ""
        )
        assert code == 2 and "error" in err

    def test_one_letter_factor_alphabet_rejected(self, capsys):
        # the CLI's own message names the flag; the library's names the pattern
        code, out, err = run_cli(capsys, "matrix", "factor", "--alphabet", "a", "ab")
        assert (code, out, err) == (2, "", "error: matrix factor needs an alphabet of size >= 2\n")

    def test_fold_direct_mismatch_exits_one(self, capsys, monkeypatch):
        from parikhseq.seqmat import GapPattern, seq_matrix

        monkeypatch.setattr(
            cli, "seq_matrix_direct", lambda q, w: seq_matrix(q, w + "a")
        )
        code, _, err = run_cli(
            capsys, "matrix", "sequence", "--pattern", "ab.c", "abc"
        )
        assert code == 1 and "disagrees" in err

    def test_parikh_fold_direct_mismatch_exits_one(self, capsys, monkeypatch):
        monkeypatch.setattr(
            cli, "parikh_matrix_direct", lambda ctx, w: identity(ctx.dim)
        )
        code, _, err = run_cli(
            capsys, "matrix", "classic", "--alphabet", "abc", "abcb"
        )
        assert code == 1 and "disagrees" in err

    def test_missing_alphabet(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["matrix", "classic", "abcb"])
        assert exc.value.code == 2 and "error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (("classic",), "--alphabet"),
            (("extended", "--inducing", "ab"), "--alphabet"),
            (("extended", "--alphabet", "ab"), "--inducing"),
            (("factor",), "--alphabet"),
            (("sequence",), "--pattern"),
        ],
        ids=["classic", "extended-alphabet", "extended-inducing", "factor", "sequence"],
    )
    def test_missing_required_flag_is_parser_error(self, capsys, argv, flag):
        with pytest.raises(SystemExit) as exc:
            cli.main(["matrix", *argv, "abba"])
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == ""
        assert "required" in captured.err and flag in captured.err


def _disagreeing_directs(monkeypatch) -> list[str]:
    """Make both direct constructions disagree with every fold; the returned
    list collects the words they were called on."""
    calls = []

    def parikh(ctx, w):
        calls.append(w)
        return identity(ctx.dim)

    def sequence(q, w):
        calls.append(w)
        return seq_matrix(q, w + "a")

    monkeypatch.setattr(cli, "parikh_matrix_direct", parikh)
    monkeypatch.setattr(cli, "seq_matrix_direct", sequence)
    return calls


class TestCrossCheckLimit:
    """Buffered words up to one limit are cross-checked, for every matrix
    kind; piped words never are."""

    def test_long_buffered_parikh_word_is_checked(self, capsys, monkeypatch):
        # 2001 letters, past the limit that held for Parikh matrices alone
        calls = _disagreeing_directs(monkeypatch)
        word = ("abc" * 667)[:2001]
        code, out, err = run_cli(capsys, "matrix", "classic", "--alphabet", "abc", word)
        assert (code, out) == (1, "") and "disagrees" in err
        assert calls == [word]

    @pytest.mark.parametrize("kind", _PIPED_KINDS)
    def test_limit_is_inclusive(self, capsys, monkeypatch, kind):
        calls = _disagreeing_directs(monkeypatch)
        monkeypatch.setattr(cli, "_CHECK_LIMIT", 5)
        assert run_cli(capsys, *kind, "abbab")[0] == 1
        assert run_cli(capsys, *kind, "abbaba")[0] == 0
        assert calls == ["abbab"]

    @pytest.mark.parametrize("kind", _PIPED_KINDS)
    def test_piped_word_is_never_checked(self, capsys, monkeypatch, kind):
        calls = _disagreeing_directs(monkeypatch)
        monkeypatch.setattr("sys.stdin", io.StringIO("abbab\n"))
        code, out, _ = run_cli(capsys, *kind, "--format", "json")
        assert code == 0 and json.loads(out)["length"] == 5
        assert calls == []


_BAD_WORD = "error: word contains invalid symbol '!' (allowed: [a-zA-Z0-9])\n"


class TestInvalidSymbols:
    """Each word source keeps its message and exit code 2."""

    def test_non_ascii_byte_piped(self, capsys, monkeypatch):
        # how sys.stdin decodes a byte that is not UTF-8 under the C locale
        stdin = io.TextIOWrapper(
            io.BytesIO(b"ab\xe9ab\n"), encoding="utf-8", errors="surrogateescape"
        )
        monkeypatch.setattr("sys.stdin", stdin)
        code, out, err = run_cli(capsys, "matrix", "classic", "--alphabet", "ab")
        assert (code, out, err) == (2, "", "error: invalid symbol '\\udce9' in piped word\n")

    def test_argument_word(self, capsys):
        code, out, err = run_cli(capsys, "matrix", "sequence", "--pattern", "ab.ba", "ab!a")
        assert (code, out, err) == (2, "", _BAD_WORD)

    def test_file_word(self, capsys, tmp_path):
        path = tmp_path / "w.txt"
        path.write_text("ab\n!a\n")
        code, out, err = run_cli(
            capsys, "matrix", "sequence", "--pattern", "ab.ba", "--file", str(path)
        )
        assert (code, out, err) == (2, "", _BAD_WORD)

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("matrix", "sequence", "--pattern", "a!b.ba", "ab"),
             "pattern contains invalid symbol '!' (allowed: [a-zA-Z0-9])"),
            (("matrix", "classic", "--alphabet", "a!", "ab"), "invalid alphabet symbol '!'"),
            (("matrix", "extended", "--alphabet", "ab", "--inducing", "a!b", "ab"),
             "word contains invalid symbol '!' (allowed: [a-zA-Z0-9])"),
        ],
        ids=["pattern", "alphabet", "inducing"],
    )
    def test_option(self, capsys, argv, message):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err) == (2, "", f"error: {message}\n")


class TestTracerContract:
    """The benchmark's tracer wraps push and result from each fold class's
    own dict, and counts one push call per letter."""

    @pytest.mark.parametrize("fold", [SeqFold, ParikhFold], ids=lambda c: c.__name__)
    def test_methods_in_class_dict(self, fold):
        assert "push" in fold.__dict__ and "result" in fold.__dict__

    def test_one_push_call_per_piped_letter(self, capsys, monkeypatch):
        push = SeqFold.push
        calls = []

        def counting(self, letter):
            calls.append(letter)
            push(self, letter)

        monkeypatch.setattr(SeqFold, "push", counting)
        word = "".join(random.Random(4).choice("ab") for _ in range(70_000))
        monkeypatch.setattr("sys.stdin", io.StringIO(word + "\n"))
        code, _, _ = run_cli(capsys, "matrix", "sequence", "--pattern", "ab.ba")
        assert code == 0
        assert "".join(calls) == word


class TestMinorAndWitness:
    def test_minor(self, capsys):
        code, out, _ = run_cli(
            capsys, "minor", "--pattern", "a.aba.a", "aba", "--format", "json"
        )
        assert code == 0
        data = json.loads(out)
        assert data["indices"] == [1, 5, 8, 12]
        assert from_json_dict(data) == IntMatrix(
            [[1, 2, 0, 0], [0, 1, 1, 0], [0, 0, 1, 2], [0, 0, 0, 1]]
        )

    def test_witness(self, capsys):
        code, out, _ = run_cli(capsys, "witness", "--pattern", "a.aba.a", "aba")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "a3a3a2a1a1"
        assert lines[1] == "verified: true"

    def test_witness_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "witness", "--pattern", "a.b", "ab", "--format", "json"
        )
        assert code == 0
        data = json.loads(out)
        assert data["witness"] == "a1a2"
        assert data["verified"] is True


class TestGsh:
    def test_eval(self, capsys):
        code, out, _ = run_cli(capsys, "gsh", "eval", "ab.c", "babcab")
        assert code == 0 and out.strip() == "1"

    def test_linearize(self, capsys):
        code, out, _ = run_cli(capsys, "gsh", "linearize", "a*a")
        assert code == 0 and out.strip() == "a + 2(a.a)"

    def test_linearize_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "gsh", "linearize", "a*a", "--format", "json"
        )
        assert code == 0
        assert json.loads(out)["terms"] == [
            {"monomial": "a", "coeff": "1"},
            {"monomial": "a.a", "coeff": "2"},
        ]

    def test_equiv_agreeing_verdicts(self, capsys):
        code, out, _ = run_cli(
            capsys, "gsh", "equiv", "a*a", "2(a.a)+a", "--maxlen", "4"
        )
        assert code == 0
        assert "canonical: true" in out
        assert "bounded (maxlen=4): true" in out

    def test_equiv_not_equivalent(self, capsys):
        code, out, _ = run_cli(capsys, "gsh", "equiv", "a*a", "2(a.a)+2a")
        assert code == 0
        assert "canonical: false" in out
        assert "counterexample: 'a'" in out

    @pytest.mark.parametrize(
        "argv, maxlen",
        [
            (("a.a", "aa+a.aa+a.ba"), 6),
            (("aa.a", "a.aa", "--alphabet", "a", "--maxlen", "10"), 10),
            (("c", "c-c"), 6),
            (("aaaaaaa", "aaaaaaa-aaaaaaa"), 6),
        ],
        ids=["ab-identity", "one-letter-identity", "letter-outside", "longer-than-maxlen"],
    )
    def test_equiv_bounded_true_canonical_false_exits_zero(self, capsys, argv, maxlen):
        # the identity holds on every word the bounded walk covers, but not
        # over every alphabet: not a disagreement
        code, out, err = run_cli(capsys, "gsh", "equiv", *argv)
        assert code == 0
        assert out.splitlines() == ["canonical: false", f"bounded (maxlen={maxlen}): true"]
        [note] = err.splitlines()
        assert f"(--alphabet) up to length {maxlen} (--maxlen)" in note
        assert "every alphabet" in note

    def test_equiv_both_false_exits_zero(self, capsys):
        code, out, err = run_cli(
            capsys, "gsh", "equiv", "aaaaaaa", "aaaaaaa-aaaaaaa", "--maxlen", "7"
        )
        assert (code, err) == (0, "")
        assert "bounded (maxlen=7): false" in out
        assert "counterexample: 'aaaaaaa'" in out

    def test_equiv_counterexample_to_canonical_verdict_exits_one(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "equivalent", lambda e1, e2: True)
        code, out, err = run_cli(capsys, "gsh", "equiv", "a", "b")
        assert code == 1
        assert "canonical: true" in out
        assert "counterexample: 'a'" in out
        assert "disagreement" in err

    def test_bad_expression(self, capsys):
        code, _, err = run_cli(capsys, "gsh", "eval", "a++b", "ab")
        assert code == 2 and "error" in err

    def test_equiv_maxlen_zero_allowed(self, capsys):
        code, out, _ = run_cli(capsys, "gsh", "equiv", "a", "a", "--maxlen", "0")
        assert code == 0 and "bounded (maxlen=0): true" in out

    def test_equiv_over_word_cap_is_usage_error(self, capsys):
        # 1 + 10 + ... + 10**6 words pass the cap at length 6: refused
        # before enumerating, without counting lengths 7..9
        start = time.perf_counter()
        code, out, err = run_cli(
            capsys, "gsh", "equiv", "a", "a",
            "--alphabet", "abcdefghij", "--maxlen", "9",
        )
        assert time.perf_counter() - start < 1.0
        assert code == 2 and out == ""
        assert f"cap of {gsh.MAX_BOUNDED_WORDS} words at length 6: 1111111 words" in err

    def test_equiv_word_cap_is_inclusive(self, capsys, monkeypatch):
        # words of length <= 3 over ab: 1 + 2 + 4 + 8 = 15
        argv = ("gsh", "equiv", "a", "a", "--alphabet", "ab", "--maxlen", "3")
        monkeypatch.setattr(gsh, "MAX_BOUNDED_WORDS", 15)
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0 and "bounded (maxlen=3): true" in out
        monkeypatch.setattr(gsh, "MAX_BOUNDED_WORDS", 14)
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "" and "15 words" in err

    @pytest.mark.parametrize(
        "text",
        ["(" * 3000 + "a" + ")" * 3000, "2 " * 3000 + "a"],
        ids=["parentheses", "integer-prefixes"],
    )
    def test_deep_nesting_is_usage_error(self, capsys, text):
        code, out, err = run_cli(capsys, "gsh", "linearize", text)
        assert code == 2 and out == "" and "nested deeper" in err


    @pytest.mark.parametrize("action, word", [("linearize", ()), ("eval", ("ab",))])
    def test_long_product_chain_is_usage_error(self, capsys, action, word):
        code, out, err = run_cli(capsys, "gsh", action, "*".join(["a"] * 3000), *word)
        assert code == 2 and out == "" and "nested deeper" in err

    def test_stacked_product_chains_are_usage_error(self, capsys):
        # each chain fits the bound on its own, but their first factors nest
        text = "a" + "*a" * 41
        for depth in range(58, -1, -1):
            text = "(" + text + ")" + "*a" * (gsh.MAX_NESTING - depth)
        code, out, err = run_cli(capsys, "gsh", "eval", text, "ab")
        assert code == 2 and out == "" and "nested deeper" in err

    def test_longest_letter_chain_linearizes(self, capsys):
        start = time.perf_counter()
        code, out, _ = run_cli(
            capsys, "gsh", "linearize", "*".join(["a"] * (gsh.MAX_NESTING + 1))
        )
        assert time.perf_counter() - start < 1.0
        # the lowest term, a, has coefficient S(n, 1) 1! = 1
        assert code == 0 and out.startswith("a + ")

    def test_oversized_product_is_usage_error(self, capsys):
        text = ".".join(["a"] * gsh.MAX_PRODUCT_FACTORS) + "*a"
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "gsh", "linearize", text)
        assert time.perf_counter() - start < 1.0
        assert code == 2 and out == ""
        assert f"product of {gsh.MAX_PRODUCT_FACTORS} and 1 factors exceeds" in err

    def test_huge_linear_form_is_usage_error(self, capsys):
        text = ".".join(["ab"] * 60) + "*" + ".".join(["ba"] * 60)
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "gsh", "linearize", text)
        assert time.perf_counter() - start < 10.0
        assert code == 2 and out == ""
        assert f"cap of {gsh.MAX_LINEAR_TERMS} terms" in err

    def test_zero_coefficient_product(self, capsys):
        # unscaled, the product exceeds the term cap (exit 2)
        text = "0(ab.ab.ab.ab.ab.ab*ba.ba.ba.ba.ba.ba)"
        code, out, _ = run_cli(capsys, "gsh", "linearize", text)
        assert code == 0 and out == "0\n"
        code, out, _ = run_cli(capsys, "gsh", "equiv", text, "#e - #e")
        assert code == 0
        assert out.splitlines() == ["canonical: true", "bounded (maxlen=6): true"]

    def test_equiv_over_letter_cap_is_usage_error(self, capsys):
        start = time.perf_counter()
        code, out, err = run_cli(
            capsys, "gsh", "equiv", "a", "a", "--alphabet", "a", "--maxlen", "999999"
        )
        assert time.perf_counter() - start < 1.0
        assert code == 2 and out == "" and "letters" in err

    def test_equiv_one_letter_at_the_letter_cap(self, capsys):
        # the largest one-letter maxlen both caps admit: 6325 words, walked
        # 6324 deep
        start = time.perf_counter()
        code, out, _ = run_cli(
            capsys, "gsh", "equiv", "a*a", "2(a.a)+a", "--alphabet", "a", "--maxlen", "6324"
        )
        assert time.perf_counter() - start < 2.0
        assert code == 0
        assert out.splitlines() == ["canonical: true", "bounded (maxlen=6324): true"]

    def test_long_sum_chain(self, capsys):
        code, out, _ = run_cli(capsys, "gsh", "linearize", "+".join(["a"] * 3000))
        assert code == 0 and out.strip() == "3000(a)"
        code, out, _ = run_cli(
            capsys, "gsh", "eval", "+".join(["a"] * 2000) + "-b" * 1000, "aab"
        )
        assert code == 0 and out.strip() == str(2000 * 2 - 1000)

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_value_past_the_int_to_text_limit(self, capsys, fmt):
        # each coefficient has 4001 digits, which parse; the value has over
        # 8000, past the 4300 up to which str() turns an int into text
        n = "9" * 4001
        expr = f"-{n}(a.b) * {n}(b) + a"
        code, out, err = run_cli(capsys, "gsh", "eval", expr, "aabb", "--format", fmt)
        assert (code, err) == (0, "")
        text = json.loads(out)["value"] if fmt == "json" else out.strip()
        assert text.startswith("-") and text[1:].isdigit() and len(text) > 8000
        assert Decimal(text) == gsh.evaluate(gsh.parse_expr(expr), "aabb")

    def test_coefficient_past_the_int_to_text_limit_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "gsh", "eval", "9" * 4301 + "(a)", "a")
        assert (code, out) == (2, "") and "error" in err


class TestVerify:
    def test_single_suite(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "witness", "--iters", "25", "--seed", "7"
        )
        assert code == 0
        assert out.strip() == "witness: PASS (25 cases)"

    def test_all_suites_pass(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--iters", "10", "--seed", "3", "--maxlen", "3"
        )
        assert code == 0
        assert len(out.strip().splitlines()) == 6
        assert "FAIL" not in out

    def test_seed_determinism(self, capsys):
        args = ("verify", "--iters", "8", "--seed", "11", "--format", "json")
        code1, out1, _ = run_cli(capsys, *args)
        code2, out2, _ = run_cli(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2

    @pytest.mark.parametrize(
        "seed, digest",
        [
            (0, "fcf0c66ced28ea1608ac11744d9358e3bfda4b40f54fa33bfb2db613099b61b4"),
            (5, "7c050e62b026c7251b31415dbb7a8a219b4a6a798e3a5acda8f570e819ce90cc"),
        ],
    )
    def test_all_suites_json_is_pinned(self, capsys, seed, digest):
        code, out, _ = run_cli(capsys, "verify", "all", "--seed", str(seed), "--format", "json")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_failure_sets_exit_code(self, capsys, monkeypatch):
        from parikhseq import fuzz

        def fake_run_suite(name, seed, iters, max_len):
            return fuzz.FuzzReport(name, 1, False, "pattern=a w='a'")

        monkeypatch.setattr(fuzz, "run_suite", fake_run_suite)
        code, out, _ = run_cli(capsys, "verify", "witness")
        assert code == 1
        assert "FAIL" in out and "counterexample" in out


class TestModuleEntryPoints:
    @pytest.mark.parametrize("module", ["parikhseq", "parikhseq.cli"])
    def test_python_dash_m(self, module):
        env = dict(os.environ, PYTHONPATH=str(SRC))
        proc = subprocess.run(
            [sys.executable, "-m", module, "count", "--subword", "ab", "aabb"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 0
        assert proc.stdout == "4\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "fold", "--iters", "-5"),
        ("verify", "fold", "--iters", "0"),
        ("verify", "fold", "--maxlen", "-1"),
        ("gsh", "equiv", "a", "b", "--maxlen", "-1"),
    ],
)
def test_counts_below_minimum_are_usage_errors(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == "" and argv[-2] in err
