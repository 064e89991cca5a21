"""Command-line front end.

Subcommands: count, matrix, minor, witness, gsh (eval|linearize|equiv),
verify.  Words come from the positional argument, --file, or standard input
('-' or no argument); whitespace in piped input is ignored.  The matrix
subcommand reads piped words in chunks of at most 64 KiB and pushes them
through the fold letter by letter, so very long words stream in bounded
memory; from the 1025th letter on each push runs one generated
straight-line step (see parikhseq.packed).  Its text lines are rendered
only under --format text.  A buffered word (argument or --file) of up to
200 000 letters is cross-checked against the direct construction, for
every matrix kind; piped words are not.  The scalars of count and gsh eval
are printed in full, however many digits they have.

Exit codes: 0 success, 1 property violation or internal disagreement,
2 usage or parse errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from decimal import Decimal
from typing import Iterable, Iterator

from . import fuzz
from .counting import count_factor, count_gapped, count_subword
from .gsh import equivalent, equivalent_bounded, evaluate, linearize, parse_expr
from .intmat import IntMatrix
from .minors import special_minor, verify_witness, witness_text
from .parikh import ParikhContext, ParikhFold, parikh_matrix_direct
from .seqmat import SeqFold, minor_index_set, seq_matrix, seq_matrix_direct, special_minor_from_matrix
from .words import Alphabet, GapPattern, PatternError, check_symbols, parse_word

# buffered words up to this length are cross-checked against the direct
# construction; piped input streams through the fold unchecked
_CHECK_LIMIT = 200_000


def _stdin_chunks(stream) -> Iterator[str]:
    """The piped word in chunks of at most 64 KiB, whitespace dropped and
    every symbol checked before the chunk is handed out."""
    while True:
        chunk = stream.read(65536)
        if not chunk:
            return
        chunk = "".join(chunk.split())
        check_symbols(chunk, "invalid symbol {!r} in piped word")
        yield chunk


def _word_input(args) -> tuple[str | None, Iterable[str]]:
    """Resolve the word source: (buffered word or None, its chunks); a
    buffered word is one chunk."""
    word = getattr(args, "word", None)
    path = getattr(args, "file", None)
    if word is not None and path is not None:
        raise PatternError("give the word either as an argument or via --file")
    if path is not None:
        with open(path, "r", encoding="ascii") as fh:
            text = "".join(fh.read().split())
        word = parse_word(text)
        return word, (word,)
    if word is None or word == "-":
        return None, _stdin_chunks(sys.stdin)
    return parse_word(word), (word,)


def _buffered_word(args) -> str:
    """The whole word in memory, whatever its source."""
    word, chunks = _word_input(args)
    return "".join(chunks) if word is None else word


def _at_least(value: int, minimum: int, flag: str) -> None:
    """Reject a count below its minimum as a usage error (exit 2)."""
    if value < minimum:
        raise ValueError(f"{flag} must be at least {minimum}, got {value}")


def _digits(value: int) -> str:
    """value in decimal, all of it: str() refuses ints past the interpreter's
    limit on integer string conversion (4300 digits by default)."""
    return str(Decimal(value))


def _emit(args, payload: dict, text_lines: list[str]) -> None:
    if args.format == "json":
        print(json.dumps(payload, indent=2))
    else:
        for line in text_lines:
            print(line)


def cmd_count(args) -> int:
    word = _buffered_word(args)
    if args.subword is not None:
        value = count_subword(word, parse_word(args.subword))
    elif args.factor is not None:
        value = count_factor(word, parse_word(args.factor))
    else:
        value = count_gapped(word, GapPattern.parse(args.genseq))
    text = _digits(value)
    _emit(args, {"count": text}, [text])
    return 0


def cmd_matrix(args) -> int:
    word, chunks = _word_input(args)
    head: dict = {}  # payload fields before "length"
    tail: dict = {}  # and after it
    if args.kind in ("classic", "extended"):
        alphabet = Alphabet.parse(args.alphabet)
        if args.kind == "classic":
            mapping = ParikhContext.classic(alphabet)
        else:
            mapping = ParikhContext(alphabet, parse_word(args.inducing, alphabet))
            tail["inducing"] = mapping.inducing
        head["alphabet"] = str(alphabet)
        fold, direct = ParikhFold(mapping), parikh_matrix_direct
    else:
        if args.kind == "factor":
            sigma = Alphabet.parse(args.alphabet).concat()
            mapping = GapPattern((sigma,))
            if len(sigma) < 2:
                raise PatternError("matrix factor needs an alphabet of size >= 2")
        else:
            mapping = GapPattern.parse(args.pattern)
        head["pattern"] = mapping.render()
        # SeqFold rejects flat length < 2 before any input is consumed
        fold, direct = SeqFold(mapping), seq_matrix_direct
    n = 0
    for chunk in chunks:
        fold.extend(chunk)
        n += len(chunk)
    result = fold.result()
    if word is not None and len(word) <= _CHECK_LIMIT and direct(mapping, word) != result:
        print("internal error: fold disagrees with direct construction", file=sys.stderr)
        return 1
    payload = {"kind": args.kind, **head, "length": n, **tail}
    text = args.format == "text"  # text lines are built only when printed
    if isinstance(result, IntMatrix):
        payload.update(result.to_json_dict())
        _emit(args, payload, str(result).splitlines() if text else [])
        return 0
    payload.update(result.matrix.to_json_dict())
    blocks = result.blocks()
    payload["blocks"] = {name: block.to_json_dict()["rows"] for name, block in blocks.items()}
    lines = []
    if text:
        lines = str(result.matrix).splitlines()
        for name, block in blocks.items():
            lines.append(f"{name}:")
            lines.extend(str(block).splitlines())
    _emit(args, payload, lines)
    return 0


def cmd_minor(args) -> int:
    word = _buffered_word(args)
    pattern = GapPattern.parse(args.pattern)
    minor = special_minor(pattern, word)
    indices: tuple[int, ...] = ()
    if pattern.flat_length >= 2:
        indices = minor_index_set(pattern)
        extracted = special_minor_from_matrix(seq_matrix(pattern, word))
        if extracted != minor:
            print("internal error: extracted minor disagrees with direct construction", file=sys.stderr)
            return 1
    payload = {"pattern": pattern.render(), "indices": list(indices)}
    payload.update(minor.to_json_dict())
    _emit(args, payload, str(minor).splitlines())
    return 0


def cmd_witness(args) -> int:
    word = _buffered_word(args)
    pattern = GapPattern.parse(args.pattern)
    witness, minor, verified = verify_witness(pattern, word)
    text = witness_text(witness, len(pattern.factors))
    payload = {
        "pattern": pattern.render(),
        "witness": text,
        "verified": verified,
        "minor": minor.to_json_dict(),
    }
    _emit(args, payload, [text, f"verified: {str(verified).lower()}"])
    return 0 if verified else 1


def cmd_gsh(args) -> int:
    if args.action == "eval":
        word = _buffered_word(args)
        text = _digits(evaluate(parse_expr(args.expr), word))
        _emit(args, {"value": text}, [text])
        return 0
    if args.action == "linearize":
        linear = linearize(parse_expr(args.expr))
        _emit(args, {"terms": linear.to_json_list()}, [linear.render()])
        return 0
    # equiv: canonical verdict (every alphabet) plus the exhaustive bounded
    # one; only a counterexample to a canonical "equivalent" exits 1
    _at_least(args.maxlen, 0, "--maxlen")
    e1 = parse_expr(args.expr)
    e2 = parse_expr(args.expr2)
    canonical = equivalent(e1, e2)
    alphabet = Alphabet.parse(args.alphabet)
    bounded, cex = equivalent_bounded(e1, e2, alphabet, args.maxlen)
    payload = {
        "canonical": canonical,
        "bounded": bounded,
        "maxlen": args.maxlen,
        "counterexample": cex,
    }
    lines = [
        f"canonical: {str(canonical).lower()}",
        f"bounded (maxlen={args.maxlen}): {str(bounded).lower()}",
    ]
    if cex is not None:
        lines.append(f"counterexample: {cex!r}")
    _emit(args, payload, lines)
    if canonical and not bounded:
        print(
            "disagreement: canonical linear forms and bounded evaluation differ",
            file=sys.stderr,
        )
        return 1
    if bounded and not canonical:
        print(
            f"note: the bounded verdict covers only words over {alphabet} (--alphabet) "
            f"up to length {args.maxlen} (--maxlen); the canonical verdict covers "
            "every alphabet",
            file=sys.stderr,
        )
    return 0


def cmd_verify(args) -> int:
    _at_least(args.iters, 1, "--iters")
    _at_least(args.maxlen, 0, "--maxlen")
    names = fuzz.SUITES if args.suite == "all" else (args.suite,)
    reports = [
        fuzz.run_suite(name, args.seed, args.iters, args.maxlen) for name in names
    ]
    payload = {
        "seed": args.seed,
        "suites": [
            {
                "name": r.suite,
                "cases": r.cases,
                "passed": r.passed,
                "counterexample": r.counterexample,
            }
            for r in reports
        ],
    }
    lines = []
    for r in reports:
        status = "PASS" if r.passed else "FAIL"
        line = f"{r.suite}: {status} ({r.cases} cases)"
        if r.counterexample:
            line += f" counterexample: {r.counterexample}"
        lines.append(line)
    _emit(args, payload, lines)
    return 0 if all(r.passed for r in reports) else 1


def _add_format(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--format", choices=("text", "json"), default="text", help="output format"
    )


def _add_word_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("word", nargs="?", help="word ('-' or omitted: stdin)")
    parser.add_argument("--file", help="read the word from a file")
    _add_format(parser)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="parikhseq",
        description="Parikh, factor, and sequence matrices; gapped subsequence "
        "counting; generalized subword histories.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_count = sub.add_parser("count", help="count occurrences in a word")
    kinds = p_count.add_mutually_exclusive_group(required=True)
    kinds.add_argument("--subword", help="scattered subword to count")
    kinds.add_argument("--factor", help="contiguous factor to count")
    kinds.add_argument("--genseq", help="gap pattern to count, e.g. ab.c")
    _add_word_args(p_count)
    p_count.set_defaults(func=cmd_count)

    p_matrix = sub.add_parser("matrix", help="compute a matrix image of a word")
    matrix_sub = p_matrix.add_subparsers(dest="kind", required=True)
    for kind, flags in (
        ("classic", ("--alphabet",)),
        ("extended", ("--alphabet", "--inducing")),
        ("factor", ("--alphabet",)),
        ("sequence", ("--pattern",)),
    ):
        p_kind = matrix_sub.add_parser(kind)
        for flag in flags:
            p_kind.add_argument(flag, required=True)
        _add_word_args(p_kind)
        p_kind.set_defaults(func=cmd_matrix, kind=kind)

    p_minor = sub.add_parser("minor", help="special minor of the sequence matrix")
    p_minor.add_argument("--pattern", required=True)
    _add_word_args(p_minor)
    p_minor.set_defaults(func=cmd_minor)

    p_witness = sub.add_parser(
        "witness", help="witness word reducing the special minor to a Parikh matrix"
    )
    p_witness.add_argument("--pattern", required=True)
    _add_word_args(p_witness)
    p_witness.set_defaults(func=cmd_witness)

    p_gsh = sub.add_parser("gsh", help="generalized subword histories")
    gsh_sub = p_gsh.add_subparsers(dest="action", required=True)
    g_eval = gsh_sub.add_parser("eval", help="evaluate an expression in a word")
    g_eval.add_argument("expr")
    _add_word_args(g_eval)
    g_eval.set_defaults(func=cmd_gsh)
    g_lin = gsh_sub.add_parser("linearize", help="equivalent linear form")
    g_lin.add_argument("expr")
    _add_format(g_lin)
    g_lin.set_defaults(func=cmd_gsh)
    g_eq = gsh_sub.add_parser(
        "equiv", help="decide equivalence (canonical and bounded verdicts)"
    )
    g_eq.add_argument("expr")
    g_eq.add_argument("expr2")
    g_eq.add_argument("--alphabet", default="ab")
    g_eq.add_argument("--maxlen", type=int, default=6)
    _add_format(g_eq)
    g_eq.set_defaults(func=cmd_gsh)

    p_verify = sub.add_parser("verify", help="run seeded property suites")
    p_verify.add_argument(
        "suite", nargs="?", default="all", choices=(*fuzz.SUITES, "all")
    )
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--iters", type=int, default=200)
    p_verify.add_argument("--maxlen", type=int, default=5)
    _add_format(p_verify)
    p_verify.set_defaults(func=cmd_verify)

    return parser


# built once: parse_args keeps no state between calls, and building the tree
# takes ~2.7 ms
_PARSER = build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        return args.func(args)
    except (PatternError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
