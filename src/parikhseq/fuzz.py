"""Seeded property suites: the engine behind the `verify` subcommand.

Every suite but `gsh` is a property of a pattern and its words, run by one
case driver, _run_cases: it draws each case from a per-iteration RNG derived
from the master seed (reproducible in any execution order) and shrinks a
failing pattern, then each word, before reporting them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from . import gsh
from .counting import count_gapped, count_subword
from .minors import check_minor_nonneg, special_minor, witness_parikh_matrix, witness_word
from .parikh import ParikhContext, parikh_matrix
from .seqmat import minor_index_set, seq_matrix, seq_matrix_direct, special_minor_from_matrix
from .words import Alphabet, GapPattern

LETTER_POOL = "abc"
# a random pattern has 1..MAX_FACTORS factors of 1..MAX_FACTOR_LEN letters
MAX_FACTORS = 3
MAX_FACTOR_LEN = 3


@dataclass(frozen=True)
class FuzzReport:
    suite: str
    cases: int
    passed: bool
    counterexample: str | None = None


def _rng(seed: int, suite: str, index: int) -> random.Random:
    return random.Random(f"{seed}:{suite}:{index}")


def random_alphabet(rng: random.Random) -> Alphabet:
    size = rng.randint(1, len(LETTER_POOL))
    return Alphabet(tuple(LETTER_POOL[:size]))


def random_word(rng: random.Random, alphabet: Alphabet, max_len: int) -> str:
    length = rng.randint(0, max_len)
    return "".join(rng.choice(alphabet.symbols) for _ in range(length))


def random_pattern(rng: random.Random, alphabet: Alphabet, min_flat: int = 1) -> GapPattern:
    while True:
        count = rng.randint(1, MAX_FACTORS)
        factors = tuple(
            "".join(
                rng.choice(alphabet.symbols)
                for _ in range(rng.randint(1, MAX_FACTOR_LEN))
            )
            for _ in range(count)
        )
        pattern = GapPattern(factors)
        if pattern.flat_length >= min_flat:
            return pattern


def _shrink_word(w: str, still_fails: Callable[[str], bool]) -> str:
    changed = True
    while changed:
        changed = False
        for i in range(len(w)):
            candidate = w[:i] + w[i + 1 :]
            if still_fails(candidate):
                w = candidate
                changed = True
                break
    return w


def _shrink_pattern(
    pattern: GapPattern,
    still_fails: Callable[[GapPattern], bool],
    min_flat: int = 1,
) -> GapPattern:
    changed = True
    while changed:
        changed = False
        factors = pattern.factors
        candidates = []
        if len(factors) > 1:
            for i in range(len(factors)):
                candidates.append(factors[:i] + factors[i + 1 :])
        for i, factor in enumerate(factors):
            if len(factor) > 1:
                for k in range(len(factor)):
                    shorter = factor[:k] + factor[k + 1 :]
                    candidates.append(factors[:i] + (shorter,) + factors[i + 1 :])
        for cand in candidates:
            try:
                smaller = GapPattern(cand)
            except ValueError:
                continue
            if smaller.flat_length >= min_flat and still_fails(smaller):
                pattern = smaller
                changed = True
                break
    return pattern


def _homomorphism_holds(pattern: GapPattern, w1: str, w2: str) -> bool:
    """Matrix of a concatenation equals the product of the matrices."""
    lhs = seq_matrix(pattern, w1).matrix * seq_matrix(pattern, w2).matrix
    return lhs == seq_matrix(pattern, w1 + w2).matrix


def _fold_holds(pattern: GapPattern, w: str) -> bool:
    """Cell-by-cell construction agrees with the letter fold."""
    return seq_matrix(pattern, w) == seq_matrix_direct(pattern, w)


def _entries_hold(pattern: GapPattern, w: str) -> bool:
    """Classic matrix entries count subwords, over the letters the case
    uses; sequence-matrix cells at the special-minor indices count gapped
    subsequences."""
    alphabet = Alphabet(tuple(sorted(set(pattern.flat + w))))
    ctx = ParikhContext.classic(alphabet)
    mat = parikh_matrix(ctx, w)
    k = len(alphabet)
    v = ctx.inducing
    for i in range(1, k + 1):
        for j in range(i, k + 1):
            if mat.entry(i, j + 1) != count_subword(w, v[i - 1 : j]):
                return False
    idx = minor_index_set(pattern)
    full = seq_matrix(pattern, w).matrix
    x = len(pattern.factors)
    for i in range(1, x + 1):
        for j in range(i, x + 1):
            expected = count_gapped(w, pattern.factor_slice(i, j))
            if full.entry(idx[i - 1], idx[j]) != expected:
                return False
    return True


def _witness_holds(pattern: GapPattern, w: str) -> bool:
    """Witness reduction: the witness's Parikh matrix equals the special
    minor, and both minor constructions agree."""
    minor = special_minor(pattern, w)
    witness = witness_word(pattern, w)
    if witness_parikh_matrix(witness, len(pattern.factors)) != minor:
        return False
    if pattern.flat_length >= 2:
        if special_minor_from_matrix(seq_matrix(pattern, w)) != minor:
            return False
    return True


def _minors_holds(pattern: GapPattern, w: str) -> bool:
    """Every minor of every special minor has nonnegative determinant."""
    minor = special_minor(pattern, w)
    return check_minor_nonneg(minor, minor.dim).all_nonnegative


# suite -> (property of a pattern and words, word names, longest word,
# least flat length of the pattern)
_CASE_SUITES: dict[str, tuple[Callable[..., bool], tuple[str, ...], int, int]] = {
    "homomorphism": (_homomorphism_holds, ("w1", "w2"), 20, 2),
    "fold": (_fold_holds, ("w",), 20, 2),
    "entries": (_entries_hold, ("w",), 12, 2),
    "witness": (_witness_holds, ("w",), 10, 1),
    "minors": (_minors_holds, ("w",), 10, 1),
}


def _run_cases(suite: str, seed: int, iters: int) -> FuzzReport:
    """Draw a pattern and its words per case; on the first failure shrink
    the pattern, then each word in turn, and report them."""
    holds, names, max_len, min_flat = _CASE_SUITES[suite]
    for i in range(iters):
        rng = _rng(seed, suite, i)
        alphabet = random_alphabet(rng)
        pattern = random_pattern(rng, alphabet, min_flat=min_flat)
        words = [random_word(rng, alphabet, max_len) for _ in names]
        if holds(pattern, *words):
            continue
        pattern = _shrink_pattern(pattern, lambda p: not holds(p, *words), min_flat)
        for k in range(len(words)):
            words[k] = _shrink_word(
                words[k], lambda v: not holds(pattern, *words[:k], v, *words[k + 1 :])
            )
        text = " ".join(f"{name}={w!r}" for name, w in zip(names, words))
        return FuzzReport(suite, i + 1, False, f"pattern={pattern} {text}")
    return FuzzReport(suite, iters, True)


GSH_SUITE = (
    ("a*a", "ab", 6),
    ("(a.a)*a", "ab", 6),
    ("ab*ba", "ab", 6),
    ("(ab.c)*d", "abcd", 5),
    ("(abc.de)*(a.cd)", "abcde", 5),
    ("(a+b)*ab", "ab", 6),
    ("-(a*b)+a*b", "ab", 6),
)


def run_gsh(max_len: int) -> FuzzReport:
    """Linearization oracle over the fixed expression suite, plus the two
    junction-reduction reference results."""
    if red_empty := gsh.red(("abc", "c"), ("a", "c")):
        return FuzzReport(
            "gsh", 0, False, f"red(abc.c, a.c) expected 0, got {red_empty}"
        )
    expected = gsh.LinearForm({("abcde",): 1})
    if gsh.red(("abc", "de"), ("a", "cd")) != expected:
        return FuzzReport("gsh", 0, False, "red(abc.de, a.cd) != 1(abcde)")
    cases = 0
    for text, alpha_text, cap in GSH_SUITE:
        expr = gsh.parse_expr(text)
        linear = gsh.linearize(expr)
        alphabet = Alphabet.parse(alpha_text)
        bound = min(max_len, cap)
        w = gsh.first_difference(linear, expr, alphabet, bound)
        if w is None:
            cases += sum(len(alphabet) ** n for n in range(bound + 1))
            continue
        cases += _words_through(w, alphabet)
        w = _shrink_word(
            w, lambda v: gsh.evaluate(linear, v) != gsh.evaluate(expr, v)
        )
        return FuzzReport("gsh", cases, False, f"expr={text} w={w!r}")
    return FuzzReport("gsh", cases, True)


def _words_through(w: str, alphabet: Alphabet) -> int:
    """Words up to and including w in shortlex order (shorter first, then
    alphabet order): the shorter ones, then w's rank among its length read
    as a base-k numeral."""
    k = len(alphabet)
    rank = 0
    for ch in w:
        rank = rank * k + alphabet.symbols.index(ch)
    return sum(k**n for n in range(len(w))) + rank + 1


SUITES = (*_CASE_SUITES, "gsh")


def run_suite(name: str, seed: int, iters: int, max_len: int) -> FuzzReport:
    if name in _CASE_SUITES:
        return _run_cases(name, seed, iters)
    if name == "gsh":
        return run_gsh(max_len)
    raise ValueError(f"unknown suite {name!r}")
