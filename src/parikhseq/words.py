"""Ordered alphabets, words, and gap patterns.

Words are plain strings over single-character symbols from [a-zA-Z0-9].
Positions are 1-based in every public contract.  A gap pattern is a
nonempty sequence of nonempty factors; the gap marker between factors is
rendered '.' in text form ('•' is accepted as an input alias).  Its
`flat` letters and `boundaries` are all the counters need: the fragment a
matrix cell counts is cut into runs from them where it is counted (see
`counting.fragment_counts`), with no fragment type of its own.
"""

from __future__ import annotations

import string
from dataclasses import dataclass, field

SYMBOL_CHARS = frozenset(string.ascii_letters + string.digits)

_BULLETS = {".", "•"}


class PatternError(ValueError):
    """Malformed word, alphabet, or pattern text."""


def check_symbols(text: str, message: str) -> None:
    """Raise PatternError(message.format(symbol)) at the first symbol of
    text outside [a-zA-Z0-9].  The whole text is checked at C speed first;
    the symbol is looked for only when that check fails."""
    if not (text.isascii() and text.isalnum()):
        for ch in text:
            if ch not in SYMBOL_CHARS:
                raise PatternError(message.format(ch))


def check_letter(letter: str, message: str) -> None:
    """Raise PatternError(message.format(letter)) unless letter is one
    symbol of [a-zA-Z0-9]."""
    if not isinstance(letter, str) or letter not in SYMBOL_CHARS:
        raise PatternError(message.format(letter))


@dataclass(frozen=True)
class Alphabet:
    """An ordered set of single-character symbols; order index is 1-based."""

    symbols: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.symbols:
            raise PatternError("alphabet must not be empty")
        seen = set()
        for sym in self.symbols:
            check_letter(sym, "invalid alphabet symbol {!r}")
            if sym in seen:
                raise PatternError(f"duplicate alphabet symbol {sym!r}")
            seen.add(sym)

    @classmethod
    def parse(cls, text: str) -> Alphabet:
        return cls(tuple(text))

    def concat(self) -> str:
        """The symbols concatenated in order."""
        return "".join(self.symbols)

    def __contains__(self, symbol: object) -> bool:
        return symbol in self.symbols

    def __len__(self) -> int:
        return len(self.symbols)

    def __iter__(self):
        return iter(self.symbols)

    def __str__(self) -> str:
        return self.concat()


def parse_word(text: str, alphabet: Alphabet | None = None) -> str:
    """Validate word text and return it; with an alphabet, enforce membership."""
    check_symbols(text, "word contains invalid symbol {!r} (allowed: [a-zA-Z0-9])")
    if alphabet is not None:
        for ch in text:
            if ch not in alphabet:
                raise PatternError(
                    f"symbol {ch!r} not in alphabet {alphabet.concat()!r}"
                )
    return text


@dataclass(frozen=True)
class GapPattern:
    """A nonempty sequence of nonempty factors matched with gaps in between.

    `flat` is the concatenation of the factors (length L); `boundaries` holds
    the cumulative factor end positions l_1 < ... < l_{x-1}, each in [1, L-1].
    """

    factors: tuple[str, ...]
    flat: str = field(init=False, repr=False, compare=False)
    boundaries: frozenset[int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.factors:
            raise PatternError("pattern must have at least one factor")
        for factor in self.factors:
            if not factor:
                raise PatternError("pattern factors must be nonempty")
            check_symbols(
                factor, "pattern contains invalid symbol {!r} (allowed: [a-zA-Z0-9])"
            )
        flat = "".join(self.factors)
        cuts = []
        total = 0
        for factor in self.factors[:-1]:
            total += len(factor)
            cuts.append(total)
        object.__setattr__(self, "flat", flat)
        object.__setattr__(self, "boundaries", frozenset(cuts))

    @classmethod
    def parse(cls, text: str) -> GapPattern:
        """Parse pattern text, e.g. 'ab.c' -> factors (ab, c)."""
        if not text:
            raise PatternError("empty pattern")
        for bullet in _BULLETS:
            text = text.replace(bullet, ".")
        parts = text.split(".")
        if any(not part for part in parts):
            raise PatternError(f"empty factor in pattern {text!r}")
        return cls(tuple(parts))

    def render(self) -> str:
        return ".".join(self.factors)

    @property
    def flat_length(self) -> int:
        return len(self.flat)

    def factor_slice(self, i: int, j: int) -> GapPattern:
        """The sub-pattern q_i . ... . q_j (1-based factor indices)."""
        if not 1 <= i <= j <= len(self.factors):
            raise ValueError(
                f"factor slice [{i}, {j}] outside [1, {len(self.factors)}]"
            )
        return GapPattern(self.factors[i - 1 : j])

    def __str__(self) -> str:
        return self.render()
