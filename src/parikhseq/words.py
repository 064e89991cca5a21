"""Ordered alphabets, words, gap patterns, and anchored pieces.

Words are plain strings over single-character symbols from [a-zA-Z0-9].
Positions are 1-based in every public contract.  A gap pattern is a
nonempty sequence of nonempty factors; the gap marker between factors is
rendered '.' in text form ('•' is accepted as an input alias).
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


@dataclass(frozen=True)
class Alphabet:
    """An ordered set of single-character symbols; order index is 1-based."""

    symbols: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.symbols:
            raise PatternError("alphabet must not be empty")
        seen = set()
        for sym in self.symbols:
            if len(sym) != 1 or sym not in SYMBOL_CHARS:
                raise PatternError(f"invalid alphabet symbol {sym!r}")
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
class Piece:
    """A fragment of a gap pattern: sub-factor runs plus optional end anchors.

    An occurrence places the runs in order with a gap of length >= 0 between
    consecutive runs.  `left_anchored` pins the first run to the start of the
    containing word, `right_anchored` pins the last run to its end.
    """

    runs: tuple[str, ...]
    left_anchored: bool = False
    right_anchored: bool = False

    def __post_init__(self) -> None:
        for run in self.runs:
            if not run:
                raise PatternError("piece runs must be nonempty")

    @property
    def is_empty(self) -> bool:
        return not self.runs

    def __str__(self) -> str:
        text = ".".join(self.runs)
        left = "^" if self.left_anchored else ""
        right = "$" if self.right_anchored else ""
        return f"{left}{text}{right}"


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

    def piece(
        self,
        i: int,
        j: int,
        left_anchored: bool = False,
        right_anchored: bool = False,
    ) -> Piece:
        """The fragment between flat positions i and j, split at boundaries.

        i = j + 1 yields the empty piece (anchors carried unchanged); otherwise
        1 <= i <= j <= L is required.  Runs are cut at each boundary strictly
        inside [i, j-1].
        """
        length = len(self.flat)
        if j + 1 == i:
            if not 1 <= i <= length + 1:
                raise ValueError(f"empty piece start {i} outside [1, {length + 1}]")
            return Piece((), left_anchored, right_anchored)
        if not 1 <= i <= j <= length:
            raise ValueError(f"piece bounds [{i}, {j}] outside [1, {length}]")
        cuts = sorted(b for b in self.boundaries if i <= b < j)
        runs = []
        start = i
        for cut in cuts:
            runs.append(self.flat[start - 1 : cut])
            start = cut + 1
        runs.append(self.flat[start - 1 : j])
        return Piece(tuple(runs), left_anchored, right_anchored)

    def factor_slice(self, i: int, j: int) -> GapPattern:
        """The sub-pattern q_i . ... . q_j (1-based factor indices)."""
        if not 1 <= i <= j <= len(self.factors):
            raise ValueError(
                f"factor slice [{i}, {j}] outside [1, {len(self.factors)}]"
            )
        return GapPattern(self.factors[i - 1 : j])

    def __str__(self) -> str:
        return self.render()
