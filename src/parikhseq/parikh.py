"""Classic and extended Parikh matrix mappings.

The mapping induced by a word v of length k sends each letter to a unit
upper-triangular (k+1) x (k+1) matrix with a 1 at (q, q+1) for every
position q where v carries that letter, and extends to words as the product
of letter matrices.  Entry (i, j+1) of the image of w then counts the
occurrences of v[i..j] in w as a scattered subword.  The classic mapping is
the special case where v enumerates the ordered alphabet.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Sequence

from .counting import subword_prefix_counts
from .intmat import IntMatrix
from .packed import PackedFold, Plan
from .words import Alphabet, PatternError, parse_word


@dataclass(frozen=True)
class ParikhContext:
    """Alphabet plus the inducing word that fixes the matrix dimension."""

    alphabet: Alphabet
    inducing: str

    def __post_init__(self) -> None:
        if not self.inducing:
            raise PatternError("inducing word must be nonempty")
        parse_word(self.inducing, self.alphabet)

    @classmethod
    def classic(cls, alphabet: Alphabet) -> ParikhContext:
        """Inducing word = the alphabet in order (the original mapping)."""
        return cls(alphabet, alphabet.concat())

    @property
    def dim(self) -> int:
        return len(self.inducing) + 1


def subword_matrix(inducing: Sequence[Hashable], w: Sequence[Hashable]) -> IntMatrix:
    """Image of w under the mapping induced by `inducing`, counted directly:
    row i is i zeros, then the counts of the prefixes of inducing[i:] as
    scattered subwords of w, so each row is one subword_prefix_counts pass.
    Both arguments may be any sequences of hashable symbols."""
    rows = range(len(inducing) + 1)
    return IntMatrix([[0] * i + subword_prefix_counts(w, inducing[i:]) for i in rows])


class ParikhFold(PackedFold):
    """Streaming left-to-right fold of letter matrices.

    Appending a letter multiplies on the right by a sparse generator, which
    reduces to column updates col[q+1] += col[q] for every inducing-word
    position q holding the letter; they run in descending q so each update
    reads pre-push values.  They are the adds of the letter's plan (see
    PackedFold); no update zeroes a column, so every column stays live and
    _plan returns the live mask it is given: one step per letter.

    Each column is packed into one Python int of k+1 limbs, k =
    len(ctx.inducing): row i of the column sits in limb i (see PackedFold),
    so an update is one int addition.  Entry (i, j+1) above the diagonal
    counts a scattered subword of length l = j - i + 1 <= k, and an
    occurrence is fixed by the positions of its l letters, so after n >= 1
    letters the entry is at most C(n, l) <= n**k; the diagonal holds
    1 = n**0.  Each update sums two entries of the same column into an
    entry after the push, so PackedFold's width rule applies with
    exponent k: W = k * max(n.bit_length(), 16) + 1.
    """

    def __init__(self, ctx: ParikhContext):
        self.ctx = ctx
        self._symbols = frozenset(ctx.alphabet)  # the letters _plan accepts
        super().__init__(len(ctx.inducing), ctx.dim)
        self._cols = [1 << q * self._w for q in range(ctx.dim)]  # the identity

    def _plan(self, letter: str, live: int) -> tuple[Plan, int]:
        if letter not in self.ctx.alphabet:
            raise PatternError(f"symbol {letter!r} not in alphabet {self.ctx.alphabet}")
        inducing = self.ctx.inducing
        adds = tuple(
            (q + 1, q) for q in range(len(inducing) - 1, -1, -1) if inducing[q] == letter
        )
        return (adds, ()), live

    push = PackedFold.push

    def result(self) -> IntMatrix:
        return IntMatrix(list(zip(*self._unpacked())))


def parikh_matrix(ctx: ParikhContext, w: str) -> IntMatrix:
    """Image of w under the mapping induced by ctx (fold of letter matrices)."""
    fold = ParikhFold(ctx)
    fold.extend(w)
    return fold.result()


def parikh_matrix_direct(ctx: ParikhContext, w: str) -> IntMatrix:
    """Oracle independent of the fold: above-diagonal cells are subword
    counts, one prefix-count pass per row (see subword_matrix)."""
    return subword_matrix(ctx.inducing, w)
