"""Factor and sequence matrices over gap patterns.

For a pattern with flat length L >= 2 the matrix has dimension 3(L-1) and
block layout

    [[I, E, F],
     [0, C, S],
     [0, 0, I]]

with each block (L-1) x (L-1).  Cell meanings, with d = L-1 and B the
pattern's boundary set (1-based block coordinates, i <= j):

    F[i][j]  occurrences of the fragment [i, j+1], no anchors
    E[i][j]  fragment [i, j], anchored to the word's end iff j is not in B
    S[i][j]  fragment [i+1, j+1], anchored to the word's start iff i not in B
    C[i][j]  fragment [i+1, j], start-anchored iff i not in B, end-anchored
             iff j not in B (diagonal: the empty fragment, so 1 at boundary
             indices and [w is empty] elsewhere)

Everything below these triangles is 0 and the outer identity blocks hold 1s.
The mapping is a homomorphism: the matrix of a concatenation is the product
of the matrices, which the streaming fold exploits letter by letter.
"""

from __future__ import annotations

from functools import cache
from typing import Iterable, Union

from .counting import count_piece, factor_starts
from .intmat import IntMatrix
from .words import GapPattern, PatternError, Piece, SYMBOL_CHARS

# (block row, block column) of each named block in [[I,E,F],[0,C,S],[0,0,I]]
BLOCKS = {"E": (0, 1), "F": (0, 2), "C": (1, 1), "S": (1, 2)}


def block_dim(pattern: GapPattern) -> int:
    """Block dimension L-1; rejects flat length < 2 (matrix undefined)."""
    d = pattern.flat_length - 1
    if d < 1:
        raise PatternError(
            f"pattern {pattern} has flat length {pattern.flat_length}; "
            "the matrix mapping needs flat length >= 2"
        )
    return d


def block_piece(pattern: GapPattern, name: str, i: int, j: int) -> Piece:
    """Piece counted by cell (i, j) of a named block, 1 <= i <= j <= d.

    One rule covers all four blocks: the fragment runs from flat position i
    (i+1 in the middle block row, start-anchored unless i is in B) to j+1
    (j in the middle block column, end-anchored unless j is in B).
    """
    r, c = BLOCKS[name]
    b = pattern.boundaries
    return pattern.piece(i + r, j + c - 1, r == 1 and i not in b, c == 1 and j not in b)


class SeqMatrix:
    """A pattern together with its 3(L-1)-dimensional matrix image."""

    __slots__ = ("pattern", "matrix")

    def __init__(self, pattern: GapPattern, matrix: IntMatrix):
        d = block_dim(pattern)
        if matrix.dim != 3 * d:
            raise ValueError(
                f"matrix dim {matrix.dim} does not match pattern dim {3 * d}"
            )
        object.__setattr__(self, "pattern", pattern)
        object.__setattr__(self, "matrix", matrix)

    def __setattr__(self, name, value):
        raise AttributeError("SeqMatrix is immutable")

    @property
    def dim_block(self) -> int:
        return self.matrix.dim // 3

    def block(self, name: str) -> IntMatrix:
        """Named (L-1) x (L-1) block: E, F, C, or S."""
        if name not in BLOCKS:
            raise ValueError(f"unknown block {name!r}")
        d = self.dim_block
        r0, c0 = (d * k for k in BLOCKS[name])
        return IntMatrix(
            [row[c0 : c0 + d] for row in self.matrix.rows[r0 : r0 + d]]
        )

    def blocks(self) -> dict[str, IntMatrix]:
        return {name: self.block(name) for name in BLOCKS}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SeqMatrix):
            return NotImplemented
        return self.pattern == other.pattern and self.matrix == other.matrix

    def __hash__(self) -> int:
        return hash((self.pattern, self.matrix))

    def __str__(self) -> str:
        return str(self.matrix)


def _assemble(pattern: GapPattern, blocks: dict[str, list[list[int]]]) -> SeqMatrix:
    """Full matrix from column-major d x d blocks (block[j][i] is entry
    (i, j)), placed by BLOCKS on an identity background."""
    d = len(blocks["E"])
    zero = [0] * d
    zeros = [zero] * d
    unit = [zero[:j] + [1] + zero[j + 1 :] for j in range(d)]
    # grid[block column][block row], each block column-major
    grid = [[unit, zeros, zeros], [zeros, unit, zeros], [zeros, zeros, unit]]
    for name, (br, bc) in BLOCKS.items():
        grid[bc][br] = blocks[name]
    cols = [top[j] + mid[j] + low[j] for top, mid, low in grid for j in range(d)]
    return SeqMatrix(pattern, IntMatrix(zip(*cols)))


def seq_matrix_direct(pattern: GapPattern, w: str) -> SeqMatrix:
    """Matrix built cell by cell from anchored-piece counts.

    Every cell is counted on its own by `count_piece`, with no value taken
    from another cell; the calls share one start list per distinct run of
    w, memoized for this call and dropped when it returns.
    """
    d = block_dim(pattern)
    starts = cache(factor_starts)
    return _assemble(
        pattern,
        {
            name: [
                [count_piece(w, block_piece(pattern, name, i, j), starts) if i <= j else 0
                 for i in range(1, d + 1)]
                for j in range(1, d + 1)
            ]
            for name in BLOCKS
        },
    )


def seq_matrix_letter(pattern: GapPattern, letter: str) -> IntMatrix:
    """Generator matrix of a single letter."""
    if len(letter) != 1 or letter not in SYMBOL_CHARS:
        raise PatternError(f"invalid letter {letter!r}")
    return seq_matrix_direct(pattern, letter).matrix


# a SeqFold plan for one letter: F/S columns to update, (j, keep, unit) steps, clears
_Plan = tuple[tuple[int, ...], tuple[tuple[int, bool, int], ...], tuple[int, ...]]


def _run_bits(n: int) -> int:
    """Bits per pattern run in a SeqFold limb after n letters (see SeqFold);
    at least 16, so words under 2**16 letters are never repacked."""
    return max(n.bit_length(), 16)


class SeqFold:
    """Streaming left-to-right fold of letter matrices for one pattern.

    A letter's generator is sparse: its E and S blocks are diagonal 0/1, its
    C block is a 0/1 diagonal plus a 0/1 superdiagonal, and its F block is
    zero.  Appending letter c therefore reduces to per-column updates on the
    running blocks, using the product rules

        F <- F + E * S_c      S <- S + C * S_c
        E <- E_c + E * C_c    C <- C * C_c

    with the F and S updates reading the pre-push E and C.  Column j of E
    and C (1 <= j <= d) is kept when j is a boundary (C_c[j][j] = 1), gets
    column j-1, plus a unit in E's row j, added when flat letter j is c, and
    is zero otherwise.  O(1) matrices are in flight regardless of word length.

    Each column is packed into one Python int of limbs W bits wide: entry
    (i, j) sits in bits [(i-1)*W, i*W) of column j.  E and C also hold a
    column 0 that is always zero, which column 1 takes like any other
    column.  A push is then whole-int arithmetic, one operation per column:
    an F or S column adds the E or C column, a stepped E or C column adds
    column j-1 (E also the unit bit of row j), and a cleared column is set
    to 0.  result() unpacks the limbs.

    No limb carries into the next.  Let f = len(pattern.factors) and
    n >= 1 the letters pushed.  An entry counts the occurrences of a
    fragment of at most f runs, possibly anchored.  An occurrence is fixed
    by the start positions of its r runs and anchoring only drops
    occurrences, so the entry is at most C(n, r) <= n**r <= n**f (the empty
    fragment counts 1 = n**0).  With b = n.bit_length(), n**f < 2**(f*b).
    Every sum a push forms is a sum of nonnegative terms of an entry after
    that push, so it obeys the same bound.  Hence W = f * max(b, 16) + 1
    suffices; the top bit of each limb is a guard bit that stays clear, and
    result() and each repack raise RuntimeError if one is set.  W depends
    on n only through max(b, 16), so it grows only when n reaches 2**16,
    2**17, ...; that push first unpacks every column and repacks it wider.

    The first push of each letter at a width validates the letter and
    caches its plan: the columns j whose F and S change, the (j, keep,
    unit) steps for the E and C columns that take column j-1 (added to a
    kept column, else moved in), and the columns to clear.  Steps run
    highest j first and clears run last, so every step reads the pre-push
    column j-1.  Kept columns with nothing to add are left out.
    """

    def __init__(self, pattern: GapPattern):
        d = block_dim(pattern)
        self.pattern = pattern
        self._d = d
        self._runs = len(pattern.factors)
        self._n = 0  # letters pushed
        self._set_width(0)
        # packed columns 0..d of E, F, C, S in BLOCKS order
        c = [0] + [1 << (j - 1) * self._w for j in range(1, d + 1)]
        self._cols = ([0] * (d + 1), [0] * (d + 1), c, [0] * (d + 1))

    def _set_width(self, n: int) -> None:
        """Limbs wide enough for every count until the letter count reaches
        the next power of two past n."""
        bits = _run_bits(n)
        self._w = self._runs * bits + 1
        self._widen_at = 1 << bits
        self._plans: dict[str, _Plan] = {}

    def _plan(self, letter: str) -> _Plan:
        if len(letter) != 1 or letter not in SYMBOL_CHARS:
            raise PatternError(f"invalid letter {letter!r}")
        flat, b, d, w = self.pattern.flat, self.pattern.boundaries, self._d, self._w
        tails = tuple(j for j in range(1, d + 1) if flat[j] == letter)
        steps = tuple(
            (j, j in b, 1 << (j - 1) * w) for j in range(d, 0, -1) if flat[j - 1] == letter
        )
        clears = tuple(j for j in range(1, d + 1) if flat[j - 1] != letter and j not in b)
        plan = self._plans[letter] = (tails, steps, clears)
        return plan

    def _unpacked(self) -> list[list[list[int]]]:
        """E, F, C, S as column-major d x d lists; raises RuntimeError if a
        limb's guard bit is set."""
        d, w = self._d, self._w
        guard = sum(1 << i * w + w - 1 for i in range(d))
        if any(col & guard for cols in self._cols for col in cols):
            raise RuntimeError(
                f"SeqFold: an entry overflowed its {w - 1}-bit limb after {self._n} letters"
            )
        mask = (1 << w - 1) - 1
        shifts = [i * w for i in range(d)]
        zero = [0] * d
        # column j has rows 1..j
        return [
            [[col >> k & mask for k in shifts[:j]] + zero[j:] if col else zero
             for j, col in enumerate(cols[1:], 1)]
            for cols in self._cols
        ]

    def _widen(self, n: int) -> None:
        blocks = self._unpacked()
        self._set_width(n)
        shifts = [i * self._w for i in range(self._d)]
        for cols, block in zip(self._cols, blocks):
            cols[1:] = [sum(v << k for v, k in zip(col, shifts)) for col in block]

    def push(self, letter: str) -> None:
        plan = self._plans.get(letter)
        if plan is None:
            plan = self._plan(letter)  # validates before anything changes
        n = self._n + 1
        if n == self._widen_at:
            self._widen(n)
            plan = self._plan(letter)
        self._n = n
        tails, steps, clears = plan
        e, f, c, s = self._cols
        for j in tails:
            f[j] += e[j]
            s[j] += c[j]
        for j, keep, unit in steps:
            if keep:
                e[j] += e[j - 1] + unit
                c[j] += c[j - 1]
            else:
                e[j] = e[j - 1] + unit
                c[j] = c[j - 1]
        for j in clears:
            e[j] = c[j] = 0

    def extend(self, letters: Iterable[str]) -> None:
        for letter in letters:
            self.push(letter)

    def result(self) -> SeqMatrix:
        return _assemble(self.pattern, dict(zip(BLOCKS, self._unpacked())))


def seq_matrix(pattern: GapPattern, letters: Union[str, Iterable[str]]) -> SeqMatrix:
    """Matrix image of a word, computed as the streaming fold of letter
    generators; equals seq_matrix_direct on every input."""
    fold = SeqFold(pattern)
    fold.extend(letters)
    return fold.result()


def factor_matrix(sigma: str, w: str) -> SeqMatrix:
    """Factor-counting special case: the bullet-free pattern [sigma]."""
    if len(sigma) < 2:
        raise PatternError(f"factor matrix needs |sigma| >= 2, got {sigma!r}")
    return seq_matrix(GapPattern((sigma,)), w)
