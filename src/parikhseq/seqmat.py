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
from operator import add
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


# a SeqFold plan for one letter: F/S columns to update, (j, keep) steps, clears
_Plan = tuple[tuple[int, ...], tuple[tuple[int, bool], ...], tuple[int, ...]]


class SeqFold:
    """Streaming left-to-right fold of letter matrices for one pattern.

    A letter's generator is sparse: its E and S blocks are diagonal 0/1, its
    C block is a 0/1 diagonal plus a 0/1 superdiagonal, and its F block is
    zero.  Appending letter c therefore reduces to per-column updates on the
    running blocks (stored column-major), using the product rules

        F <- F + E * S_c      S <- S + C * S_c
        E <- E_c + E * C_c    C <- C * C_c

    with the F and S updates reading the pre-push E and C.  Column j
    (0-based) of E and C is kept when j+1 is a boundary (C_c[j][j] = 1),
    gets column j-1, plus a unit in E's row j, added when flat letter j is
    c, and is zero otherwise.  O(1) matrices are in flight regardless of word length.

    Columns are triangular: column j holds rows 0..j only, and result()
    pads it to length d.  No stored column is ever mutated, so a column
    that does not change is reused by reference, a column moved in from
    j-1 costs one concatenation, and F and S may share E's and C's columns.
    Each length j+1 has one shared zero column and one shared unit column
    (a 1 in row j).  Clearing stores the zero column and moving it keeps it
    zero; moving it into E gives the unit column.  Adding the zero column
    is skipped by an identity test, and adding the unit column to F is one
    increment.  On sparse patterns most columns are zero or unit.

    The first push of each letter validates it and caches its plan: the
    columns j whose F and S change, the (j, keep) steps for the E and C
    columns that take column j-1 (added to a kept column, else moved in),
    and the columns to clear.  Steps run highest j first and clears run
    last, so every step reads the pre-push column j-1.  Kept columns with
    nothing to add are left out.
    """

    def __init__(self, pattern: GapPattern):
        d = block_dim(pattern)
        self.pattern = pattern
        self._zero = zero = [[0] * (j + 1) for j in range(d)]
        self._unit = unit = [[0] * j + [1] for j in range(d)]
        # column-major, triangular blocks: block[j][i] is the (i, j) entry
        self._e = list(zero)
        self._f = list(zero)
        self._s = list(zero)
        self._c = list(unit)
        self._plans: dict[str, _Plan] = {}

    def _plan(self, letter: str) -> _Plan:
        if len(letter) != 1 or letter not in SYMBOL_CHARS:
            raise PatternError(f"invalid letter {letter!r}")
        flat, b = self.pattern.flat, self.pattern.boundaries
        d = len(self._zero)
        tails = tuple(j for j in range(d) if flat[j + 1] == letter)
        steps = tuple((j, j + 1 in b) for j in reversed(range(d)) if flat[j] == letter)
        clears = tuple(j for j in range(d) if flat[j] != letter and j + 1 not in b)
        plan = self._plans[letter] = (tails, steps, clears)
        return plan

    def push(self, letter: str) -> None:
        plan = self._plans.get(letter)
        tails, steps, clears = plan if plan is not None else self._plan(letter)
        e, f, s, c, zero, unit = self._e, self._f, self._s, self._c, self._zero, self._unit
        for j in tails:
            z = zero[j]
            col = e[j]
            if col is not z:
                acc = f[j]
                if acc is z:
                    f[j] = col
                elif col is unit[j]:
                    acc = acc[:]
                    acc[j] += 1
                    f[j] = acc
                else:
                    f[j] = list(map(add, acc, col))
            col = c[j]
            if col is not z:
                s[j] = col if s[j] is z else list(map(add, s[j], col))
        for j, keep in steps:
            if j == 0:  # no column -1: E gets its unit, C is kept or cleared
                if keep:
                    e[0] = [e[0][0] + 1]
                else:
                    e[0], c[0] = unit[0], zero[0]
            elif keep:
                col = e[j]
                new = list(map(add, col, e[j - 1]))
                new.append(col[j] + 1)
                e[j] = new
                prev = c[j - 1]
                if prev is not zero[j - 1]:
                    col = c[j]
                    new = list(map(add, col, prev))
                    new.append(col[j])
                    c[j] = new
            else:
                prev = e[j - 1]
                e[j] = unit[j] if prev is zero[j - 1] else prev + [1]
                prev = c[j - 1]
                c[j] = zero[j] if prev is zero[j - 1] else prev + [0]
        for j in clears:
            e[j] = c[j] = zero[j]

    def extend(self, letters: Iterable[str]) -> None:
        for letter in letters:
            self.push(letter)

    def result(self) -> SeqMatrix:
        d = len(self._zero)
        pad = [[0] * (d - 1 - j) for j in range(d)]
        blocks = {"E": self._e, "F": self._f, "C": self._c, "S": self._s}
        return _assemble(
            self.pattern,
            {name: [col + pad[j] for j, col in enumerate(cols)] for name, cols in blocks.items()},
        )


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
