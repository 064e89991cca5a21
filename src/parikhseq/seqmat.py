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

from typing import Iterable, Union

from .counting import count_piece
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
    """Matrix built cell by cell from anchored-piece counts."""
    d = block_dim(pattern)
    return _assemble(
        pattern,
        {
            name: [
                [count_piece(w, block_piece(pattern, name, i, j)) if i <= j else 0
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


class SeqFold:
    """Streaming left-to-right fold of letter matrices for one pattern.

    A letter's generator is sparse: its E and S blocks are diagonal 0/1, its
    C block is a 0/1 diagonal plus a 0/1 superdiagonal, and its F block is
    zero.  Appending letter c therefore reduces to per-column updates on the
    running blocks (stored column-major), using the product rules

        F <- F + E * S_c      S <- S + C * S_c
        E <- E_c + E * C_c    C <- C * C_c

    with the F and S updates reading the pre-push E and C.  O(1) matrices are
    in flight regardless of word length.
    """

    def __init__(self, pattern: GapPattern):
        d = block_dim(pattern)
        self.pattern = pattern
        self._d = d
        # column-major blocks: block[j][i] is the (i, j) entry (0-based)
        self._e = [[0] * d for _ in range(d)]
        self._f = [[0] * d for _ in range(d)]
        self._s = [[0] * d for _ in range(d)]
        self._c = [[1 if i == j else 0 for i in range(d)] for j in range(d)]
        self._bdiag = [(j + 1) in pattern.boundaries for j in range(d)]
        self._masks: dict[str, tuple[list[bool], list[bool]]] = {}

    def _mask(self, letter: str) -> tuple[list[bool], list[bool]]:
        try:
            return self._masks[letter]
        except KeyError:
            if len(letter) != 1 or letter not in SYMBOL_CHARS:
                raise PatternError(f"invalid letter {letter!r}") from None
            flat = self.pattern.flat
            d = self._d
            head = [flat[j] == letter for j in range(d)]
            tail = [flat[j + 1] == letter for j in range(d)]
            self._masks[letter] = (head, tail)
            return head, tail

    def push(self, letter: str) -> None:
        head, tail = self._mask(letter)
        d = self._d
        e, f, s, c = self._e, self._f, self._s, self._c
        bdiag = self._bdiag
        for j in range(d):
            if tail[j]:
                f[j] = [a + b for a, b in zip(f[j], e[j])]
                s[j] = [a + b for a, b in zip(s[j], c[j])]
        new_e = []
        new_c = []
        for j in range(d):
            keep = bdiag[j]
            shift = j > 0 and head[j]
            if keep and shift:
                col_e = [a + b for a, b in zip(e[j], e[j - 1])]
                col_c = [a + b for a, b in zip(c[j], c[j - 1])]
            elif keep:
                col_e = list(e[j])
                col_c = list(c[j])
            elif shift:
                col_e = list(e[j - 1])
                col_c = list(c[j - 1])
            else:
                col_e = [0] * d
                col_c = [0] * d
            if head[j]:
                col_e[j] += 1
            new_e.append(col_e)
            new_c.append(col_c)
        self._e = new_e
        self._c = new_c

    def extend(self, letters: Iterable[str]) -> None:
        for letter in letters:
            self.push(letter)

    def result(self) -> SeqMatrix:
        return _assemble(
            self.pattern, {"E": self._e, "F": self._f, "C": self._c, "S": self._s}
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
