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

from dataclasses import dataclass
from typing import Iterable, Sequence, Union

from .counting import fragment_counts
from .intmat import IntMatrix
from .packed import PackedFold, Plan
from .words import GapPattern, PatternError, check_letter

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


@dataclass(frozen=True)
class SeqMatrix:
    """A pattern together with its 3(L-1)-dimensional matrix image."""

    pattern: GapPattern
    matrix: IntMatrix

    def __post_init__(self) -> None:
        d = block_dim(self.pattern)
        if self.matrix.dim != 3 * d:
            raise ValueError(
                f"matrix dim {self.matrix.dim} does not match pattern dim {3 * d}"
            )

    def block(self, name: str) -> IntMatrix:
        """Named (L-1) x (L-1) block: E, F, C, or S."""
        if name not in BLOCKS:
            raise ValueError(f"unknown block {name!r}")
        d = self.matrix.dim // 3
        r0, c0 = (d * k for k in BLOCKS[name])
        return IntMatrix(
            [row[c0 : c0 + d] for row in self.matrix.rows[r0 : r0 + d]]
        )

    def blocks(self) -> dict[str, IntMatrix]:
        return {name: self.block(name) for name in BLOCKS}

    def __str__(self) -> str:
        return str(self.matrix)


def _assemble(pattern: GapPattern, core: Sequence[Sequence[int]]) -> SeqMatrix:
    """Full matrix from the 2d rows of its [[E, F], [C, S]] core, 2d
    entries each: row i of E then F for i = 1 .. d, then row i of C then S.
    The identity and zero parts of [[I,E,F],[0,C,S],[0,0,I]] are added here
    and nowhere else."""
    d = len(core) // 2
    zero = (0,) * d
    unit = [zero[:i] + (1,) + zero[i + 1 :] for i in range(d)]
    rows = [(*u, *row) for u, row in zip(unit, core)]
    rows += [(*zero, *row) for row in core[d:]]
    rows += [(*zero, *zero, *u) for u in unit]
    return SeqMatrix(pattern, IntMatrix(rows))


def minor_index_set(pattern: GapPattern) -> tuple[int, ...]:
    """1-based indices of the special minor inside the full matrix: row 1
    (top I), row d + l (in C) for each boundary l, row 3d (bottom I)."""
    d = block_dim(pattern)
    return (1, *[d + l for l in sorted(pattern.boundaries)], 3 * d)


def special_minor_from_matrix(sm: SeqMatrix) -> IntMatrix:
    """Extraction route to the special minor: the principal submatrix of a
    sequence matrix on minor_index_set."""
    idx = minor_index_set(sm.pattern)
    return sm.matrix.minor(idx, idx)


def seq_matrix_direct(pattern: GapPattern, w: str) -> SeqMatrix:
    """Matrix built one row at a time from anchored-fragment counts.

    Row i of E and F counts the fragments [i, e] with a free start; row i
    of C and S counts the fragments [i+1, e], start-anchored unless i is in
    B.  Each of these 2d row groups is one `fragment_counts` walk along the
    flat pattern, which fills the whole row from shared chain state: F and
    S take the free-end count at e = j+1, and E and C the count at e = j,
    end-anchored unless j is in B (the C diagonal is 1 on B and [w is empty]
    elsewhere).  An end-anchored count sums the placements of the earlier
    runs whose last run starts at most len(w) - len(run) + 1 - gap, found
    by one cut of their start list.  No value is taken from another row,
    and no product rule or fold is used; the walks share one start list
    per distinct run of w, kept for this call and dropped when it returns.
    The 2d rows go to _assemble as they are.
    """
    d = block_dim(pattern)
    flat, b = pattern.flat, pattern.boundaries
    memo: dict[str, list[int]] = {}
    upper, lower = [], []  # row i of E then F, and of C then S
    for i in range(1, d + 1):
        zero = [0] * (i - 1)
        free, ends = fragment_counts(w, flat, b, i, False, memo)
        upper.append(zero + ends[: d + 1 - i] + zero + free[1:])
        free, ends = fragment_counts(w, flat, b, i + 1, i not in b, memo)
        diag = 1 if i in b else int(not w)
        lower.append(zero + [diag] + ends[: d - i] + zero + free)
    return _assemble(pattern, upper + lower)


class SeqFold(PackedFold):
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

    Each full matrix column of the middle and right block columns is packed
    into one Python int of 2d limbs (see PackedFold): middle column j holds
    E rows 1..d in limbs 0..d-1 and C rows 1..d in limbs d..2d-1, right
    column j holds F over S the same way.  The list of columns is middle
    columns 0..d, then right columns 1..d; middle column 0 is always zero,
    and column 1 takes it like any other column.  Because F and S sit
    exactly as E and C do, and E and C change together, a push is one int
    operation per column: a right column adds its middle column, a stepped
    middle column adds column j-1 (and the unit bit of E's row j), and a
    cleared column is set to 0.  result() unpacks the limbs and transposes
    the middle and right columns once, into the 2d core rows _assemble
    takes.

    No limb carries into the next.  Let f = len(pattern.factors) and
    n >= 1 the letters pushed.  An entry counts the occurrences of a
    fragment of at most f runs, possibly anchored.  An occurrence is fixed
    by the start positions of its r runs and anchoring only drops
    occurrences, so the entry is at most C(n, r) <= n**r <= n**f (the empty
    fragment counts 1 = n**0).  Every sum a push forms is a sum of
    nonnegative terms of an entry after that push, so PackedFold's width
    rule applies with exponent f: W = f * max(n.bit_length(), 16) + 1.

    A letter's plan (see PackedFold) validates the letter and lists the
    adds (d+j, j) for the columns j whose F and S change, the
    (j, j-1, keep, unit) steps for the middle columns that take column j-1
    (added to a kept column, else moved in), and the columns to clear.
    Steps run highest j first and clears run last, so every step reads the
    pre-push column j-1.  Kept columns with nothing to add are left out.
    """

    def __init__(self, pattern: GapPattern):
        d = block_dim(pattern)
        self.pattern = pattern
        self._d = d
        super().__init__(len(pattern.factors), 2 * d)
        # the empty word: C is the identity, everything else zero
        w = self._w
        self._cols = [0] + [1 << (d + j - 1) * w for j in range(1, d + 1)] + [0] * d

    def _plan(self, letter: str) -> Plan:
        check_letter(letter, "invalid letter {!r}")
        flat, b, d, w = self.pattern.flat, self.pattern.boundaries, self._d, self._w
        tails = tuple((d + j, j) for j in range(1, d + 1) if flat[j] == letter)
        steps = tuple(
            (j, j - 1, j in b, 1 << (j - 1) * w)
            for j in range(d, 0, -1)
            if flat[j - 1] == letter
        )
        clears = tuple(j for j in range(1, d + 1) if flat[j - 1] != letter and j not in b)
        return tails, steps, clears

    push = PackedFold.push

    def result(self) -> SeqMatrix:
        return _assemble(self.pattern, list(zip(*self._unpacked()[1:])))


def seq_matrix(pattern: GapPattern, letters: Union[str, Iterable[str]]) -> SeqMatrix:
    """Matrix image of a word, computed as the streaming fold of letter
    generators; equals seq_matrix_direct on every input."""
    fold = SeqFold(pattern)
    fold.extend(letters)
    return fold.result()

