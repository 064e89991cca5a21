"""Special minors of sequence matrices and the witness-word reduction.

The special minor of a pattern with factors q_1 .. q_x in a word w is the
(x+1) x (x+1) unit upper-triangular matrix whose (i, j) entry above the
diagonal counts q_i . ... . q_{j-1} in w.  It equals the principal submatrix
of the full sequence matrix on the index set {1} union {(L-1) + l_m} union
{3(L-1)}, and it is always the classic Parikh matrix of a witness word over
a derived x-letter alphabet, which makes every minor determinant
nonnegative.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import combinations
from math import inf

from .counting import factor_starts, gapped_prefix_counts
from .intmat import IntMatrix
from .parikh import subword_matrix
from .seqmat import SeqMatrix, block_dim
from .words import GapPattern


def minor_index_set(pattern: GapPattern) -> tuple[int, ...]:
    """1-based row/column indices of the special minor inside the full matrix."""
    d = block_dim(pattern)
    return (1, *[d + l for l in sorted(pattern.boundaries)], 3 * d)


def special_minor(pattern: GapPattern, w: str) -> IntMatrix:
    """Direct construction from gapped-subsequence counts, built like
    parikh.subword_matrix: row i is i zeros, then the counts of the prefixes
    of factors[i:] as gap patterns in w, so each row is one
    gapped_prefix_counts pass.  The rows share one start list per distinct
    factor of w, memoized for this call and dropped when it returns."""
    factors = pattern.factors
    starts = cache(factor_starts)
    rows = range(len(factors) + 1)
    return IntMatrix([[0] * i + gapped_prefix_counts(w, factors[i:], starts) for i in rows])


def special_minor_from_matrix(sm: SeqMatrix) -> IntMatrix:
    """Extraction route: principal submatrix of a sequence matrix."""
    idx = minor_index_set(sm.pattern)
    return sm.matrix.minor(idx, idx)


def witness_text(witness: tuple[int, ...], x: int) -> str:
    """Render factor indices as a_1..a_x tokens; comma-joined when x > 9."""
    tokens = [f"a{i}" for i in witness]
    return ",".join(tokens) if x > 9 else "".join(tokens)


def witness_parikh_matrix(witness: tuple[int, ...], x: int) -> IntMatrix:
    """Classic Parikh matrix of the witness over the derived alphabet
    a_1 < ... < a_x, read directly off the factor indices 1..x."""
    return subword_matrix(range(1, x + 1), witness)


def witness_word(pattern: GapPattern, w: str) -> tuple[int, ...]:
    """Word over factor indices 1..x whose classic Parikh matrix equals the
    special minor of the pattern in w.

    The matrix entry for a_i..a_j counts index chains whose symbols appear in
    increasing position order, so the witness only has to realize one forced
    orientation per pair: the symbol for occurrence k of q_l precedes the
    symbol for occurrence m of q_{l+1} exactly when the former ends before
    the latter starts (overlapping or reversed occurrences go the other way
    round), and same-factor symbols keep their start order.  Together with
    the fact that occurrences of one factor all have the same length, these
    orientations form an acyclic digraph: along any cycle the start position
    would gain at least len(q_l) on every upward crossing and lose at most
    len(q_l) - 1 on every downward one, a net strict increase.  Emitting any
    linear extension therefore reproduces every matrix entry; ties are broken
    by (start position, longer factor first, larger index first), matching
    the natural left-to-right scan of w.

    The digraph is never built.  The symbols that must precede occurrence k
    of q_l are occurrence k-1 of q_l, the occurrences of q_{l-1} that end
    before it starts and the occurrences of q_{l+1} that start at or before
    its end; the last two are prefixes of their start lists.  So only the
    next unemitted occurrence of each factor can be ready, exactly when the
    next unemitted occurrences of q_{l-1} and q_{l+1} lie outside those
    prefixes, and ready occurrences belong to distinct factors, so they never
    tie on the key.  After the start lists, the cost is O(N x) for N
    occurrences in all.

    (A bubble-sort-style repair restricted to overlapping pairs cannot do
    this in general: for the pattern ba.a.b in the word "ba" the required
    word is a3 a2 a1, but the symbols for q_2 and q_3 never overlap, so no
    sweep may reorder them once the q_1/q_2 swap puts them the wrong way.)
    """
    factors = pattern.factors
    x = len(factors)
    occurrences = [factor_starts(w, q) for q in factors]
    # factors 1..x between two empty levels; head[l] is the start of the next
    # unemitted occurrence of q_l, or inf once none is left
    starts = [iter(()), *map(iter, occurrences), iter(())]
    head = [next(it, inf) for it in starts]
    size = [0, *map(len, factors), 0]
    word: list[int] = []
    for _ in range(sum(map(len, occurrences))):
        # the next q_{l-1} occurrence must not end before head[l], and the
        # next q_{l+1} one must start after it ends; inf is never ready
        ready = [
            (head[l], -size[l], -l)
            for l in range(1, x + 1)
            if head[l - 1] + size[l - 1] > head[l]
            and head[l + 1] >= head[l] + size[l]
        ]
        if not ready:
            raise RuntimeError(
                "witness orientation graph has a cycle; this indicates a bug in "
                "the construction, not an input problem"
            )
        level = -min(ready)[2]
        head[level] = next(starts[level], inf)
        word.append(level)
    return tuple(word)


@dataclass(frozen=True)
class MinorSweep:
    """Result of enumerating minor determinants up to a given order."""

    dim: int
    max_order: int
    minors_checked: int
    violations: tuple[tuple[tuple[int, ...], tuple[int, ...], int], ...]

    @property
    def all_nonnegative(self) -> bool:
        return not self.violations


def check_minor_nonneg(matrix: IntMatrix, max_order: int) -> MinorSweep:
    """Enumerate every square minor of order <= max_order and report any with
    a negative determinant."""
    if not matrix.is_unit_upper_triangular():
        raise ValueError("minor sweep expects a unit upper-triangular matrix")
    n = matrix.dim
    checked = 0
    violations = []
    for order in range(1, min(max_order, n) + 1):
        for rows in combinations(range(1, n + 1), order):
            for cols in combinations(range(1, n + 1), order):
                det = matrix.minor(rows, cols).det()
                checked += 1
                if det < 0:
                    violations.append((rows, cols, det))
    return MinorSweep(n, max_order, checked, tuple(violations))


def verify_witness(pattern: GapPattern, w: str) -> tuple[tuple[int, ...], IntMatrix, bool]:
    """Build the witness and confirm its Parikh matrix equals the minor."""
    witness = witness_word(pattern, w)
    minor = special_minor(pattern, w)
    psi = witness_parikh_matrix(witness, len(pattern.factors))
    return witness, minor, psi == minor
