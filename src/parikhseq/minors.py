"""Special minors of sequence matrices and the witness-word reduction.

The special minor of a pattern with factors q_1 .. q_x in a word w is the
(x+1) x (x+1) unit upper-triangular matrix whose (i, j) entry above the
diagonal counts q_i . ... . q_{j-1} in w.  It equals a principal submatrix
of the full sequence matrix; the index set (minor_index_set) and that
extraction route (special_minor_from_matrix) live in seqmat, next to the
block layout.  It is always the classic Parikh matrix of a witness word
over a derived x-letter alphabet, which makes every minor determinant
nonnegative.  The witness is the factor occurrences sorted on one integer
key each (see witness_word).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import combinations

from .counting import factor_starts, gapped_prefix_counts
from .intmat import IntMatrix
from .parikh import subword_matrix
from .words import GapPattern


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
    special minor of the pattern in w: one symbol l per occurrence of q_l.

    Entry (i, j) of that Parikh matrix counts chains of symbols i, .., j-1 in
    increasing position order, and entry (i, j) of the minor counts chains of
    occurrences of q_i, .., q_{j-1} each ending before the next starts.  So
    the witness has to put the symbol of an occurrence A of q_l before that
    of an occurrence B of q_{l+1} exactly when A ends before B starts.

    An occurrence of q_l starting at s gets the key 2(s - L) + l - 1, where L
    is the number of letters in q_1..q_{l-1}, and the witness lists the
    factor indices in key order, ties broken by start:
      - key(A) < key(B) exactly when 2(s_A + |q_l|) < 2 s_B + 1, that is,
        when A ends before B starts;
      - keys of adjacent factors differ in parity, so they never tie;
      - the keys of one factor's occurrences follow their starts.
    Key and start together never tie (equal starts on q_l and q_m, l < m,
    would need 2(L_m - L_l) = m - l, yet L_m - L_l >= m - l), so the sort
    never compares factor indices.  After the start lists, the cost is one
    sort of the N occurrences.
    """
    keyed = []
    offset = 0
    for l, q in enumerate(pattern.factors, 1):
        keyed += [(2 * (s - offset) + l - 1, s, l) for s in factor_starts(w, q)]
        offset += len(q)
    return tuple(l for _, _, l in sorted(keyed))


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
