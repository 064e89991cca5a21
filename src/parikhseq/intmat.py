"""Exact integer square matrices: products, minors, determinants.

Entries are Python ints, so arithmetic never overflows or wraps.  A
product forms only the products of nonzero entry pairs: O(n^2 + sum over k
of nnz(column k of A) * nnz(row k of B)), against n^3 for the textbook
sum, so the sparse Parikh and sequence matrices (a 90 x 90 running product
at block size d = 30 has 459 nonzero entries of 8100) multiply in a small
fraction of the dense time.  The determinant uses Bareiss fraction-free
elimination (exact, O(n^3), no rational intermediates).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable


@dataclass(frozen=True, repr=False)
class IntMatrix:
    """Immutable square matrix of exact integers, from any rows of ints."""

    rows: tuple[tuple[int, ...], ...]
    dim: int = field(init=False, compare=False)

    def __post_init__(self) -> None:
        frozen = tuple(tuple(map(int, row)) for row in self.rows)
        n = len(frozen)
        if n == 0:
            raise ValueError("matrix must have at least one row")
        for row in frozen:
            if len(row) != n:
                raise ValueError(f"matrix is not square: row length {len(row)} != {n}")
        object.__setattr__(self, "dim", n)
        object.__setattr__(self, "rows", frozen)

    def entry(self, i: int, j: int) -> int:
        """Entry at 1-based (row, column)."""
        if not (1 <= i <= self.dim and 1 <= j <= self.dim):
            raise ValueError(f"entry ({i}, {j}) outside [1, {self.dim}]^2")
        return self.rows[i - 1][j - 1]

    def __mul__(self, other: IntMatrix) -> IntMatrix:
        if not isinstance(other, IntMatrix):
            return NotImplemented
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch: {self.dim} != {other.dim}")
        n = self.dim
        # each row of other once, as its nonzero (column, entry) pairs
        pairs = [[(j, b) for j, b in enumerate(row) if b] for row in other.rows]
        out = []
        for row in self.rows:
            acc = [0] * n
            for a, row_pairs in zip(row, pairs):
                if a:
                    for j, b in row_pairs:
                        acc[j] += a * b
            out.append(acc)
        return IntMatrix(out)

    def minor(self, row_indices: Iterable[int], col_indices: Iterable[int]) -> IntMatrix:
        """Submatrix on the given 1-based index sets, taken in ascending order."""
        rows = sorted(set(row_indices))
        cols = sorted(set(col_indices))
        if not rows or len(rows) != len(cols):
            raise ValueError("minor needs equally many distinct rows and columns")
        for idx in (*rows, *cols):
            if not 1 <= idx <= self.dim:
                raise ValueError(f"minor index {idx} outside [1, {self.dim}]")
        return IntMatrix(
            [[self.rows[i - 1][j - 1] for j in cols] for i in rows]
        )

    def det(self) -> int:
        """Exact determinant via Bareiss fraction-free elimination."""
        n = self.dim
        m = [list(row) for row in self.rows]
        sign = 1
        prev = 1
        for k in range(n - 1):
            if m[k][k] == 0:
                for i in range(k + 1, n):
                    if m[i][k] != 0:
                        m[k], m[i] = m[i], m[k]
                        sign = -sign
                        break
                else:
                    return 0
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    # exact by the Bareiss identity; // would hide a bug, so check
                    num = m[k][k] * m[i][j] - m[i][k] * m[k][j]
                    q, r = divmod(num, prev)
                    if r:
                        raise RuntimeError("fraction-free elimination produced a remainder")
                    m[i][j] = q
                m[i][k] = 0
            prev = m[k][k]
        return sign * m[n - 1][n - 1]

    def is_upper_triangular(self) -> bool:
        return all(
            self.rows[i][j] == 0 for i in range(self.dim) for j in range(i)
        )

    def is_unit_upper_triangular(self) -> bool:
        return self.is_upper_triangular() and all(
            self.rows[i][i] == 1 for i in range(self.dim)
        )

    def to_json_dict(self) -> dict:
        """JSON form: entries as decimal strings to survive big integers."""
        return {
            "dim": self.dim,
            "rows": [[str(v) for v in row] for row in self.rows],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> IntMatrix:
        mat = cls([[int(v) for v in row] for row in data["rows"]])
        if mat.dim != int(data["dim"]):
            raise ValueError("dim field disagrees with row count")
        return mat

    def __str__(self) -> str:
        width = max(len(str(v)) for row in self.rows for v in row)
        return "\n".join(
            " ".join(str(v).rjust(width) for v in row) for row in self.rows
        )

    def __repr__(self) -> str:
        return f"IntMatrix({[list(row) for row in self.rows]!r})"
