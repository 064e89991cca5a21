"""Exact integer square matrices: products, minors, determinants.

Entries are Python ints, so arithmetic never overflows or wraps.  The
determinant uses Bareiss fraction-free elimination (exact, O(n^3), no
rational intermediates).
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence


class IntMatrix:
    """Immutable square matrix of exact integers."""

    __slots__ = ("dim", "rows")

    def __init__(self, rows: Iterable[Sequence[int]]):
        frozen = tuple(tuple(int(v) for v in row) for row in rows)
        n = len(frozen)
        if n == 0:
            raise ValueError("matrix must have at least one row")
        for row in frozen:
            if len(row) != n:
                raise ValueError(f"matrix is not square: row length {len(row)} != {n}")
        object.__setattr__(self, "dim", n)
        object.__setattr__(self, "rows", frozen)

    def __setattr__(self, name, value):
        raise AttributeError("IntMatrix is immutable")

    @classmethod
    def unit_upper(cls, dim: int, above: Callable[[int, int], int]) -> IntMatrix:
        """Unit upper-triangular matrix with above(i, j) at each 1-based
        entry (i, j), i < j."""
        return cls(
            [[above(i, j) if i < j else int(i == j) for j in range(1, dim + 1)]
             for i in range(1, dim + 1)]
        )

    @classmethod
    def identity(cls, dim: int) -> IntMatrix:
        return cls.unit_upper(dim, lambda i, j: 0)

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
        cols = list(zip(*other.rows))
        return IntMatrix(
            [
                [sum(a * b for a, b in zip(row, col)) for col in cols]
                for row in self.rows
            ]
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntMatrix):
            return NotImplemented
        return self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

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
