"""Brute-force reference implementations and accessors used only by the tests.

The counters enumerate occurrence tuples literally (feasible up to |w| ~ 12),
independent of the tabulated counters in the package.  The dense product
forms all n^3 products, the oracle for `IntMatrix.__mul__`, which skips
zeros.  The cell-by-cell sequence matrix cuts every cell's fragment into
runs itself (`piece`, `block_piece`) and counts it on its own with
`parikhseq.counting.count_piece`, the oracle for
`parikhseq.seqmat.seq_matrix_direct`, which fills each row from one walk.
The witness fold renders factor indices as letters and folds their Parikh
matrix, the oracle for `parikhseq.minors.witness_parikh_matrix`, which
counts on the indices directly.  The small accessors after them (identity matrix, matrix cell
diff, symbol index, pattern letter, induced Parikh context, single-letter and factor matrices, the JSON matrix
reader, the triangularity test) serve only test code.  The generalized subword history helpers at
the end are the ground shuffle, the interleaving test, the junction
reduction by enumeration of joint placements, the oracle for
`parikhseq.gsh.red`, the merge-scheme enumeration built on it, the oracle for
`parikhseq.gsh.linearize_product`, the literal junction rules, which
undercount and are kept only for comparison with it, and word-by-word bounded
evaluation, the oracle for `parikhseq.gsh.first_difference`.
"""

from functools import cache
from itertools import combinations
from operator import mul
from string import ascii_lowercase
from typing import Iterator, NamedTuple

from parikhseq.counting import count_piece, factor_starts
from parikhseq.gsh import (
    LinearForm,
    Monomial,
    canonical_mono,
    evaluate,
    words_up_to,
)
from parikhseq.intmat import IntMatrix
from parikhseq.parikh import ParikhContext, parikh_matrix, subword_matrix
from parikhseq.seqmat import (
    BLOCKS,
    SeqMatrix,
    _assemble,
    block_dim,
    seq_matrix,
    seq_matrix_direct,
)
from parikhseq.words import Alphabet, GapPattern, PatternError, check_letter


def enum_subword(w: str, u: str) -> int:
    if not u:
        return 1
    count = 0
    for positions in combinations(range(len(w)), len(u)):
        if all(w[p] == u[k] for k, p in enumerate(positions)):
            count += 1
    return count


def enum_factor(w: str, u: str) -> int:
    if not u:
        return 1
    return sum(1 for i in range(len(w) - len(u) + 1) if w[i : i + len(u)] == u)


def enum_run_tuples(w: str, runs) -> list[tuple[int, ...]]:
    """All 1-based start tuples placing the runs in order with gaps >= 0."""
    if not runs:
        return [()]
    out = []

    def rec(k: int, lo: int, acc: list[int]) -> None:
        if k == len(runs):
            out.append(tuple(acc))
            return
        run = runs[k]
        for start in range(lo, len(w) - len(run) + 2):
            if w[start - 1 : start - 1 + len(run)] == run:
                acc.append(start)
                rec(k + 1, start + len(run), acc)
                acc.pop()

    rec(0, 1, [])
    return out


def enum_gapped(w: str, factors) -> int:
    return len(enum_run_tuples(w, tuple(factors)))


def enum_piece(w: str, runs, left_anchored: bool, right_anchored: bool) -> int:
    runs = tuple(runs)
    if not runs:
        if left_anchored and right_anchored:
            return 1 if w == "" else 0
        return 1
    count = 0
    for starts in enum_run_tuples(w, runs):
        if left_anchored and starts[0] != 1:
            continue
        if right_anchored and starts[-1] + len(runs[-1]) - 1 != len(w):
            continue
        count += 1
    return count


def det_cofactor(rows) -> int:
    """Determinant by first-row cofactor expansion."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        if rows[0][j] == 0:
            continue
        sub = [
            [rows[i][k] for k in range(n) if k != j] for i in range(1, n)
        ]
        term = rows[0][j] * det_cofactor(sub)
        total += term if j % 2 == 0 else -term
    return total


def dense_product(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    """The textbook product: every row of a against every column of b."""
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} != {b.dim}")
    cols = list(zip(*b.rows))
    return IntMatrix([[sum(map(mul, row, col)) for col in cols] for row in a.rows])


class Piece(NamedTuple):
    """A fragment of a gap pattern as count_piece takes it: the runs, then
    the end anchors, so `count_piece(w, *piece)` counts it."""

    runs: tuple[str, ...]
    left_anchored: bool = False
    right_anchored: bool = False


def piece(
    pattern: GapPattern,
    i: int,
    j: int,
    left_anchored: bool = False,
    right_anchored: bool = False,
) -> Piece:
    """The fragment between flat positions i and j, cut into runs after each
    boundary strictly inside [i, j-1].  i = j + 1 yields the empty fragment
    (anchors carried unchanged); otherwise 1 <= i <= j <= L is required."""
    length = len(pattern.flat)
    if j + 1 == i:
        if not 1 <= i <= length + 1:
            raise ValueError(f"empty piece start {i} outside [1, {length + 1}]")
        return Piece((), left_anchored, right_anchored)
    if not 1 <= i <= j <= length:
        raise ValueError(f"piece bounds [{i}, {j}] outside [1, {length}]")
    edges = [i - 1, *sorted(b for b in pattern.boundaries if i <= b < j), j]
    runs = tuple(pattern.flat[lo:hi] for lo, hi in zip(edges, edges[1:]))
    return Piece(runs, left_anchored, right_anchored)


def block_piece(pattern: GapPattern, name: str, i: int, j: int) -> Piece:
    """Piece counted by cell (i, j) of a named block, 1 <= i <= j <= d.

    One rule covers all four blocks: the fragment runs from flat position i
    (i+1 in the middle block row, start-anchored unless i is in B) to j+1
    (j in the middle block column, end-anchored unless j is in B).
    """
    r, c = BLOCKS[name]
    b = pattern.boundaries
    return piece(pattern, i + r, j + c - 1, r == 1 and i not in b, c == 1 and j not in b)


def seq_matrix_cells(pattern: GapPattern, w: str) -> SeqMatrix:
    """Sequence matrix built cell by cell: every cell is counted on its own
    by `count_piece`, with no value taken from another cell, the oracle for
    `parikhseq.seqmat.seq_matrix_direct`, which fills a row from one walk."""
    d = block_dim(pattern)
    starts = cache(factor_starts)

    def cell(name: str, i: int, j: int) -> int:
        return count_piece(w, *block_piece(pattern, name, i, j), starts) if i <= j else 0

    return _assemble(
        pattern,
        [
            [cell(name, i, j) for name in names for j in range(1, d + 1)]
            for names in (("E", "F"), ("C", "S"))
            for i in range(1, d + 1)
        ],
    )


def witness_parikh_fold(witness: tuple[int, ...], x: int) -> IntMatrix:
    """Classic Parikh matrix of the witness by the fold, factor index i
    rendered as the i-th lowercase letter (x <= 26)."""
    alphabet = Alphabet(tuple(ascii_lowercase[:x]))
    word = "".join(ascii_lowercase[i - 1] for i in witness)
    return parikh_matrix(ParikhContext.classic(alphabet), word)


def identity(n: int) -> IntMatrix:
    """The n x n identity matrix."""
    return IntMatrix([[int(i == j) for j in range(n)] for i in range(n)])


def matrix_diff(a: IntMatrix, b: IntMatrix) -> list[tuple[int, int, int, int]]:
    """Cells where the matrices differ: (row, col, a value, b value), 1-based."""
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} != {b.dim}")
    return [
        (i + 1, j + 1, a.rows[i][j], b.rows[i][j])
        for i in range(a.dim)
        for j in range(a.dim)
        if a.rows[i][j] != b.rows[i][j]
    ]


def symbol_index(alphabet: Alphabet, symbol: str) -> int:
    """1-based order index of a symbol."""
    try:
        return alphabet.symbols.index(symbol) + 1
    except ValueError:
        raise PatternError(
            f"symbol {symbol!r} not in alphabet {alphabet.concat()!r}"
        ) from None


def pattern_letter(pattern: GapPattern, i: int) -> str:
    """The i-th letter of the flattened pattern (1-based)."""
    if not 1 <= i <= len(pattern.flat):
        raise ValueError(f"letter index {i} outside [1, {len(pattern.flat)}]")
    return pattern.flat[i - 1]


def induced_by(inducing: str, alphabet: Alphabet | None = None) -> ParikhContext:
    """Context of an inducing word; the alphabet defaults to its letters, sorted."""
    if alphabet is None:
        alphabet = Alphabet(tuple(sorted(set(inducing))))
    return ParikhContext(alphabet, inducing)


def is_classic(ctx: ParikhContext) -> bool:
    return ctx.inducing == ctx.alphabet.concat()


def letter_matrix(ctx: ParikhContext, letter: str) -> IntMatrix:
    """Image of a single letter: unit upper triangular with a 1 at (q, q+1)
    for every inducing-word position q holding that letter."""
    if letter not in ctx.alphabet:
        raise PatternError(f"symbol {letter!r} not in alphabet {ctx.alphabet}")
    return subword_matrix(ctx.inducing, letter)


def seq_matrix_letter(pattern: GapPattern, letter: str) -> IntMatrix:
    """Sequence-matrix generator of a single letter."""
    check_letter(letter, "invalid letter {!r}")
    return seq_matrix_direct(pattern, letter).matrix


def factor_matrix(sigma: str, w: str) -> SeqMatrix:
    """Factor-counting special case: the bullet-free pattern [sigma], so
    block_dim rejects |sigma| < 2 as for any pattern."""
    return seq_matrix(GapPattern((sigma,)), w)


def from_json_dict(data: dict) -> IntMatrix:
    """Matrix read back from IntMatrix.to_json_dict (the CLI's JSON form)."""
    mat = IntMatrix([[int(v) for v in row] for row in data["rows"]])
    if mat.dim != int(data["dim"]):
        raise ValueError("dim field disagrees with row count")
    return mat


def is_upper_triangular(m: IntMatrix) -> bool:
    return all(m.rows[i][j] == 0 for i in range(m.dim) for j in range(i))


def ground_shuffle(p: Monomial, q: Monomial) -> list[Monomial]:
    """All order-preserving interleavings of the two factor sequences, as a
    multiset (list) of size binomial(x+y, x)."""
    p = canonical_mono(p)
    q = canonical_mono(q)
    out: list[Monomial] = []

    def rec(i: int, j: int, acc: list[str]) -> None:
        if i == len(p) and j == len(q):
            out.append(tuple(acc))
            return
        if i < len(p):
            acc.append(p[i])
            rec(i + 1, j, acc)
            acc.pop()
        if j < len(q):
            acc.append(q[j])
            rec(i, j + 1, acc)
            acc.pop()

    rec(0, 0, [])
    return out


def is_interleaved(
    p_factors: Monomial,
    p_starts: tuple[int, ...],
    q_factors: Monomial,
    q_starts: tuple[int, ...],
) -> bool:
    """True iff every consecutive factor pair of one occurrence is bridged by
    a factor of the other occurrence overlapping both."""

    def spans(factors, starts):
        return [(s, s + len(f) - 1) for f, s in zip(factors, starts)]

    ps = spans(p_factors, p_starts)
    qs = spans(q_factors, q_starts)

    def bridged(pairs, others):
        for (a1, b1), (a2, b2) in zip(pairs, pairs[1:]):
            if not any(a <= b1 and a1 <= b and a <= b2 and a2 <= b for a, b in others):
                return False
        return True

    return bridged(ps, qs) and bridged(qs, ps)


def _schemes(np: int, nq: int) -> Iterator[tuple[tuple, ...]]:
    """Segment sequences: P runs, Q runs, junctions; no two adjacent pure
    segments on the same side (a junction may neighbor anything)."""

    def rec(i: int, j: int, last: str) -> Iterator[tuple[tuple, ...]]:
        if i == np and j == nq:
            yield ()
            return
        if last != "P":
            for r in range(1, np - i + 1):
                for rest in rec(i + r, j, "P"):
                    yield (("P", i, i + r),) + rest
        if last != "Q":
            for s in range(1, nq - j + 1):
                for rest in rec(i, j + s, "Q"):
                    yield (("Q", j, j + s),) + rest
        for r in range(1, np - i + 1):
            for s in range(1, nq - j + 1):
                for rest in rec(i + r, j + s, "J"):
                    yield (("J", i, i + r, j, j + s),) + rest

    yield from rec(0, 0, "")


def _placements(runs: Monomial, max_end: int) -> Iterator[tuple[int, ...]]:
    """Start tuples with gap >= 0 between runs and every span within
    [1, max_end]."""
    # rest[k]: total length of runs[k:]; run k starts early enough to leave
    # room for itself and every later run, so no dead prefix is explored
    rest = [0] * (len(runs) + 1)
    for k in range(len(runs) - 1, -1, -1):
        rest[k] = rest[k + 1] + len(runs[k])

    def rec(k: int, lo: int, acc: list[int]) -> Iterator[tuple[int, ...]]:
        if k == len(runs):
            yield tuple(acc)
            return
        top = max_end - rest[k] + 1
        for start in range(lo, top + 1):
            acc.append(start)
            yield from rec(k + 1, start + len(runs[k]), acc)
            acc.pop()

    yield from rec(0, 1, [])


def _connected_span(intervals: list[tuple[int, int]]) -> int | None:
    """Right end of the overlap-connected union starting at 1, or None if the
    intervals do not chain into a single cluster from position 1."""
    ordered = sorted(intervals)
    if ordered[0][0] != 1:
        return None
    reach = ordered[0][1]
    for start, end in ordered[1:]:
        if start > reach:
            return None
        reach = max(reach, end)
    return reach


def red_placements(p_run: Monomial, q_run: Monomial) -> LinearForm:
    """Junction reduction by enumerating every pair of placements of both
    runs within their joined length and keeping those whose spans form one
    overlap-connected cluster from position 1; exponential in the number of
    factors.  The oracle for `parikhseq.gsh.red`."""
    if not p_run or not q_run:
        raise ValueError("red needs nonempty runs on both sides")
    max_end = sum(map(len, p_run)) + sum(map(len, q_run)) - 1
    acc: dict[Monomial, int] = {}
    for p_starts in _placements(p_run, max_end):
        letters: dict[int, str] = {}
        for factor, start in zip(p_run, p_starts):
            for offset, ch in enumerate(factor):
                letters[start + offset] = ch
        p_intervals = [(s, s + len(f) - 1) for f, s in zip(p_run, p_starts)]
        for q_starts in _placements(q_run, max_end):
            merged = dict(letters)
            ok = True
            for factor, start in zip(q_run, q_starts):
                for offset, ch in enumerate(factor):
                    pos = start + offset
                    if merged.setdefault(pos, ch) != ch:
                        ok = False
                        break
                if not ok:
                    break
            if not ok:
                continue
            intervals = p_intervals + [
                (s, s + len(f) - 1) for f, s in zip(q_run, q_starts)
            ]
            span = _connected_span(intervals)
            if span is None:
                continue
            # every placed letter lies in [1, span]; fewer than span means a gap
            if len(merged) != span:
                raise RuntimeError("connected cluster left a gap")
            word = "".join(merged[pos] for pos in range(1, span + 1))
            acc[(word,)] = acc.get((word,), 0) + 1
    return LinearForm(acc)


def linearize_product_schemes(p: Monomial, q: Monomial) -> LinearForm:
    """Product of two monomials by enumerating merge schemes: ways to
    interleave the two factor sequences into an alternating run sequence in
    which some adjacent (run of one side, run of the other side) pairs are
    fused into junctions, each contributing its reduction.  Exponential in
    the number of factors; the oracle for linearize_product's recursion."""
    p = canonical_mono(p)
    q = canonical_mono(q)
    if not p:
        return LinearForm({q: 1})
    if not q:
        return LinearForm({p: 1})
    acc: dict[Monomial, int] = {}
    for scheme in _schemes(len(p), len(q)):
        partial: dict[Monomial, int] = {(): 1}
        for seg in scheme:
            if seg[0] != "J":
                run = (p if seg[0] == "P" else q)[seg[1] : seg[2]]
                partial = {m + run: c for m, c in partial.items()}
            else:
                reduction = red_placements(p[seg[1] : seg[2]], q[seg[3] : seg[4]])
                if not reduction:
                    partial = {}
                    break
                partial = {
                    m + v: c * a
                    for m, c in partial.items()
                    for v, a in reduction.items()
                }
        for m, c in partial.items():
            acc[m] = acc.get(m, 0) + c
    return LinearForm(acc)


def linearize_product_literal(p: Monomial, q: Monomial) -> LinearForm:
    """Rule-by-rule reduction over ground shuffle terms, reducing a junction
    only where a plain run is immediately followed by a primed run.  Kept for
    side-by-side comparison with linearize_product; known to undercount."""
    p = canonical_mono(p)
    q = canonical_mono(q)
    if not p:
        return LinearForm({q: 1})
    if not q:
        return LinearForm({p: 1})
    acc: dict[Monomial, int] = {}

    def terms(i: int, j: int, sequence: list[tuple[str, str]]) -> None:
        if i == len(p) and j == len(q):
            runs: list[tuple[str, Monomial]] = []
            for side, factor in sequence:
                if runs and runs[-1][0] == side:
                    runs[-1] = (side, runs[-1][1] + (factor,))
                else:
                    runs.append((side, (factor,)))
            forms = [{(): 1}]
            k = 0
            while k < len(runs):
                side, run = runs[k]
                if side == "P" and k + 1 < len(runs):
                    follow = runs[k + 1][1]
                    branch = dict(red_placements(run, follow).items())
                    branch[run + follow] = branch.get(run + follow, 0) + 1
                    forms.append(branch)
                    k += 2
                else:
                    forms.append({run: 1})
                    k += 1
            total: dict[Monomial, int] = {(): 1}
            for form in forms:
                total = {
                    m1 + m2: c1 * c2
                    for m1, c1 in total.items()
                    for m2, c2 in form.items()
                }
            for m, c in total.items():
                acc[m] = acc.get(m, 0) + c
            return
        if i < len(p):
            terms(i + 1, j, sequence + [("P", p[i])])
        if j < len(q):
            terms(i, j + 1, sequence + [("Q", q[j])])

    terms(0, 0, [])
    return LinearForm(acc)


def first_difference_per_word(e1, e2, alphabet: Alphabet, max_len: int) -> str | None:
    """First word in words_up_to order on which e1 and e2 differ, each side
    evaluated from scratch in every word; the oracle for
    `parikhseq.gsh.first_difference`."""
    for w in words_up_to(alphabet, max_len):
        if evaluate(e1, w) != evaluate(e2, w):
            return w
    return None
