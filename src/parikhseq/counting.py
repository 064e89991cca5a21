"""Ground-truth occurrence counters.

All counters run on prefix-indexed tabulation (never literal enumeration of
occurrence tuples), so they stay linear-ish in the word length and exact for
arbitrarily large counts.  Conventions: the empty subword/factor/fragment
counts 1 occurrence in any word; a both-anchored empty fragment counts 1
only in the empty word.

A fragment of a gap pattern is a sequence of runs, each placed
contiguously, with gaps >= 0 between them and optional end anchors.
`fragment_counts` counts the fragments of one row of a sequence matrix in
one walk, for `seqmat.seq_matrix_direct`.  `count_piece(w, runs,
left_anchored, right_anchored)` counts one fragment on its own: it is the
per-cell reference, which no library module calls.  It is kept here for the
tests' cell-by-cell oracle and for the benchmark's tracer, which wraps it
by this name.

`count_piece` and `gapped_prefix_counts` take the start lists of their runs
from a `starts(w, run)` function, `factor_starts` by default.  A caller
that counts many fragments or patterns of one word can pass
`functools.cache(factor_starts)` so each distinct run is scanned once; the
caller owns that memo and decides how long it lives.

Every gapped count goes through one merge step, `_step`, which places one
more run after the placements of the runs before it.  `_chain` repeats it
over whole patterns for `count_piece`, `count_gapped` and
`gapped_prefix_counts`; `fragment_counts` runs it once per end along one
pattern and takes its start lists from a memo dict that the caller owns
instead of a `starts` function.
Anchored ends are checked in place (`startswith`/`endswith` and one cut in
the last start list), never by scanning for the anchored run.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import repeat
from typing import Callable, Container, Hashable, Iterable, Sequence

from .words import GapPattern


def factor_starts(w: str, u: str) -> list[int]:
    """1-based start positions of u in w as a factor, overlaps included."""
    if not u:
        raise ValueError("factor_starts requires a nonempty factor")
    out = []
    start = w.find(u)
    while start != -1:
        out.append(start + 1)
        start = w.find(u, start + 1)
    return out


def subword_prefix_counts(w: Sequence[Hashable], u: Sequence[Hashable]) -> list[int]:
    """Occurrences of u[:j] in w as a scattered subword (increasing
    positions), for j = 0 .. len(u); w and u may be any sequences of
    hashable symbols.

    The textbook prefix DP, touching only the positions of u that hold the
    current symbol of w: O(|w| + the updates made), where each symbol of w
    makes one update per position of u holding it, and a symbol absent from
    u costs one dict lookup."""
    # ways[j] = occurrences of u[:j] in the prefix of w scanned so far
    ways = [1] + [0] * len(u)
    # positions j of u holding each symbol, highest first, so that every
    # update of one symbol reads ways[j - 1] from before that symbol
    at: dict[Hashable, list[int]] = {}
    for j in range(len(u), 0, -1):
        at.setdefault(u[j - 1], []).append(j)
    for ch in w:
        for j in at.get(ch, ()):
            ways[j] += ways[j - 1]
    return ways


def count_subword(w: str, u: str) -> int:
    """Occurrences of u in w as a scattered subword: the last of
    subword_prefix_counts(w, u)."""
    return subword_prefix_counts(w, u)[-1]


def count_factor(w: str, u: str) -> int:
    """Occurrences of u in w as a contiguous factor; empty u counts 1."""
    if not u:
        return 1
    return len(factor_starts(w, u))


def _step(
    found: list[int],
    prev_starts: Sequence[int],
    prev_ways: Sequence[int],
    min_gap: int,
    prev_total: int,
) -> list[int]:
    """One merge of the chain DP: ways[i] counts the placements of the
    runs so far followed by a run at found[i], given the placements
    prev_ways of the runs before it at prev_starts (total prev_total),
    min_gap the length of the last of those runs."""
    # The starts from `stop` on follow every previous placement, so each
    # sees the previous total, and the scan before them never runs past
    # the last previous start (for the sentinel, stop is 0)
    stop = bisect_left(found, prev_starts[-1] + min_gap)
    ways = []
    acc = 0
    idx = 0
    for p in found[:stop]:
        while prev_starts[idx] + min_gap <= p:
            acc += prev_ways[idx]
            idx += 1
        ways.append(acc)
    ways += [prev_total] * (len(found) - stop)
    return ways


def _chain(runs: Sequence[str], positions: Iterable[list[int]]) -> list[int]:
    """Running totals of placements of the runs in order, gap >= 0 between
    consecutive runs: entry k counts placements of runs[:k], entry 0 is 1.
    positions yields the ascending 1-based start list of each run in turn;
    none is taken after a total reaches 0, when the rest are 0 too."""
    totals = [1]
    # a sentinel run of length 1 at position 0 lets the first run start anywhere
    prev_starts, prev_ways, min_gap = (0,), (1,), 1
    for run, found in zip(runs, positions):
        ways = _step(found, prev_starts, prev_ways, min_gap, totals[-1])
        totals.append(sum(ways))
        if not totals[-1]:
            return totals + [0] * (len(runs) + 1 - len(totals))
        prev_starts, prev_ways, min_gap = found, ways, len(run)
    return totals


def count_piece(
    w: str,
    runs: Sequence[str],
    left_anchored: bool = False,
    right_anchored: bool = False,
    starts: Callable[[str, str], list[int]] = factor_starts,
) -> int:
    """Occurrences in w of the runs in order, gap >= 0 between consecutive
    runs, the first pinned to the start of w if left_anchored and the last
    to its end if right_anchored: the count of one cell of a sequence
    matrix, on its own.

    No runs: 1, or [w is empty] when both-anchored.  `starts(w, run)` gives
    the 1-based start list of a run (`factor_starts` by default); a
    memoized one lets many calls on the same word share their scans, and
    the lists it returns are never mutated.  Anchored ends are tested in
    place: a left anchor by `w.startswith`, a right anchor by `w.endswith`
    plus a cut in the previous run's starts.
    """
    if not runs:
        return int(not w) if left_anchored and right_anchored else 1
    if left_anchored and not w.startswith(runs[0]):
        return 0
    if right_anchored:
        last = runs[-1]
        if not w.endswith(last):
            return 0
        if len(runs) == 1:
            return int(len(w) == len(last)) if left_anchored else 1
        # the last run is pinned to the end; the one before must start by cut
        runs = runs[:-1]
        cut = len(w) - len(last) + 1 - len(runs[-1])
    positions = [[1]] if left_anchored else []  # startswith checked above
    for run in runs[len(positions):]:
        found = starts(w, run)
        if not found:
            return 0
        positions.append(found)
    if right_anchored:
        positions[-1] = positions[-1][: bisect_right(positions[-1], cut)]
    return _chain(runs, positions)[-1]


def gapped_prefix_counts(
    w: str,
    factors: Sequence[str],
    starts: Callable[[str, str], list[int]] = factor_starts,
) -> list[int]:
    """Occurrences of factors[:j] in w as a gap pattern, for j = 0 ..
    len(factors): the gapped twin of subword_prefix_counts, one chain pass
    for all prefixes.  `starts` is as in `count_piece`."""
    return _chain(factors, map(starts, repeat(w), factors))


def count_gapped(w: str, pattern: GapPattern) -> int:
    """Occurrences of the gap pattern in w: factors matched contiguously,
    consecutive factors separated by a gap of length >= 0.  The last of
    gapped_prefix_counts(w, pattern.factors)."""
    return gapped_prefix_counts(w, pattern.factors)[-1]


def fragment_counts(
    w: str,
    flat: str,
    cuts: Container[int],
    start: int,
    anchored: bool,
    memo: dict[str, list[int]],
) -> tuple[list[int], list[int]]:
    """Occurrences in w of the fragments [start, e] of a flat pattern, cut
    into runs after each position in cuts, for e = start .. len(flat), in
    one walk.  Entry e - start of the first list counts the fragment with a
    free end; of the second, with its end anchored to the end of w unless e
    is in cuts.  The first run is anchored to the start of w iff anchored.

    The walk keeps the placements of the full runs before the current one,
    from _chain's sentinel.  Each end makes one _step of the current
    partial run against them; its sum is the free-end count.  The
    end-anchored count pins the run to the end of w: the sum of the
    placements whose last run starts at most len(w) - len(run) + 1 - gap,
    found by one cut.  At an end in cuts the run is full and its
    placements become the state.  Once a count is 0 the rest are 0 too.

    memo maps a run to its start list and may be shared by walks over the
    same w: a one-letter run is scanned, a longer one filters the list of
    its prefix one letter shorter, which the walk visited at the end before.
    """
    n = len(w)
    free: list[int] = []
    ends: list[int] = []
    starts, ways, gap, total = (0,), (1,), 1, 1
    seg = start  # where the current run begins
    for e in range(start, len(flat) + 1):
        run = flat[seg - 1 : e]
        first = anchored and seg == start
        if first:
            found = [1] if w.startswith(run) else []
        else:
            found = memo.get(run)
            if found is None:
                if e == seg:
                    found = factor_starts(w, run)
                else:
                    # a start of run[:-1] that leaves room for one more letter
                    prefix = memo[run[:-1]]
                    prefix = prefix[: bisect_right(prefix, n - len(run) + 1)]
                    last, at = run[-1], len(run) - 2
                    found = [p for p in prefix if w[p + at] == last]
                memo[run] = found
        step = _step(found, starts, ways, gap, total)
        count = sum(step)
        if not count:
            break
        free.append(count)
        if e in cuts:
            ends.append(count)
            starts, ways, gap, total = found, step, len(run), count
            seg = e + 1
        elif not w.endswith(run):
            ends.append(0)
        elif first:
            ends.append(int(n == len(run)))
        else:
            ends.append(sum(ways[: bisect_right(starts, n - len(run) + 1 - gap)]))
    rest = [0] * (len(flat) + 1 - start - len(free))
    return free + rest, ends + rest

