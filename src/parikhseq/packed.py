"""Packed exact columns shared by the streaming folds.

A fold keeps its running matrix as a list of columns, each one Python int
of equal limbs W bits wide: entry i of a column sits in bits
[i*W, (i+1)*W).  Adding two columns adds every entry at once as long as no
limb carries into the next, which the width rule below guarantees.

A letter's update is a plan: (adds, steps), run in that order.  An add
(dst, src) adds column src to column dst; a step (dst, src, keep, unit)
sets column dst to cols[src] + unit, plus its old value if keep, and to
unit alone (plus its old value if keep) when src is None.  No plan zeroes
a column.  This module runs a plan in one of two executors (see
PackedFold): a closure walking it for one letter, or a generated chunk
runner that inlines the plans of every letter for a whole string.

A live mask says which columns hold their values: bit i set means column i
does, bit i clear means the matrix column is zero whatever column i holds.
"""

from __future__ import annotations

from typing import Callable, Iterable

# (adds, steps) as above
Plan = tuple[tuple[tuple[int, int], ...], tuple[tuple[int, int | None, bool, int], ...]]
# a step updates the column list and returns the live mask whose table
# the next letter's step is looked up in
Step = Callable[[list], int]
# a runner folds a string into the column list, starting from the mask of
# the given index, and returns the index of the mask it leaves
Runner = Callable[[list, str, int], int]

# letters a fold pushes one at a time before extend runs chunk runners
_LOOP_LETTERS = 1024

# every bit set: every column holds its value
_ALL = -1


def _run_bits(n: int) -> int:
    """Bits per unit of a fold's exponent after n letters (see PackedFold);
    at least 16, so words under 2**16 letters are never repacked."""
    return max(n.bit_length(), 16)


def loop_step(plan: Plan, after: int) -> Step:
    """A closure that walks the plan's tuples on every call and returns
    after."""
    adds, steps = plan

    def step(cols: list) -> int:
        for dst, src in adds:
            cols[dst] += cols[src]
        for dst, src, keep, unit in steps:
            value = unit if src is None else cols[src] + unit
            if keep:
                cols[dst] += value
            else:
                cols[dst] = value
        return after

    return step


def _tree(var: str, leaves: list[tuple[object, list[str]]]) -> list[str]:
    """Lines that run the leaf whose key var holds, for leaves sorted by
    key and var holding one of their keys: a balanced tree of var < key
    tests, with adjacent leaves of equal lines merged into one."""
    merged: list[tuple[object, list[str]]] = []
    for key, lines in leaves:
        if not merged or merged[-1][1] != lines:
            merged.append((key, lines))
    if len(merged) == 1:
        return merged[0][1] or ["pass"]
    mid = len(merged) // 2
    return [
        f"if {var} < {merged[mid][0]!r}:",
        *("    " + line for line in _tree(var, merged[:mid])),
        "else:",
        *("    " + line for line in _tree(var, merged[mid:])),
    ]


def chunk_runner(plans: list[dict[str, tuple[Plan, int]]], width: int) -> Runner:
    """One generated function that folds a string into a list of width
    columns.  plans[s][letter] is (plan, t): letter's plan under the mask
    of index s and the index t of the mask it leaves; every row holds the
    same letters, and the string may hold no other.  For two masks and
    the letters ab, e.g.

        def run(c, text, s):
            c0, c1, c2, c3 = c
            for x in text:
                if x < 'b':
                    c3 += c1
                    c1 = c0 + u0
                    s = 0
                else:
                    if s < 1:
                        c2 += u1
                    else:
                        c2 = c1 + u1
                    s = 1
            c[:] = c0, c1, c2, c3
            return s

    The columns live in locals for the whole string and are written back
    once.  The source holds only column and mask indices, formatted as
    integers, letters and names; each unit is bound to its name in the
    function's globals, never printed (a unit can exceed int-to-text
    limits).  The function is taken out of the globals it was defined in,
    so no reference cycle is left."""
    units: dict[int, str] = {}

    def body(plan: Plan, after: int) -> list[str]:
        adds, steps = plan
        lines = [f"c{dst:d} += c{src:d}" for dst, src in adds]
        for dst, src, keep, unit in steps:
            name = units.setdefault(unit, f"u{len(units)}")
            value = name if src is None else f"c{src:d} + {name}"
            lines.append(f"c{dst:d} {'+=' if keep else '='} {value}")
        return (lines + [f"s = {after:d}"]) if len(plans) > 1 else lines

    dispatch = _tree("x", [
        (letter, _tree("s", [(s, body(*row[letter])) for s, row in enumerate(plans)]))
        for letter in sorted(plans[0])
    ])
    cols = ", ".join(f"c{i:d}" for i in range(width))
    source = "\n".join([
        "def run(c, text, s):",
        f"    {cols}, = c",
        "    for x in text:",
        *("        " + line for line in dispatch),
        f"    c[:] = {cols},",
        "    return s\n",
    ])
    namespace: dict = {name: unit for unit, name in units.items()}
    exec(source, namespace)
    return namespace.pop("run")


class PackedFold:
    """Width, repack, unpack, guard and executor logic of a fold over packed
    columns.

    A subclass promises that after n >= 1 letters every entry is at most
    n**exponent and that every sum a fold forms is a sum of nonnegative terms
    of an entry after the letter it folds.  With b = n.bit_length(),
    n**exponent < 2**(exponent*b), so limbs of W = exponent * max(b, 16) + 1
    bits never carry; the top bit of each limb is a guard bit that stays
    clear, and _unpacked() raises RuntimeError if one is set.  W depends on
    n only through max(b, 16), so it grows only when n reaches 2**16,
    2**17, ...; that letter's push unpacks every live column and repacks it
    wider.

    A subclass builds a letter's plan with _plan(letter, live), which also
    validates the letter and returns the plan for columns that hold their
    values as the live mask says (see the module docstring), together with
    the mask the plan leaves.  The plan reads no column dead under live.
    No plan clears a column: one that dies is left stale.  No later plan
    reads it, because every plan reads only the columns live under the
    mask it was built for, and _unpacked reports it as 0 without unpacking
    it.  Each subclass names push in its own class dict
    (push = PackedFold.push), so that a tracer can wrap one fold's push
    without the other's.

    push folds one letter through a loop_step, a closure walking the plan
    built for the pair (mask the previous letter left, letter); _ALL is the
    mask before the first letter.  _tables maps a live mask to its table of
    steps, one per letter, and _steps is the table push looks in; a step
    returns the mask its plan leaves, not a table, so steps and tables hold
    no reference cycle.  A SeqFold leaves one mask per letter, so over k
    letters it builds up to 1 + k**2 steps, and up to k**2 after each width
    step; a ParikhFold keeps every column live and stays at one step per
    letter.

    extend(text) first validates the letters of text it has not seen: a
    subclass names in _symbols the letters its _plan accepts, and only when
    one is outside it does extend run _plan on them, the first in text
    first, to raise its error.  So a raising extend leaves the fold as it
    was.  It pushes the fold's first _LOOP_LETTERS = 1024 letters one by
    one.  From letter 1025 on it folds text through one chunk_runner, built
    from the plans of every letter seen so far under every mask they reach
    from the current one: a k-letter SeqFold's runner inlines up to
    (k + 1) * k plans, a ParikhFold's k.  The runner holds the columns in
    locals, so a letter costs no call, no table lookup and no subscript.
    It is rebuilt only after a width step, for a letter it has not seen,
    or from a mask it does not reach, which a push of such a letter can
    leave.  extend slices text at _event_at and pushes that letter alone,
    so the width step goes through push.  A build costs 0.16-0.2 ms at
    block size d = 4 and 0.7-0.9 ms at d = 30 over two or three letters
    (2-core x86_64, CPython 3.11.7); short words, which build many
    short-lived folds, would pay that for nothing.  extend pushes letter by
    letter when text is not a str, or when the fold's class overrides or
    wraps push, so that the override sees every letter.

    _event_at is the next letter count at which push calls _event: a width
    step.  There the tables and the runner are dropped and the letter's
    step is rebuilt for the new width from the current mask; the columns
    are repacked, a dead one as 0.
    """

    def __init__(self, exponent: int, limbs: int):
        """Width for the empty word; the subclass then sets _cols, every
        one holding its value."""
        self._exponent = exponent
        self._limbs = limbs
        self._n = 0  # letters pushed
        self._letters: frozenset[str] = frozenset()  # validated by extend
        self._set_width(0, _ALL)

    def _set_width(self, n: int, live: int) -> None:
        """Limbs wide enough for every entry until the letter count reaches
        the next power of two past n, the next event after n, one empty
        table, for live, and no runner."""
        bits = _run_bits(n)
        self._w = self._exponent * bits + 1
        self._event_at = 1 << bits  # none left if at most n
        self._tables: dict[int, dict[str, Step]] = {live: {}}
        self._steps = self._tables[live]
        # (runner, index of each mask it reaches, the masks by index)
        self._runner: tuple[Runner, dict[int, int], list[int]] | None = None

    def _live(self) -> int:
        """The live mask whose table push looks the next letter up in."""
        return next(live for live, table in self._tables.items() if table is self._steps)

    def _step(self, letter: str) -> Step:
        """Validate letter, then build and cache its loop step."""
        plan, after = self._plan(letter, self._live())
        step = self._steps[letter] = loop_step(plan, after)
        self._tables.setdefault(after, {})
        return step

    def _unpacked(self) -> list[list[int]]:
        """Every column as its list of entries, a dead one as zeros; raises
        RuntimeError if a live limb's guard bit is set."""
        limbs, w, live = self._limbs, self._w, self._live()
        cols = self._cols
        if live != _ALL:
            cols = [col if live >> i & 1 else 0 for i, col in enumerate(cols)]
        guard = sum(1 << i * w + w - 1 for i in range(limbs))
        if any(col & guard for col in cols):
            raise RuntimeError(
                f"{type(self).__name__}: an entry overflowed its {w - 1}-bit limb "
                f"after {self._n} letters"
            )
        mask = (1 << w - 1) - 1
        shifts = [i * w for i in range(limbs)]
        zero = [0] * limbs
        columns = []
        for col in cols:
            top = -(-col.bit_length() // w)  # limbs top, top+1, ... are zero
            columns.append([col >> k & mask for k in shifts[:top]] + zero[top:])
        return columns

    def push(self, letter: str) -> None:
        step = self._steps.get(letter)
        if step is None:
            step = self._step(letter)  # validates before anything changes
        n = self._n + 1
        if n == self._event_at:
            step = self._event(n, letter)
        self._n = n
        self._steps = self._tables[step(self._cols)]

    def extend(self, letters: Iterable[str]) -> None:
        push = self.push
        if not isinstance(letters, str) or type(self).push is not PackedFold.push:
            for letter in letters:
                push(letter)
            return
        new = set(letters).difference(self._letters)
        if new:
            if not self._symbols.issuperset(new):
                # validate before anything changes, the first invalid letter first
                for letter in sorted(new, key=letters.index):
                    self._plan(letter, _ALL)
            self._letters |= new
            self._runner = None
        start = 0
        while start < len(letters):
            n, event = self._n, self._event_at
            if n >= _LOOP_LETTERS and n + 1 != event:
                stop = start + event - n - 1 if event > n else len(letters)
                self._run(letters[start:stop])
            else:
                stop = start + max(_LOOP_LETTERS - n, 1)
                for letter in letters[start:stop]:
                    push(letter)
            start = stop

    def _run(self, text: str) -> None:
        """Fold text, which holds no width step, through the runner, built
        first if there is none for the current mask."""
        live = self._live()
        if self._runner is None or live not in self._runner[1]:
            index, masks, plans = {live: 0}, [live], []
            for mask in masks:  # grows as plans reach new masks
                row: dict[str, tuple[Plan, int]] = {}
                plans.append(row)
                for letter in sorted(self._letters):
                    plan, after = self._plan(letter, mask)
                    if after not in index:
                        index[after] = len(masks)
                        masks.append(after)
                    row[letter] = plan, index[after]
            self._runner = chunk_runner(plans, len(self._cols)), index, masks
        run, index, masks = self._runner
        after = masks[run(self._cols, text, index[live])]
        self._n += len(text)
        self._steps = self._tables.setdefault(after, {})

    def _event(self, n: int, letter: str) -> Step:
        """Repack every column, a dead one as 0, if n letters need wider
        limbs, set the next event, and return letter's step rebuilt for n
        letters after the current mask."""
        live = self._live()
        w = self._exponent * _run_bits(n) + 1
        if w != self._w:
            columns = self._unpacked()
            self._cols = [sum(v << i * w for i, v in enumerate(col)) for col in columns]
        self._set_width(n, live)
        return self._step(letter)
