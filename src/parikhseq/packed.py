"""Packed exact columns shared by the streaming folds.

A fold keeps its running matrix as a list of columns, each one Python int
of equal limbs W bits wide: entry i of a column sits in bits
[i*W, (i+1)*W).  Adding two columns adds every entry at once as long as no
limb carries into the next, which the width rule below guarantees.

A letter's update is a plan: (adds, steps), run in that order.  An add
(dst, src) adds column src to column dst; a step (dst, src, keep, unit)
sets column dst to cols[src] + unit, plus its old value if keep, and to
unit alone (plus its old value if keep) when src is None.  No plan zeroes
a column.  This module turns a plan into a callable of the column list in
one of two forms (see PackedFold).

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

# letters a fold runs through loop steps before it generates its steps
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


def generated_step(plan: Plan, after: int) -> Step:
    """One straight-line function for the plan's adds and steps that
    returns after, e.g.

        def step(c):
            c[5] += c[2]
            c[3] = c[2] + u0
            c[1] += u1
            return k

    The source holds only the plan's column indices, formatted as
    integers, and names; each unit, and after, is bound to its name in the
    function's globals, never printed (a unit can exceed int-to-text
    limits).  Globals cost no more per call than defaults would, and the
    shorter source compiles a fifth to a third faster.  The function is
    taken out of the globals it was defined in, so no reference cycle is
    left."""
    adds, steps = plan
    namespace: dict = {f"u{i}": unit for i, (*_, unit) in enumerate(steps)}
    namespace["k"] = after
    lines = [f"c[{dst:d}] += c[{src:d}]" for dst, src in adds]
    for i, (dst, src, keep, _) in enumerate(steps):
        value = f"u{i}" if src is None else f"c[{src:d}] + u{i}"
        lines.append(f"c[{dst:d}] {'+=' if keep else '='} {value}")
    body = "".join(f"\n    {line}" for line in [*lines, "return k"])
    exec(f"def step(c):{body}\n", namespace)
    return namespace.pop("step")


class PackedFold:
    """Width, repack, unpack, guard and step logic of a fold over packed
    columns.

    A subclass promises that after n >= 1 letters every entry is at most
    n**exponent and that every sum a push forms is a sum of nonnegative terms
    of an entry after that push.  With b = n.bit_length(), n**exponent <
    2**(exponent*b), so limbs of W = exponent * max(b, 16) + 1 bits never
    carry; the top bit of each limb is a guard bit that stays clear, and
    _unpacked() raises RuntimeError if one is set.  W depends on n only
    through max(b, 16), so it grows only when n reaches 2**16, 2**17, ...;
    that push unpacks every live column and repacks it wider.

    A subclass builds a letter's plan with _plan(letter, live), which also
    validates the letter and returns the plan for columns that hold their
    values as the live mask says (see the module docstring), together with
    the mask the plan leaves.  The plan reads no column dead under live.
    push and extend live here: push looks up the letter's cached
    step, compares the new letter count with _event_at, calls the step on
    the columns, and looks the next letter up in the table of the mask the
    step returns; extend is the only loop over letters.  Each subclass
    names push in its own class dict (push = PackedFold.push), so that a
    tracer can wrap one fold's push without the other's.

    _tables maps a live mask to its table of steps, one per letter, and
    _steps is the table push looks in.  A step returns a mask, not a table,
    so steps and tables hold no reference cycle.  Every step is built from
    the plan for the mask it runs under, the one the previous letter left
    (_ALL for the first letter), and returns the mask its plan leaves.  No
    plan clears a column: one that dies is left stale.  No later step
    reads it, because every plan reads only the columns live under the
    mask it was built for, and _unpacked reports it as 0 without unpacking
    it.  A SeqFold leaves one mask per letter, so over k letters it builds
    up to 1 + k**2 steps, and up to k**2 after the switch and after each
    width step; a ParikhFold keeps every column live and stays at one step
    per letter.  The plan is run by one of two executors:

    - loop_step, a closure walking the plan's tuples, for the first
      _LOOP_LETTERS = 1024 letters;
    - generated_step, one straight-line function, from letter 1025 on.

    Both compute the same matrix.  A generated step costs a compile:
    ~0.03-0.06 ms per plan at block size d = 4 and ~0.11-0.2 ms at
    d = 30 (2-core x86_64, CPython 3.11.7).  Words of a few letters, which
    build many short-lived folds, would pay that for nothing.  On 20 000
    random letters a SeqFold runs 1.26-1.42x faster with generated steps
    than with loop steps alone.  Against one generated step per letter,
    words of 1100 to 3000 letters fold 1.14-1.50x faster at d = 19-30 but
    up to 1.18x slower at d = 4, where the compiles are not yet paid back.

    _event_at is the next letter count at which push calls _event: a width
    step or the switch to generated steps, whichever comes first.  There
    the tables are dropped and the letter's step is rebuilt for the new
    width and form from the current mask; the columns are repacked only
    when the width changes, a dead one as 0.
    """

    def __init__(self, exponent: int, limbs: int):
        """Width for the empty word; the subclass then sets _cols, every
        one holding its value."""
        self._exponent = exponent
        self._limbs = limbs
        self._n = 0  # letters pushed
        self._set_width(0, _ALL)

    def _set_width(self, n: int, live: int) -> None:
        """Limbs wide enough for every entry until the letter count reaches
        the next power of two past n, the next event after n, and one empty
        table, for live."""
        bits = _run_bits(n)
        self._w = self._exponent * bits + 1
        # the switch lies behind n once passed; 0 means no further event
        self._event_at = min(
            (at for at in (1 << bits, _LOOP_LETTERS + 1) if at > n), default=0
        )
        self._tables: dict[int, dict[str, Step]] = {live: {}}
        self._steps = self._tables[live]

    def _live(self) -> int:
        """The live mask whose table push looks the next letter up in."""
        return next(live for live, table in self._tables.items() if table is self._steps)

    def _step(self, letter: str) -> Step:
        """Validate letter, then build and cache its step in the form for
        the letters pushed so far."""
        plan, after = self._plan(letter, self._live())
        form = loop_step if self._n < _LOOP_LETTERS else generated_step
        step = self._steps[letter] = form(plan, after)
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
        for letter in letters:
            push(letter)

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
