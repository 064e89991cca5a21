"""Packed exact columns shared by the streaming folds.

A fold keeps its running matrix as a list of columns, each one Python int
of equal limbs W bits wide: entry i of a column sits in bits
[i*W, (i+1)*W).  Adding two columns adds every entry at once as long as no
limb carries into the next, which the width rule below guarantees.

A letter's update is a plan: (adds, steps, clears), run in that order.
An add (dst, src) adds column src to column dst; a step
(dst, src, keep, unit) sets column dst to cols[src] + unit, plus its old
value if keep; a clear zeroes one column.  This module turns a plan into a
callable of the column list in one of two forms (see PackedFold).
"""

from __future__ import annotations

from typing import Callable, Iterable

# (adds, steps, clears) as above
Plan = tuple[
    tuple[tuple[int, int], ...], tuple[tuple[int, int, bool, int], ...], tuple[int, ...]
]
Step = Callable[[list], None]

# letters a fold runs through loop steps before it generates its steps
_LOOP_LETTERS = 1024


def _run_bits(n: int) -> int:
    """Bits per unit of a fold's exponent after n letters (see PackedFold);
    at least 16, so words under 2**16 letters are never repacked."""
    return max(n.bit_length(), 16)


def loop_step(plan: Plan) -> Step:
    """A closure that walks the plan's tuples on every call."""
    adds, steps, clears = plan

    def step(cols: list) -> None:
        for dst, src in adds:
            cols[dst] += cols[src]
        for dst, src, keep, unit in steps:
            if keep:
                cols[dst] += cols[src] + unit
            else:
                cols[dst] = cols[src] + unit
        for j in clears:
            cols[j] = 0

    return step


def generated_step(plan: Plan) -> Step:
    """One straight-line function for the plan, e.g.

        def step(c, u0=u0):
            c[5] += c[2]
            c[3] = c[2] + u0
            c[1] = 0

    The source holds only the plan's column indices, formatted as integers,
    and parameter names; each unit is bound as the default of its
    parameter, never printed (a unit can exceed int-to-text limits)."""
    adds, steps, clears = plan
    units = {f"u{i}": unit for i, (_, _, _, unit) in enumerate(steps)}
    lines = [f"c[{dst:d}] += c[{src:d}]" for dst, src in adds]
    lines += [
        f"c[{dst:d}] {'+=' if keep else '='} c[{src:d}] + u{i}"
        for i, (dst, src, keep, _) in enumerate(steps)
    ]
    lines += [f"c[{j:d}] = 0" for j in clears]
    params = "".join(f", {name}={name}" for name in units)
    body = "".join(f"\n    {line}" for line in lines or ["pass"])
    namespace = dict(units)  # the defaults are read from here once, at def
    exec(f"def step(c{params}):{body}\n", namespace)
    return namespace["step"]


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
    that push unpacks every column and repacks it wider.

    A subclass builds one plan per letter with _plan(letter), which also
    validates the letter.  push and extend live here: push looks up the
    letter's cached step, compares the new letter count with _event_at,
    and calls the step on the columns; extend is the only loop over
    letters.  Each subclass names push in its own class dict
    (push = PackedFold.push), so that a tracer can wrap one fold's push
    without the other's.

    A step comes in one of two forms, built from the same plan:

    - a loop step (loop_step), a closure walking the plan's tuples, for the
      first _LOOP_LETTERS = 1024 letters;
    - a generated step (generated_step), one straight-line function per
      letter, from letter 1025 on.  Its source holds only column indices
      and parameter names.

    On 20 000 random letters a SeqFold runs 1.25-1.45x faster with
    generated steps than with loop steps alone, but compiling a step costs
    ~0.05-0.15 ms per plan at block size d = 2-4 and ~0.45-0.8 ms at
    d = 21-30 (2-core x86_64, CPython 3.11.7).  Words of a few letters,
    which build many short-lived folds, would pay that for nothing; on
    random binary words the switch pays for itself by ~2500 letters.
    Both forms run the same plan, so a result does not depend on the form.

    _event_at is the next letter count at which push calls _event: a width
    step or the switch to generated steps, whichever comes first.  There
    the step cache is dropped and rebuilt for the new width and form; the
    columns are repacked only when the width changes.
    """

    def __init__(self, exponent: int, limbs: int):
        """Width for the empty word; the subclass then sets _cols."""
        self._exponent = exponent
        self._limbs = limbs
        self._n = 0  # letters pushed
        self._set_width(0)

    def _set_width(self, n: int) -> None:
        """Limbs wide enough for every entry until the letter count reaches
        the next power of two past n, and the next event after n."""
        bits = _run_bits(n)
        self._w = self._exponent * bits + 1
        # the switch lies behind n once passed; 0 means no further event
        self._event_at = min(
            (at for at in (1 << bits, _LOOP_LETTERS + 1) if at > n), default=0
        )
        self._steps: dict[str, Step] = {}

    def _step(self, letter: str) -> Step:
        """Validate letter, then build and cache its step in the form for
        the letters pushed so far."""
        plan = self._plan(letter)
        form = generated_step if self._n >= _LOOP_LETTERS else loop_step
        step = self._steps[letter] = form(plan)
        return step

    def _unpacked(self) -> list[list[int]]:
        """Every column as its list of entries; raises RuntimeError if a
        limb's guard bit is set."""
        limbs, w = self._limbs, self._w
        guard = sum(1 << i * w + w - 1 for i in range(limbs))
        if any(col & guard for col in self._cols):
            raise RuntimeError(
                f"{type(self).__name__}: an entry overflowed its {w - 1}-bit limb "
                f"after {self._n} letters"
            )
        mask = (1 << w - 1) - 1
        shifts = [i * w for i in range(limbs)]
        zero = [0] * limbs
        columns = []
        for col in self._cols:
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
        step(self._cols)

    def extend(self, letters: Iterable[str]) -> None:
        push = self.push
        for letter in letters:
            push(letter)

    def _event(self, n: int, letter: str) -> Step:
        """Repack every column if n letters need wider limbs, set the next
        event, and return letter's step rebuilt for n letters."""
        w = self._exponent * _run_bits(n) + 1
        if w != self._w:
            columns = self._unpacked()
            self._cols = [sum(v << i * w for i, v in enumerate(col)) for col in columns]
        self._set_width(n)
        return self._step(letter)
