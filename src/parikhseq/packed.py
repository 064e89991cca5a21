"""Packed exact columns shared by the streaming folds.

A fold keeps its running matrix as a list of columns, each one Python int
of equal limbs W bits wide: entry i of a column sits in bits
[i*W, (i+1)*W).  Adding two columns adds every entry at once as long as no
limb carries into the next, which the width rule below guarantees.
"""

from __future__ import annotations

from typing import Iterable


def _run_bits(n: int) -> int:
    """Bits per unit of a fold's exponent after n letters (see PackedFold);
    at least 16, so words under 2**16 letters are never repacked."""
    return max(n.bit_length(), 16)


class PackedFold:
    """Width, repack, unpack and guard logic of a fold over packed columns.

    A subclass promises that after n >= 1 letters every entry is at most
    n**exponent and that every sum a push forms is a sum of nonnegative terms
    of an entry after that push.  With b = n.bit_length(), n**exponent <
    2**(exponent*b), so limbs of W = exponent * max(b, 16) + 1 bits never
    carry; the top bit of each limb is a guard bit that stays clear, and
    _unpacked() raises RuntimeError if one is set.  W depends on n only
    through max(b, 16), so it grows only when n reaches 2**16, 2**17, ...;
    that push calls _widen, which unpacks every column and repacks it wider.

    A subclass caches one plan per letter in _plans, built by _plan(letter)
    for the current width (a widen drops the cache), and defines push
    itself, so that a letter costs one method call.
    """

    def __init__(self, exponent: int, limbs: int):
        """Width for the empty word; the subclass then sets _cols."""
        self._exponent = exponent
        self._limbs = limbs
        self._n = 0  # letters pushed
        self._set_width(0)

    def _set_width(self, n: int) -> None:
        """Limbs wide enough for every entry until the letter count reaches
        the next power of two past n."""
        bits = _run_bits(n)
        self._w = self._exponent * bits + 1
        self._widen_at = 1 << bits
        self._plans: dict = {}

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

    def extend(self, letters: Iterable[str]) -> None:
        for letter in letters:
            self.push(letter)

    def _widen(self, n: int, letter: str):
        """Repack every column for n letters and return letter's new plan."""
        columns = self._unpacked()
        self._set_width(n)
        w = self._w
        self._cols = [sum(v << i * w for i, v in enumerate(col)) for col in columns]
        return self._plan(letter)
