"""Generalized subword histories: expressions over gapped-subsequence counts.

A monomial is a factor tuple evaluated as a gapped-subsequence count (the
empty tuple is the unit, value 1).  Expressions combine monomials with +, -,
x and integer scaling; every expression is equivalent to a linear form, a
finite integer combination of monomials, computed here by eliminating
products.

Product elimination recurses on the first factors of both sides (see
linearize_product).  A junction of a run of each side contributes its
reduction: the words carrying an overlap-connected, span-filling joint
placement of both runs, each weighted by the number of such placements.  The
paper-style rule set that reduces only plain-run-then-primed-run junctions
undercounts (e.g. (a.a) x a on the word aa); it is kept for comparison as
`linearize_product_literal` in tests/oracles.py.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from itertools import product as iter_product
from typing import Callable, Iterator, Union

from .counting import count_gapped
from .words import Alphabet, GapPattern, PatternError

Monomial = tuple[str, ...]


def mono_key(m: Monomial) -> tuple:
    return (sum(map(len, m)), len(m), m)


def render_mono(m: Monomial) -> str:
    return ".".join(m) if m else "#e"


def canonical_mono(factors) -> Monomial:
    """Drop empty factors (the unit acts as identity under the gap marker)."""
    return tuple(f for f in factors if f)


class Expr:
    """Base expression node; combines with +, -, * and unary minus."""

    def __add__(self, other: Expr) -> Expr:
        return Sum((self, other))

    def __sub__(self, other: Expr) -> Expr:
        return Sum((self, Neg(other)))

    def __neg__(self) -> Expr:
        return Neg(self)

    def __mul__(self, other: Expr) -> Expr:
        return Prod((self, other))

    def __rmul__(self, coeff: int) -> Expr:
        return Scale(int(coeff), self)


@dataclass(frozen=True)
class Mono(Expr):
    factors: Monomial

    def __post_init__(self) -> None:
        object.__setattr__(self, "factors", canonical_mono(self.factors))

    def __str__(self) -> str:
        return render_mono(self.factors)


@dataclass(frozen=True)
class Neg(Expr):
    inner: Expr

    def __str__(self) -> str:
        return f"-({self.inner})"


@dataclass(frozen=True)
class Sum(Expr):
    terms: tuple[Expr, ...]

    def __str__(self) -> str:
        # parse_expr takes '-' before a sum's first term or in place of '+',
        # not after '+', so a later negated term is written "- (x)"
        first, *rest = self.terms
        text = str(first)
        for t in rest:
            text += f" - ({t.inner})" if isinstance(t, Neg) else f" + {t}"
        return f"({text})"


@dataclass(frozen=True)
class Prod(Expr):
    parts: tuple[Expr, ...]

    def __str__(self) -> str:
        # a negated part is parenthesized: "-(a) * b" parses as -(a * b)
        parts = (f"({p})" if isinstance(p, Neg) else str(p) for p in self.parts)
        return "(" + " * ".join(parts) + ")"


@dataclass(frozen=True)
class Scale(Expr):
    coeff: int
    inner: Expr

    def __str__(self) -> str:
        return f"{self.coeff}({self.inner})"


def mono(*factors: str) -> Mono:
    return Mono(canonical_mono(factors))


EPSILON = Mono(())


class LinearForm:
    """Finite map from canonical monomials to nonzero integer coefficients."""

    __slots__ = ("_terms",)

    def __init__(self, terms: dict[Monomial, int] | None = None):
        clean: dict[Monomial, int] = {}
        if terms:
            for m, c in terms.items():
                if c:
                    key = canonical_mono(m)
                    clean[key] = clean.get(key, 0) + c
        object.__setattr__(self, "_terms", {m: c for m, c in clean.items() if c})

    def __setattr__(self, name, value):
        raise AttributeError("LinearForm is immutable")

    @classmethod
    def zero(cls) -> LinearForm:
        return cls()

    def items(self) -> list[tuple[Monomial, int]]:
        return sorted(self._terms.items(), key=lambda kv: mono_key(kv[0]))

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LinearForm):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __add__(self, other: LinearForm) -> LinearForm:
        out = dict(self._terms)
        for m, c in other._terms.items():
            out[m] = out.get(m, 0) + c
        return LinearForm(out)

    def __sub__(self, other: LinearForm) -> LinearForm:
        return self + other.scale(-1)

    def scale(self, coeff: int) -> LinearForm:
        return LinearForm({m: coeff * c for m, c in self._terms.items()})

    def evaluate(self, w: str) -> int:
        return _value(self, lambda m: _mono_value(m, w))

    def render(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for m, c in self.items():
            text = render_mono(m)
            mag = abs(c)
            body = text if mag == 1 else f"{mag}({text})"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(("+ " if c > 0 else "- ") + body)
        return " ".join(parts)

    def to_json_list(self) -> list[dict[str, str]]:
        return [
            {"monomial": render_mono(m), "coeff": str(c)} for m, c in self.items()
        ]

    @classmethod
    def from_json_list(cls, data) -> LinearForm:
        terms: dict[Monomial, int] = {}
        for item in data:
            text = item["monomial"]
            m = () if text == "#e" else GapPattern.parse(text).factors
            terms[m] = terms.get(m, 0) + int(item["coeff"])
        return cls(terms)

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"LinearForm({self._terms!r})"


def _mono_value(m: Monomial, w: str) -> int:
    if not m:
        return 1
    return count_gapped(w, GapPattern(m))


def _value(e: Union[Expr, LinearForm], mono_value: Callable[[Monomial], int]) -> int:
    """Value of an expression or linear form, given the value of each of its
    monomials; every monomial is looked up, none skipped."""
    if isinstance(e, LinearForm):
        return sum(c * mono_value(m) for m, c in e._terms.items())
    if isinstance(e, Mono):
        return mono_value(e.factors)
    if isinstance(e, Neg):
        return -_value(e.inner, mono_value)
    if isinstance(e, Sum):
        return sum(_value(t, mono_value) for t in e.terms)
    if isinstance(e, Prod):
        value = 1
        for p in e.parts:
            value *= _value(p, mono_value)
        return value
    if isinstance(e, Scale):
        return e.coeff * _value(e.inner, mono_value)
    raise TypeError(f"not an expression: {e!r}")


def evaluate(e: Union[Expr, LinearForm], w: str) -> int:
    """Value of an expression or linear form in w."""
    return _value(e, lambda m: _mono_value(m, w))


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


@lru_cache(maxsize=4096)
def red(p_run: Monomial, q_run: Monomial) -> LinearForm:
    """Junction reduction: words v carrying a joint placement of both runs
    whose spans form one overlap-connected cluster filling v exactly, each
    weighted by its number of such placements.  Zero form when no word
    qualifies."""
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


@lru_cache(maxsize=4096)
def linearize_product(p: Monomial, q: Monomial) -> LinearForm:
    """Linear form equivalent to the product of two monomials.  A joint
    placement of both starts with p's first factor alone, with q's first
    factor alone, or with a junction of a prefix run of each side:

        p x q = p_1.(p[1:] x q) + q_1.(p x q[1:])
                + sum_{r,s >= 1} red(p[:r], q[:s]).(p[r:] x q[s:]),

    and a product with the empty monomial is its other side.  The cache
    shares suffix products across calls, so cost follows the (i, j) suffix
    pairs and the size of their forms.  Raises ValueError, before recursing,
    when the sides have more than MAX_PRODUCT_FACTORS factors together."""
    p = canonical_mono(p)
    q = canonical_mono(q)
    if not p or not q:
        return LinearForm({p + q: 1})
    if len(p) + len(q) > MAX_PRODUCT_FACTORS:
        raise ValueError(
            f"product of {len(p)} and {len(q)} factors exceeds the cap of "
            f"{MAX_PRODUCT_FACTORS} factors"
        )
    acc: dict[Monomial, int] = {}

    def add(head: Monomial, coeff: int, rest: LinearForm) -> None:
        for m, c in rest._terms.items():
            key = head + m
            acc[key] = acc.get(key, 0) + coeff * c

    add(p[:1], 1, linearize_product(p[1:], q))
    add(q[:1], 1, linearize_product(p, q[1:]))
    for r in range(1, len(p) + 1):
        for s in range(1, len(q) + 1):
            reduction = red(p[:r], q[:s])
            if reduction:
                rest = linearize_product(p[r:], q[s:])
                for v, a in reduction._terms.items():
                    add(v, a, rest)
    return LinearForm(acc)


def linearize(e: Expr) -> LinearForm:
    """Equivalent linear form: structural recursion, products distributed
    bilinearly over linearize_product."""
    if isinstance(e, Mono):
        return LinearForm({e.factors: 1})
    if isinstance(e, Neg):
        return linearize(e.inner).scale(-1)
    if isinstance(e, Scale):
        return linearize(e.inner).scale(e.coeff)
    if isinstance(e, Sum):
        out = LinearForm.zero()
        for term in e.terms:
            out = out + linearize(term)
        return out
    if isinstance(e, Prod):
        acc = LinearForm({(): 1})
        for part in e.parts:
            rhs = linearize(part)
            combined: dict[Monomial, int] = {}
            for m1, c1 in acc.items():
                for m2, c2 in rhs.items():
                    for m, c in linearize_product(m1, m2).items():
                        combined[m] = combined.get(m, 0) + c1 * c2 * c
            acc = LinearForm(combined)
        return acc
    raise TypeError(f"not an expression: {e!r}")


def equivalent(e1: Expr, e2: Expr) -> bool:
    """True iff the canonical linear forms coincide."""
    return linearize(e1) == linearize(e2)


def words_up_to(alphabet: Alphabet, max_len: int) -> Iterator[str]:
    for n in range(max_len + 1):
        for combo in iter_product(alphabet.symbols, repeat=n):
            yield "".join(combo)


def equivalent_bounded(
    e1: Union[Expr, LinearForm],
    e2: Union[Expr, LinearForm],
    alphabet: Alphabet,
    max_len: int,
) -> tuple[bool, str | None]:
    """Exhaustive evaluation oracle: (False, first differing word) or
    (True, None), over every word of length <= max_len, in words_up_to order.
    The words are walked as a trie by first_difference, which updates each
    monomial's count from the node's ancestors instead of recounting it per
    word (cost per trie node in its docstring).  Raises ValueError, before
    evaluating anything, when there are more than MAX_BOUNDED_WORDS words to
    try or more than MAX_BOUNDED_WORDS * MAX_BOUNDED_WORDS.bit_length()
    letters in them."""
    k = len(alphabet.symbols)
    if k > 1 and max_len >= MAX_BOUNDED_WORDS.bit_length():
        # over 2**max_len words, past the cap: skip building the exact sum
        count = f"more than {k}**{max_len}"
    else:
        count = max_len + 1 if k == 1 else (k ** (max_len + 1) - 1) // (k - 1)
        if count <= MAX_BOUNDED_WORDS:
            count = None
    if count is not None:
        raise ValueError(
            f"bounded check over {count} words (length <= {max_len}, "
            f"{k}-letter alphabet) exceeds the cap of {MAX_BOUNDED_WORDS}"
        )
    # the word cap alone lets one letter reach maxlen ~10**6, ~5 * 10**11
    # letters; with k >= 2 it forces maxlen < 20, so the sum stays short
    if k == 1:
        letters = max_len * (max_len + 1) // 2
    else:
        letters = sum(n * k**n for n in range(max_len + 1))
    letter_cap = MAX_BOUNDED_WORDS * MAX_BOUNDED_WORDS.bit_length()
    if letters > letter_cap:
        raise ValueError(
            f"bounded check over {letters} letters (length <= {max_len}, "
            f"{k}-letter alphabet) exceeds the cap of {letter_cap}"
        )
    w = first_difference(e1, e2, alphabet, max_len)
    return w is None, w


def first_difference(
    e1: Union[Expr, LinearForm],
    e2: Union[Expr, LinearForm],
    alphabet: Alphabet,
    max_len: int,
) -> str | None:
    """First word of length <= max_len, in words_up_to order (shorter first,
    then alphabet order), on which e1 and e2 differ; None if there is none.

    Every monomial r_1. ... .r_t of either side has counts N_0..N_t per word,
    N_i the occurrences of r_1. ... .r_i, N_0 = 1 and the monomial's value
    N_t.  Appending letter c to u gives

        N_i(uc) = N_i(u) + [uc ends with r_i] * N_{i-1}(v),

    v the prefix of uc of length |uc| - |r_i|: the occurrences ending before
    the last letter, plus those whose r_i is the suffix of uc.  v is an
    ancestor of uc in the trie of words, so one depth-first walk keeps the
    counts of the current path's nodes, one list per depth, and computes each
    node from them.  Cost per trie node: a copy of the parent's counts, one
    endswith per distinct run ending in c, one addition per run position
    whose suffix test passed, and one evaluation of each side's tree on the
    counts.

    The walk is iterative (an explicit stack; one-letter alphabets go
    thousands deep) and visits letters in alphabet order, so among words of
    one length it meets them in words_up_to order.  It keeps the shortest,
    then earliest, differing word met and skips every node not shorter than
    it, which also skips the later siblings of a differing node; what remains
    of the walk only looks for a shorter word.  No caps are checked here:
    equivalent_bounded checks them before it calls this.
    """
    # one list of counts per node: slot 0 holds N_0 = 1, then N_1..N_t of
    # each distinct monomial; slot_of gives the slot of its value N_t
    counts = [1]  # the empty word's
    slot_of: dict[Monomial, int] = {(): 0}
    updates: dict[str, list[tuple[int, int]]] = {}  # run -> (N_i slot, N_{i-1} slot)

    def register(m: Monomial) -> int:
        if m not in slot_of:
            prev = 0
            for run in m:
                counts.append(0)
                updates.setdefault(run, []).append((len(counts) - 1, prev))
                prev = len(counts) - 1
            slot_of[m] = prev
        return 0

    # evaluating each side once with a recording lookup collects its monomials
    _value(e1, register)
    _value(e2, register)
    plan = {
        c: [(run, len(run), pairs) for run, pairs in updates.items() if run[-1] == c]
        for c in alphabet.symbols
    }

    def value(m: Monomial) -> int:
        return counts[slot_of[m]]

    if _value(e1, value) != _value(e2, value):
        return ""
    path = [counts]  # path[d]: counts of the current node's ancestor of length d
    letters = alphabet.symbols[::-1]
    stack = list(letters) if max_len else []
    best: str | None = None
    while stack:
        word = stack.pop()
        depth = len(word)
        if best is not None and depth >= len(best):
            continue
        counts = path[depth - 1].copy()
        for run, n, pairs in plan[word[-1]]:
            if word.endswith(run):
                before = path[depth - n]
                for slot, prev in pairs:
                    counts[slot] += before[prev]
        path[depth:] = [counts]
        if _value(e1, value) != _value(e2, value):
            best = word
        elif depth < max_len and (best is None or depth + 1 < len(best)):
            stack.extend(word + c for c in letters)
    return best


# ---------------------------------------------------------------------------
# expression text format
#
#   expr := ['-'] term (('+'|'-') term)*
#   term := atom ('*' atom)*
#   atom := INT atom | monomial | '#e' | '(' expr ')'
#
# Monomials use the pattern grammar (factors of [a-zA-Z0-9] joined by '.').
# A leading digit run always parses as an integer coefficient, so a monomial
# whose first symbol is a digit cannot be written bare inside an expression.

_TOKEN = re.compile(
    r"\s*(?:(?P<int>\d+)|(?P<mono>[A-Za-z][A-Za-z0-9.•]*)|(?P<eps>#e)"
    r"|(?P<op>[-+*()]))"
)


class GshSyntaxError(PatternError):
    """Malformed generalized-subword-history expression text."""


def _tokenize(text: str) -> list[tuple[str, str]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise GshSyntaxError(f"bad token at {text[pos:]!r}")
            break
        pos = m.end()
        for kind in ("int", "mono", "eps", "op"):
            value = m.group(kind)
            if value is not None:
                tokens.append((kind, value))
                break
    return tokens


# nesting bound for '(', integer prefixes and '*' chains together; a '(' or
# prefix level costs at most three parser frames and any level at most one
# tree level, so parsing and the recursive walks over the parsed tree stay far
# below the interpreter's recursion limit
MAX_NESTING = 100
# most factors of a product's two sides together; linearize_product recurses
# one level per factor, at most two interpreter frames each, and a '*' chain
# of MAX_NESTING + 1 letters fits
MAX_PRODUCT_FACTORS = 256
# most words equivalent_bounded enumerates (all words of length <= max_len);
# times its bit length, most letters in them (2 * 10**7)
MAX_BOUNDED_WORDS = 10**6


class _Parser:
    def __init__(self, tokens: list[tuple[str, str]]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> tuple[str, str] | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self) -> tuple[str, str]:
        tok = self.peek()
        if tok is None:
            raise GshSyntaxError("unexpected end of expression")
        self.pos += 1
        return tok

    # Each method takes the number of '(' and integer prefixes around the
    # parse position and returns its node and the node's height in '(',
    # integer prefix and '*' levels; depth + height never exceeds MAX_NESTING.
    def expr(self, depth: int) -> tuple[Expr, int]:
        negate = False
        if self.peek() == ("op", "-"):
            self.take()
            negate = True
        node, height = self.term(depth)
        terms = [Neg(node) if negate else node]
        # one flat Sum per chain: a left-deep tree would recurse once per term
        while self.peek() in (("op", "+"), ("op", "-")):
            _, op = self.take()
            rhs, rhs_height = self.term(depth)
            terms.append(rhs if op == "+" else Neg(rhs))
            height = max(height, rhs_height)
        return (terms[0] if len(terms) == 1 else Sum(tuple(terms))), height

    def term(self, depth: int) -> tuple[Expr, int]:
        node, height = self.atom(depth)
        # each '*' puts the whole left-deep Prod chain so far one level deeper,
        # including factors parsed before the '*' was seen
        while self.peek() == ("op", "*"):
            self.take()
            rhs, rhs_height = self.atom(depth)
            node = node * rhs
            height = max(height, rhs_height) + 1
            if depth + height > MAX_NESTING:
                raise GshSyntaxError(f"expression nested deeper than {MAX_NESTING}")
        return node, height

    def atom(self, depth: int) -> tuple[Expr, int]:
        kind, value = self.take()
        if kind == "mono":
            try:
                return Mono(GapPattern.parse(value).factors), 0
            except PatternError as exc:
                raise GshSyntaxError(str(exc)) from None
        if kind == "eps":
            return EPSILON, 0
        if kind != "int" and (kind, value) != ("op", "("):
            raise GshSyntaxError(f"unexpected token {value!r}")
        depth += 1
        if depth > MAX_NESTING:
            raise GshSyntaxError(f"expression nested deeper than {MAX_NESTING}")
        if kind == "int":
            inner, height = self.atom(depth)
            node = Scale(int(value), inner)
        else:
            node, height = self.expr(depth)
            if self.take() != ("op", ")"):
                raise GshSyntaxError("expected ')'")
        return node, height + 1


def parse_expr(text: str) -> Expr:
    parser = _Parser(_tokenize(text))
    node, _ = parser.expr(0)
    if parser.peek() is not None:
        raise GshSyntaxError(f"trailing input at {parser.peek()[1]!r}")
    return node
