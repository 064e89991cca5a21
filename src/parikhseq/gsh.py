"""Generalized subword histories: expressions over gapped-subsequence counts.

A monomial is a factor tuple evaluated as a gapped-subsequence count (the
empty tuple is the unit, value 1).  Expressions combine monomials with +, -,
x and integer scaling; every expression is equivalent to a linear form, a
finite integer combination of monomials, computed here by eliminating
products.

Product elimination recurses on the first cluster of a joint placement of
both sides (see _product): the leading factors of each side whose
spans overlap-connect into one word v, which one letter-level walk builds
with the number of placements giving each v.  A cluster of all of both runs
is their junction reduction `red`, a gapped form of the infiltration product.
The paper-style rule set that reduces only plain-run-then-primed-run
junctions undercounts (e.g. (a.a) x a on the word aa); it is kept for
comparison as `linearize_product_literal` in tests/oracles.py.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import accumulate, product as iter_product
from math import prod
from operator import index, mul
from typing import Callable, Iterator, Union

from .counting import gapped_prefix_counts
from .words import Alphabet, GapPattern, PatternError, check_symbols

Monomial = tuple[str, ...]

# GapPattern's message, for monomials built without a pattern
_BAD_SYMBOL = "pattern contains invalid symbol {!r} (allowed: [a-zA-Z0-9])"


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
        return Scale(coeff, self)


@dataclass(frozen=True)
class Mono(Expr):
    factors: Monomial

    def __post_init__(self) -> None:
        object.__setattr__(self, "factors", canonical_mono(self.factors))
        check_symbols("".join(self.factors), _BAD_SYMBOL)

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

    def __post_init__(self) -> None:
        object.__setattr__(self, "coeff", index(self.coeff))

    def __str__(self) -> str:
        # parse_expr takes '-' only before a sum's first term or in place of
        # '+', so a negative coefficient is written as "(-3(x))"
        text = f"{self.coeff}({self.inner})"
        return f"({text})" if self.coeff < 0 else text


def mono(*factors: str) -> Mono:
    return Mono(factors)


EPSILON = Mono(())


@dataclass(frozen=True, repr=False)
class LinearForm:
    """Finite map from canonical monomials to nonzero integer coefficients."""

    terms: dict[Monomial, int] | None = None

    def __post_init__(self) -> None:
        clean: dict[Monomial, int] = {}
        for m, c in (self.terms or {}).items():
            key = m if all(m) else canonical_mono(m)
            clean[key] = clean.get(key, 0) + index(c)
        check_symbols("".join(map("".join, clean)), _BAD_SYMBOL)
        object.__setattr__(self, "terms", {m: c for m, c in clean.items() if c})

    def items(self) -> list[tuple[Monomial, int]]:
        return sorted(self.terms.items(), key=lambda kv: mono_key(kv[0]))

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    def evaluate(self, w: str) -> int:
        return evaluate(self, w)

    def render(self) -> str:
        if not self.terms:
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
        return f"LinearForm({self.terms!r})"


def _mono_value(m: Monomial, w: str) -> int:
    # count_gapped's count without a pattern per monomial per word (Mono and
    # LinearForm checked the symbols); a monomial longer than w counts 0
    if sum(map(len, m)) > len(w):
        return 0
    return gapped_prefix_counts(w, m)[-1]


def evaluate(e: Union[Expr, LinearForm], w: str) -> int:
    """Value of an expression or linear form in w."""
    if isinstance(e, LinearForm):
        return sum(c * _mono_value(m, w) for m, c in e.terms.items())
    if isinstance(e, Mono):
        return _mono_value(e.factors, w)
    if isinstance(e, Neg):
        return -evaluate(e.inner, w)
    if isinstance(e, Sum):
        return sum(evaluate(t, w) for t in e.terms)
    if isinstance(e, Prod):
        value = 1
        for p in e.parts:
            value *= evaluate(p, w)
        return value
    if isinstance(e, Scale):
        return e.coeff * evaluate(e.inner, w)
    raise TypeError(f"not an expression: {e!r}")


def _first_clusters(p: Monomial, q: Monomial) -> dict[tuple[int, int], dict[str, int]]:
    """First overlap-connected cluster of the joint placements of p and q
    (canonical, not both empty), as {(r, s): {v: count}}: count placements of
    p[:r] and q[:s] form one cluster filling the word v exactly.

    The cluster is built letter by letter from state (0, 0), a state (i, j)
    holding the letters of p and of q placed so far.  A side inside a factor
    places its next letter; a side at a factor end may start its next factor
    or wait.  At least one side places, and two placed letters must be equal.
    The cluster ends at the first state after (0, 0) where neither side is
    inside a factor.  States are taken in order of i + j, each after every
    state that reaches it, so each count is summed exactly once."""
    if p and q and q[0][:1] not in p[0] and p[0][:1] not in q[0]:
        # neither side can start inside the other's first factor or with it
        # (an empty first factor, which red may be given, takes the walk)
        return {(1, 0): {p[0]: 1}, (0, 1): {q[0]: 1}}
    pf, qf = "".join(p), "".join(q)
    # flat index of each factor end -> factors placed by then
    p_ends = {n: k for k, n in enumerate(accumulate(map(len, p), initial=0))}
    q_ends = {n: k for k, n in enumerate(accumulate(map(len, q), initial=0))}
    layers: list[dict] = [{} for _ in range(len(pf) + len(qf) + 1)]
    layers[0][(0, 0)] = {"": 1}
    clusters: dict[tuple[int, int], dict[str, int]] = {}
    for total, layer in enumerate(layers):
        for (i, j), words in layer.items():
            if total and i in p_ends and j in q_ends:
                clusters[(p_ends[i], q_ends[j])] = words
                continue
            steps = []
            if i < len(pf) and j in q_ends:
                steps.append((i + 1, j, pf[i]))
            if j < len(qf) and i in p_ends:
                steps.append((i, j + 1, qf[j]))
            if i < len(pf) and j < len(qf) and pf[i] == qf[j]:
                steps.append((i + 1, j + 1, pf[i]))
            for ni, nj, letter in steps:
                nxt = layers[ni + nj].setdefault((ni, nj), {})
                for v, c in words.items():
                    nxt[v + letter] = nxt.get(v + letter, 0) + c
    return clusters


def red(p_run: Monomial, q_run: Monomial) -> LinearForm:
    """Junction reduction: words v carrying a joint placement of both runs
    whose spans form one overlap-connected cluster filling v exactly, each
    weighted by its number of such placements.  Zero form when no word
    qualifies."""
    if not p_run or not q_run:
        raise ValueError("red needs nonempty runs on both sides")
    check_symbols("".join(p_run + q_run), _BAD_SYMBOL)
    words = _first_clusters(p_run, q_run).get((len(p_run), len(q_run)), {})
    return LinearForm({(v,): a for v, a in words.items()})


def linearize_product(p: Monomial, q: Monomial) -> LinearForm:
    """Linear form equivalent to the product of two monomials, from one
    recursion with its own memo (see _product).  Raises ValueError, before
    recursing, when the sides have more than MAX_PRODUCT_FACTORS factors
    together, and as soon as its memo holds more than MAX_LINEAR_TERMS
    terms."""
    return LinearForm(_product(canonical_mono(p), canonical_mono(q), {}))


def _product(p: Monomial, q: Monomial, memo: dict) -> dict[Monomial, int]:
    """Terms of the product of canonical monomials p and q.  A joint
    placement of both starts with a first cluster of p[:r] and q[:s] filling
    a word v (see _first_clusters), followed by a placement of what remains:

        p x q = sum over first clusters (v, r, s) of v.(p[r:] x q[s:]),

    and a product with the empty monomial is its other side.  A cluster of
    one side alone is its first factor, r + s = 1.  memo belongs to one
    linearize or linearize_product call: it maps (p, q) to its terms, so the
    call builds each suffix product once and its cost follows the (i, j)
    suffix pairs and the size of their forms.  memo[None] counts the terms
    of every form in it, the unfinished ones included, and ValueError is
    raised as soon as it passes MAX_LINEAR_TERMS."""
    if not p or not q:
        return {p + q: 1}
    if (p, q) in memo:
        return memo[(p, q)]
    if len(p) + len(q) > MAX_PRODUCT_FACTORS:
        raise ValueError(
            f"product of {len(p)} and {len(q)} factors exceeds the cap of "
            f"{MAX_PRODUCT_FACTORS} factors"
        )
    terms: dict[Monomial, int] = {}
    for (r, s), words in _first_clusters(p, q).items():
        rest = _product(p[r:], q[s:], memo)
        for v, a in words.items():
            held = len(terms)
            for m, c in rest.items():
                key = (v,) + m
                terms[key] = terms.get(key, 0) + a * c
            memo[None] = memo.get(None, 0) + len(terms) - held
            _check_term_cap(memo[None])
    memo[(p, q)] = terms
    return terms


def _check_term_cap(held: int) -> None:
    if held > MAX_LINEAR_TERMS:
        raise ValueError(f"linear form exceeds the cap of {MAX_LINEAR_TERMS} terms")


def linearize(e: Expr) -> LinearForm:
    """Equivalent linear form, from one walk of e adding its terms into one
    dict (see _add_terms) with one product memo for the whole call.  A
    product that fills the memo past MAX_LINEAR_TERMS is built once more from
    an empty memo, so sub-products of earlier products are dropped rather
    than the call refused.  Raises ValueError when one product alone fills
    the memo, or a dict the walk adds into, past MAX_LINEAR_TERMS terms."""
    terms: dict[Monomial, int] = {}
    _add_terms(e, 1, terms, {})
    return LinearForm(terms)


def _add_terms(e: Expr, coeff: int, out: dict[Monomial, int], memo: dict) -> None:
    """Add coeff times the terms of e into out: Neg and Scale change coeff, a
    Sum adds each term into the same out and a Prod adds the distribution of
    its parts over _product, so no form is copied.  out and each distribution
    are checked against MAX_LINEAR_TERMS by their entries, cancelled ones too."""
    if isinstance(e, Mono):
        out[e.factors] = out.get(e.factors, 0) + coeff
        _check_term_cap(len(out))
    elif isinstance(e, Neg):
        _add_terms(e.inner, -coeff, out, memo)
    elif isinstance(e, Scale):
        _add_terms(e.inner, coeff * e.coeff, out, memo)
    elif isinstance(e, Sum):
        for term in e.terms:
            _add_terms(term, coeff, out, memo)
    elif isinstance(e, Prod):
        if not coeff:
            return  # 0 * (x * y) is the zero form however large x * y is
        acc: dict[Monomial, int] = {(): 1}
        for part in e.parts:
            rhs: dict[Monomial, int] = {}
            _add_terms(part, 1, rhs, memo)
            combined: dict[Monomial, int] = {}
            # cancelled terms are not distributed: (x - x) * y is the zero
            # form however large x * y is
            for m1, c1 in acc.items():
                for m2, c2 in rhs.items():
                    if not (c1 and c2):
                        continue
                    try:
                        form = _product(m1, m2, memo)
                    except ValueError:
                        # earlier products' sub-products may have filled the
                        # memo: drop them and build this product once more; a
                        # product that fills an empty memo fails both times
                        memo.clear()
                        form = _product(m1, m2, memo)
                    for m, c in form.items():
                        combined[m] = combined.get(m, 0) + c1 * c2 * c
                    _check_term_cap(len(combined))
            acc = combined
        for m, c in acc.items():
            out[m] = out.get(m, 0) + coeff * c
        _check_term_cap(len(out))
    else:
        raise TypeError(f"not an expression: {e!r}")


def equivalent(e1: Expr, e2: Expr) -> bool:
    """True iff the canonical linear forms coincide."""
    return linearize(e1) == linearize(e2)


def words_up_to(alphabet: Alphabet, max_len: int) -> Iterator[str]:
    """Every word of length <= max_len, in shortlex order (shorter first,
    then alphabet order)."""
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
    (True, None), over every word of length <= max_len, in shortlex order
    (shorter first, then alphabet order), walked as a trie by
    first_difference (cost per trie node in its docstring).  Raises
    ValueError when max_len is negative, and, before evaluating anything, at
    the first length n whose words so far pass MAX_BOUNDED_WORDS or whose
    letters pass MAX_BOUNDED_WORDS times its bit length: by n = 19 for k >= 2
    letters, by n = 6325 for one."""
    if max_len < 0:
        raise ValueError(f"max_len must be >= 0, got {max_len}")
    k = len(alphabet.symbols)
    letter_cap = MAX_BOUNDED_WORDS * MAX_BOUNDED_WORDS.bit_length()
    words = letters = 0
    for n in range(max_len + 1):
        words += k**n
        letters += n * k**n
        if words > MAX_BOUNDED_WORDS or letters > letter_cap:
            over = words > MAX_BOUNDED_WORDS
            cap = f"{MAX_BOUNDED_WORDS} words" if over else f"{letter_cap} letters"
            raise ValueError(
                f"bounded check (length <= {max_len}, {k}-letter alphabet) exceeds "
                f"the cap of {cap} at length {n}: {words} words, {letters} letters"
            )
    w = first_difference(e1, e2, alphabet, max_len)
    return w is None, w


def first_difference(
    e1: Union[Expr, LinearForm],
    e2: Union[Expr, LinearForm],
    alphabet: Alphabet,
    max_len: int,
) -> str | None:
    """First word of length <= max_len, in shortlex order (shorter first,
    then alphabet order), on which e1 and e2 differ; None if there is none.

    Every monomial r_1. ... .r_t of either side has counts N_0..N_t per word,
    N_i the occurrences of r_1. ... .r_i, N_0 = 1 and the monomial's value
    N_t.  Appending letter c to u gives

        N_i(uc) = N_i(u) + [uc ends with r_i] * N_{i-1}(v),

    v the prefix of uc of length |uc| - |r_i|: the occurrences ending before
    the last letter, plus those whose r_i is the suffix of uc.  v is an
    ancestor of uc in the trie of words, so one depth-first walk keeps the
    counts of the current path's nodes, one list per depth, and computes each
    node from them.

    Neither side's tree is walked at a node: one evaluator of e1 - e2 is
    built per call (see _evaluator), its linear part a list of coefficients
    and a list of count slots, its products lists of factor slots.  Cost per
    trie node: a copy of the parent's counts, one endswith per distinct run
    ending in c, one addition per run position whose suffix test passed, and
    one call of the evaluator: one C-level sum of products over the linear
    terms that did not cancel, plus one product per product term.

    The walk is iterative (an explicit stack; one-letter alphabets go
    thousands deep) and visits letters in alphabet order, so among words of
    one length it meets them in alphabet order.  It keeps the shortest,
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

    def count_slot(m: Monomial) -> int:
        if m not in slot_of:
            prev = 0
            for run in m:
                counts.append(0)
                updates.setdefault(run, []).append((len(counts) - 1, prev))
                prev = len(counts) - 1
            slot_of[m] = prev
        return slot_of[m]

    # the sides differ on a word iff e1 - e2 is nonzero on its counts
    difference = _evaluator(((e1, 1), (e2, -1)), count_slot)
    plan = {
        c: [(run, len(run), pairs) for run, pairs in updates.items() if run[-1] == c]
        for c in alphabet.symbols
    }
    if difference(counts):
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
        if difference(counts):
            best = word
        elif depth < max_len and (best is None or depth + 1 < len(best)):
            stack.extend(word + c for c in letters)
    return best


def _evaluator(
    sides: tuple[tuple[Union[Expr, LinearForm], int], ...],
    slot: Callable[[Monomial], int],
) -> Callable[[list[int]], int]:
    """Function giving the sum of c * e over the (e, c) in sides on a node's
    counts, slot(m) being the index of monomial m's count.  One walk of the
    sides, as in _add_terms: Neg and Scale change the running coefficient,
    monomials and linear forms add into one {monomial: coeff} dict, and a
    Prod, flattened through nested Prod, Neg and Scale parts, becomes one
    term: a coefficient, the slots of its monomial parts and one evaluator
    per other part, built the same way.  A monomial whose coefficient
    cancels to zero takes no slot, and a product with coefficient zero is
    left out."""
    linear: dict[Monomial, int] = {}
    prods: list[tuple[int, list[Monomial], list[Callable[[list[int]], int]]]] = []

    def add(e: Union[Expr, LinearForm], coeff: int) -> None:
        if isinstance(e, LinearForm):
            for m, c in e.terms.items():
                linear[m] = linear.get(m, 0) + coeff * c
        elif isinstance(e, Mono):
            linear[e.factors] = linear.get(e.factors, 0) + coeff
        elif isinstance(e, Neg):
            add(e.inner, -coeff)
        elif isinstance(e, Scale):
            add(e.inner, coeff * e.coeff)
        elif isinstance(e, Sum):
            for term in e.terms:
                add(term, coeff)
        elif isinstance(e, Prod):
            monos: list[Monomial] = []
            parts: list[Callable[[list[int]], int]] = []
            prods.append((coeff * factor(e, monos, parts), monos, parts))
        else:
            raise TypeError(f"not an expression: {e!r}")

    def factor(e: Expr, monos: list, parts: list) -> int:
        """Put e's factors into monos and parts; return its coefficient."""
        if isinstance(e, Prod):
            return prod(factor(p, monos, parts) for p in e.parts)
        if isinstance(e, Neg):
            return -factor(e.inner, monos, parts)
        if isinstance(e, Scale):
            return e.coeff * factor(e.inner, monos, parts)
        if isinstance(e, Mono):
            monos.append(e.factors)
        else:
            parts.append(_evaluator(((e, 1),), slot))
        return 1

    for e, coeff in sides:
        add(e, coeff)
    coeffs = [c for c in linear.values() if c]
    slots = [slot(m) for m, c in linear.items() if c]
    terms = [(c, [slot(m) for m in monos], parts) for c, monos, parts in prods if c]

    def value(counts: list[int]) -> int:
        total = sum(map(mul, coeffs, map(counts.__getitem__, slots)))
        for c, mono_slots, parts in terms:
            term = c * prod(map(counts.__getitem__, mono_slots))
            for part in parts:
                term *= part(counts)
            total += term
        return total

    return value


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
        # exactly one named group matches
        tokens.append((m.lastgroup, m.group(m.lastgroup)))
    return tokens


# nesting bound for '(', integer prefixes and '*' chains together; a '(' or
# prefix level costs at most three parser frames and any level at most one
# tree level, so parsing and the recursive walks over the parsed tree stay far
# below the interpreter's recursion limit
MAX_NESTING = 100
# most factors of a product's two sides together; _product recurses one
# level per factor, one interpreter frame each, and a '*' chain of
# MAX_NESTING + 1 letters fits
MAX_PRODUCT_FACTORS = 256
# most terms in one call's memo (every sub-product form, finished or not)
# and in each dict linearize's walk adds into, cancelled terms included;
# checked as terms are added, so it bounds the call's memory
MAX_LINEAR_TERMS = 20_000
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
