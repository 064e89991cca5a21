import math
import random
import time
import tracemalloc
from decimal import Decimal
from itertools import islice

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    enum_run_tuples,
    first_difference_per_word,
    ground_shuffle,
    is_interleaved,
    linearize_product_literal,
    linearize_product_schemes,
    red_placements,
)
from parikhseq import gsh
from parikhseq.counting import count_subword
from parikhseq.gsh import (
    EPSILON,
    GshSyntaxError,
    LinearForm,
    Mono,
    Neg,
    Prod,
    Scale,
    Sum,
    equivalent,
    equivalent_bounded,
    evaluate,
    first_difference,
    linearize,
    linearize_product,
    mono,
    parse_expr,
    red,
    words_up_to,
)
from parikhseq.words import Alphabet, PatternError

AB = Alphabet.parse("ab")


def _parsed_exprs():
    """Trees parse_expr returns: nonnegative scales, binary products and sums
    of two or more terms, any of which may be negated."""
    monos = st.lists(st.text(alphabet="ab", min_size=1, max_size=2), max_size=3)
    return st.recursive(
        monos.map(lambda fs: Mono(tuple(fs))),
        lambda inner: st.one_of(
            inner.map(Neg),
            st.builds(Scale, st.integers(0, 12), inner),
            st.lists(st.one_of(inner, inner.map(Neg)), min_size=2, max_size=4).map(
                lambda ts: Sum(tuple(ts))
            ),
            st.tuples(inner, inner).map(Prod),
        ),
        max_leaves=8,
    )


def _negatively_scaled_exprs():
    """Trees built in code rather than parsed, with a negative Scale as a
    whole expression, a later term of a sum or a part of a product.  Below
    that top node there are no products, which keeps linearize cheap."""
    monos = st.lists(st.text(alphabet="ab", min_size=1, max_size=2), max_size=3)
    trees = st.recursive(
        monos.map(lambda fs: Mono(tuple(fs))),
        lambda inner: st.one_of(
            inner.map(Neg),
            st.builds(Scale, st.integers(-12, 12), inner),
            st.lists(inner, min_size=2, max_size=3).map(lambda ts: Sum(tuple(ts))),
        ),
        max_leaves=4,
    )
    scaled = st.builds(Scale, st.integers(-12, -1), trees)
    return st.one_of(
        scaled,
        st.tuples(trees, scaled).map(Sum),
        st.tuples(scaled, trees).map(Prod),
        st.tuples(trees, scaled).map(Prod),
    )


class TestParse:
    @settings(max_examples=300, deadline=None)
    @given(_parsed_exprs())
    @example(parse_expr("a-(-b)*2(a.b)+#e"))
    def test_str_parses_back(self, e):
        assert parse_expr(str(e)) == e

    @settings(max_examples=200, deadline=None)
    @given(_negatively_scaled_exprs())
    @example(Sum((mono("a"), Scale(-3, mono("b")))))
    def test_negative_scale_str_parses_back(self, e):
        # parse_expr reads "(-3(x))" as Neg(Scale(3, x)): another tree with
        # the same linear form
        assert linearize(parse_expr(str(e))) == linearize(e)

    def test_monomial(self):
        assert parse_expr("ab.c") == Mono(("ab", "c"))

    def test_epsilon(self):
        assert parse_expr("#e") == EPSILON

    def test_precedence(self):
        assert parse_expr("a+b*c") == Sum((Mono(("a",)), Prod((Mono(("b",)), Mono(("c",))))))

    def test_coefficient(self):
        assert parse_expr("2(a.a)+a") == Sum(
            (Scale(2, Mono(("a", "a"))), Mono(("a",)))
        )

    def test_leading_minus(self):
        assert parse_expr("-(a*b)+a*b") == Sum(
            (Neg(Prod((Mono(("a",)), Mono(("b",))))), Prod((Mono(("a",)), Mono(("b",)))))
        )

    def test_sum_chain_is_one_flat_sum(self):
        a, b, c = Mono(("a",)), Mono(("b",)), Mono(("c",))
        assert parse_expr("a-b+c") == Sum((a, Neg(b), c))
        assert parse_expr("-a+b-c") == Sum((Neg(a), b, Neg(c)))

    def test_product_chain_stays_left_deep(self):
        a, b, c = Mono(("a",)), Mono(("b",)), Mono(("c",))
        assert parse_expr("a*b*c") == Prod((Prod((a, b)), c))

    @pytest.mark.parametrize("text", ["", "a..b", "a+", "(a", "a)", "2", "a @ b"])
    def test_malformed(self, text):
        with pytest.raises(GshSyntaxError):
            parse_expr(text)

    def test_depth_fifty_parses(self):
        assert parse_expr("(" * 50 + "a" + ")" * 50) == Mono(("a",))
        node = parse_expr("2 " * 50 + "a")
        for _ in range(50):
            assert isinstance(node, Scale) and node.coeff == 2
            node = node.inner
        assert node == Mono(("a",))

    def test_mixed_nesting_counts_both_kinds(self):
        half = gsh.MAX_NESTING // 2
        parse_expr("(2 " * half + "a" + ")" * half)
        with pytest.raises(GshSyntaxError):
            parse_expr("(2 " * (half + 1) + "a" + ")" * (half + 1))

    @pytest.mark.parametrize("depth", [gsh.MAX_NESTING + 1, 3000])
    def test_nesting_past_the_bound_rejected(self, depth):
        with pytest.raises(GshSyntaxError):
            parse_expr("(" * depth + "a" + ")" * depth)
        with pytest.raises(GshSyntaxError):
            parse_expr("2 " * depth + "a")

    def test_product_chain_within_the_bound_parses(self):
        node = parse_expr("*".join(["a"] * (gsh.MAX_NESTING + 1)))
        for _ in range(gsh.MAX_NESTING):
            assert isinstance(node, Prod)
            node = node.parts[0]
        assert node == Mono(("a",))
        with pytest.raises(GshSyntaxError, match="nested deeper"):
            parse_expr("*".join(["a"] * (gsh.MAX_NESTING + 2)))

    def test_product_chains_count_with_enclosing_levels(self):
        half = gsh.MAX_NESTING // 2
        parse_expr("(" * half + "*".join(["a"] * (half + 1)) + ")" * half)
        with pytest.raises(GshSyntaxError):
            parse_expr("(" * half + "*".join(["a"] * (half + 2)) + ")" * half)
        # a chain's first factor sits below every later '*' of that chain
        parse_expr("(" + "*".join(["a"] * half) + ")" + "*a" * half)
        with pytest.raises(GshSyntaxError):
            parse_expr("(" + "*".join(["a"] * half) + ")" + "*a" * (half + 1))

    def test_product_chains_do_not_accumulate_across_terms(self):
        chain = "*".join(["a"] * gsh.MAX_NESTING)
        parse_expr(" + ".join([chain] * 30))
        parse_expr("*".join(["(a+a)"] * (gsh.MAX_NESTING // 2)))


class TestEvaluate:
    def test_monomial_value(self):
        assert evaluate(parse_expr("ab.c"), "babcab") == 1

    def test_square(self):
        assert evaluate(parse_expr("a*a"), "aa") == 4

    def test_cancellation(self):
        for w in ("", "a", "aa", "aba"):
            assert evaluate(parse_expr("(-a)+a"), w) == 0

    def test_epsilon_value(self):
        assert evaluate(EPSILON, "") == 1
        assert evaluate(EPSILON, "abc") == 1

    def test_operator_building(self):
        e = 2 * mono("a", "a") + mono("a")
        assert evaluate(e, "aa") == 2 * 1 + 2

    @pytest.mark.parametrize("coeff", [2.5, 2.0, "2", Decimal(2)])
    def test_non_integer_scale_refused(self, coeff):
        with pytest.raises(TypeError):
            Scale(coeff, mono("a"))
        with pytest.raises(TypeError):
            coeff * mono("a")
        scaled = True * mono("a")
        assert scaled == Scale(1, mono("a")) and type(scaled.coeff) is int


class TestGroundShuffle:
    def test_with_single_factor(self):
        terms = ground_shuffle(("ab", "c"), ("d",))
        assert sorted(terms) == sorted(
            [("ab", "c", "d"), ("ab", "d", "c"), ("d", "ab", "c")]
        )

    def test_multiplicity(self):
        assert ground_shuffle(("a",), ("a",)) == [("a", "a"), ("a", "a")]

    def test_size_is_binomial(self):
        assert len(ground_shuffle(("a", "b"), ("c", "d"))) == 6


class TestIsInterleaved:
    def test_bridged_occurrences(self):
        # abc at 1 and de at 4; a at 1 and cd at 3, in the word abcde
        assert is_interleaved(("abc", "de"), (1, 4), ("a", "cd"), (1, 3))

    def test_single_factors_vacuous(self):
        assert is_interleaved(("a",), (5,), ("b",), (9,))

    def test_two_disjoint_factors_cannot_be_bridged_by_letters(self):
        # no single letter can overlap both factors of abc.c
        for start in (1, 2, 3, 4):
            assert not is_interleaved(("abc", "c"), (1, 5), ("a", "c"), (start, start + 2))


class TestRed:
    def test_no_cluster_possible(self):
        assert red(("abc", "c"), ("a", "c")) == LinearForm()

    def test_unique_cluster(self):
        assert red(("abc", "de"), ("a", "cd")) == LinearForm({("abcde",): 1})

    def test_single_letters(self):
        assert red(("a",), ("a",)) == LinearForm({("a",): 1})

    def test_two_letter_overlaps(self):
        assert red(("ab",), ("ba",)) == LinearForm({("aba",): 1, ("bab",): 1})

    def test_needs_nonempty_runs(self):
        with pytest.raises(ValueError):
            red((), ("a",))

    def test_output_words_are_strictly_shorter_than_both_runs_joined(self):
        rng = random.Random(50)
        for _ in range(40):
            p = tuple(
                "".join(rng.choice("ab") for _ in range(rng.randint(1, 2)))
                for _ in range(rng.randint(1, 2))
            )
            q = tuple(
                "".join(rng.choice("ab") for _ in range(rng.randint(1, 2)))
                for _ in range(rng.randint(1, 2))
            )
            total = sum(map(len, p)) + sum(map(len, q))
            for (word,), coeff in red(p, q).items():
                assert len(word) < total
                assert coeff >= 1
                assert _spanning_interleaved_pairs(word, p, q) == coeff


def _spanning_interleaved_pairs(word, p_runs, q_runs):
    """Independent recount of red coefficients via full enumeration."""
    count = 0
    for p_starts in enum_run_tuples(word, p_runs):
        for q_starts in enum_run_tuples(word, q_runs):
            starts = [*p_starts, *q_starts]
            ends = [
                s + len(r) - 1
                for s, r in zip(starts, [*p_runs, *q_runs])
            ]
            if min(starts) != 1 or max(ends) != len(word):
                continue
            if not is_interleaved(p_runs, p_starts, q_runs, q_starts):
                continue
            # bridging is vacuous for single-factor sides: require a shared
            # overlap so the placement is one connected cluster
            intervals = sorted(zip(starts, ends))
            reach = intervals[0][1]
            connected = True
            for s, e in intervals[1:]:
                if s > reach:
                    connected = False
                    break
                reach = max(reach, e)
            if connected:
                count += 1
    return count


class TestLinearizeProduct:
    def test_square_of_letter(self):
        assert linearize_product(("a",), ("a",)) == LinearForm(
            {("a", "a"): 2, ("a",): 1}
        )

    def test_pair_times_letter(self):
        assert linearize_product(("a", "a"), ("a",)) == LinearForm(
            {("a", "a", "a"): 3, ("a", "a"): 2}
        )

    def test_two_blocks(self):
        assert linearize_product(("ab",), ("ba",)) == LinearForm(
            {("ab", "ba"): 1, ("ba", "ab"): 1, ("aba",): 1, ("bab",): 1}
        )

    def test_disjoint_alphabets_give_pure_shuffle(self):
        form = linearize_product(("ab", "c"), ("d",))
        shuffle_sum = {}
        for term in ground_shuffle(("ab", "c"), ("d",)):
            shuffle_sum[term] = shuffle_sum.get(term, 0) + 1
        assert form == LinearForm(shuffle_sum)

    def test_disjoint_fuzzed(self):
        rng = random.Random(51)
        for _ in range(50):
            p = tuple(
                "".join(rng.choice("ab") for _ in range(rng.randint(1, 2)))
                for _ in range(rng.randint(1, 2))
            )
            q = tuple(
                "".join(rng.choice("cd") for _ in range(rng.randint(1, 2)))
                for _ in range(rng.randint(1, 2))
            )
            shuffle_sum = {}
            for term in ground_shuffle(p, q):
                shuffle_sum[term] = shuffle_sum.get(term, 0) + 1
            assert linearize_product(p, q) == LinearForm(shuffle_sum)

    def test_product_dominates_shuffle_sum(self):
        rng = random.Random(52)
        for _ in range(40):
            p = tuple(
                "".join(rng.choice("ab") for _ in range(rng.randint(1, 2)))
                for _ in range(rng.randint(1, 2))
            )
            q = tuple(
                "".join(rng.choice("ab") for _ in range(rng.randint(1, 2)))
                for _ in range(rng.randint(1, 2))
            )
            shuffle_form = LinearForm(
                {
                    term: sum(1 for t in ground_shuffle(p, q) if t == term)
                    for term in set(ground_shuffle(p, q))
                }
            )
            product_expr = Prod((Mono(p), Mono(q)))
            for w in words_up_to(AB, 5):
                assert evaluate(product_expr, w) >= shuffle_form.evaluate(w)

    def test_epsilon_short_circuit(self):
        assert linearize_product((), ("a", "b")) == LinearForm({("a", "b"): 1})
        assert linearize_product(("a",), ()) == LinearForm({("a",): 1})

    def test_oversized_product_rejected_before_recursing(self):
        cap = gsh.MAX_PRODUCT_FACTORS
        start = time.perf_counter()
        with pytest.raises(ValueError, match=f"cap of {cap} factors"):
            linearize_product(("a",) * cap, ("a",))
        with pytest.raises(ValueError, match=f"cap of {cap} factors"):
            linearize_product(("a",), ("b",) * cap)
        assert time.perf_counter() - start < 1.0
        # an empty side never recurses, so it passes at any length
        long = ("a",) * (cap + 1)
        assert linearize_product(long, ()) == LinearForm({long: 1})

    @pytest.mark.parametrize("m", [8, 12])
    def test_letter_power_square_under_a_second(self, m):
        # C(|w|_a, m)**2 = sum_k C(k, m) C(m, 2m - k) C(|w|_a, k): choose the
        # union of two m-sets of a's (k of them), the first set in it, and the
        # 2m - k letters of the first set that the second shares
        start = time.perf_counter()
        form = linearize_product(("a",) * m, ("a",) * m)
        assert time.perf_counter() - start < 1.0
        expected = {
            ("a",) * k: math.comb(k, m) * math.comb(m, 2 * m - k)
            for k in range(m, 2 * m + 1)
        }
        assert form == LinearForm(expected)

    def test_term_cap_checked_while_multiplying(self, monkeypatch):
        monkeypatch.setattr(gsh, "MAX_LINEAR_TERMS", 10)
        assert len(linearize_product(("ab",), ("ba",)).items()) == 4
        with pytest.raises(ValueError, match="cap of 10 terms"):
            linearize_product(("ab", "ab"), ("ba", "ba"))

    def test_term_cap_counts_every_form_in_the_memo(self, monkeypatch):
        # a.a.a x a.a.a has 4 terms, but its memo holds the 23 terms of all
        # nine products a^i x a^j, i, j in 1..3
        monkeypatch.setattr(gsh, "MAX_LINEAR_TERMS", 10)
        with pytest.raises(ValueError, match="cap of 10 terms"):
            linearize_product(("a",) * 3, ("a",) * 3)
        assert len(linearize(parse_expr("a*b")).items()) == 2
        assert len(linearize_product(("ab",), ("ba",)).items()) == 4

    def test_full_memo_is_dropped_between_products(self, monkeypatch):
        # each of the four products needs at most 14 memo terms, but all four
        # together need more than 20: the memo is dropped, not the call
        e = parse_expr("(a.b + b.a) * (a.b + b.a)")
        expected = linearize(e)
        monkeypatch.setattr(gsh, "MAX_LINEAR_TERMS", 20)
        assert linearize(e) == expected
        # b.a x a.b alone needs 14
        monkeypatch.setattr(gsh, "MAX_LINEAR_TERMS", 13)
        with pytest.raises(ValueError, match="cap of 13 terms"):
            linearize(e)

    def test_refused_product_memory_is_bounded(self):
        # the memo is the only store of sub-products, and it counts against
        # the cap, so a refusal stops long before the form is complete
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=f"cap of {gsh.MAX_LINEAR_TERMS} terms"):
                linearize_product(("ab",) * 60, ("ba",) * 60)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20

    def test_term_cap_clears_the_cache_behind_a_wrapper(self, monkeypatch):
        # a tracer replaces the module's name with a wrapper; the refusal
        # must still be a ValueError
        monkeypatch.setattr(gsh, "linearize_product", lambda p, q: linearize_product(p, q))
        monkeypatch.setattr(gsh, "MAX_LINEAR_TERMS", 10)
        with pytest.raises(ValueError, match="cap of 10 terms"):
            gsh.linearize(parse_expr("ab.ab*ba.ba"))

    def test_literal_rules_undercount(self):
        literal = linearize_product_literal(("a", "a"), ("a",))
        assert literal == LinearForm({("a", "a", "a"): 3, ("a", "a"): 1})
        # the product of counts on aa is 2, the literal form only reaches 1
        product_expr = Prod((Mono(("a", "a")), Mono(("a",))))
        assert evaluate(product_expr, "aa") == 2
        assert literal.evaluate("aa") == 1
        assert linearize_product(("a", "a"), ("a",)).evaluate("aa") == 2


def _product_sides():
    # 0-3 factors of 1-3 letters over ab; the empty monomial is #e
    factor = st.text(alphabet="ab", min_size=1, max_size=3)
    return st.lists(factor, max_size=3).map(tuple)


class TestRedAgainstPlacements:
    @settings(max_examples=300, deadline=None)
    @given(_product_sides().filter(bool), _product_sides().filter(bool))
    def test_cluster_walk_equals_placement_enumeration(self, p, q):
        assert red(p, q) == red_placements(p, q)


class TestLinearizeProductAgainstSchemes:
    @settings(max_examples=300, deadline=None)
    @given(_product_sides(), _product_sides())
    def test_recursion_equals_scheme_enumeration(self, p, q):
        assert linearize_product(p, q) == linearize_product_schemes(p, q)


class TestLinearize:
    def test_already_linear(self):
        e = parse_expr("2(a.a)+a-3b")
        assert linearize(e) == LinearForm({("a", "a"): 2, ("a",): 1, ("b",): -3})

    def test_distributes_over_sums(self):
        lhs = linearize(parse_expr("(a+b)*c"))
        rhs = linearize(parse_expr("a*c + b*c"))
        assert lhs == rhs

    def test_cancelling_products(self):
        assert linearize(parse_expr("-(a*b)+a*b")) == LinearForm()

    def test_term_cap_checked_while_distributing(self, monkeypatch):
        # each product of two letters has two terms; the distribution has 32
        monkeypatch.setattr(gsh, "MAX_LINEAR_TERMS", 10)
        assert len(linearize(parse_expr("a*b")).items()) == 2
        with pytest.raises(ValueError, match="cap of 10 terms"):
            linearize(parse_expr("(a+b+c+d)*(e+f+g+h)"))

    def test_term_cap_checked_on_the_accumulated_form(self, monkeypatch):
        # the form a sum adds into counts its entries, cancelled ones too
        monkeypatch.setattr(gsh, "MAX_LINEAR_TERMS", 3)
        with pytest.raises(ValueError, match="cap of 3 terms"):
            linearize(parse_expr("a*b + c*d"))
        with pytest.raises(ValueError, match="cap of 3 terms"):
            linearize(parse_expr("a + b + c + d"))
        monkeypatch.setattr(gsh, "MAX_LINEAR_TERMS", 1)
        assert linearize(parse_expr("a + a + a + a")) == LinearForm({("a",): 4})

    @pytest.mark.parametrize("text", ["(ab.ab - ab.ab) * ba.ba", "ba.ba * (ab.ab - ab.ab)"])
    def test_cancelled_factor_is_not_distributed(self, monkeypatch, text):
        # ab.ab x ba.ba alone passes a cap of 10 (see
        # test_term_cap_checked_while_multiplying)
        monkeypatch.setattr(gsh, "MAX_LINEAR_TERMS", 10)
        assert linearize(parse_expr(text)) == LinearForm()

    def test_zero_coefficient_product_is_not_distributed(self):
        # the product alone is over the term cap; scaled by 0 it is the zero form
        product = "ab.ab.ab.ab.ab.ab*ba.ba.ba.ba.ba.ba"
        with pytest.raises(ValueError, match="cap of"):
            linearize(parse_expr(product))
        zero = parse_expr(f"0({product})")
        assert linearize(zero) == LinearForm()
        assert equivalent(zero, parse_expr("#e - #e"))

    def test_flat_sum_in_linear_time(self):
        # 10 000 distinct one-factor monomials; words_up_to starts with ''
        words = islice(words_up_to(AB, 13), 1, 10_001)
        e = Sum(tuple(Mono((w,)) for w in words))
        start = time.perf_counter()
        linear = linearize(e)
        assert time.perf_counter() - start < 1.0
        assert [c for _, c in linear.items()] == [1] * 10_000

    def test_three_way_product(self):
        e = parse_expr("a*a*a")
        for w in words_up_to(Alphabet.parse("a"), 6):
            assert linearize(e).evaluate(w) == evaluate(e, w)

    def test_soundness_suite(self):
        suite = [
            ("a*a", AB, 5),
            ("(a.a)*a", AB, 5),
            ("ab*ba", AB, 5),
            ("(a+b)*ab", AB, 5),
            ("(ab.c)*d", Alphabet.parse("abcd"), 4),
        ]
        for text, alphabet, bound in suite:
            e = parse_expr(text)
            linear = linearize(e)
            for w in words_up_to(alphabet, bound):
                assert linear.evaluate(w) == evaluate(e, w), (text, w)

    @pytest.mark.parametrize("n", [30, gsh.MAX_NESTING + 1])
    def test_letter_chain_under_a_second(self, n):
        # |w|_a ** n = sum_k S(n, k) k! C(|w|_a, k), and C(|w|_a, k) counts
        # the k-fold a.a. ... .a; S are Stirling numbers of the second kind
        stirling = [1] + [0] * n
        for _ in range(n):
            stirling = [0] + [k * stirling[k] + stirling[k - 1] for k in range(1, n + 1)]
        start = time.perf_counter()
        linear = linearize(parse_expr("*".join(["a"] * n)))
        assert time.perf_counter() - start < 1.0
        factorial = 1
        expected = {}
        for k in range(1, n + 1):
            factorial *= k
            expected[("a",) * k] = factorial * stirling[k]
        assert linear == LinearForm(expected)
        assert expected[("a", "a")] == 2**n - 2

    def test_single_letter_monomials_match_subword_counts(self):
        rng = random.Random(53)
        for _ in range(100):
            u = "".join(rng.choice("ab") for _ in range(rng.randint(1, 3)))
            w = "".join(rng.choice("ab") for _ in range(rng.randint(0, 8)))
            e = Mono(tuple(u))
            assert evaluate(e, w) == count_subword(w, u)


class TestEquivalence:
    def test_square_identity(self):
        assert equivalent(parse_expr("a*a"), parse_expr("2(a.a)+a"))

    def test_distinct_monomials(self):
        assert not equivalent(parse_expr("a"), parse_expr("b"))

    def test_sum_commutes(self):
        assert equivalent(parse_expr("a.b+c"), parse_expr("c+a.b"))

    def test_bounded_agrees(self):
        ok, cex = equivalent_bounded(
            parse_expr("a*a"), parse_expr("2(a.a)+a"), AB, 5
        )
        assert ok and cex is None

    def test_bounded_counterexample(self):
        ok, cex = equivalent_bounded(
            parse_expr("a*a"), parse_expr("2(a.a)+2a"), Alphabet.parse("a"), 1
        )
        assert not ok and cex == "a"

    def test_bounded_word_cap(self):
        e = parse_expr("a")
        # one letter: 0 + 1 + ... + 6325 letters pass the letter cap long
        # before max_len + 1 words pass the word cap
        letters = "cap of 20000000 letters at length 6325: 6326 words"
        with pytest.raises(ValueError, match=letters):
            equivalent_bounded(e, e, Alphabet.parse("a"), gsh.MAX_BOUNDED_WORDS)
        # two letters, huge bound: 2**20 - 1 words pass the cap at length 19,
        # and no longer length is counted
        words = "cap of 1000000 words at length 19: 1048575 words"
        with pytest.raises(ValueError, match=words):
            equivalent_bounded(e, e, AB, 10**9)

    def test_bounded_letter_cap(self):
        e = parse_expr("a")
        # 10**6 words of length <= 999999 pass the word cap, but they hold
        # ~5 * 10**11 letters; the letters pass the cap at length 6325
        start = time.perf_counter()
        message = "cap of 20000000 letters at length 6325: 6326 words, 20005975 letters"
        with pytest.raises(ValueError, match=message):
            equivalent_bounded(e, e, Alphabet.parse("a"), 999_999)
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("alphabet", ["a", "ab"])
    def test_bounded_negative_maxlen_rejected(self, alphabet):
        # no word has a negative length; the empty word must not be returned
        with pytest.raises(ValueError, match="max_len must be >= 0, got -1"):
            equivalent_bounded(parse_expr("#e"), parse_expr("a"), Alphabet.parse(alphabet), -1)

    @pytest.mark.parametrize(
        "alphabet, longest, cap",
        [
            ("a", 6324, "20000000 letters"),
            ("ab", 18, "1000000 words"),
            ("abcdefghij", 5, "1000000 words"),
        ],
    )
    def test_bounded_cap_boundaries(self, monkeypatch, alphabet, longest, cap):
        # the caps alone decide: nothing is walked
        monkeypatch.setattr(gsh, "first_difference", lambda *args: None)
        e = parse_expr("a")
        alpha = Alphabet.parse(alphabet)
        assert equivalent_bounded(e, e, alpha, longest) == (True, None)
        with pytest.raises(ValueError, match=f"cap of {cap} at length {longest + 1}:"):
            equivalent_bounded(e, e, alpha, longest + 1)

    def test_bounded_letter_cap_is_inclusive(self, monkeypatch):
        # cap 15 words, 15 * 4 = 60 letters; maxlen 10 holds 55, maxlen 11 66
        e = parse_expr("a")
        monkeypatch.setattr(gsh, "MAX_BOUNDED_WORDS", 15)
        assert equivalent_bounded(e, e, Alphabet.parse("a"), 10) == (True, None)
        with pytest.raises(ValueError, match="66 letters"):
            equivalent_bounded(e, e, Alphabet.parse("a"), 11)

    def test_reflexive(self):
        e = parse_expr("(ab.c)*d-2(a.a)")
        assert equivalent(e, e)
        ok, _ = equivalent_bounded(e, e, Alphabet.parse("abcd"), 3)
        assert ok

    def test_canonical_equivalence_implies_bounded(self):
        pairs = [
            ("a*a", "2(a.a)+a"),
            ("(a.a)*a", "3(a.a.a)+2(a.a)"),
            ("ab*ba", "ab.ba+ba.ab+aba+bab"),
            ("(a+b)*c", "a*c+b*c"),
        ]
        for left, right in pairs:
            e1, e2 = parse_expr(left), parse_expr(right)
            assert equivalent(e1, e2)
            ok, cex = equivalent_bounded(e1, e2, AB, 5)
            assert ok, (left, right, cex)


def _monos(alphabet: str):
    factor = st.text(alphabet=alphabet, min_size=1, max_size=2)
    # an empty factor list is #e
    return st.lists(factor, max_size=3).map(lambda fs: Mono(tuple(fs)))


def _exprs(alphabet: str):
    return st.recursive(
        _monos(alphabet),
        lambda inner: st.one_of(
            inner.map(Neg),
            st.builds(Scale, st.integers(-3, 3), inner),
            st.lists(inner, min_size=1, max_size=3).map(lambda ts: Sum(tuple(ts))),
            st.lists(inner, min_size=1, max_size=2).map(lambda ps: Prod(tuple(ps))),
        ),
        max_leaves=4,
    )


def _forms(alphabet: str):
    return st.dictionaries(
        _monos(alphabet).map(lambda m: m.factors), st.integers(-3, 3), max_size=4
    ).map(LinearForm)


# built once: hypothesis validates a strategy object on its first draw
_SIDES = {
    alphabet: (_exprs(alphabet), _forms(alphabet))
    for alphabet in ("a", "b", "ab", "ba", "abc")
}


@st.composite
def _difference_cases(draw):
    """e1, the kind of its other side, a form to perturb the linear form
    with, a drawn other side, whether to swap, the alphabet and max_len;
    the test builds the linear form, which can pass MAX_LINEAR_TERMS."""
    alphabet = draw(st.sampled_from(sorted(_SIDES)))
    exprs, forms = _SIDES[alphabet]
    e1 = draw(exprs)
    kind = draw(st.sampled_from(["linear form", "perturbed form", "any"]))
    perturbation = draw(forms)
    side = draw(st.one_of(exprs, forms))
    swap = draw(st.booleans())
    return e1, kind, perturbation, side, swap, Alphabet.parse(alphabet), draw(st.integers(0, 4))


class TestFirstDifference:
    @settings(max_examples=300, deadline=None)
    @given(_difference_cases())
    # its linear form would hold 20 081 terms, past MAX_LINEAR_TERMS
    @example(
        (
            parse_expr("(a * b.aa.aa) * (a.b.ba * a.aa.ab)"),
            "linear form",
            LinearForm(),
            parse_expr("a.b"),
            False,
            AB,
            4,
        )
    )
    def test_agrees_with_per_word_evaluation(self, case):
        e1, kind, perturbation, e2, swap, alphabet, max_len = case
        if kind != "any":
            try:
                e2 = linearize(e1)
            except ValueError as err:
                # e1 is then compared with the drawn side
                assert f"cap of {gsh.MAX_LINEAR_TERMS} terms" in str(err)
            else:
                if kind == "perturbed form":
                    terms = dict(e2.items())
                    for m, c in perturbation.items():
                        terms[m] = terms.get(m, 0) + c
                    e2 = LinearForm(terms)
        if swap:
            e1, e2 = e2, e1
        assert gsh.first_difference(e1, e2, alphabet, max_len) == (
            first_difference_per_word(e1, e2, alphabet, max_len)
        )

    def test_empty_word_and_maxlen_zero(self):
        a = Alphabet.parse("a")
        assert gsh.first_difference(EPSILON, parse_expr("2#e"), a, 0) == ""
        assert gsh.first_difference(parse_expr("a.b"), LinearForm(), AB, 0) is None

    def test_monomial_longer_than_maxlen_never_differs(self):
        assert gsh.first_difference(parse_expr("ab.ba"), LinearForm(), AB, 3) is None
        assert gsh.first_difference(parse_expr("ab.ba"), LinearForm(), AB, 4) == "abba"

    def test_earliest_in_alphabet_order_among_one_length(self):
        zero = LinearForm()
        assert gsh.first_difference(parse_expr("a+b"), zero, AB, 2) == "a"
        assert gsh.first_difference(parse_expr("a+b"), zero, Alphabet.parse("ba"), 2) == "b"
        assert gsh.first_difference(parse_expr("a*b"), zero, AB, 3) == "ab"

    def test_shorter_word_found_after_a_deeper_one(self):
        # the depth-first walk meets aa before b; b is shorter, so it wins
        e = parse_expr("aa+b")
        assert gsh.first_difference(e, LinearForm(), AB, 4) == "b"
        assert gsh.first_difference(parse_expr("b"), EPSILON - EPSILON, AB, 3) == "b"

    def test_one_letter_walk_goes_thousands_deep(self):
        a = Alphabet.parse("a")
        start = time.perf_counter()
        assert equivalent_bounded(
            parse_expr("a*a"), parse_expr("2(a.a)+a"), a, 6324
        ) == (True, None)
        # fifty factors a^100 first occur together in a^5000
        deep = Mono(("a" * 100,) * 50)
        assert gsh.first_difference(deep, LinearForm(), a, 6324) == "a" * 5000
        assert time.perf_counter() - start < 2.0

    def test_coefficient_past_the_int_to_text_limit(self):
        # 10**5000 has 5001 digits, past the 4300 that int() parses from
        # text by default, so the sides are built in Python
        big = 10**5000
        e = Scale(big, parse_expr("a*b"))
        equal = LinearForm({("a", "b"): big, ("b", "a"): big})
        assert linearize(e) == equal
        assert gsh.first_difference(e, equal, AB, 3) is None
        off = LinearForm({("a", "b"): big + 1, ("b", "a"): big})
        assert gsh.first_difference(e, off, AB, 3) == "ab"
        assert gsh.first_difference(off, e, AB, 3) == "ab"

    def test_longest_product_chain_against_its_form(self):
        e = parse_expr("*".join(["a"] * (gsh.MAX_NESTING + 1)))
        form = linearize(e)
        for alphabet in (Alphabet.parse("a"), AB):
            assert gsh.first_difference(e, form, alphabet, 3) is None
        off = LinearForm({**dict(form.items()), ("a", "a", "a"): 0})
        assert gsh.first_difference(e, off, AB, 3) == "aaa"

    def test_deepest_parenthesized_expression_against_its_form(self):
        text = "a*b"
        for i in range(gsh.MAX_NESTING - 1):
            text = f"(ab - {text})" if i % 2 else f"(b + {text})"
        e = parse_expr(text)
        form = linearize(e)
        assert gsh.first_difference(e, form, AB, 3) is None
        off = LinearForm({**dict(form.items()), ("a", "b"): 1})
        # the form is ab - a.b - b.a, so the first difference is at ab
        assert gsh.first_difference(e, off, AB, 3) == "ab"
        assert first_difference_per_word(e, off, AB, 3) == "ab"

    def test_zero_and_empty_word_sides(self):
        zero = LinearForm()
        assert gsh.first_difference(zero, zero, AB, 3) is None
        assert gsh.first_difference(parse_expr("#e - #e"), zero, AB, 3) is None
        assert gsh.first_difference(parse_expr("#e * #e + #e"), parse_expr("2#e"), AB, 3) is None
        assert gsh.first_difference(EPSILON, LinearForm({(): 1}), AB, 3) is None
        assert gsh.first_difference(EPSILON, zero, AB, 3) == ""
        assert gsh.first_difference(zero, parse_expr("3(#e * #e)"), AB, 3) == ""

    def test_cancelling_coefficients(self):
        e = parse_expr("a + 2a - 3a")
        assert gsh.first_difference(e, LinearForm(), AB, 3) is None
        assert gsh.first_difference(e, parse_expr("a"), AB, 3) == "a"

    @pytest.mark.parametrize("text", ["(-a) * 2b", "3(a * (-(b * (-2a))))", "(a - b) * (-a)"])
    def test_signs_and_scales_inside_products(self, text):
        e = parse_expr(text)
        form = linearize(e)
        assert gsh.first_difference(e, form, AB, 4) is None
        assert gsh.first_difference(e, LinearForm(), AB, 4) == (
            first_difference_per_word(e, LinearForm(), AB, 4)
        )


class TestLinearFormBasics:
    def test_zero_coefficients_dropped(self):
        assert LinearForm({("a",): 0}) == LinearForm()
        assert not LinearForm()

    def test_empty_factors_canonicalized(self):
        assert LinearForm({("a", "", "b"): 1}) == LinearForm({("a", "b"): 1})

    def test_render_and_json(self):
        form = LinearForm({("a", "a"): 2, ("b",): -1})
        assert form.render() == "-b + 2(a.a)"
        assert form.to_json_list() == [
            {"monomial": "b", "coeff": "-1"},
            {"monomial": "a.a", "coeff": "2"},
        ]

    def test_render_parses_back(self):
        form = LinearForm({("a", "a"): 2, ("a",): 1})
        assert linearize(parse_expr(form.render())) == form

    def test_terms_refuse_assignment(self):
        form = LinearForm({("a", "a"): 2})
        for name in ("terms", "other"):
            with pytest.raises(AttributeError):
                setattr(form, name, {})
            with pytest.raises(AttributeError):
                delattr(form, name)
        assert form == LinearForm({("a", "a"): 2})

    @pytest.mark.parametrize("coeff", [1.5, 2.0, "2", Decimal(2)])
    def test_non_integer_coefficients_refused(self, coeff):
        with pytest.raises(TypeError):
            LinearForm({("a",): coeff})
        assert LinearForm({("a",): True}).terms == {("a",): 1}

    def test_equal_forms_hash_equal(self):
        a = LinearForm({("a", "", "b"): 1, ("c",): 2, ("d",): 0})
        b = LinearForm({("c",): 1, ("a", "b"): 1, ("c", ""): 1})
        assert a == b and hash(a) == hash(b)
        assert hash(LinearForm()) == hash(LinearForm({("a",): 0}))

    @pytest.mark.parametrize(
        "build",
        [
            lambda: mono("a!"),
            lambda: Mono(("a!",)),
            lambda: Mono(("a", "", "b c")),
            lambda: LinearForm({("a!",): 1}),
            lambda: LinearForm({("a",): 1, ("b", "•"): -1}),
            lambda: linearize_product(("a!",), ("b",)),
            # a run that forms no cluster is refused all the same
            lambda: red(("!",), ("a",)),
            # the monomial is refused before any of these can count it
            lambda: linearize(mono("a!") * mono("a!")),
            lambda: first_difference(mono("a!"), EPSILON, AB, 2),
            lambda: equivalent_bounded(mono("a!"), mono("a!"), AB, 3),
            lambda: evaluate(mono("a!"), "a"),
        ],
        ids=[
            "mono", "Mono", "Mono-space", "LinearForm", "LinearForm-bullet", "product", "red",
            "linearize", "first_difference", "equivalent_bounded", "evaluate",
        ],
    )
    def test_invalid_symbols_refused_when_built(self, build):
        with pytest.raises(PatternError, match=r"pattern contains invalid symbol .* \(allowed: \[a-zA-Z0-9\]\)"):
            build()

    @settings(max_examples=200, deadline=None)
    @given(
        st.dictionaries(_monos("abc").map(lambda m: m.factors), st.integers(), max_size=5)
        .map(LinearForm)
    )
    @example(LinearForm({("a", "a"): 2, ("b",): -1, (): 3}))
    def test_json_round_trip(self, form):
        assert LinearForm.from_json_list(form.to_json_list()) == form


class TestWordsUpTo:
    def test_order_and_count(self):
        words = list(words_up_to(AB, 2))
        assert words == ["", "a", "b", "aa", "ab", "ba", "bb"]
