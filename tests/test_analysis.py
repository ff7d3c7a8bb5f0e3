import itertools
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from codekit import automata
from codekit.analysis import (
    CodeVerdict,
    Distribution,
    DoubleFactorization,
    _least_non_factor,
    find_non_factor,
    is_bifix_code,
    is_code,
    is_complete,
    is_maximal_code,
    is_prefix_code,
    is_suffix_code,
    measure_finite,
    measure_partial,
    sardinas_patterson,
    verify_double_factorization,
)
from codekit.automata import (
    Language,
    _least_word,
    compile_expression,
    factors,
    star,
    union,
)
from codekit.cli import main
from codekit.errors import UsageError
from codekit.words import Alphabet

from oracles import (
    Dfa,
    canonical_dfa,
    count_factorizations,
    dangling_suffixes,
    double_factorization_witness,
    leaf_split_code,
    reference_shortest_word,
)

AB = Alphabet("ab")

finite_sets = st.frozensets(
    st.text(alphabet="ab", min_size=1, max_size=4), min_size=1, max_size=6
)
# the same, where a set may hold the empty word
sets_with_epsilon = st.frozensets(
    st.text(alphabet="ab", max_size=4), min_size=1, max_size=6
)

# starred expressions: code-ness is checked against their members,
# enumerated up to a length by Python's own regular expressions
STARRED = [
    "(ab|ba|a).(ab|ba|a)*",
    "(aab|abb|ba).(aab|abb|ba)*",
    "a.b*|b.a*",
    "(ab)*.b|a",
    "a.(ba)*|bab",
    "a.b*.a|bab|b",
    "(a|b.b).(a.a)*",
    "(aab)*.b|ab.a*.b",
    "(ba)*.(a|bb)",
    "(aa)*|aaa",
]


def members_upto(expr, n):
    pattern = re.compile(expr.replace(".", ""))
    return [
        w
        for m in range(1, n + 1)
        for w in map("".join, itertools.product("ab", repeat=m))
        if pattern.fullmatch(w)
    ]


def fin(words):
    return Language.finite(words, AB)


def test_classic_non_code():
    verdict = sardinas_patterson(fin({"a", "ab", "ba"}))
    assert not verdict.is_code
    assert verify_double_factorization(verdict.witness, fin({"a", "ab", "ba"}))
    assert verdict.witness.word == "aba"


def test_prefix_code_is_code():
    verdict = sardinas_patterson(fin({"a", "ba", "bb"}))
    assert verdict.is_code
    assert verdict.witness is None


def test_dangling_suffix_that_never_resolves():
    # both words share the prefix aab, the dangling suffix ab never resolves
    verdict = sardinas_patterson(fin({"aab", "aabab"}))
    assert verdict.is_code


def test_epsilon_never_a_code():
    verdict = sardinas_patterson(fin({"", "a"}))
    assert not verdict.is_code
    assert verify_double_factorization(verdict.witness, fin({"", "a"}))


def test_sp_regular_prefix_code():
    x = compile_expression("(ba)*.(a|bb)", AB)
    verdict = sardinas_patterson(x)
    assert verdict.is_code
    assert is_prefix_code(x)


def test_sp_regular_non_code():
    x = union(compile_expression("(aa)*", AB), fin({"aaa"}))
    verdict = sardinas_patterson(x)
    assert not verdict.is_code
    assert verify_double_factorization(verdict.witness, x)


def test_sp_regular_agrees_with_finite():
    for words in ({"a", "ab", "ba"}, {"aa", "ab"}, {"ab", "abb", "b"}, {"b"},):
        fin_verdict = sardinas_patterson(fin(words))
        reg = Language.regular(fin(words).nfa())
        reg_verdict = sardinas_patterson(reg)
        assert fin_verdict.is_code == reg_verdict.is_code
        if not reg_verdict.is_code:
            assert verify_double_factorization(reg_verdict.witness, fin(words))


@given(finite_sets)
@settings(max_examples=120, deadline=None)
def test_sp_matches_enumeration_oracle(words):
    # the finite form is searched on its trie, the regular one on its DFA
    brute = double_factorization_witness(words, "ab", 10)
    forms = (fin(words), Language.regular(fin(words).nfa()))
    verdicts = [sardinas_patterson(lang) for lang in forms]
    assert verdicts[0].is_code == verdicts[1].is_code
    for verdict in verdicts:
        if brute is not None:
            assert not verdict.is_code
        if verdict.is_code:
            continue
        assert verify_double_factorization(verdict.witness, fin(words))
        if brute is not None:
            assert len(verdict.witness.word) == len(brute)
        else:
            assert len(verdict.witness.word) > 10


@pytest.mark.parametrize("expr", STARRED[:8])
def test_sp_regular_matches_enumeration_oracle(expr):
    members = members_upto(expr, 9)
    brute = double_factorization_witness(members, "ab", 9)
    lang = compile_expression(expr, AB)
    verdict = sardinas_patterson(lang)
    assert verdict.is_code == (brute is None)
    if brute is not None:
        assert verify_double_factorization(verdict.witness, lang)
        assert len(verdict.witness.word) == len(brute)


@given(sets_with_epsilon)
@settings(max_examples=150, deadline=None)
def test_is_code_matches_sardinas_patterson(words):
    for lang in (fin(words), Language.regular(fin(words).nfa())):
        verdict = sardinas_patterson(lang)
        assert is_code(lang) == verdict.is_code
        if not verdict.is_code and "" not in words:
            assert count_factorizations(verdict.witness.word, words) >= 2


@pytest.mark.parametrize("expr", STARRED)
def test_is_code_matches_sardinas_patterson_on_regular_sets(expr):
    lang = compile_expression(expr, AB)
    verdict = sardinas_patterson(lang)
    assert is_code(lang) == verdict.is_code
    if not verdict.is_code and not lang.member(""):
        word = verdict.witness.word
        assert count_factorizations(word, members_upto(expr, len(word))) >= 2


@given(finite_sets)
@settings(max_examples=80, deadline=None)
def test_prefix_code_matches_definition(words):
    want = not any(x != y and y.startswith(x) for x in words for y in words)
    assert is_prefix_code(fin(words)) == want
    assert is_prefix_code(Language.regular(fin(words).nfa())) == want


def test_affix_checks():
    assert is_prefix_code(fin({"aa", "ab", "b"}))
    assert not is_prefix_code(fin({"a", "ab"}))
    assert is_suffix_code(fin({"a", "ab"}))
    assert not is_suffix_code(fin({"a", "ba"}))
    assert is_bifix_code(fin({"ab", "ba"}))
    x = compile_expression("(ba)*.(a|bb)", AB)
    assert is_prefix_code(x)
    assert not is_suffix_code(x)  # a and baa


def test_distribution_validation():
    Distribution.uniform(AB)
    with pytest.raises(ValueError):
        Distribution(AB, (Fraction(1, 2),))
    with pytest.raises(ValueError):
        Distribution(AB, (Fraction(1, 2), Fraction(1, 3)))
    with pytest.raises(ValueError):
        Distribution(AB, (Fraction(1), Fraction(0)))


def test_measure_values():
    uniform = Distribution.uniform(AB)
    x = fin({"aabbb", "bbbbaa"})
    assert measure_finite(x, uniform) == Fraction(1, 32) + Fraction(1, 64)
    skew = Distribution(AB, (Fraction(1, 3), Fraction(2, 3)))
    assert measure_finite(fin({"ab"}), skew) == Fraction(2, 9)


def test_measure_of_a_finite_set_in_either_form():
    def measure(expr):
        return measure_finite(compile_expression(expr, AB), Distribution.uniform(AB))

    assert measure("(a|bb).eps*") == Fraction(3, 4)
    assert measure("eps*") == 1
    with pytest.raises(UsageError):
        measure("(a|bb)*")


def test_measure_partial_regular():
    uniform = Distribution.uniform(AB)
    x = compile_expression("(ba)*.(a|bb)", AB)
    # one word of each length n >= 1, measure 2^-n
    assert measure_partial(x, uniform, 20) == 1 - Fraction(1, 2**20)
    assert measure_partial(x, uniform, 2) == Fraction(3, 4)
    assert measure_partial(fin({"a", "bbb"}), uniform, 2) == Fraction(1, 2)


def test_measure_partial_rejects_a_negative_length():
    uniform = Distribution.uniform(AB)
    words = fin({"", "a"})
    for lang in (words, Language.regular(words.nfa())):
        with pytest.raises(ValueError, match="max_len must be at least 0, got -1"):
            measure_partial(lang, uniform, -1)
        assert measure_partial(lang, uniform, 0) == 1


@given(finite_sets)
@settings(max_examples=100, deadline=None)
def test_kraft_inequality_on_codes(words):
    lang = fin(words)
    if sardinas_patterson(lang).is_code:
        assert measure_finite(lang, Distribution.uniform(AB)) <= 1


def test_completeness():
    assert is_complete(fin({"a", "b"}))
    assert is_complete(compile_expression("(ba)*.(a|bb)", AB))
    assert not is_complete(fin({"aa", "ab"}))
    assert not is_complete(fin(()))


def test_maximal_code():
    assert is_maximal_code(fin({"a", "ba", "bb"}))
    assert not is_maximal_code(fin({"aa", "ab"}))
    with pytest.raises(ValueError):
        is_maximal_code(fin({"a", "ab", "ba"}))


def test_schutzenberger_equivalence_on_samples():
    # for regular codes: maximal iff complete iff uniform measure 1
    uniform = Distribution.uniform(AB)
    samples = [
        {"a", "ba", "bb"},
        {"aa", "ab", "ba", "bb"},
        {"a", "ab"},
        {"ab", "ba"},
        {"b", "ab", "aab", "aaab"},
    ]
    for words in samples:
        lang = fin(words)
        assert sardinas_patterson(lang).is_code
        mu = measure_finite(lang, uniform)
        assert is_complete(lang) == (mu == 1)
        assert is_maximal_code(lang) == (mu == 1)


def test_find_non_factor():
    assert find_non_factor(fin({"aa", "ab"})) == "bb"
    assert find_non_factor(fin(())) == "a"
    with pytest.raises(ValueError):
        find_non_factor(fin({"a", "b"}))


def least_non_factor_by_minimal_dfa(x):
    """The route the subset search replaced: minimize the factors of X*,
    then read the least word that the minimal DFA rejects."""
    dfa = canonical_dfa(factors(star(x)))
    rejecting = Dfa(dfa.alphabet, dfa.rows, frozenset(range(dfa.n)) - dfa.accepting)
    return reference_shortest_word(Language.regular(rejecting.to_nfa()))


@given(
    st.sampled_from(["ab", "abc"]).flatmap(
        lambda letters: st.tuples(
            st.just(letters),
            st.frozensets(st.text(alphabet=letters, max_size=5), max_size=7),
        )
    )
)
@settings(max_examples=150, deadline=None)
def test_least_non_factor_matches_minimal_dfa_route(case):
    letters, words = case
    lang = Language.finite(words, Alphabet(letters))
    assert _least_non_factor(lang) == least_non_factor_by_minimal_dfa(lang)


@pytest.mark.parametrize(
    "expr", STARRED + ["(a.b*.a)|(b.a*.b)", "(a|b)*", "a*|b.b", "a.(a|b)*.a"]
)
def test_least_non_factor_matches_minimal_dfa_route_on_regular_sets(expr):
    lang = compile_expression(expr, AB)
    assert _least_non_factor(lang) == least_non_factor_by_minimal_dfa(lang)


def searched_non_factor(x):
    """The least non-factor by the subset search alone."""
    nfa = factors(star(x)).nfa()
    return _least_word(nfa, lambda subset: not subset & nfa.accepting)


@st.composite
def kraft_cases(draw):
    letters = draw(st.sampled_from(["ab", "abc"]))
    if draw(st.booleans()):
        # any set: mostly non-codes and incomplete codes, some holding
        # the empty word, and the empty set
        words = draw(st.frozensets(st.text(alphabet=letters, max_size=4), max_size=6))
        return letters, words
    rng = random.Random(draw(st.integers(0, 2**16)))
    words = leaf_split_code(rng, letters, draw(st.integers(1, 12)))
    if draw(st.booleans()):
        words = [w[::-1] for w in words]  # a complete suffix code
    for _ in range(draw(st.integers(0, min(2, len(words) - 1)))):
        words.pop(rng.randrange(len(words)))
    extra = draw(st.sampled_from([(), ("",), (words[0] + words[-1],)]))
    return letters, frozenset(words).union(extra)


@given(kraft_cases())
@settings(max_examples=200, deadline=None)
def test_kraft_sum_matches_the_subset_search(case):
    letters, words = case
    x = Language.finite(words, Alphabet(letters))
    expected = searched_non_factor(x)
    assert _least_non_factor(x) == expected
    assert is_complete(x) == (expected is None)
    if is_code(x):
        assert _least_non_factor(x, known_code=True) == expected
        assert is_maximal_code(x) == (expected is None)


@given(
    st.one_of(
        st.integers(2, 64).flatmap(
            lambda n: st.randoms(use_true_random=False).map(
                lambda rng: leaf_split_code(rng, "ab", n)
            )
        ),
        st.frozensets(st.text(alphabet="ab", min_size=1, max_size=8), min_size=1, max_size=10),
    )
)
@settings(max_examples=200, deadline=None)
def test_pair_search_matches_dangling_suffixes(words):
    # a prefix code leaves the pair search before its walk
    x = fin(words)
    verdict = sardinas_patterson(x)
    assert is_code(x) == verdict.is_code == ("" not in dangling_suffixes(words))
    if is_prefix_code(x):
        assert verdict == CodeVerdict(True, None)


def test_the_empty_word_alone_is_no_code():
    # the dangling-suffix oracle takes {eps} for a code; the empty word
    # has two factorizations all the same
    assert "" not in dangling_suffixes({""})
    x = fin({""})
    assert is_prefix_code(x) and not is_code(x)
    assert sardinas_patterson(x) == CodeVerdict(
        False, DoubleFactorization("", ("",), ("", ""))
    )


def test_finite_codes_settle_completeness_without_a_search(capsys, monkeypatch):
    def no_search(*args):
        raise AssertionError("subset search entered")

    monkeypatch.setattr(automata, "_subsets", no_search)
    assert is_complete(fin({"a", "ba", "bb"}))
    assert not is_complete(fin({"aa", "ab", "bb"}))
    assert is_maximal_code(fin({"a", "ba", "bb"}))
    abc = Language.finite(leaf_split_code(random.Random(5), "abc", 40), Alphabet("abc"))
    assert is_complete(abc)
    assert _least_non_factor(abc) is None
    words = leaf_split_code(random.Random(1), "ab", 300)
    assert main(["complete", "--alphabet", "ab", "|".join(words)]) == 0
    assert capsys.readouterr().out == "property: complete\nverdict: holds\n"
    # a witness still needs the search, and so does a non-code, even
    # one whose Kraft sum is 1
    for ask in (
        lambda: _least_non_factor(fin({"aa", "ab", "bb"})),
        lambda: is_complete(fin({"a", "ab", "ba"})),
    ):
        with pytest.raises(AssertionError, match="subset search entered"):
            ask()
    # an infinite set is told without a subset table
    with pytest.raises(UsageError):
        measure_finite(compile_expression("(a|bb)*", AB), Distribution.uniform(AB))
    monkeypatch.undo()

    # a finite set held as an automaton is measured with no word spelled:
    # (a|b)^30 has 2^30 members
    def no_spelling(*args):
        raise AssertionError("words spelled")

    monkeypatch.setattr(automata, "words_upto", no_spelling)
    product = ".".join(["(a|b)"] * 30)
    for command, name in (("complete", "complete"), ("maximal", "maximal-code")):
        assert main([command, "--alphabet", "ab", product]) == 0
        assert capsys.readouterr().out == f"property: {name}\nverdict: holds\n"
    uniform = Distribution.uniform(AB)
    assert measure_finite(compile_expression(product, AB), uniform) == 1
    lang = compile_expression("(a|bb).eps*.(eps|a)", AB)
    assert measure_finite(lang, uniform) == Fraction(9, 8)


# a 32-word complete prefix code with two words taken out; its least
# non-factor, abababaababaab, lies in the 176th subset the search enters
HOLED = (
    "aab|bab|abbb|baaa|bbaa|bbab|bbbb|aaaaa|aaaab|aaaba|aaabb|abaaa|baaba|"
    "baabb|bbbaa|ababab|ababba|abbaaa|abbaab|abbaba|abbabb|ababaaa|ababaab|"
    "bbbabaa|bbbabab|bbbabba|bbbabbb|ababbbaa|ababbbab|ababbbbb"
)


def test_completeness_search_keeps_the_state_cap(capsys, monkeypatch):
    argv = ["complete", "--alphabet", "ab", HOLED]
    for cap in (8, 175):
        monkeypatch.setattr(automata, "DEFAULT_STATE_CAP", cap)
        assert main(argv) == 4
        assert capsys.readouterr().out == (
            f"verdict: budget-exceeded\ndetail: determinization exceeded {cap} states\n"
        )
    monkeypatch.setattr(automata, "DEFAULT_STATE_CAP", 176)
    assert main(argv) == 1
    assert "witness: abababaababaab\n" in capsys.readouterr().out


def test_verify_rejects_malformed():
    w = sardinas_patterson(fin({"a", "ab", "ba"})).witness
    assert not verify_double_factorization(
        w.__class__(w.word, w.left, w.left), fin({"a", "ab", "ba"})
    )
    assert not verify_double_factorization(
        w.__class__("ab" + w.word, w.left, w.right), fin({"a", "ab", "ba"})
    )
