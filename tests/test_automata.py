import tracemalloc
from fractions import Fraction
from unittest.mock import patch

import pytest
from hypothesis import given, settings, strategies as st

from codekit import analysis, automata, cli
from codekit.analysis import (
    CodeVerdict,
    Distribution,
    find_non_factor,
    is_code,
    is_prefix_code,
    measure_finite,
    measure_partial,
    sardinas_patterson,
)
from codekit.automata import (
    DEFAULT_STATE_CAP,
    Language,
    compile_expression,
    complement,
    concat,
    equivalent,
    factors,
    is_empty,
    least_member,
    left_quotient,
    nfa_universal,
    star,
    truncate,
    union,
    words_upto,
)
from codekit.cli import main
from codekit.closed import is_closed
from codekit.errors import BudgetExceededError, ParseError
from codekit.independence import is_independent
from codekit.transducers import KINDS, EditRelationSpec, build, image, relation_image
from codekit.words import Alphabet, sort_words

from oracles import (
    brute_factors,
    canonical_dfa,
    forward_prefix_pair,
    is_universal,
    minimal_trim,
    reference_left_quotient,
    reference_measure_partial,
    reference_prefix_pair,
    reference_product,
    reference_shortest_word,
    reference_to_finite,
    reference_trim,
    subset_table_builds,
)

AB = Alphabet("ab")

finite_sets = st.frozensets(st.text(alphabet="ab", max_size=4), max_size=6)


def fin(words):
    return Language.finite(words, AB)


def test_compile_finite():
    lang = compile_expression("a|ab|ba", AB)
    assert lang.is_finite_repr
    assert lang.words() == {"a", "ab", "ba"}


def test_compile_eps():
    lang = compile_expression("eps|a", AB)
    assert lang.words() == {"", "a"}


def test_compile_concat_dot():
    lang = compile_expression("(a|b).(a|b)", AB)
    assert lang.words() == {"aa", "ab", "ba", "bb"}


def test_compile_regular():
    lang = compile_expression("(ba)*.(a|bb)", AB)
    assert not lang.is_finite_repr
    for w in ("a", "bb", "baa", "babb", "bababb"):
        assert lang.member(w)
    for w in ("", "ab", "ba", "aab"):
        assert not lang.member(w)


EPS_LETTERS = Alphabet("eps")


# (text, alphabet, message, position), pinned on the character-loop parser
PARSE_ERRORS = [
    ("ab@", AB, "unexpected character '@'", 2),
    ("a b", AB, "unexpected character 'b'", 2),
    ("ac", AB, "unexpected character 'c'", 1),
    ("(a|", AB, "unexpected end of expression", 3),
    ("a)", AB, "unexpected character ')'", 1),
    ("a||b", AB, "unexpected character '|'", 2),
    ("(a", AB, "missing closing parenthesis", 2),
    ("a  |  ", AB, "unexpected end of expression", 6),
    # eps is one token: the letter after it starts a second atom
    ("epsa", AB, "unexpected character 'a'", 3),
    ("eps a", AB, "unexpected character 'a'", 4),
    # over an alphabet holding e, p and s, eps is a plain word
    ("eps.x", EPS_LETTERS, "unexpected character 'x'", 4),
]


def test_parse_errors_have_positions():
    for text, alphabet, message, position in PARSE_ERRORS:
        with pytest.raises(ParseError) as caught:
            compile_expression(text, alphabet)
        assert str(caught.value) == f"{message} (at position {position})", text
        assert caught.value.position == position, text


def parsed_word_list(text, alphabet):
    """The words of a flat word list as the recursive descent reads it."""
    return automata._ExprParser(text, alphabet).parse().words()


SPACES = st.text(alphabet=" \t\n\x0b\x1c\xa0\u2003", max_size=2)
WORD_LIST_ALPHABETS = [AB, Alphabet("abc"), EPS_LETTERS]


@st.composite
def word_lists(draw):
    alphabet = draw(st.sampled_from(WORD_LIST_ALPHABETS))
    letters = "".join(alphabet.letters)
    atom = st.one_of(st.text(alphabet=letters, min_size=1, max_size=4), st.just("eps"))
    atoms = draw(st.lists(atom, min_size=1, max_size=8))
    atoms += draw(st.lists(st.sampled_from(atoms), max_size=3))  # duplicates
    text = "|".join(draw(SPACES) + a + draw(SPACES) for a in atoms)
    return alphabet, text


@given(word_lists())
@settings(max_examples=200)
def test_word_list_reader_matches_the_parser(case):
    alphabet, text = case
    lang = compile_expression(text, alphabet)
    assert lang.is_finite_repr
    assert lang.words() == parsed_word_list(text, alphabet)


@given(
    st.sampled_from(WORD_LIST_ALPHABETS),
    st.text(alphabet="abceps |x\t", max_size=12),
)
@settings(max_examples=300)
def test_near_word_lists_read_as_the_parser_reads_them(alphabet, text):
    # texts of word-list characters and a few strays: a text the reader
    # takes is one the parser takes, and errors keep message and position
    try:
        expected = parsed_word_list(text, alphabet)
    except ParseError as error:
        with pytest.raises(ParseError) as caught:
            compile_expression(text, alphabet)
        assert (str(caught.value), caught.value.position) == (str(error), error.position)
    else:
        assert compile_expression(text, alphabet).words() == expected


def test_eps_is_a_word_when_its_letters_are_letters():
    assert compile_expression("eps|sep", EPS_LETTERS).words() == {"eps", "sep"}
    assert compile_expression("eps | a", AB).words() == {"", "a"}


def test_star_membership():
    lang = star(fin({"aa"}))
    assert lang.member("")
    assert lang.member("aaaa")
    assert not lang.member("aaa")


def test_complement_universal_is_empty():
    universe = star(fin({"a", "b"}))
    assert is_universal(universe)
    assert is_empty(complement(universe))


def test_shortest_word():
    universe = Language.regular(nfa_universal(AB))
    lang = complement(star(fin({"a"})))
    assert least_member(lang, universe, True) == "b"
    assert least_member(fin(()), universe, True) is None
    assert least_member(star(fin({"ab"})), universe, True) == ""


def test_left_quotient_example():
    got = left_quotient(fin({"a"}), fin({"a", "ab", "ba"}))
    assert got.words() == {"", "b"}
    got = left_quotient(fin({"a"}), fin({"a", "ab", "ba"}), exclude_epsilon=True)
    assert got.words() == {"b"}


def test_left_quotient_regular():
    x = compile_expression("(ba)*.(a|bb)", AB)
    got = left_quotient(fin({"ba"}), x)
    # ba^-1 of (ba)^n a | (ba)^n bb
    for w in ("a", "bb", "baa"):
        assert got.member(w)
    assert not got.member("b")


def test_factors_star():
    got = factors(star(fin({"aa"})))
    assert equivalent(got, compile_expression("a*", AB))


def test_factors_finite():
    got = factors(fin({"ab"}))
    assert got.words() == brute_factors("ab")
    assert factors(fin({""})).words() == {""}
    assert factors(fin(())).words() == frozenset()


def test_equivalence_classics():
    a = compile_expression("(a|b)*", AB)
    b = star(concat(star(fin({"a"})), star(fin({"b"}))))
    assert equivalent(a, b)
    assert not equivalent(a, compile_expression("a*", AB))


def test_words_upto():
    lang = compile_expression("(ba)*.(a|bb)", AB)
    assert words_upto(lang, 4) == {"a", "bb", "baa", "babb"}
    assert truncate(star(fin({"ab"})), 5).words() == {"", "ab", "abab"}


def test_to_finite():
    assert star(fin({"a"})).to_finite() is None
    lang = factors(fin({"ab", "ba"}))
    assert lang.to_finite() is not None
    got = union(fin({"a"}), fin({"b"}))
    assert got.words() == {"a", "b"}


def test_trim_state_cap(monkeypatch):
    lang = Language.regular(fin({"ab", "ba", "abab"}).nfa())
    monkeypatch.setattr(automata, "DEFAULT_STATE_CAP", 2)
    with pytest.raises(BudgetExceededError, match="^determinization exceeded 2 states$"):
        lang.trim()


def test_compiling_a_flat_union_checks_no_letters(monkeypatch):
    # the parser matches every word against the alphabet's letters already
    words = sort_words(AB.words_upto(8), AB)[1:301]
    checked = []
    check_word = Alphabet.check_word
    monkeypatch.setattr(
        Alphabet, "check_word", lambda self, w: checked.append(w) or check_word(self, w)
    )
    assert compile_expression("|".join(words), AB).words() == frozenset(words)
    assert checked == []


def test_regular_intersection_keeps_the_state_cap():
    # the least word the two sets share has 257 * 256 letters
    assert 257 * 256 > DEFAULT_STATE_CAP
    a = compile_expression(f"{'a' * 257}.({'a' * 257})*", AB)
    b = compile_expression(f"{'a' * 256}.({'a' * 256})*", AB)
    with pytest.raises(BudgetExceededError):
        least_member(a, b, True)


def test_least_member_closes_only_the_states_it_visits():
    # all 4096 words of length 12: a trie of 8191 states, of which the
    # search for the least word of {ab} that B lacks visits four
    words = {format(i, "012b").translate({48: "a", 49: "b"}) for i in range(4096)}
    big = fin(words)
    one = Language.regular(fin({"ab"}).nfa())
    closure = automata.Nfa.eps_closure
    calls = []

    def counted(self, states):
        calls.append(states)
        return closure(self, states)

    with patch.object(automata.Nfa, "eps_closure", counted):
        assert least_member(one, big, False) == "ab"
    assert len(calls) < 20


def test_alphabet_mismatch():
    with pytest.raises(ValueError):
        union(fin({"a"}), Language.finite({"0"}, Alphabet("01")))


@given(finite_sets, finite_sets, finite_sets)
@settings(max_examples=60)
def test_boolean_ops_match_sets(xs, ys, zs):
    lx, ly, lz = fin(xs), fin(ys), fin(zs)
    assert union(lx, ly).words() == xs | ys
    assert union(lx, ly, lz).words() == xs | ys | zs
    for a in both_forms(lx):
        for b in both_forms(ly):
            assert least_member(a, b, True) == min(xs & ys, key=AB.lex_key, default=None)
            assert least_member(a, b, False) == min(xs - ys, key=AB.lex_key, default=None)
    assert concat(lx, ly).words() == {u + v for u in xs for v in ys}
    assert concat(lx, ly, lz).words() == {u + v + w for u in xs for v in ys for w in zs}
    with pytest.raises(ValueError):
        star(fin({"a"})).words()


def test_a_product_of_word_lists_is_never_spelled():
    # (a|b)^18.a*.b has 2^18 words before the star, and 24 automaton states
    text = ".".join(["(a|b)"] * 18) + ".a*.b"
    tracemalloc.start()
    try:
        lang = compile_expression(text, AB)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000
    assert lang.member("ab" * 9 + "aab") and not lang.member("ab" * 9)
    assert is_code(compile_expression(".".join(["(a|b)"] * 18), AB))
    # a chain of 1000 words is one pass of Thompson's construction, not
    # 999 that each copy every arc built so far
    with patch.object(automata, "nfa_concat", wraps=automata.nfa_concat) as spy:
        chain = compile_expression(".".join(["ab"] * 1000), AB)
    assert spy.call_count == 1
    assert chain.words() == {"ab" * 1000}


@given(finite_sets)
@settings(max_examples=40)
def test_complement_roundtrip(xs):
    lang = fin(xs)
    cc = complement(complement(lang))
    assert equivalent(cc, lang)
    assert least_member(lang, complement(lang), True) is None
    assert least_member(complement(lang), lang, True) is None


@given(finite_sets, finite_sets)
@settings(max_examples=40)
def test_equivalent_matches_the_canonical_tables(xs, ys):
    # the two least-word searches agree with a comparison of minimal tables
    for a in both_forms(fin(xs)):
        for b in both_forms(fin(ys)):
            same = canonical_dfa(a) == canonical_dfa(b)
            assert equivalent(a, b) == same == (xs == ys)


@given(finite_sets, st.text(alphabet="ab", max_size=6))
@settings(max_examples=60)
def test_membership_consistency(xs, w):
    lang = fin(xs)
    regular = Language.regular(fin(xs).nfa())
    assert lang.member(w) == regular.member(w) == (w in words_upto(regular, len(w)))


@given(finite_sets, finite_sets)
@settings(max_examples=40)
def test_left_quotient_matches_enumeration(us, xs):
    got = left_quotient(fin(us), fin(xs))
    expected = {x[len(u):] for u in us for x in xs if x.startswith(u)}
    assert got.to_finite().words() == expected


@given(finite_sets)
@settings(max_examples=40)
def test_factors_match_enumeration(xs):
    expected = set()
    for w in xs:
        expected |= brute_factors(w)
    got = factors(fin(xs))
    assert got.words() == expected


def expressions(letters, leaves=None):
    words = st.text(alphabet=letters, min_size=1, max_size=3)
    return st.recursive(
        words if leaves is None else leaves(words),
        lambda inner: st.one_of(
            st.tuples(inner, inner).map(lambda p: f"({p[0]})|({p[1]})"),
            st.tuples(inner, inner).map(lambda p: f"({p[0]}).({p[1]})"),
            inner.map(lambda e: f"({e})*"),
        ),
        max_leaves=5,
    )


@given(
    st.sampled_from(["ab", "abc"]).flatmap(
        lambda letters: st.tuples(st.just(letters), expressions(letters))
    ),
    st.sampled_from(["delta:1", "iota:1", "sigma:1", "S:2", "Lambda:1"]),
)
@settings(max_examples=80, deadline=None)
def test_trim_matches_reference_subset_loop(case, relation):
    # entry for entry, dead rows included
    letters, expr = case
    alphabet = Alphabet(letters)
    lang = compile_expression(expr, alphabet)
    machine = build(EditRelationSpec.parse(relation), alphabet)
    for x in (
        *both_forms(lang),
        factors(star(lang)),
        image(machine, star(lang)),
    ):
        assert x.trim() == reference_trim(x)


def both_forms(lang):
    """The language as compiled, and carried by its automaton."""
    return (lang, Language.regular(lang.nfa()))


@given(
    st.sampled_from(["ab", "abc"]).flatmap(
        lambda letters: st.tuples(
            st.just(letters), expressions(letters), expressions(letters)
        )
    )
)
@settings(max_examples=60, deadline=None)
def test_set_algebra_matches_reference_searches(case):
    letters, expr_x, expr_y = case
    alphabet = Alphabet(letters)
    x = compile_expression(expr_x, alphabet)
    y = compile_expression(expr_y, alphabet)
    universe = Language.regular(nfa_universal(alphabet))
    for a in both_forms(x):
        for b in both_forms(y):
            for in_b in (True, False):
                product = reference_product(a, b, lambda p, q: p and q == in_b)
                least = reference_shortest_word(product)
                assert least_member(a, b, in_b) == least
            for exclude in (False, True):
                assert equivalent(
                    left_quotient(a, b, exclude), reference_left_quotient(a, b, exclude)
                )
            assert least_member(b, universe, True) == reference_shortest_word(b)
    least = reference_shortest_word(complement(factors(star(x))))
    if least is None:
        with pytest.raises(ValueError):
            find_non_factor(x)
    else:
        assert find_non_factor(x) == least


def one_expression():
    return st.sampled_from(["ab", "abc"]).flatmap(
        lambda letters: st.tuples(st.just(letters), expressions(letters))
    )


def compiled_forms(case):
    letters, expr = case
    return both_forms(compile_expression(expr, Alphabet(letters)))


@given(one_expression())
@settings(max_examples=100, deadline=None)
def test_a_starred_star_has_the_star_s_table(case):
    # (x*)* gets a second hub, joined to the first by empty moves both
    # ways, so every subset holds both hubs or neither
    letters, expr = case
    alphabet = Alphabet(letters)
    once = compile_expression(f"({expr})*", alphabet)
    twice = compile_expression(f"(({expr})*)*", alphabet)
    assert twice.nfa().n == once.nfa().n + 1
    assert twice.trim() == once.trim()


@given(one_expression())
@settings(max_examples=60, deadline=None)
def test_complement_flips_the_subset_table(case):
    for x in compiled_forms(case):
        out = complement(x)
        assert is_universal(union(x, out))
        assert least_member(x, out, True) is None


def with_empty_moves(letters):
    """Sets whose automata hold empty-move cycles: a set followed by
    eps*, and expressions with eps among their leaves, as in (eps|a)*."""
    return st.one_of(
        expressions(letters).map(lambda e: f"({e}).eps*"),
        expressions(letters, lambda words: st.one_of(st.just("eps"), words)),
    )


@given(
    st.sampled_from(["ab", "abc"]).flatmap(
        lambda letters: st.tuples(
            st.just(letters),
            st.one_of(expressions(letters), with_empty_moves(letters)),
        )
    ),
    st.sampled_from(KINDS),
)
@settings(max_examples=150, deadline=None)
def test_to_finite_matches_reference(case, kind):
    letters, expr = case
    alphabet = Alphabet(letters)
    lang = compile_expression(expr, alphabet)
    for x in (lang, relation_image(EditRelationSpec(kind, 1), alphabet, lang)):
        for form in both_forms(x):
            got = form.to_finite()
            assert (None if got is None else got.words()) == reference_to_finite(form)


def test_to_finite_builds_no_table_for_an_infinite_set():
    long_tail = "(a|b)*.a." + ".".join(["(a|b)"] * 16)
    for expr in (f"b.({'a' * 1000})*", long_tail, "(eps|a)*", "a.eps*.b*"):
        lang = compile_expression(expr, AB)
        with subset_table_builds() as builds:
            assert lang.to_finite() is None
        assert builds == []
    # a finite set held as an automaton is spelled off its trim table
    lang = compile_expression("(a|bb).eps*.(eps|a)", AB)
    assert lang.to_finite().words() == {"a", "aa", "bb", "bba"}


@given(finite_sets)
@settings(max_examples=60)
def test_trie_and_live_dfa_give_the_same_words(xs):
    words = fin(xs)
    regular = Language.regular(words.nfa())
    for lang in (words, regular):
        assert lang.trim() == reference_trim(lang)
    longest = max(map(len, xs), default=0)
    assert words_upto(words, longest) == words_upto(regular, longest) == xs


@given(st.frozensets(st.text(alphabet="ab", max_size=8), max_size=30))
@settings(max_examples=150, deadline=None)
def test_a_word_list_automaton_is_its_trie_with_equal_futures_merged(xs):
    x = fin(xs)
    longest = max(map(len, xs), default=0)
    assert words_upto(Language.regular(x.nfa()), longest + 1) == xs
    if xs:
        # the minimal table numbers its states otherwise, and keeps a dead one
        rows, finals = minimal_trim(x)
        live = [q for q, row in enumerate(rows) if q in finals or max(row) >= 0]
        assert x.nfa().n == len(live)


@st.composite
def measured_sets(draw):
    """A word list or an expression over ab or abc, with the uniform
    distribution or letter weights drawn from 1 to 9."""
    letters = draw(st.sampled_from(["ab", "abc"]))
    alphabet = Alphabet(letters)
    if draw(st.booleans()):
        words = draw(st.frozensets(st.text(alphabet=letters, max_size=5), max_size=8))
        lang = Language.finite(words, alphabet)
    else:
        lang = compile_expression(draw(expressions(letters)), alphabet)
    n = len(letters)
    ints = draw(st.none() | st.lists(st.integers(1, 9), min_size=n, max_size=n))
    if ints is None:
        return lang, Distribution.uniform(alphabet)
    return lang, Distribution(alphabet, tuple(Fraction(i, sum(ints)) for i in ints))


@given(measured_sets(), st.integers(0, 12))
@settings(max_examples=150, deadline=None)
def test_integer_measure_pass_matches_the_fraction_pass(case, max_len):
    lang, dist = case
    for x in both_forms(lang):
        want = reference_measure_partial(x, dist, max_len)
        assert measure_partial(x, dist, max_len) == want
        if x.to_finite() is not None:
            longest = max(map(len, x.words()), default=0)
            assert measure_finite(x, dist) == reference_measure_partial(x, dist, longest)


@given(one_expression())
@settings(max_examples=80, deadline=None)
def test_code_tests_match_the_pair_search_on_the_reference_table(case):
    for x in compiled_forms(case):
        rows, finals = reference_trim(x)
        verdict = sardinas_patterson(x)
        if 0 in finals:
            assert not verdict.is_code
        else:
            meeting = analysis._double_factorization(rows, finals)
            if meeting is None:
                assert verdict == CodeVerdict(True, None)
            else:
                witness = analysis._replay(x, rows, finals, *meeting)
                assert verdict == CodeVerdict(False, witness)
        assert is_code(x) == verdict.is_code
        assert is_prefix_code(x) == all(r < 0 for q in finals for r in rows[q])


@given(st.frozensets(st.text(alphabet="ab", max_size=5), max_size=8))
@settings(max_examples=100)
def test_prefix_pair_matches_reference_on_finite_sets(xs):
    for x in both_forms(fin(xs)):
        want = None if is_prefix_code(x) else reference_prefix_pair(xs, "ab")
        assert analysis._prefix_pair(x) == want


def word_lists(letters):
    """Word lists over the letters, one-length lists as often as any:
    random lists rarely have one length, as a block code does."""
    one_length = st.integers(0, 5).flatmap(
        lambda n: st.frozensets(st.text(alphabet=letters, min_size=n, max_size=n), max_size=8)
    )
    return st.one_of(st.frozensets(st.text(alphabet=letters, max_size=5), max_size=8), one_length)


@given(
    st.sampled_from(["ab", "ba", "abc", "cab"]).flatmap(
        lambda letters: st.tuples(st.just(letters), word_lists(letters), st.booleans())
    )
)
@settings(max_examples=300)
def test_a_word_list_answers_prefix_questions_as_its_automaton(case):
    # the list sorts its words, or reads their lengths, and its Kraft sum;
    # the automaton walks its trim table; the letter order reaches the
    # witness only through lex_key, which ba and cab put apart from plain
    # string order
    letters, words, with_eps = case
    words = words | {""} if with_eps else words - {""}
    alphabet = Alphabet(letters)
    listed = Language(alphabet, words=words)
    table = Language.regular(Language(alphabet, words=words).nfa())
    for ask in (
        analysis._prefix_pair, is_prefix_code, is_code, sardinas_patterson, cli._suffix_pair,
        lambda x: analysis._complete_by_measure(x, known_code=False),
    ):
        assert ask(listed) == ask(table)


@given(one_expression())
@settings(max_examples=80, deadline=None)
def test_prefix_pair_matches_reference_on_regular_sets(case):
    for x in compiled_forms(case):
        if not is_prefix_code(x):
            # |x| and |u| are each at most the number of minimal states
            words = words_upto(x, 2 * len(minimal_trim(x)[0]))
            expected = reference_prefix_pair(words, x.alphabet.letters)
            assert analysis._prefix_pair(x) == expected


@given(
    st.one_of(
        st.frozensets(st.text(alphabet="ab", max_size=9), min_size=1, max_size=40).map(
            lambda xs: ("ab", "|".join(sorted(w or "eps" for w in xs)))
        ),
        one_expression(),
    )
)
@settings(max_examples=120, deadline=None)
def test_prefix_pair_matches_the_forward_walk(case):
    # the oracle spells every word it enters; the search spells only the answer
    for x in compiled_forms(case):
        assert analysis._prefix_pair(x) == forward_prefix_pair(x)


def test_a_long_prefix_pair_is_spelled_once():
    # x has 20001 letters: spelling every searched word would be quadratic
    n = 20000
    x = compile_expression("a" * n + ".(b|bb)", AB)
    assert analysis._prefix_pair(x) == ("a" * n + "b", "a" * n + "bb")


def test_emptiness_questions_build_no_minimal_automaton(capsys):
    # a long cycle: emptiness questions build no table, and the prefix
    # pair reads the one subset table of X
    spec = EditRelationSpec.parse("delta:1")
    expr = f"b.({'a' * 1000})*"
    counts = []
    for ask in (
        lambda: is_closed(compile_expression(expr, AB), spec),
        lambda: is_independent(compile_expression(expr, AB), spec),
        lambda: main(["prefix", "--alphabet", "ab", expr]),
    ):
        with subset_table_builds() as builds:
            ask()
        counts.append(len(builds))
    assert counts == [0, 0, 1]
    assert capsys.readouterr().out.endswith(f"witness: b begins or ends b{'a' * 1000}\n")


def table_answers(x):
    """Everything the package reads off X's trim table."""
    n = len(x.alphabet.letters)
    weights = tuple(Fraction(2 * (i + 1), n * (n + 1)) for i in range(n))
    finite = x.to_finite()
    return (
        sardinas_patterson(x),
        analysis._prefix_pair(x),
        cli._suffix_pair(x),
        measure_partial(x, Distribution(x.alphabet, weights), 6),
        None if finite is None else finite.words(),
        is_prefix_code(x),
    )


def assert_minimal_table_agrees(lang):
    """The answers on the table each form builds, the trie or the subset
    DFA, equal those on the minimal table, for the set and its mirror."""
    with patch.object(Language, "trim", minimal_trim):
        want = table_answers(lang)
    for x in both_forms(lang):
        assert table_answers(x) == want
    if not lang.is_finite_repr:
        assert lang.trim() == reference_trim(lang)


@given(one_expression())
@settings(max_examples=80, deadline=None)
def test_subset_and_minimal_tables_give_the_same_answers(case):
    letters, expr = case
    assert_minimal_table_agrees(compile_expression(expr, Alphabet(letters)))


@given(
    st.one_of(
        st.frozensets(st.text(alphabet="ab", max_size=3), min_size=1, max_size=4).map(
            lambda xs: ("ab", "|".join(w or "eps" for w in sorted(xs)))
        ),
        one_expression(),
    ),
    st.sampled_from(KINDS),
)
@settings(max_examples=120, deadline=None)
def test_subset_and_minimal_tables_agree_on_images(case, kind):
    letters, expr = case
    alphabet = Alphabet(letters)
    lang = compile_expression(expr, alphabet)
    assert_minimal_table_agrees(relation_image(EditRelationSpec(kind, 1), alphabet, lang))
