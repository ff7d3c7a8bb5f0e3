"""Independence, error correction and the completion constructions."""

from __future__ import annotations

import random
from collections import Counter
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from codekit import analysis, automata, channel, independence
from codekit.analysis import (
    _least_non_factor,
    _least_unbordered_exit,
    is_complete,
    is_maximal_code,
    sardinas_patterson,
    verify_double_factorization,
)
from codekit.automata import (
    Language,
    compile_expression,
    equivalent,
    factors,
    star,
    union,
    words_upto,
)
from codekit.closed import sigma_complete_embedding
from codekit.errors import BudgetExceededError, PreconditionError, UnsupportedError
from codekit.independence import (
    check_constraints,
    er_complete,
    hat_image_is_code,
    is_error_correcting,
    is_independent,
    is_maximal_independent,
    underline_image_is_code,
    witness_independent_extension,
)
from codekit.transducers import (
    CLOSURES,
    KINDS,
    EditRelationSpec,
    inverse_spec,
    relation_image_word,
)
from codekit.words import Alphabet

from oracles import (
    EditOracle,
    leaf_split_code,
    reference_error_correcting,
    reference_least_unbordered_non_factor,
)

AB = Alphabet(("a", "b"))


def fin(words):
    return Language.finite(words, AB)


def spec(text):
    return EditRelationSpec.parse(text)


# --- independence -----------------------------------------------------------

def test_dependent_set_yields_least_witness():
    report = is_independent(fin({"a", "ab", "ba"}), spec("delta:1"))
    assert not report.independent
    assert report.witness == ("ab", "a")


def test_substitution_independence_flips_with_k():
    x = fin({"aa", "bb"})
    assert is_independent(x, spec("sigma:1")).independent
    report = is_independent(x, spec("sigma:2"))
    assert not report.independent
    assert report.witness == ("aa", "bb")


def test_chain_relation_sees_substitution_as_two_steps():
    # one deletion plus one insertion turns a into b
    report = is_independent(fin({"a", "b"}), spec("S:2"))
    assert not report.independent
    assert report.witness == ("a", "b")


def test_reflexive_spec_still_compares_antireflexively():
    x = fin({"aa", "bb"})
    assert is_independent(x, spec("sigma:1:hat")).independent


def test_infinite_regular_chain_relation_unsupported():
    x = star(fin({"ab"}))
    with pytest.raises(UnsupportedError) as err:
        is_independent(x, spec("S:2"))
    assert err.value.question == "Q1"
    # the k=1 chain stays decidable: images flip length parity
    assert is_independent(x, spec("S:1")).independent is True


def test_regular_prefix_code_is_independent_for_one_edit():
    x = compile_expression("(ba)*.(a|bb)", AB)
    for rel in ("sigma:1", "delta:1", "iota:1", "S:1", "Lambda:1"):
        assert is_independent(x, spec(rel)).independent, rel


def test_regular_dependence_finds_a_pair():
    x = union(star(fin({"ab"})), fin({"abab" + "b"}))
    # ababb arises from abab by one insertion
    report = is_independent(x, spec("iota:1"))
    assert not report.independent
    x_words, y = report.witness
    assert y in relation_image_word(spec("iota:1"), AB, x_words)
    assert x.member(x_words) and x.member(y)


@st.composite
def small_sets(draw):
    words = draw(
        st.sets(st.text(alphabet="ab", min_size=1, max_size=4), min_size=1, max_size=5)
    )
    return frozenset(words)


@settings(max_examples=60, deadline=None)
@given(small_sets(), st.sampled_from(["delta:1", "iota:1", "sigma:1", "Delta:2", "S:2"]))
def test_independence_matches_pointwise_oracle(words, rel):
    oracle = EditOracle(("a", "b"))
    sp = spec(rel)
    expected = True
    for x in words:
        image = oracle.image(x, sp.kind, sp.k) - {x}
        if image & words:
            expected = False
    assert is_independent(fin(words), sp).independent == expected


@settings(max_examples=40, deadline=None)
@given(small_sets(), st.sampled_from(["delta:1", "iota:2", "Delta:2", "sigma:1"]))
def test_independence_symmetric_under_inversion(words, rel):
    sp = spec(rel)
    lang = fin(words)
    assert (
        is_independent(lang, sp).independent
        == is_independent(lang, inverse_spec(sp)).independent
    )


@settings(max_examples=60, deadline=None)
@given(
    small_sets(),
    st.sampled_from(["delta:1", "iota:1", "sigma:1", "sigma:2", "S:1", "Lambda:1"]),
)
def test_both_forms_give_one_independence_witness(words, rel):
    # the least member whose image meets X, then its least hit
    finite = fin(words)
    report = is_independent(Language.regular(finite.nfa()), spec(rel))
    assert report == is_independent(finite, spec(rel))


def test_regular_witness_is_the_least_dependent_member():
    # aba is the least image of ab, but ab is the least member with a hit
    for expr in ("aba|ab", "(aba|ab).eps*"):
        report = is_independent(compile_expression(expr, AB), spec("Lambda:1"))
        assert report.witness == ("ab", "aba"), expr


# --- error correction -------------------------------------------------------

def test_repetition_code_corrects_one_substitution():
    assert is_error_correcting(fin({"aaa", "bbb"}), spec("sigma:1")).correcting


def test_short_blocks_collide_after_deletion():
    report = is_error_correcting(fin({"a", "b"}), spec("delta:1"))
    assert not report.correcting
    assert report.witness == ("a", "b", "")


def test_two_block_deletion_channel_is_correcting():
    x = fin({"aabbb", "bbbbaa"})
    report = is_error_correcting(x, spec("Delta:2"))
    assert report.correcting


def test_known_deletion_collision():
    x = fin({"aaaa", "aaab", "abb", "bab"})
    report = is_error_correcting(x, spec("delta:1"))
    assert not report.correcting
    a, b, common = report.witness
    assert common in relation_image_word(spec("delta:1"), AB, a)
    assert common in relation_image_word(spec("delta:1"), AB, b)


def test_bifix_truncation_collides_on_ab():
    words = {"a" + "b" * n + "a" for n in range(4)} | {
        "b" + "a" * n + "b" for n in range(4)
    }
    report = is_error_correcting(fin(words), spec("sigma:1"))
    assert not report.correcting
    assert report.witness == ("aa", "bb", "ab")


def test_error_correction_unsupported_on_infinite_input():
    with pytest.raises(UnsupportedError) as err:
        is_error_correcting(star(fin({"ab"})), spec("delta:1"))
    assert err.value.question == "Q2"


@settings(max_examples=50, deadline=None)
@given(small_sets(), st.sampled_from(["delta:1", "sigma:1", "Delta:2"]))
def test_error_correction_matches_oracle(words, rel):
    oracle = EditOracle(("a", "b"))
    sp = spec(rel)
    images = {x: oracle.image(x, sp.kind, sp.k) for x in words}
    ordered = sorted(words)
    expected = all(
        not (images[x] & images[y])
        for i, x in enumerate(ordered)
        for y in ordered[i + 1 :]
    )
    assert is_error_correcting(fin(words), sp).correcting == expected
    # preimage characterization: no member with a nonempty image shares
    # a preimage of that image with another member
    back = inverse_spec(sp)
    preimage_ok = all(
        not (oracle.image(v, back.kind, back.k) & words) - {x}
        for x in words
        for v in images[x]
    )
    assert preimage_ok == expected


@st.composite
def word_lists(draw):
    """A word list over ab or abc, the empty word allowed, in either form:
    ``w1|w2|...`` or ``(w1|w2|...).eps*``."""
    letters = draw(st.sampled_from(["ab", "abc"]))
    words = draw(
        st.lists(
            st.text(alphabet=letters, max_size=6), min_size=1, max_size=10, unique=True
        )
    )
    listed = "|".join(w or "eps" for w in words)
    expr = f"({listed}).eps*" if draw(st.booleans()) else listed
    return compile_expression(expr, Alphabet(tuple(letters)))


@settings(max_examples=300, deadline=None)
@given(
    word_lists(),
    st.sampled_from(KINDS),
    st.sampled_from([1, 2]),
    st.sampled_from(CLOSURES),
)
# its first colliding pair is the 3rd and 5th members, ababb and babab
@example(compile_expression("aab|baab|ababb|baaba|babab", AB), "delta", 1, "plain")
def test_error_correction_report_matches_pair_loop(x_lang, kind, k, closure):
    # the whole report, witness triple included: the first colliding pair
    # in length-lex member order, then their length-lex least common word
    sp = EditRelationSpec(kind, k, closure)
    assert is_error_correcting(x_lang, sp) == reference_error_correcting(x_lang, sp)


@pytest.mark.parametrize(
    "words, correcting",
    [({"aab", "baab", "ababb", "baaba", "babab"}, False), ({"aabbb", "bbbbaa"}, True)],
)
def test_error_correction_spells_each_image_once(monkeypatch, words, correcting):
    spelled = Counter()

    def counted(sp, alphabet, w):
        spelled[w] += 1
        return relation_image_word(sp, alphabet, w)

    monkeypatch.setattr(channel, "relation_image_word", counted)
    assert is_error_correcting(fin(words), spec("delta:1")).correcting == correcting
    assert spelled == Counter(words)


# --- image code-ness --------------------------------------------------------

def test_reflexive_image_loses_codeness_for_two_block_words():
    x = fin({"aabb", "bbaa"})
    verdict = hat_image_is_code(x, spec("delta:1"))
    assert not verdict.is_code
    img = relation_image_word(spec("delta:1:hat"), AB, "aabb") | relation_image_word(
        spec("delta:1:hat"), AB, "bbaa"
    )
    assert verify_double_factorization(verdict.witness, fin(img))


def test_plain_image_stays_a_code_for_two_block_words():
    x = fin({"aabb", "bbaa"})
    assert underline_image_is_code(x, spec("delta:1")).is_code


def test_antireflexive_image_of_two_block_words_not_code_under_family():
    x = fin({"aabbb", "bbbbaa"})
    verdict = underline_image_is_code(x, spec("Delta:2"))
    assert not verdict.is_code
    img = relation_image_word(spec("Delta:2:bar"), AB, "aabbb") | relation_image_word(
        spec("Delta:2:bar"), AB, "bbbbaa"
    )
    assert verify_double_factorization(verdict.witness, fin(img))


def test_image_codeness_on_regular_input():
    x = compile_expression("(a.b*.a)|(b.a*.b)", AB)
    assert not hat_image_is_code(x, spec("sigma:1")).is_code


def test_antireflexive_image_unsupported_for_infinite_chain_relation():
    with pytest.raises(UnsupportedError) as err:
        underline_image_is_code(star(fin({"ab"})), spec("Lambda:2"))
    assert err.value.question == "Q3"


def test_antireflexive_image_fault_is_not_an_open_question(monkeypatch):
    # a finite input meets Q3's precondition, so a ValueError is a fault
    def broken(*args):
        raise ValueError("injected fault")

    monkeypatch.setattr(independence, "relation_image", broken)
    with pytest.raises(ValueError, match="injected fault"):
        underline_image_is_code(fin({"aabb", "bbaa"}), spec("S:2"))


# --- maximality -------------------------------------------------------------

def test_complete_independent_code_is_maximal():
    assert is_maximal_independent(fin({"a", "b"}), spec("delta:2"))


def test_non_complete_independent_code_is_not_maximal():
    assert not is_maximal_independent(fin({"aa", "bb"}), spec("sigma:1"))


def test_maximality_requires_a_code():
    with pytest.raises(ValueError):
        is_maximal_independent(fin({"a", "ab", "ba"}), spec("delta:1"))


def test_maximality_requires_independence():
    with pytest.raises(ValueError):
        is_maximal_independent(fin({"a", "b"}), spec("sigma:1"))


def test_regular_bifix_code_is_maximal_independent():
    x = compile_expression("(a.b*.a)|(b.a*.b)", AB)
    assert is_maximal_independent(x, spec("sigma:1"))


# --- extension construction -------------------------------------------------

def test_extension_word_for_single_square():
    w = witness_independent_extension(fin({"aa"}), spec("delta:1"))
    assert w == "bba"


def test_extension_enlarges_an_independent_code():
    x = fin({"aa", "bb"})
    sp = spec("sigma:1")
    w = witness_independent_extension(x, sp)
    extended = fin({"aa", "bb", w})
    assert sardinas_patterson(extended).is_code
    assert is_independent(extended, sp).independent
    hits = relation_image_word(sp, AB, w)
    assert not hits & {"aa", "bb"}


def test_extension_rejects_complete_input():
    with pytest.raises(ValueError):
        witness_independent_extension(fin({"a", "b"}), spec("delta:2"))


def test_extension_rejects_dependent_input():
    # {a, ab} is a code but one deletion maps ab onto a
    with pytest.raises(ValueError):
        witness_independent_extension(fin({"a", "ab"}), spec("delta:1"))


# --- completion -------------------------------------------------------------

def check_completion(x_words):
    x = fin(x_words)
    y = er_complete(x)
    assert sardinas_patterson(y).is_code
    assert is_complete(y)
    for w in x_words:
        assert y.member(w)
    return y


def test_completion_of_single_square():
    y = check_completion({"aa"})
    assert y.member("b")
    # b(a(aa)*b)* keeps odd runs of a between the b markers
    assert y.member("bab")
    assert not y.member("baab")


def test_completion_of_two_squares():
    y = check_completion({"aa", "bb"})
    assert y.member("aabab")


def test_completion_of_empty_set():
    y = er_complete(fin(set()))
    assert sardinas_patterson(y).is_code
    assert is_complete(y)


def test_completion_rejects_complete_input():
    with pytest.raises(ValueError):
        er_complete(fin({"a", "b"}))


def test_completion_rejects_infinite_complete_input():
    # F = factors(X*) is every word: no row of its table misses an arc,
    # and the walk over it finds no word that leaves
    x = compile_expression("a*.b", AB)
    assert _least_unbordered_exit(factors(star(x)).trim()[0], AB) is None
    with pytest.raises(PreconditionError, match="already complete"):
        er_complete(x)


def test_completion_rejects_non_code():
    with pytest.raises(ValueError):
        er_complete(fin({"a", "ab", "ba"}))


def test_completion_of_regular_input():
    x = compile_expression("aa.(bb)*", AB)
    y = er_complete(x)
    assert sardinas_patterson(y).is_code
    assert is_complete(y)
    for w in words_upto(x, 6):
        assert y.member(w)


def test_completion_enters_the_factors_of_the_star_once(monkeypatch):
    # F = factors(X*)'s trim table answers "already complete" and holds
    # the walk: no separate non-factor search enters F's automaton
    x = compile_expression("aa.(bb)*", AB)
    entered = []
    subsets = automata._subsets

    def spy(nfa, rows=None):
        entered.append(nfa)
        return subsets(nfa, rows)

    monkeypatch.setattr(automata, "_subsets", spy)
    er_complete(x)
    monkeypatch.undo()
    f = factors(star(x))
    assert sum(equivalent(Language.regular(nfa), f) for nfa in entered) == 1


@st.composite
def incomplete_codes(draw):
    """A leaf-split prefix code, or its reversal, with one or two words
    taken out, as a word list, as ``(...).eps*`` or as an automaton.  The
    letter orders ba and cab make a walk in the wrong order fail."""
    letters = draw(st.sampled_from(["ab", "ba", "abc", "cab"]))
    rng = random.Random(draw(st.integers(0, 2**16)))
    # few enough words for the word-by-word reference to finish
    most = 12 if len(letters) == 2 else 9
    words = leaf_split_code(rng, letters, draw(st.integers(2, most)))
    if draw(st.booleans()):
        words = [w[::-1] for w in words]
    for _ in range(draw(st.integers(1, min(2, len(words) - 1)))):
        words.pop(rng.randrange(len(words)))
    alphabet = Alphabet(tuple(letters))
    finite = Language.finite(words, alphabet)
    form = draw(st.sampled_from(["words", "eps*", "automaton"]))
    if form == "eps*":
        return compile_expression(f"({'|'.join(words)}).eps*", alphabet)
    return finite if form == "words" else Language.regular(finite.nfa())


@given(incomplete_codes())
@settings(max_examples=150, deadline=None)
def test_unbordered_exit_matches_the_word_by_word_search(x):
    star_factors = factors(star(x))
    v = _least_non_factor(x, known_code=True)
    expected = reference_least_unbordered_non_factor(v, star_factors)
    assert _least_unbordered_exit(star_factors.trim()[0], x.alphabet) == expected


def test_unbordered_exit_is_bounded(monkeypatch):
    rows = factors(star(fin({"aa", "bb"}))).trim()[0]
    monkeypatch.setattr(automata, "DEFAULT_STATE_CAP", 5)
    with pytest.raises(BudgetExceededError, match="search exceeded 5 steps"):
        _least_unbordered_exit(rows, AB)


def test_unbordered_exit_needs_no_recursion():
    # the table of the factors of {b, ab, ..., a^(k-1) b}*: state i has
    # read a run of i letters a, and a^k leaves it; the least unbordered
    # word that leaves is a^k b, far deeper than the recursion limit
    k = 3000
    rows = [[i + 1 if i + 1 < k else -1, 0] for i in range(k)]
    assert _least_unbordered_exit(rows, AB) == "a" * k + "b"


# --- aggregate report -------------------------------------------------------

def test_constraint_report_for_finite_correcting_code():
    report = check_constraints(fin({"aabbb", "bbbbaa"}), spec("Delta:2"))
    assert report.independent.status == "holds"
    assert report.error_correcting.status == "holds"
    assert report.underline_image_code.status == "fails"
    assert report.maximal_independent.status == "fails"


NOT_A_CODE = {"a", "ab", "b"}


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: is_maximal_independent(fin(NOT_A_CODE), spec("sigma:1")), "not a code"),
        (lambda: is_maximal_independent(fin({"aa", "ab"}), spec("sigma:1")), "not independent"),
        (lambda: witness_independent_extension(fin(NOT_A_CODE), spec("sigma:1")), "not a code"),
        (
            lambda: witness_independent_extension(fin({"aa", "ab"}), spec("sigma:1")),
            "not independent",
        ),
        (
            lambda: witness_independent_extension(fin({"a", "b"}), spec("delta:2")),
            "already complete",
        ),
        (lambda: er_complete(fin(NOT_A_CODE)), "not a code"),
        (lambda: er_complete(fin({"a", "b"})), "already complete"),
        (lambda: is_maximal_code(fin(NOT_A_CODE)), "not a code"),
    ],
)
def test_failed_preconditions_have_their_own_type(call, message):
    with pytest.raises(PreconditionError, match=message):
        call()


@pytest.mark.parametrize("words", [{"a", "b"}, {"aa", "bb"}, {"aa"}])
@pytest.mark.parametrize(
    "call",
    [
        lambda x: is_maximal_independent(x, spec("delta:2")),
        lambda x: witness_independent_extension(x, spec("delta:2")),
        er_complete,
        lambda x: sigma_complete_embedding(x, 2),
    ],
    ids=["maximal", "extension", "er-complete", "sigma-embedding"],
)
def test_each_input_reaches_sardinas_patterson_once(words, call):
    # the code test of the input comes first, and nothing repeats it
    # before the result's own check, complete input or not
    x = fin(words)
    with patch.object(analysis, "_code_test", wraps=analysis._code_test) as spy:
        try:
            call(x)
        except PreconditionError as e:
            assert "already complete" in str(e)
    tested = [args[0] for args, _ in spy.call_args_list]
    assert tested[0] is x
    assert sum(lang is x for lang in tested) == 1


def test_constraint_report_reads_a_failed_precondition_as_fails():
    report = check_constraints(fin(NOT_A_CODE), spec("sigma:1"))
    assert report.maximal_independent.status == "fails"
    assert report.maximal_independent.witness == "precondition failed: input is not a code"


def test_constraint_report_lets_an_internal_value_error_through(monkeypatch):
    def broken(x_lang, spec):
        raise ValueError("internal fault")

    monkeypatch.setattr(independence, "is_error_correcting", broken)
    with pytest.raises(ValueError, match="internal fault"):
        check_constraints(fin({"aabbb", "bbbbaa"}), spec("Delta:2"))


def test_constraint_report_surfaces_open_questions():
    report = check_constraints(star(fin({"ab"})), spec("S:2"))
    assert report.independent.status == "unsupported"
    assert report.independent.question == "Q1"
    assert report.error_correcting.question == "Q2"
    assert report.underline_image_code.question == "Q3"
    assert report.hat_image_code.status in {"holds", "fails"}


def test_constraint_sweep_spells_a_finite_automaton_once():
    # every constraint asks whether X is finite; the set keeps the
    # answer and its own form
    rng = random.Random(0)
    words = {"".join(rng.choice("ab") for _ in range(32)) for _ in range(300)}
    lang = compile_expression("(" + "|".join(sorted(words)) + ").eps*", AB)
    with patch.object(automata, "words_upto", wraps=automata.words_upto) as spy:
        check_constraints(lang, spec("delta:1"))
    assert spy.call_count == 1
    assert not lang.is_finite_repr
    assert lang.to_finite().words() == words
