"""Closed codes: deletion families, orbit shapes, classification."""

from __future__ import annotations

import traceback

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codekit import analysis, automata, closed
from codekit.analysis import is_code, sardinas_patterson, verify_double_factorization
from codekit.automata import Language, compile_expression, star
from codekit.closed import (
    Classification,
    ClosednessReport,
    assert_empty_family,
    classify_Sigma_closed,
    classify_sigma_closed,
    closure_star,
    delta_length_bound,
    embed_delta_closed_complete,
    enumerate_delta_closed,
    is_closed,
    is_maximal_delta_closed,
    sigma_complete_embedding,
    sigma_star,
)
from codekit.errors import BudgetExceededError, PreconditionError, UsageError
from codekit.independence import is_independent
from codekit.transducers import (
    CLOSURES,
    KINDS,
    EditRelationSpec,
    image,
    image_size_bound,
    relation_image_word,
)
from codekit.words import Alphabet

from oracles import (
    EditOracle,
    dangling_suffixes,
    double_factorization_witness,
    reference_code_search,
    subsequences,
    xor_add,
)

AB = Alphabet(("a", "b"))
ABC = Alphabet(("a", "b", "c"))
CAB = Alphabet(("c", "a", "b"))
BITS = Alphabet(("0", "1"))

FIVE_WORD_CODE = frozenset({"aa", "ab", "bb", "aaaab", "abbbb"})


def fin(words, alphabet=AB):
    return Language.finite(words, alphabet)


def spec(text):
    return EditRelationSpec.parse(text)


def delta_universe(k, alphabet):
    """The deletion search's universe: every word of an admissible
    length, in length-lex order."""
    lengths = sorted(delta_length_bound(k))
    return [w for n in lengths for w in alphabet.words_of_length(n)]


def bfs_orbit(w, k, letters):
    oracle = EditOracle(letters)
    seen = {w}
    frontier = [w]
    while frontier:
        u = frontier.pop()
        for v in oracle.sigma_exact(u, k):
            if v not in seen:
                seen.add(v)
                frontier.append(v)
    return frozenset(seen)


# --- closedness -------------------------------------------------------------

def test_five_word_code_closed_under_triple_deletion():
    assert is_closed(fin(FIVE_WORD_CODE), spec("delta:3")).closed


def test_short_words_closed_when_defect_exceeds_length():
    report = is_closed(fin({"aaaaa", "aaba", "aab", "ba", "b"}), spec("sigma:6"))
    assert report.closed


def test_escape_reported_with_source():
    report = is_closed(fin({"ab"}), spec("sigma:1"))
    assert not report.closed
    assert report.witness == ("ab", "aa")


def test_insertion_never_closed_on_nonempty_code():
    report = is_closed(fin({"a"}), spec("iota:1"))
    assert not report.closed
    x, y = report.witness
    assert y in relation_image_word(spec("iota:1"), AB, x)


def test_closedness_on_regular_set():
    lang = star(Language.regular(Language.finite(["ab"], AB).nfa()))
    report = is_closed(lang, spec("sigma:2"))
    assert not report.closed
    member, escaped = report.witness
    assert lang.member(member)
    assert not lang.member(escaped)
    assert escaped in relation_image_word(spec("sigma:2"), AB, member)


@pytest.mark.parametrize(
    "decide, expr, alphabet, rel",
    [
        (is_closed, "(ba)*.(a|bb)", AB, "delta:1"),
        (is_closed, "(ba)*.(a|bb)", AB, "Lambda:2"),
        (is_closed, "(ab)*", AB, "S:2"),
        (is_closed, "(a|b).(a|b).(a|b)*", AB, "Delta:2"),
        (is_closed, "(a.b*.c)|(c.a*.b)", ABC, "I:2"),
        (is_independent, "(a|b).(a|b)*", AB, "delta:1"),
        (is_independent, "(ab)*|ababb", AB, "iota:1"),
        (is_independent, "(a.b*.a)|(b.a*.b)", AB, "sigma:2"),
        (is_independent, "(a.b*.c)|(c.a*.b)", ABC, "S:1"),
    ],
)
def test_regular_witness_source_is_least(decide, expr, alphabet, rel):
    # the source x of a regular witness (x, y) is the length-lex least
    # member whose image contains y; k edits move a length by at most k
    lang = compile_expression(expr, alphabet)
    sp = spec(rel)
    x, y = decide(lang, sp).witness
    oracle = EditOracle(alphabet.letters)
    sources = [
        w
        for w in alphabet.words_upto(len(y) + sp.k)
        if lang.member(w) and y in oracle.image(w, sp.kind, sp.k)
    ]
    assert x == min(sources, key=alphabet.lex_key)


@settings(max_examples=400, deadline=None)
@given(
    st.sampled_from([AB, ABC, CAB]).flatmap(
        lambda alphabet: st.tuples(
            st.just(alphabet),
            st.frozensets(st.text(alphabet.letters, max_size=6), min_size=1, max_size=6),
        )
    ),
    st.sampled_from(KINDS),
    st.integers(1, 3),
    st.sampled_from(CLOSURES),
)
def test_a_word_list_is_closed_as_its_automaton(case, kind, k, closure):
    # the list spells each member's image; the automaton form reads the
    # image product beside the set, and its source off the inverse image
    alphabet, words = case
    listed = Language(alphabet, words=words)
    table = Language.regular(listed.nfa())
    sp = EditRelationSpec(kind, k, closure)
    assert is_closed(listed, sp) == is_closed(table, sp)


def test_a_word_list_past_the_state_cap_is_read_by_the_product(monkeypatch):
    # the 8 words of length 3 have 16 deletion image words in all, and
    # an image product of 4 * 2 pairs: under a cap of 10 the list hands
    # over to the product path, which gives the same report
    products = []

    def recorded(machine, lang):
        products.append(lang)
        return image(machine, lang)

    monkeypatch.setattr(closed, "image", recorded)
    listed = fin(AB.words_of_length(3))
    want = ClosednessReport(False, ("aaa", "aa"))
    assert is_closed(listed, spec("delta:1")) == want and products == []
    monkeypatch.setattr(automata, "DEFAULT_STATE_CAP", 10)
    assert is_closed(listed, spec("delta:1")) == want and products == [listed]


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from([AB, ABC]),
    st.sampled_from(KINDS),
    st.integers(1, 3),
    st.data(),
)
def test_image_size_bound_holds(alphabet, kind, k, data):
    w = data.draw(st.text(alphabet.letters, max_size=7))
    sp = EditRelationSpec(kind, k)
    size = len(relation_image_word(sp, alphabet, w))
    assert size <= image_size_bound(sp, len(alphabet.letters), len(w))


# --- closure iteration ------------------------------------------------------

def test_deletion_closure_of_one_word():
    result = closure_star(fin({"abab"}), spec("delta:2"))
    assert result.words() == frozenset({"abab", "aa", "ab", "ba", "bb", ""})


def test_substitution_closure_is_the_orbit():
    assert closure_star(fin({"ab"}), spec("sigma:2")).words() == frozenset(
        {"ab", "ba"}
    )
    assert closure_star(fin({"ab"}), spec("sigma:1")).words() == frozenset(
        {"aa", "ab", "ba", "bb"}
    )


def test_closure_fixed_point():
    x = fin(FIVE_WORD_CODE)
    assert closure_star(x, spec("delta:3")).words() == FIVE_WORD_CODE


def test_growing_closures_rejected():
    for rel in ("iota:1", "I:2", "S:1", "Lambda:2"):
        with pytest.raises(ValueError):
            closure_star(fin({"a"}), spec(rel))


# --- admissible lengths -----------------------------------------------------

def test_length_window_per_defect_count():
    assert delta_length_bound(1) == frozenset()
    assert delta_length_bound(2) == frozenset({1})
    assert delta_length_bound(3) == frozenset({1, 2, 4, 5})
    assert delta_length_bound(4) == frozenset(range(1, 12)) - {4}


# --- enumeration ------------------------------------------------------------

def test_no_deletion_closed_codes_for_single_defect():
    assert list(enumerate_delta_closed(1, AB)) == []


def test_two_defect_enumeration_is_the_letter_subsets():
    got = [lang.words() for lang in enumerate_delta_closed(2, AB)]
    assert got == [frozenset({"a"}), frozenset({"a", "b"}), frozenset({"b"})]


def test_three_defect_stream_yields_valid_closed_codes():
    seen = []
    for lang in enumerate_delta_closed(3, AB, limit=25):
        words = lang.words()
        assert sardinas_patterson(lang).is_code
        assert is_closed(lang, spec("delta:3")).closed
        assert {len(w) for w in words} <= delta_length_bound(3)
        seen.append(words)
    assert len(seen) == 25
    assert len(set(seen)) == 25


def test_enumeration_is_deterministic():
    first = [lang.words() for lang in enumerate_delta_closed(3, AB, limit=10)]
    second = [lang.words() for lang in enumerate_delta_closed(3, AB, limit=10)]
    assert first == second


def test_enumeration_limit_zero_yields_nothing():
    assert list(enumerate_delta_closed(3, AB, limit=0)) == []


def test_enumeration_negative_limit_rejected():
    with pytest.raises(ValueError):
        list(enumerate_delta_closed(3, AB, limit=-1))


@pytest.mark.parametrize("k, limit", [(3, -1), (0, None)], ids=["limit-1", "k0"])
def test_enumeration_checks_its_arguments_at_the_call(monkeypatch, k, limit):
    built = []
    monkeypatch.setattr(closed, "_delta_units", lambda *args: built.append(args))
    with pytest.raises(ValueError):
        enumerate_delta_closed(k, AB, limit=limit)
    assert built == []


def test_enumeration_builds_its_units_on_the_first_code(monkeypatch):
    built = []
    units = closed._delta_units

    def recorded(*args):
        built.append(args)
        return units(*args)

    monkeypatch.setattr(closed, "_delta_units", recorded)
    codes = enumerate_delta_closed(3, AB)
    assert built == []
    assert next(codes).words() == {"a"}
    assert built == [(3, AB)]


def test_enumeration_checks_no_word_it_built(monkeypatch):
    calls = []
    check_word = Alphabet.check_word

    def counted(alphabet, w):
        calls.append(w)
        return check_word(alphabet, w)

    monkeypatch.setattr(Alphabet, "check_word", counted)
    assert len(list(enumerate_delta_closed(4, AB))) == 1449
    assert calls == []


def test_five_word_code_reachable_by_the_stream_filter():
    # replay the enumerator's own add chain for the known five-word code
    universe_order = sorted(FIVE_WORD_CODE, key=AB.lex_key)
    current = frozenset()
    for w in universe_order:
        image = subsequences(w, len(w) - 3) if len(w) > 3 else frozenset()
        assert image <= current
        current = current | {w}
        assert sardinas_patterson(fin(current)).is_code
    assert current == FIVE_WORD_CODE


CODE_SEARCH, BUDGET = closed._code_search, closed._Budget


def search_events(monkeypatch, search, run):
    """What ``run()`` returns, and its closed-family walks as one list of
    events in order: None for each budget spend, a set for each code
    the walk yields."""
    events = []

    class Tally(BUDGET):
        def spend(self):
            events.append(None)
            super().spend()

    def recorded(*args):
        for code in search(*args):
            events.append(code)
            yield code

    monkeypatch.setattr(closed, "_Budget", Tally)
    monkeypatch.setattr(closed, "_code_search", recorded)
    return events, run()


def embedded(embed, words, k, alphabet=AB):
    return lambda: [lang.words() for lang in embed(fin(words, alphabet), k)]


def enumerated(k, letters, limit=None):
    return lambda: [
        lang.words() for lang in enumerate_delta_closed(k, Alphabet(letters), limit=limit)
    ]


@pytest.mark.parametrize(
    "run, codes, spends",
    [
        (enumerated(2, "ab"), 3, 3),
        (enumerated(3, "ab"), 48, 184),
        (enumerated(4, "ab"), 1449, 6010),
        (enumerated(3, "abc", limit=300), 300, 2178),
        (enumerated(3, "cab", limit=300), 300, 2178),
        (embedded(embed_delta_closed_complete, {"aa", "ab", "bb"}, 3), None, 58),
        (embedded(embed_delta_closed_complete, {"a"}, 4), None, 287),
        (embedded(sigma_complete_embedding, {"aa"}, 2), None, 4),
        (embedded(sigma_complete_embedding, {"a"}, 3, ABC), None, 392),
    ],
    ids=[
        "ab-delta2", "ab-delta3", "ab-delta4", "abc-delta3-300", "cab-delta3-300",
        "embed-aa|ab|bb-delta3", "embed-a-delta4", "embed-aa-sigma2",
        "embed-a-abc-sigma3",
    ],
)
def test_search_stream_matches_linear_scan(monkeypatch, run, codes, spends):
    # same codes in the same order, and the same budget spends between them
    ours = search_events(monkeypatch, CODE_SEARCH, run)
    reference = search_events(monkeypatch, reference_code_search, run)
    assert ours == reference
    events = ours[0]
    if codes is not None:
        assert sum(e is not None for e in events) == codes
    if spends is not None:
        assert events.count(None) == spends


def code_tests(monkeypatch, run):
    """The ``_grow_dangling`` calls of ``run()`` and its budget spends:
    one ``(candidate - added, added, failed)`` per call, in order."""
    calls = []

    def recorded(words, dangling, added):
        grown = GROW(words, dangling, added)
        added = frozenset(added)
        calls.append((words - added, added, grown is None))
        return grown

    monkeypatch.setattr(closed, "_grow_dangling", recorded)
    events, _ = search_events(monkeypatch, CODE_SEARCH, run)
    return calls, events.count(None)


@pytest.mark.parametrize(
    "run, tests, spends",
    [
        (enumerated(3, "ab"), 132, 184),
        (enumerated(4, "ab"), 3341, 6010),
        (enumerated(3, "abc", limit=300), 999, 2178),
        (embedded(embed_delta_closed_complete, {"a"}, 4), 184, 287),
        (embedded(sigma_complete_embedding, {"a"}, 3, ABC), 186, 392),
    ],
    ids=[
        "ab-delta3", "ab-delta4", "abc-delta3-300", "embed-a-delta4",
        "embed-a-abc-sigma3",
    ],
)
def test_walk_tests_a_unit_once_per_branch(monkeypatch, run, tests, spends):
    # a unit that fails to join a set is spent for but not tested again
    # below that set: a subset of a code is a code.  The counts include
    # the base's own call.
    calls, spent = code_tests(monkeypatch, run)
    assert (len(calls), spent) == (tests, spends)
    assert tests < spends
    # the walk is pre-order, so a set tested after a subset of it lies
    # below that subset: the stack holds the branch, each set with the
    # units that failed to join it
    branch: list[tuple[frozenset[str], set[frozenset[str]]]] = []
    for current, added, failed in calls:
        while branch and not branch[-1][0] <= current:
            branch.pop()
        if not branch or branch[-1][0] != current:
            branch.append((current, set()))
        assert not any(added in dead for _, dead in branch), (current, added)
        if failed:
            branch[-1][1].add(added)


@pytest.mark.parametrize("budget, tests", [(0, 1), (5, 12), (50, 72)])
def test_walk_tests_no_unit_past_the_budget(monkeypatch, budget, tests):
    # a level tests only the ready units the budget left can reach: with
    # every ready unit tested on entry, budget 5 would run 70 tests
    calls = []
    monkeypatch.setattr(
        closed, "_grow_dangling", lambda *args: calls.append(args) or GROW(*args)
    )
    with pytest.raises(BudgetExceededError):
        list(enumerate_delta_closed(4, AB, candidate_budget=budget))
    assert len(calls) == tests


@pytest.mark.parametrize(
    "alphabet, k",
    [(AB, 1), (AB, 2), (AB, 3), (AB, 4), (ABC, 1), (ABC, 2), (ABC, 3)]
    + [(CAB, 1), (CAB, 2), (CAB, 3)],
)
def test_delta_unit_needs_are_deletion_images(alphabet, k):
    universe = delta_universe(k, alphabet)
    for taken in (frozenset(), frozenset(universe[::3])):
        units = closed._delta_units(k, alphabet, taken)
        assert [w for (w,), _, _ in units] == [w for w in universe if w not in taken]
        for (w,), latest, needs in units:
            image = needs()
            assert image == subsequences(w, len(w) - k)
            assert latest == max(image, key=alphabet.lex_key, default=None)
    # one string object per distinct word, shared by units and images
    units = closed._delta_units(k, alphabet)
    objects = {w: w for (w,), _, _ in units}
    for _, _, needs in units:
        assert all(v is objects[v] for v in needs() if v in objects)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(["ab", "abc", "cab"]), st.integers(1, 4), st.data())
def test_latest_need_is_the_greatest_deletion(letters, k, data):
    # a unit's latest need is the word of its mask's highest bit, the
    # lex_key maximum of its image; words of k letters or fewer are drawn too
    alphabet = Alphabet(tuple(letters))
    w = data.draw(st.text(letters, max_size=k + 5))
    want = max(subsequences(w, len(w) - k), key=alphabet.lex_key, default=None)
    # the indices for the words of w's length, by rank in lex order
    high = [*closed._latest_indices(k, len(letters), len(w))][-1] if w else None
    if high is None:
        assert want is None
    else:
        t = high[list(alphabet.words_of_length(len(w))).index(w)]
        assert list(alphabet.words_of_length(len(w) - k))[t] == want


def test_enumeration_builds_needs_only_for_the_units_it_wakes(monkeypatch):
    # of the 4078 ab k=4 units, the walk wakes 691, and decodes each
    # woken unit's need mask once, when the unit that wakes it first joins
    built = []
    images_for = closed._delta_images

    def counted(k, alphabet):
        classes, image = images_for(k, alphabet)

        def recorded(w):
            built.append(w)
            return image(w)

        return classes, recorded

    monkeypatch.setattr(closed, "_delta_images", counted)
    closed._delta_closures.cache_clear()  # a kept table would not read the patch
    assert len(closed._delta_units(4, AB)) == 4078
    assert built == []
    assert len(list(enumerate_delta_closed(4, AB))) == 1449
    assert 0 < len(built) <= 700
    assert len(set(built)) == len(built)


DELTA3_CODES = [lang.words() for lang in enumerate_delta_closed(3, AB)]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(DELTA3_CODES))
def test_embedding_walk_matches_linear_scan(base):
    # the walk builds the needs up front only for a unit whose latest
    # need is in the base; the scan reads every unit's needs
    run = embedded(embed_delta_closed_complete, base, 3)
    with pytest.MonkeyPatch.context() as patch:
        ours = search_events(patch, CODE_SEARCH, run)
    with pytest.MonkeyPatch.context() as patch:
        reference = search_events(patch, reference_code_search, run)
    assert ours == reference


@st.composite
def code_and_added_words(draw):
    """A code over ab or abc, grown greedily from drawn words, and one to
    three more words outside it."""
    letters = draw(st.sampled_from(["ab", "abc"]))
    alphabet = Alphabet(tuple(letters))
    word = st.text(letters, min_size=1, max_size=4)
    code = frozenset()
    for w in draw(st.lists(word, max_size=8)):
        if w not in code and is_code(fin(code | {w}, alphabet)):
            code |= {w}
    added = draw(
        st.lists(word.filter(lambda w: w not in code), min_size=1, max_size=3, unique=True)
    )
    return alphabet, code, added


GROW = closed._grow_dangling
NOTHING = frozenset()


@settings(max_examples=150, deadline=None)
@given(code_and_added_words())
def test_grown_dangling_suffixes_decide_code_ness(case):
    alphabet, code, added = case
    union = code | set(added)
    grown = GROW(union, GROW(code, NOTHING, code), added)
    assert (grown is not None) == is_code(fin(union, alphabet))
    # the returned set is the rounds' union, which holds eps for non-codes
    rounds = dangling_suffixes(union)
    assert grown is None if "" in rounds else grown == rounds
    witness = double_factorization_witness(union, alphabet.letters, 6)
    if grown is not None:
        assert witness is None
    elif witness is None:
        assert len(sardinas_patterson(fin(union, alphabet)).witness.word) > 6


@settings(max_examples=150, deadline=None)
@given(code_and_added_words(), st.data())
def test_grown_dangling_suffixes_do_not_depend_on_order(case, data):
    alphabet, code, added = case
    union = code | set(added)
    start = GROW(code, NOTHING, code)
    want = GROW(union, NOTHING, union)
    assert GROW(union, start, added) == want
    assert GROW(union, start, data.draw(st.permutations(added))) == want
    words, dangling = NOTHING, NOTHING
    for w in data.draw(st.permutations(sorted(union))):
        words = words | {w}
        dangling = GROW(words, dangling, (w,))
        if dangling is None:
            break
    assert dangling == want


def maximality_by_closure_star(words, k, alphabet):
    """``is_maximal_delta_closed``'s verdict, witness and budget spends,
    with each one-word extension closed off by ``closure_star`` and
    tested by ``sardinas_patterson``."""
    spends = 0
    for y in delta_universe(k, alphabet):
        if y in words:
            continue
        closure = closure_star(fin({y}, alphabet), EditRelationSpec("delta", k))
        spends += 1
        if sardinas_patterson(fin(words | closure.words(), alphabet)).is_code:
            return (False, y), spends
    return (True, None), spends


def test_maximality_matches_closure_star_route(monkeypatch):
    codes = list(enumerate_delta_closed(3, AB))
    assert len(codes) == 48
    for lang in codes:
        want, spends = maximality_by_closure_star(lang.words(), 3, AB)
        events, report = search_events(
            monkeypatch, CODE_SEARCH, lambda: is_maximal_delta_closed(lang, 3)
        )
        assert (report.maximal, report.witness) == want
        assert events.count(None) == spends


@pytest.mark.parametrize("k, step", [(2, 1), (3, 1), (4, 50)])
def test_delta_closures_match_closure_star(k, step):
    universe, closure = closed._delta_closures(k, AB)
    assert universe == delta_universe(k, AB)
    for y in universe[::step]:
        assert closure(y) == closure_star(fin({y}), EditRelationSpec("delta", k)).words()


def test_one_closure_table_serves_every_call_for_its_family(monkeypatch):
    # a run that tests many codes of one family, as
    # scripts/enumerate_closed_codes.py does, builds the table once
    built = []
    images_for = closed._delta_images
    monkeypatch.setattr(
        closed, "_delta_images", lambda k, alphabet: built.append(k) or images_for(k, alphabet)
    )
    closed._delta_closures.cache_clear()
    try:
        for words in (FIVE_WORD_CODE, {"a"}):
            is_maximal_delta_closed(fin(words), 3)
        assert built == [3]
        assert closed._delta_closures(4, AB) is not closed._delta_closures(3, AB)
        assert built == [3, 4, 3]
    finally:
        closed._delta_closures.cache_clear()


def test_enumeration_budget_guard():
    with pytest.raises(BudgetExceededError):
        list(enumerate_delta_closed(3, AB, candidate_budget=10))


BUDGETED_SEARCHES = {
    "enumerate": lambda budget: list(
        enumerate_delta_closed(3, AB, candidate_budget=budget)
    ),
    "maximal": lambda budget: is_maximal_delta_closed(
        fin({"aa", "ab", "bb"}), 3, candidate_budget=budget
    ),
    "embed-delta": lambda budget: embed_delta_closed_complete(
        fin({"aa"}), 3, candidate_budget=budget
    ),
    "classify-sigma": lambda budget: classify_sigma_closed(
        fin({"aa", "ab", "ba", "bb"}), 1, candidate_budget=budget
    ),
    "embed-sigma": lambda budget: sigma_complete_embedding(
        fin({"aa"}), 2, candidate_budget=budget
    ),
}


@pytest.mark.parametrize("search", BUDGETED_SEARCHES.values(), ids=BUDGETED_SEARCHES)
def test_negative_budget_is_a_usage_error_before_any_work(monkeypatch, search):
    def work(*args, **kwargs):
        raise AssertionError("work done before the budget was checked")

    for name in ("_require_code", "sardinas_patterson", "_delta_units"):
        monkeypatch.setattr(closed, name, work)
    with pytest.raises(UsageError, match="candidate budget must be at least 0, got -1"):
        search(-1)
    monkeypatch.undo()
    # a cap of 0 is valid: it runs out on the first candidate
    with pytest.raises(BudgetExceededError):
        search(0)


def test_enumeration_checks_its_budget_at_the_call(monkeypatch):
    built = []
    monkeypatch.setattr(closed, "_delta_units", lambda *args: built.append(args))
    with pytest.raises(UsageError):
        enumerate_delta_closed(3, AB, candidate_budget=-1)
    assert built == []


# --- maximality and embedding ----------------------------------------------

def test_five_word_code_is_maximal_in_its_family():
    assert is_maximal_delta_closed(fin(FIVE_WORD_CODE), 3).maximal


def test_three_word_subcode_is_not_maximal():
    report = is_maximal_delta_closed(fin({"aa", "ab", "bb"}), 3)
    assert not report.maximal
    assert report.witness == "ba"


def test_single_letter_not_maximal():
    report = is_maximal_delta_closed(fin({"a"}), 2)
    assert not report.maximal
    assert report.witness == "b"


def test_both_letters_maximal():
    assert is_maximal_delta_closed(fin({"a", "b"}), 2).maximal


def test_maximality_preconditions():
    with pytest.raises(ValueError):
        is_maximal_delta_closed(fin({"a", "ab", "ba"}), 2)
    with pytest.raises(ValueError):
        is_maximal_delta_closed(fin({"aaaab"}), 3)


def test_embedding_single_letter():
    results = embed_delta_closed_complete(fin({"a"}), 2)
    assert [lang.words() for lang in results] == [frozenset({"a", "b"})]


def test_five_word_code_has_no_complete_embedding():
    assert embed_delta_closed_complete(fin(FIVE_WORD_CODE), 3) == []


def test_embedding_of_complete_input_is_itself():
    results = embed_delta_closed_complete(fin({"a", "b"}), 2)
    assert [lang.words() for lang in results] == [frozenset({"a", "b"})]


def test_embedding_finds_the_uniform_completion():
    results = embed_delta_closed_complete(fin({"aa", "ab", "bb"}), 3)
    assert [lang.words() for lang in results] == [
        frozenset({"aa", "ab", "ba", "bb"})
    ]


def test_embedding_tests_code_ness_of_the_input_alone(monkeypatch):
    # the walk proves every extension a code, so their completeness is
    # read off the Kraft sum with no second Sardinas-Patterson run
    callers = []
    search = analysis._code_test

    def spy(x_lang):
        callers.append([frame.name for frame in traceback.extract_stack()])
        return search(x_lang)

    monkeypatch.setattr(analysis, "_code_test", spy)
    assert embed_delta_closed_complete(Language.finite({"a"}, ABC), 3)
    assert callers
    assert all("_require_delta_closed_code" in names for names in callers)


# --- families with no closed codes ------------------------------------------

def test_insertion_forces_a_pumped_word():
    explanation = assert_empty_family(spec("iota:1"), fin({"a"}))
    assert explanation.chain == ("a", "aa")
    assert explanation.forced == "aa"
    assert verify_double_factorization(explanation.conflict, fin({"a", "aa"}))


def test_wide_insertion_chain():
    explanation = assert_empty_family(spec("I:2"), fin({"b"}))
    assert explanation.chain == ("b", "bbb")
    assert verify_double_factorization(explanation.conflict, fin({"b", "bbb"}))


def test_deletion_families_force_the_empty_word():
    for rel in ("Delta:2", "S:1", "Lambda:3"):
        explanation = assert_empty_family(spec(rel), fin({"ab"}))
        assert explanation.chain == ("ab", "a", "")
        assert explanation.forced == ""
        assert explanation.conflict is None


def test_empty_family_rejects_kinds_with_closed_codes():
    for rel in ("delta:2", "sigma:1", "Sigma:2"):
        with pytest.raises(ValueError):
            assert_empty_family(spec(rel), fin({"a"}))


def test_empty_family_requires_a_code():
    with pytest.raises(ValueError):
        assert_empty_family(spec("iota:1"), fin({"a", "aa"}))
    with pytest.raises(ValueError):
        assert_empty_family(spec("iota:1"), fin(set()))


# --- orbit shapes -----------------------------------------------------------

def test_orbit_pair_at_exact_length():
    orbit = sigma_star("ab", 2, AB)
    assert orbit.shape == "pair"
    assert orbit.materialize() == frozenset({"ab", "ba"})
    assert orbit.cardinality() == 2


def test_orbit_parity_class_for_even_defects():
    orbit = sigma_star("001", 2, BITS)
    assert orbit.shape == "parity"
    assert orbit.materialize() == frozenset({"001", "010", "100", "111"})
    assert orbit.cardinality() == 4


def test_orbit_full_class_for_odd_defects():
    orbit = sigma_star("aaaa", 3, AB)
    assert orbit.shape == "full"
    assert orbit.cardinality() == 16
    assert orbit.materialize() == frozenset(AB.words_of_length(4))


def test_orbit_full_class_for_three_letters():
    orbit = sigma_star("abc", 2, ABC)
    assert orbit.shape == "full"
    assert orbit.cardinality() == 27


def test_orbit_degenerate_below_defect_count():
    orbit = sigma_star("a", 2, AB)
    assert orbit.shape == "singleton"
    assert orbit.materialize() == frozenset({"a"})


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_binary_orbits_match_reachability(n, k):
    w = ("ab" * 3)[:n]
    assert sigma_star(w, k, AB).materialize() == bfs_orbit(w, k, ("a", "b"))


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_ternary_orbits_match_reachability(n, k):
    w = ("abc" * 2)[:n]
    assert sigma_star(w, k, ABC).materialize() == bfs_orbit(w, k, ("a", "b", "c"))


# --- classification ---------------------------------------------------------

def even_class(n, alphabet=AB):
    from codekit.words import parity_ones

    return frozenset(
        w for w in alphabet.words_of_length(n) if parity_ones(w, alphabet) == "even"
    )


def odd_class(n, alphabet=AB):
    return frozenset(alphabet.words_of_length(n)) - even_class(n, alphabet)


def test_classify_even_class():
    assert classify_sigma_closed(fin(even_class(4)), 2) == Classification("even", n=4)


def test_classify_odd_class():
    assert classify_sigma_closed(fin(odd_class(5)), 4) == Classification("odd", n=5)


def test_classify_full_class():
    x = fin(frozenset(AB.words_of_length(3)))
    assert classify_sigma_closed(x, 1) == Classification("full", n=3)


def test_classify_short_subset():
    x = fin({"aaaaa", "aaba", "aab", "ba", "b"})
    assert classify_sigma_closed(x, 6) == Classification("short_subset", n=6)


def test_classify_rejects_non_codes():
    result = classify_sigma_closed(fin({"a", "ab", "ba"}), 1)
    assert result.kind == "not_code"
    assert verify_double_factorization(result.witness, fin({"a", "ab", "ba"}))


def test_classify_reports_escapes():
    result = classify_sigma_closed(fin({"ab"}), 1)
    assert result.kind == "not_closed"
    assert result.witness == ("ab", "aa")


def test_classify_on_regular_representation():
    x = Language.regular(Language.finite(even_class(4), AB).nfa())
    assert not x.is_finite_repr
    assert classify_sigma_closed(x, 2) == Classification("even", n=4)


def test_classify_uniform_family():
    x = fin(frozenset(AB.words_of_length(4)))
    assert classify_Sigma_closed(x, 2) == Classification("uniform", n=4)


def test_parity_class_escapes_the_cumulative_family():
    result = classify_Sigma_closed(fin(even_class(4)), 2)
    assert result.kind == "not_closed"
    assert result.witness == ("aaaa", "aaab")


def test_single_letter_escapes():
    result = classify_Sigma_closed(fin({"a"}), 1)
    assert result.kind == "not_closed"
    assert result.witness == ("a", "b")


def test_uniform_classification_requires_content():
    with pytest.raises(ValueError):
        classify_Sigma_closed(fin(set()), 1)


# --- complete embeddings for substitution -----------------------------------

def test_short_embedding_of_single_letter():
    results = sigma_complete_embedding(fin({"a"}), 2)
    assert [lang.words() for lang in results] == [frozenset({"a", "b"})]


def test_short_embedding_of_square_pair():
    results = sigma_complete_embedding(fin({"aa"}), 2)
    assert [lang.words() for lang in results] == [
        frozenset({"aa", "ab", "ba", "bb"})
    ]


def test_long_words_embed_in_their_length_class():
    results = sigma_complete_embedding(fin({"000", "011"}, BITS), 2)
    assert [lang.words() for lang in results] == [
        frozenset(BITS.words_of_length(3))
    ]


def test_mixed_lengths_have_no_embedding():
    assert sigma_complete_embedding(fin({"b", "aaa"}), 2) == []


def test_infinite_input_has_no_embedding():
    # an infinite code has no common length, so no length class holds it
    x = compile_expression("(aa|bb)*.ab", AB)
    assert sigma_complete_embedding(x, 1) == []


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: embed_delta_closed_complete(fin({"a", "ab", "b"}), 3), "not a code"),
        (lambda: embed_delta_closed_complete(fin({"ab"}), 1), "not closed under delta:1"),
        (lambda: is_maximal_delta_closed(fin({"a", "ab", "b"}), 3), "not a code"),
        (lambda: assert_empty_family(spec("iota:1"), fin({"a", "ab", "b"})), "not a code"),
        (lambda: sigma_complete_embedding(fin({"a", "ab", "b"}), 1), "not a code"),
        (lambda: sigma_complete_embedding(fin({"a", "b"}), 1), "already complete"),
    ],
)
def test_failed_preconditions_have_their_own_type(call, message):
    with pytest.raises(PreconditionError, match=message):
        call()


def test_embedding_rejects_complete_input():
    with pytest.raises(ValueError):
        sigma_complete_embedding(fin({"a", "b"}), 1)


def test_embedding_rejects_non_code():
    with pytest.raises(ValueError):
        sigma_complete_embedding(fin({"a", "ab", "ba"}), 1)


# --- small-step orbit properties --------------------------------------------

@settings(max_examples=40, deadline=None)
@given(st.text(alphabet="abc", min_size=2, max_size=4), st.integers(1, 3))
def test_one_substitution_inside_double_defect_square(w, k):
    if k > len(w):
        k = len(w)
    oracle = EditOracle(("a", "b", "c"))
    square = set()
    for u in oracle.sigma_exact(w, k):
        square |= oracle.sigma_exact(u, k)
    assert oracle.sigma_exact(w, 1) <= square


@settings(max_examples=40, deadline=None)
@given(st.text(alphabet="ab", min_size=3, max_size=6), st.integers(2, 4))
def test_two_substitutions_inside_double_defect_square(w, k):
    if len(w) < k + 1:
        k = len(w) - 1
    oracle = EditOracle(("a", "b"))
    square = set()
    for u in oracle.sigma_exact(w, k):
        square |= oracle.sigma_exact(u, k)
    assert oracle.sigma_exact(w, 2) <= square


@settings(max_examples=30, deadline=None)
@given(st.text(alphabet="ab", min_size=3, max_size=7))
def test_even_defect_orbits_preserve_parity(w):
    from codekit.words import parity_ones

    for k in (2, 4):
        if len(w) < k + 1:
            continue
        for v in bfs_orbit(w, k, ("a", "b")):
            assert parity_ones(v, AB) == parity_ones(w, AB)


@pytest.mark.parametrize("w,k", [("aaa", 2), ("abab", 2), ("aabab", 4)])
def test_orbit_plus_shorter_word_is_never_a_code(w, k):
    orbit = sigma_star(w, k, AB).materialize()
    for n in range(1, len(w)):
        for v in AB.words_of_length(n):
            assert not sardinas_patterson(fin(orbit | {v})).is_code


@settings(max_examples=40, deadline=None)
@given(st.text(alphabet="ab", min_size=1, max_size=5), st.integers(1, 4))
def test_substitution_is_xor_with_fixed_weight(w, k):
    image = relation_image_word(spec(f"sigma:{k}"), AB, w)
    masks = (
        u
        for u in AB.words_of_length(len(w))
        if sum(1 for c in u if c == "b") == k
    )
    expected = frozenset(xor_add(w, u, AB) for u in masks) if k <= len(w) else frozenset()
    assert image == expected
