import random

import pytest
from hypothesis import given, settings, strategies as st

from unittest.mock import patch

from codekit import automata
from codekit.automata import Language, compile_expression, star
from codekit.errors import BudgetExceededError, ParseError
from codekit.transducers import (
    KINDS,
    EditRelationSpec,
    _least_source,
    build,
    image,
    image_word,
    inverse_spec,
    relation_image,
    relation_image_word,
)
from codekit.words import Alphabet

from oracles import EditOracle, hamming, levenshtein, reference_least_source

AB = Alphabet("ab")
BITS = Alphabet("01")
ABC = Alphabet("abc")

ORACLES = {"ab": EditOracle("ab"), "01": EditOracle("01"), "abc": EditOracle("abc")}


def spec(text):
    return EditRelationSpec.parse(text)


def test_spec_parsing():
    s = spec("delta:2")
    assert (s.kind, s.k, s.closure) == ("delta", 2, "plain")
    assert s.render() == "delta:2"
    assert spec("S:1:hat").closure == "reflexive"
    assert spec("Lambda:2:bar").render() == "Lambda:2:bar"
    for bad in ("delta", "delta:x", "omega:1", "delta:0", "delta:1:tilde"):
        with pytest.raises(ParseError):
            spec(bad)


def test_spec_antireflexive_flag():
    assert spec("delta:3").is_antireflexive_already
    assert spec("Sigma:4").is_antireflexive_already
    assert spec("S:1").is_antireflexive_already
    assert not spec("S:2").is_antireflexive_already
    assert not spec("Lambda:3").is_antireflexive_already


def test_inverse_spec():
    assert inverse_spec(spec("delta:2")).kind == "iota"
    assert inverse_spec(spec("I:3")).kind == "Delta"
    assert inverse_spec(spec("Sigma:2")).kind == "Sigma"


def test_normal_form_guard():
    from codekit.transducers import Transducer

    with pytest.raises(ValueError):
        Transducer(AB, 1, frozenset((0,)), frozenset((0,)), (((0, "", "", 0)),))
    # an arc reading epsilon must move to a higher state
    for src, dst in ((0, 0), (1, 0)):
        with pytest.raises(ValueError):
            Transducer(AB, 2, frozenset((0,)), frozenset((1,)), ((src, "", "a", dst),))


def test_delta_image_paper_set():
    x = Language.finite({"aaaa", "aaab", "abb", "bab"}, AB)
    got = image(build(spec("delta:1"), AB), x)
    assert got.to_finite().words() == {"aaa", "aab", "ab", "ba", "bb"}


def test_sigma_images():
    assert image_word(build(spec("sigma:2"), BITS), "01") == {"10"}
    assert image_word(build(spec("sigma:2"), BITS), "001") == {"111", "010", "100"}
    assert image_word(build(spec("sigma:1"), AB), "aa") == {"ba", "ab"}


def test_lambda1_image():
    got = image_word(build(spec("Lambda:1"), AB), "a")
    assert got == {"", "aa", "ba", "ab", "b"}


def test_delta_at_full_length():
    assert image_word(build(spec("delta:2"), AB), "ab") == {""}
    assert image_word(build(spec("delta:3"), AB), "ab") == frozenset()


def test_s_and_lambda_contain_identity_for_k2():
    for kind in ("S", "Lambda"):
        t = build(spec(f"{kind}:2"), AB)
        for w in ("", "a", "ab", "bba"):
            assert w in image_word(t, w)
    # exactly one pass cannot keep a word fixed
    t1 = build(spec("S:1"), AB)
    assert "ab" not in image_word(t1, "ab")
    assert "" not in image_word(t1, "")


def test_image_of_empty_word():
    assert image_word(build(spec("iota:2"), AB), "") == {"aa", "ab", "ba", "bb"}
    assert image_word(build(spec("delta:1"), AB), "") == frozenset()
    assert "" in image_word(build(spec("S:2"), AB), "")


def test_image_of_a_long_word():
    w = "".join(random.Random(7).choice("ab") for _ in range(2000))
    positions = range(len(w) + 1)
    assert image_word(build(spec("delta:1"), AB), w) == {
        w[:i] + w[i + 1 :] for i in positions[:-1]
    }
    assert image_word(build(spec("iota:1"), AB), w) == {
        w[:i] + c + w[i:] for i in positions for c in "ab"
    }


@pytest.mark.parametrize("kind", ["delta", "iota", "sigma", "Delta", "I", "Sigma", "S", "Lambda"])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_images_match_oracle_small(kind, k):
    oracle = ORACLES["ab"]
    t = build(EditRelationSpec(kind, k), AB)
    for w in AB.words_upto(4):
        assert image_word(t, w) == oracle.image(w, kind, k), (kind, k, w)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_sigma_image_is_exact_hamming_shell(k):
    t = build(EditRelationSpec("sigma", k), ABC)
    for w in ABC.words_upto(3):
        got = image_word(t, w)
        assert got == {
            v for v in ABC.words_of_length(len(w)) if hamming(v, w) == k
        }


@given(st.text(alphabet="ab", max_size=5), st.integers(min_value=1, max_value=3))
@settings(max_examples=60)
def test_Sigma_is_hamming_ball(w, k):
    got = image_word(build(EditRelationSpec("Sigma", k), AB), w)
    assert got == {
        v for v in AB.words_of_length(len(w)) if 1 <= (hamming(v, w) or 99) <= k
    }


@given(st.text(alphabet="ab", max_size=4), st.integers(min_value=1, max_value=3))
@settings(max_examples=50)
def test_Lambda_sandwich(w, k):
    got = image_word(build(EditRelationSpec("Lambda", k), AB), w)
    near = {
        v
        for n in range(max(0, len(w) - k), len(w) + k + 1)
        for v in AB.words_of_length(n)
        if 1 <= levenshtein(w, v) <= k
    }
    assert near <= got
    for v in got:
        assert levenshtein(w, v) <= k


def test_relation_image_word_closures():
    assert relation_image_word(spec("delta:1:hat"), AB, "ab") == {"ab", "a", "b"}
    assert relation_image_word(spec("S:2:bar"), AB, "a") == (
        image_word(build(spec("S:2"), AB), "a") - {"a"}
    )
    assert relation_image_word(spec("sigma:1:bar"), AB, "a") == {"b"}
    for rel in ("delta:1:hat", "delta:1:bar"):
        assert build(spec(rel), AB) == build(spec("delta:1"), AB)


def test_relation_image_language_closures():
    x = Language.finite({"ab"}, AB)
    hat = relation_image(spec("delta:1:hat"), AB, x)
    assert hat.to_finite().words() == {"ab", "a", "b"}
    bar = relation_image(spec("S:2:bar"), AB, x)
    assert "ab" not in bar.words()
    from codekit.automata import compile_expression

    infinite = compile_expression("(aa)*.a", AB)
    with pytest.raises(ValueError):
        relation_image(spec("S:2:bar"), AB, infinite)


def test_image_regular_language():
    from codekit.automata import compile_expression, equivalent

    lang = compile_expression("(ab)*", AB)
    got = image(build(spec("delta:1"), AB), lang)
    # one letter deleted from (ab)^n
    assert got.member("b")
    assert got.member("a")
    assert got.member("aab")
    assert got.member("abb")
    assert not got.member("")
    assert not got.member("ab")
    assert not equivalent(got, lang)


def test_machines_and_images_read_the_state_cap_when_built(monkeypatch):
    lang = compile_expression("(aab|abb|ba)*", AB)
    machine = build(spec("delta:1"), AB)
    assert image(machine, lang).nfa().n == 12
    monkeypatch.setattr(automata, "DEFAULT_STATE_CAP", 10)
    with pytest.raises(BudgetExceededError, match="^transducer image exceeded 10 states$"):
        image(machine, lang)
    build.cache_clear()  # a machine is checked when it is built
    assert build(spec("delta:9"), AB).n == build(spec("Lambda:8"), AB).n == 10
    for text in ("delta:10", "Lambda:9"):
        with pytest.raises(BudgetExceededError, match="^relation machine exceeded 10 states$"):
            build(spec(text), AB)


def test_image_cap_counts_every_pair_of_the_product(monkeypatch):
    # 8 language states times 4 machine states: 32 pairs, of which only
    # 25 are reachable, so a cap of 30 refuses the product
    lang = compile_expression("aa|ab|bb|aaaab|abbbb", AB)
    machine = build(spec("delta:3"), AB)
    assert (lang.nfa().n, machine.n) == (8, 4)
    monkeypatch.setattr(automata, "DEFAULT_STATE_CAP", 30)
    with pytest.raises(BudgetExceededError, match="^transducer image exceeded 30 states$"):
        image(machine, lang)


@settings(max_examples=80, deadline=None)
@given(
    st.sets(st.text(alphabet="ab", max_size=3), min_size=1, max_size=4),
    st.sampled_from(KINDS),
    st.integers(1, 2),
    st.text(alphabet="ab", max_size=4),
)
def test_least_source_matches_reference(words, kind, k, y):
    finite = Language.finite(words, AB)
    for lang in (finite, Language.regular(finite.nfa()), star(finite)):
        want = reference_least_source(kind, k, lang, y)
        assert _least_source(EditRelationSpec(kind, k), lang, y) == want


def test_least_source_tests_no_member():
    # the least source of an escaped word of (a^80)* under delta:3 was
    # found by testing 85401 words of its inverse image one at a time
    lang = compile_expression(f"({'a' * 80})*", AB)
    with patch.object(Language, "member", side_effect=AssertionError) as member:
        source = _least_source(spec("delta:3"), lang, "a" * 77)
    assert source == "a" * 80
    assert member.call_count == 0
