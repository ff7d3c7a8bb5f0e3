import pytest
from hypothesis import given, settings, strategies as st

from codekit.errors import UsageError
from codekit.words import (
    Alphabet,
    complement_word,
    format_word,
    is_unbordered,
    parity_ones,
    parse_word,
    sort_words,
    unbordered_extension,
)

from oracles import (
    EditOracle,
    brute_subsequences,
    hamming,
    indel_distance,
    levenshtein,
    subsequences,
    xor_add,
)

AB = Alphabet("ab")
BITS = Alphabet("01")
ABC = Alphabet("abc")

short_ab = st.text(alphabet="ab", max_size=7)


def test_alphabet_validation():
    with pytest.raises(ValueError):
        Alphabet("a")
    with pytest.raises(ValueError):
        Alphabet("aab")
    with pytest.raises(ValueError):
        AB.check_word("ac")


def test_length_lex_order():
    ws = ["ba", "b", "aa", "a", "", "ab"]
    assert sort_words(ws, AB) == ["", "a", "b", "aa", "ab", "ba"]


def _rank_tuple_key(alphabet):
    """The length-lex key as a tuple of letter ranks, the reference order."""
    rank = {c: i for i, c in enumerate(alphabet.letters)}
    return lambda w: (len(w), tuple(rank[c] for c in w))


# "ab", "abc" and "01" are in code-point order and sort without a key;
# "B" sorts before "a", so "aB" takes the lex_key path
@pytest.mark.parametrize("letters", ["ab", "ba", "cab", "bca", "abc", "01", "aB"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_lex_key_matches_rank_tuple_order(letters, data):
    alphabet = Alphabet(letters)
    words = data.draw(st.lists(st.text(alphabet=letters, max_size=6), max_size=12))
    reference = _rank_tuple_key(alphabet)
    assert sort_words(words, alphabet) == sorted(words, key=reference)
    if words:
        assert min(words, key=alphabet.lex_key) == min(words, key=reference)
        assert max(words, key=alphabet.lex_key) == max(words, key=reference)


def test_lex_key_rejects_foreign_letters():
    with pytest.raises(UsageError) as caught:
        AB.lex_key("abd")
    assert str(caught.value) == "letter 'd' not in alphabet ab"
    with pytest.raises(UsageError) as caught:
        sort_words(["a", "d"], AB)
    assert str(caught.value) == "letter 'd' not in alphabet ab"
    # the first foreign letter in the order given, on either sort path
    for alphabet in (ABC, Alphabet("cab")):
        with pytest.raises(UsageError) as caught:
            sort_words(["ab", "cd", "e"], alphabet)
        assert str(caught.value) == f"letter 'd' not in alphabet {''.join(alphabet)}"


def test_word_rendering():
    assert format_word("") == "eps"
    assert format_word("ab") == "ab"
    assert parse_word("eps", AB) == ""
    assert parse_word(" ab ", AB) == "ab"


def test_subsequences_examples():
    assert subsequences("abab", 2) == {"aa", "ab", "ba", "bb"}
    assert subsequences("ab", 0) == {""}
    assert subsequences("ab", 3) == frozenset()
    assert subsequences("ab", 2) == {"ab"}


@given(short_ab, st.integers(min_value=0, max_value=8))
def test_subsequences_match_index_enumeration(w, m):
    assert subsequences(w, m) == brute_subsequences(w, m)


def test_hamming():
    assert hamming("baa", "aaa") == 1
    assert hamming("ab", "ba") == 2
    assert hamming("", "") == 0
    assert hamming("a", "ab") is None


def test_levenshtein_examples():
    assert levenshtein("ab", "ba") == 2
    assert levenshtein("a", "") == 1
    assert levenshtein("abc", "abc") == 0
    assert levenshtein("aba", "b") == 2


def test_indel_examples():
    assert indel_distance("ab", "ba") == 2
    assert indel_distance("aa", "aba") == 1
    assert indel_distance("", "ab") == 2


@settings(deadline=None)
@given(st.text(alphabet="ab", max_size=5), st.text(alphabet="ab", max_size=5))
def test_levenshtein_matches_bfs(u, v):
    oracle = EditOracle("ab")
    assert levenshtein(u, v) == oracle.bfs_distance(u, v, with_subs=True)


@settings(deadline=None)
@given(st.text(alphabet="ab", max_size=5), st.text(alphabet="ab", max_size=5))
def test_indel_matches_bfs(u, v):
    oracle = EditOracle("ab")
    assert indel_distance(u, v) == oracle.bfs_distance(u, v, with_subs=False)


def test_unbordered():
    assert is_unbordered("b")
    assert is_unbordered("aab")
    assert is_unbordered("bba")
    assert not is_unbordered("bb")
    assert not is_unbordered("aba")
    with pytest.raises(ValueError):
        is_unbordered("")


def test_unbordered_extension_examples():
    assert unbordered_extension("aa", AB) == "b"
    assert unbordered_extension("bb", AB) == "a"
    assert unbordered_extension("ab", AB) == ""


@given(short_ab.filter(bool))
def test_unbordered_extension_minimal(w):
    u = unbordered_extension(w, AB)
    assert is_unbordered(w + u)
    key = AB.lex_key(u)
    for cand in AB.words_upto(len(u)):
        if AB.lex_key(cand) < key:
            assert not is_unbordered(w + cand)


def test_binary_ops():
    assert xor_add("001", "010", BITS) == "011"
    assert complement_word("aab", AB) == "bba"
    assert parity_ones("ab", AB) == "odd"
    assert parity_ones("", AB) == "even"
    assert parity_ones("bb", AB) == "even"
    with pytest.raises(ValueError):
        xor_add("ab", "ba", ABC)
    with pytest.raises(ValueError):
        xor_add("a", "ab", AB)


@given(st.integers(min_value=0, max_value=6).flatmap(
    lambda n: st.tuples(
        st.text(alphabet="01", min_size=n, max_size=n),
        st.text(alphabet="01", min_size=n, max_size=n),
    )
))
def test_xor_involution(pair):
    u, v = pair
    assert xor_add(xor_add(u, v, BITS), v, BITS) == u
    assert xor_add(u, u, BITS) == "0" * len(u)


@given(short_ab)
def test_complement_involution(w):
    assert complement_word(complement_word(w, AB), AB) == w
