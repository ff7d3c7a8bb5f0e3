"""Block-channel simulator behavior."""

from __future__ import annotations

import random
import warnings
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from codekit import channel
from codekit.analysis import is_code
from codekit.automata import Language
from codekit.channel import (
    Block,
    ExperimentConfig,
    corrupt,
    decode,
    encode,
    run_experiment,
)
from codekit.errors import UsageError
from codekit.independence import is_independent
from codekit.transducers import KINDS, EditRelationSpec, relation_image_word
from codekit.words import Alphabet
from oracles import reference_corrupt, reference_decode, reference_experiment

AB = Alphabet(("a", "b"))

CORRECTING = Language.finite({"aabbb", "bbbbaa"}, AB)
AMBIGUOUS = Language.finite({"aaaa", "aaab", "abb", "bab"}, AB)


def spec(text):
    return EditRelationSpec.parse(text)


# --- encode -----------------------------------------------------------------

def test_encode_uses_canonical_codeword_order():
    x = Language.finite({"bb", "a"}, AB)
    assert encode([0, 1, 0], x) == ["a", "bb", "a"]


def test_encode_empty_message():
    assert encode([], CORRECTING) == []


def test_encode_rejects_out_of_range_symbols():
    with pytest.raises(ValueError):
        encode([2], Language.finite({"a", "bb"}, AB))


def test_encode_rejects_infinite_codes():
    from codekit.automata import star

    with pytest.raises(ValueError):
        encode([0], star(Language.finite({"ab"}, AB)))


# --- the draw ---------------------------------------------------------------

def test_the_draw_is_the_one_random_makes():
    # the sampler's one assumption: on this interpreter, randrange(n) and
    # choice(seq) draw n.bit_length() bits until they read less than n,
    # and leave the generator where _below leaves it
    for seed in range(50):
        for n in range(1, 400):
            ours, ranged, chosen = (random.Random(seed) for _ in range(3))
            assert channel._below(ours.getrandbits, n) == ranged.randrange(n) == (
                chosen.choice(range(n))
            ), (seed, n)
            assert len({g.getrandbits(64) for g in (ours, ranged, chosen)}) == 1


# --- corrupt ----------------------------------------------------------------

def test_zero_probability_never_corrupts():
    blocks = corrupt(["aabbb"] * 20, spec("Delta:2"), AB, 0.0, seed=5)
    assert all(not b.corrupted for b in blocks)


def test_certain_corruption_stays_inside_the_relation():
    blocks = corrupt(["aabbb"] * 50, spec("Delta:2"), AB, 1.0, seed=9)
    image = relation_image_word(spec("Delta:2:bar"), AB, "aabbb")
    for b in blocks:
        assert b.corrupted
        assert b.received in image


def test_corruption_is_deterministic_per_seed():
    one = corrupt(["aabbb", "bbbbaa"] * 10, spec("Delta:2"), AB, 0.5, seed=3)
    two = corrupt(["aabbb", "bbbbaa"] * 10, spec("Delta:2"), AB, 0.5, seed=3)
    other = corrupt(["aabbb", "bbbbaa"] * 10, spec("Delta:2"), AB, 0.5, seed=4)
    assert one == two
    assert one != other


@pytest.mark.parametrize("p", [float("nan"), -0.1, 1.5])
def test_corrupt_rejects_probabilities_outside_the_unit_interval(p):
    with pytest.raises(UsageError) as caught:
        corrupt(["aabbb"], spec("Delta:2"), AB, p, seed=0)
    assert str(caught.value) == "corruption probability must lie in [0, 1]"


def test_corrupt_rejects_a_negative_seed():
    # Random(-3) would seed as Random(3)
    with pytest.raises(UsageError, match="^seed must be at least 0, got -3$"):
        corrupt(["aabbb"], spec("Delta:2"), AB, 0.5, seed=-3)


@pytest.mark.parametrize("p", [0, 1])
def test_corrupt_accepts_the_ends_of_the_unit_interval(p):
    blocks = corrupt(["aabbb"], spec("Delta:2"), AB, p, seed=0)
    assert blocks[0].corrupted == bool(p)


def test_noiseless_channel_spells_no_image(monkeypatch):
    def refuse(*args):
        raise AssertionError("an image was spelled with p = 0")

    monkeypatch.setattr(channel, "relation_image_word", refuse)
    assert corrupt(["aabbb", "bbbbaa"] * 5, spec("Lambda:3"), AB, 0.0, seed=1) == [
        Block(x, x) for x in ["aabbb", "bbbbaa"] * 5
    ]
    config = ExperimentConfig(AMBIGUOUS, spec("Lambda:2"), 0.0, 200, 2, 0)
    report = run_experiment(config)
    assert (report.corrupted, report.exact) == (0, 400)


def test_blocks_with_empty_image_pass_through():
    blocks = corrupt(["ab"], spec("delta:3"), AB, 1.0, seed=1)
    assert blocks == [Block("ab", "ab")]


def test_single_edit_chain_can_substitute():
    # across seeds, one deletion plus one insertion rewrites baa to aaa
    seen = set()
    for seed in range(200):
        blocks = corrupt(["baa"], spec("Lambda:1"), AB, 1.0, seed=seed)
        seen.add(blocks[0].received)
    assert "aaa" in seen


# --- decode -----------------------------------------------------------------

def test_clean_stream_decodes_exactly():
    received = ["aabbb", "bbbbaa", "aabbb"]
    report = decode(received, CORRECTING, spec("Delta:2"))
    assert report.exact == 3
    assert [o.kind for o in report.outcomes] == ["exact"] * 3


def test_corrupted_stream_is_fully_corrected():
    sent = ["aabbb", "bbbbaa", "aabbb", "bbbbaa"]
    blocks = corrupt(sent, spec("Delta:2"), AB, 1.0, seed=11)
    report = decode([b.received for b in blocks], CORRECTING, spec("Delta:2"))
    assert report.corrected == 4
    for block, outcome in zip(blocks, report.outcomes):
        assert outcome.kind == "corrected"
        assert outcome.decoded == block.sent


def test_collisions_decode_ambiguously():
    # aaa arises from both aaaa and aaab by one deletion
    report = decode(["aaa"], AMBIGUOUS, spec("delta:1"))
    assert report.ambiguous == 1
    assert report.outcomes[0].candidates == ("aaaa", "aaab")


def test_unrelated_word_is_detected():
    report = decode(["bbbb"], AMBIGUOUS, spec("delta:1"))
    assert report.detected == 1
    assert report.outcomes[0].candidates == ()


def test_decode_warns_on_dependent_code():
    with pytest.warns(UserWarning):
        decode(["a"], Language.finite({"a", "ab"}, AB), spec("delta:1"))


def test_decode_warns_on_non_code():
    with pytest.warns(UserWarning):
        decode(["a"], Language.finite({"a", "ab", "ba"}, AB), spec("delta:1"))


@given(
    st.frozensets(st.text(alphabet="ab", min_size=1, max_size=4), min_size=1, max_size=5),
    st.sampled_from(KINDS),
    st.integers(1, 2),
)
@settings(max_examples=150, deadline=None)
def test_decode_warns_exactly_on_dependent_codes(words, kind, k):
    # the warning is read off the channel table, not a second image pass
    code = Language.finite(words, AB)
    assume(is_code(code))
    rel = EditRelationSpec(kind, k)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        decode([], code, rel)
    assert bool(caught) == (not is_independent(code, rel).independent)


# --- experiments ------------------------------------------------------------

def test_error_correcting_code_always_recovers():
    config = ExperimentConfig(
        code=CORRECTING,
        spec=spec("Delta:2"),
        p=1.0,
        message_length=25,
        trials=40,
        seed=123,
    )
    report = run_experiment(config)
    assert report.blocks == 1000
    assert report.corrupted == 1000
    assert report.correction_rate == Fraction(1)
    assert report.ambiguity_rate == Fraction(0)
    assert report.miscorrected == 0
    assert report.restored_messages == 40


def test_detecting_code_never_slips_but_can_stall():
    config = ExperimentConfig(
        code=AMBIGUOUS,
        spec=spec("delta:1"),
        p=1.0,
        message_length=30,
        trials=30,
        seed=7,
    )
    report = run_experiment(config)
    assert report.detection_rate == Fraction(1)
    assert report.exact == 0
    assert report.ambiguous > 0


def test_noiseless_experiment_is_all_exact():
    config = ExperimentConfig(
        code=CORRECTING,
        spec=spec("Delta:2"),
        p=0.0,
        message_length=10,
        trials=5,
        seed=1,
    )
    report = run_experiment(config)
    assert report.exact_rate == Fraction(1)
    assert report.restored_messages == 5


def test_experiments_reproducible_by_seed():
    def run(seed):
        return run_experiment(
            ExperimentConfig(
                code=AMBIGUOUS,
                spec=spec("delta:1"),
                p=0.4,
                message_length=20,
                trials=10,
                seed=seed,
            )
        )

    assert run(42) == run(42)
    assert run(42) != run(43)


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(CORRECTING, spec("delta:1"), 1.5, 10, 10, 0)
    with pytest.raises(ValueError):
        ExperimentConfig(CORRECTING, spec("delta:1"), 0.5, 0, 10, 0)
    with pytest.raises(ValueError):
        ExperimentConfig(CORRECTING, spec("delta:1"), 0.5, 10, 0, 0)
    with pytest.raises(UsageError, match="^seed must be at least 0, got -7$"):
        ExperimentConfig(CORRECTING, spec("delta:1"), 0.5, 10, 10, -7)


# --- differential checks against the oracle replay --------------------------

# "a" has an empty image under delta:2 and sigma:2, so some hits leave
# their block untouched; "a|ab|ba" is not even a code.
SMALL_CODES = ("a|bb|aba", "a|ab|ba")


@pytest.mark.parametrize("p", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("kind", KINDS)
def test_experiment_matches_reference_replay(kind, k, p):
    for text in SMALL_CODES:
        code = Language.finite(set(text.split("|")), AB)
        for seed in range(3):
            config = ExperimentConfig(code, spec(f"{kind}:{k}"), p, 12, 3, seed)
            assert run_experiment(config) == reference_experiment(config)


@st.composite
def experiment_configs(draw):
    letters = draw(st.sampled_from(["ab", "abc"]))
    # a word shorter than k has an empty image under delta:k and sigma:k,
    # and eps makes any larger set a non-code
    words = draw(
        st.frozensets(st.text(alphabet=letters, max_size=3), min_size=1, max_size=5)
    )
    p = draw(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0, 1)))
    return ExperimentConfig(
        Language.finite(words, Alphabet(letters)),
        EditRelationSpec(draw(st.sampled_from(KINDS)), draw(st.integers(1, 2))),
        p,
        draw(st.integers(1, 6)),
        draw(st.integers(1, 3)),
        draw(st.integers(0, 2**32)),
    )


@given(experiment_configs())
@settings(max_examples=200, deadline=None)
def test_random_experiments_match_reference_replay(config):
    assert run_experiment(config) == reference_experiment(config)


def test_experiment_builds_no_per_block_objects(monkeypatch):
    def refuse(*args):
        raise AssertionError("run_experiment built a per-block object")

    monkeypatch.setattr(channel, "Block", refuse)
    monkeypatch.setattr(channel, "BlockOutcome", refuse)
    config = ExperimentConfig(AMBIGUOUS, spec("Lambda:2"), 0.5, 200, 2, 0)
    report = run_experiment(config)
    # the golden counts of `codekit simulate` for this experiment
    assert (report.corrupted, report.exact, report.corrected, report.ambiguous) == (
        231, 177, 37, 186
    )


def test_experiment_with_empty_images_matches_reference_replay():
    # no word of length 2 has an image under delta:3
    config = ExperimentConfig(
        Language.finite({"ab", "aaaab"}, AB), spec("delta:3"), 1.0, 20, 4, 5
    )
    report = run_experiment(config)
    assert report == reference_experiment(config)
    assert 0 < report.corrupted < report.blocks


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("kind", KINDS)
def test_corrupt_and_decode_match_reference_replay(kind, k):
    words = ["a", "bb", "aba"]
    # "ab" is not a codeword: corrupt takes any block
    blocks = words * 4 + ["ab"]
    rel = spec(f"{kind}:{k}")
    for seed in range(3):
        got = corrupt(blocks, rel, AB, 0.5, seed)
        received = reference_corrupt(blocks, kind, k, AB.letters, 0.5, random.Random(seed))
        assert got == [Block(x, r) for x, r in zip(blocks, received)]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            report = decode(received, Language.finite(set(words), AB), rel)
        want = reference_decode(received, words, kind, k, AB.letters)
        assert [(o.kind, o.decoded, o.candidates) for o in report.outcomes] == want
        assert [report.exact, report.corrected, report.ambiguous, report.detected] == [
            sum(v == verdict for v, _, _ in want)
            for verdict in ("exact", "corrected", "ambiguous", "detected")
        ]


def test_decode_is_silent_on_independent_code():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        decode(["aabb"], CORRECTING, spec("Delta:2"))


def test_experiment_runs_silently_on_non_code():
    config = ExperimentConfig(
        Language.finite({"a", "ab", "ba"}, AB), spec("delta:1"), 0.5, 10, 2, 0
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_experiment(config) == reference_experiment(config)
