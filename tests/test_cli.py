"""Exit codes, witness lines, and report formats of the command line tool."""

import contextlib
import io
import itertools
import json
import os
import random
import shutil
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from codekit import automata, cli
from codekit.automata import Language
from codekit.cli import main
from codekit.words import Alphabet

from oracles import EditOracle, dangling_suffixes, subset_table_builds


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- the documented contract examples ---------------------------------------

def test_non_code_exits_one_with_witness(capsys):
    code, out, _ = run(capsys, "code", "--alphabet", "ab", "a|ab|ba")
    assert code == 1
    assert "aba = (a)(ba) = (ab)(a)" in out


def test_closed_five_word_code_exits_zero(capsys):
    code, out, _ = run(
        capsys, "closed", "--alphabet", "ab", "aa|ab|bb|aaaab|abbbb", "--rel", "delta:3"
    )
    assert code == 0
    assert "holds" in out


def test_independent_regular_code_exits_zero(capsys):
    code, out, _ = run(
        capsys, "independent", "--alphabet", "ab", "(ba)*.(a|bb)", "--rel", "sigma:1"
    )
    assert code == 0
    assert "holds" in out


# --- verdict channel --------------------------------------------------------

def test_code_holds(capsys):
    code, out, _ = run(capsys, "code", "--alphabet", "ab", "aa|bb")
    assert code == 0
    assert "verdict: holds" in out


def test_epsilon_member_witness_uses_eps(capsys):
    code, out, _ = run(capsys, "code", "--alphabet", "ab", "a*")
    assert code == 1
    assert "eps" in out


def test_verified_witness_marker(capsys):
    code, out, _ = run(
        capsys, "code", "--alphabet", "ab", "a|ab|ba", "--verify-witness"
    )
    assert code == 1
    assert "witness_check: verified" in out


def test_prefix_suffix_bifix_witnesses(capsys):
    code, out, _ = run(
        capsys, "prefix", "--alphabet", "ab", "a|ab|ba", "--verify-witness"
    )
    assert code == 1
    assert "a begins or ends ab" in out
    code, out, _ = run(
        capsys, "suffix", "--alphabet", "ab", "a|ba", "--verify-witness"
    )
    assert code == 1
    assert "a begins or ends ba" in out
    code, out, _ = run(
        capsys, "bifix", "--alphabet", "ab", "aa|baa", "--verify-witness"
    )
    assert code == 1
    assert "witness_check: verified" in out
    code, out, _ = run(capsys, "bifix", "--alphabet", "ab", "ab|ba")
    assert code == 0


@given(st.frozensets(st.text(alphabet="ab", max_size=4), min_size=1, max_size=6))
@settings(max_examples=120, deadline=None)
def test_finite_affix_pair_matches_automaton_path(words):
    # a finite set takes its pair from the words; its automaton form
    # takes it from quotients of the DFA; both must give the same pair
    finite = Language.finite(words, Alphabet("ab"))
    forms = (finite, Language.regular(finite.nfa()))
    for command in ("prefix", "suffix", "bifix"):
        args = cli.build_parser().parse_args(
            [command, "--alphabet", "ab", "a", "--verify-witness"]
        )
        results = [args.run(args, lang, None) for lang in forms]
        assert results[0] == results[1]


def test_measure_is_exact(capsys):
    code, out, _ = run(
        capsys, "measure", "--alphabet", "ab", "aa|ab|bb|aaaab|abbbb", "--max-len", "5"
    )
    assert code == 0
    assert "measure: 13/16" in out


def test_measure_custom_weights(capsys):
    code, out, _ = run(
        capsys,
        "measure",
        "--alphabet",
        "ab",
        "a|bb",
        "--max-len",
        "3",
        "--probs",
        "a=1/3,b=2/3",
    )
    assert code == 0
    assert "measure: 7/9" in out


def test_measure_rejects_a_negative_length_in_both_forms(capsys):
    # {eps, a} once measured 0 as words and 1 as an automaton at -1
    for expr in ("eps|a", "a*"):
        code, out, err = run(
            capsys, "measure", "--alphabet", "ab", expr, "--max-len", "-1"
        )
        assert code == 3, expr
        assert out == ""
        assert "max_len must be at least 0, got -1" in err


def test_complete_and_maximal_failures_share_a_non_factor(capsys):
    code, out, _ = run(
        capsys, "complete", "--alphabet", "ab", "aa|bb", "--verify-witness"
    )
    assert code == 1
    assert "witness_check: verified" in out
    code, out, _ = run(
        capsys, "maximal", "--alphabet", "ab", "a|ba", "--verify-witness"
    )
    assert code == 1
    assert "witness_check: verified" in out


def test_maximal_witness_is_unbordered_when_the_least_non_factor_is_not(capsys):
    # the least non-factor baaba overlaps codewords on both sides:
    # aaaabaabaabaaaab = (aa)(aa)(baaba)(ab)(aaaab) = (aaaab)(aa)(baaba)(aa)(ab)
    x = "aa|ab|bb|aaaab|abbbb"
    code, out, _ = run(capsys, "complete", "--alphabet", "ab", x)
    assert code == 1
    assert "witness: baaba\n" in out
    code, out, _ = run(capsys, "maximal", "--alphabet", "ab", x, "--verify-witness")
    assert code == 1
    assert "witness: babbaa\nde" in out
    assert "witness_check: verified" in out


def test_independent_failure_witness(capsys):
    code, out, _ = run(
        capsys,
        "independent",
        "--alphabet",
        "ab",
        "a|ab|ba",
        "--rel",
        "delta:1",
        "--verify-witness",
    )
    assert code == 1
    assert "ab maps onto a" in out
    assert "witness_check: verified" in out


def test_errcorrect_failure_witness(capsys):
    code, out, _ = run(
        capsys,
        "errcorrect",
        "--alphabet",
        "ab",
        "aaaa|aaab|abb|bab",
        "--rel",
        "delta:1",
        "--verify-witness",
    )
    assert code == 1
    assert "abb and bab both corrupt to ab" in out


def test_image_code_variants(capsys):
    code, out, _ = run(
        capsys,
        "image-code",
        "--alphabet",
        "ab",
        "aabb|bbaa",
        "--rel",
        "delta:1",
        "--closure",
        "hat",
        "--verify-witness",
    )
    assert code == 1
    assert "witness_check: verified" in out
    code, out, _ = run(
        capsys,
        "image-code",
        "--alphabet",
        "ab",
        "aabb|bbaa",
        "--rel",
        "delta:1",
        "--closure",
        "bar",
    )
    assert code == 0


def test_closed_failure_witness(capsys):
    code, out, _ = run(
        capsys,
        "closed",
        "--alphabet",
        "ab",
        "aa|ab",
        "--rel",
        "sigma:2",
        "--verify-witness",
    )
    assert code == 1
    assert "ab maps outside, onto ba" in out


def test_classify_closed_shapes(capsys):
    code, out, _ = run(
        capsys,
        "classify-closed",
        "--alphabet",
        "ab",
        "(a|b).(a|b).(a|b).(a|b)",
        "--rel",
        "Sigma:2",
    )
    assert code == 0
    assert "class: uniform" in out
    code, out, _ = run(
        capsys,
        "classify-closed",
        "--alphabet",
        "ab",
        "aaaa|aabb|abab|abba|baab|baba|bbaa|bbbb",
        "--rel",
        "sigma:2",
    )
    assert code == 0
    assert "class: even" in out
    code, out, _ = run(
        capsys,
        "classify-closed",
        "--alphabet",
        "ab",
        "aa|ab",
        "--rel",
        "sigma:2",
        "--verify-witness",
    )
    assert code == 1
    assert "class: not_closed" in out


# --- constructions ----------------------------------------------------------

def test_extend_prints_word(capsys):
    code, out, _ = run(capsys, "extend", "--alphabet", "ab", "aa", "--rel", "delta:1")
    assert code == 0
    assert "word: bba" in out


def test_er_complete_reports_added_word_and_sample(capsys):
    code, out, _ = run(capsys, "er-complete", "--alphabet", "ab", "aa|bb")
    assert code == 0
    assert "added: aabab" in out
    code, out, _ = run(capsys, "er-complete", "--alphabet", "ab", "aa", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["added"] == "b"
    assert payload["sample"] == sorted(payload["sample"], key=lambda w: (len(w), w))


def test_er_complete_walks_the_table_of_factors(capsys):
    # 63 words of a leaf-split prefix code, as bench/workloads.py's
    # random_prefix_code(Random(1), 64) less one word: the least
    # non-factor has 20 letters, and one member test for every word of
    # each length from there took 67 s
    rng = random.Random(1)
    leaves = [""]
    while len(leaves) < 64:
        w = leaves.pop(rng.randrange(len(leaves)))
        leaves += [w + "a", w + "b"]
    leaves.remove("babaaaaba")
    with patch.object(Language, "member", side_effect=AssertionError) as member:
        code, out, _ = run(capsys, "er-complete", "--alphabet", "ab", "|".join(leaves))
    assert code == 0
    assert "added: bbabbabaabbbabaaaaba" in out.splitlines()
    assert member.call_count == 0


def test_infinite_complete_code_is_maximal_and_not_completed(capsys):
    code, out, err = run(capsys, "er-complete", "--alphabet", "ab", "a*.b")
    assert code == 3
    assert err == "codekit: error: precondition failed: input is already complete\n"
    code, out, _ = run(capsys, "maximal", "--alphabet", "ab", "a*.b")
    assert code == 0
    assert "verdict: holds\n" in out


def test_maximal_of_a_non_code_names_the_one_precondition(capsys):
    code, out, err = run(capsys, "maximal", "--alphabet", "ab", "a|ab|b")
    assert code == 3
    assert out == ""
    assert err == "codekit: error: precondition failed: input is not a code\n"


def test_sigma_star_lists_members(capsys):
    code, out, _ = run(
        capsys, "sigma-star", "abab", "--alphabet", "ab", "--k", "2", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["shape"] == "parity"
    assert payload["cardinality"] == 8
    assert payload["members"] == [
        "aaaa", "aabb", "abab", "abba", "baab", "baba", "bbaa", "bbbb",
    ]


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_sigma_star_of_the_empty_word_prints_eps(capsys, fmt):
    code, out, _ = run(
        capsys, "sigma-star", "eps", "--alphabet", "ab", "--k", "1", "--format", fmt
    )
    assert code == 0
    if fmt == "json":
        assert json.loads(out)["members"] == ["eps"]
    else:
        assert "members: eps\n" in out


def test_enum_delta_closed_k2(capsys):
    code, out, _ = run(
        capsys, "enum-delta-closed", "--alphabet", "ab", "--k", "2", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 3
    assert payload["codes"] == [["a"], ["a", "b"], ["b"]]


def test_enum_delta_closed_limit(capsys):
    argv = ["enum-delta-closed", "--alphabet", "ab", "--k", "3", "--format", "json"]
    code, out, _ = run(capsys, *argv, "--limit", "0")
    assert code == 0
    assert json.loads(out)["count"] == 0
    code, out, err = run(capsys, *argv, "--limit", "-1")
    assert code == 3
    assert out == ""
    assert err == "codekit: error: limit must be at least 0, got -1\n"


def test_embed_closed_exit_reflects_existence(capsys):
    code, out, _ = run(
        capsys, "embed-closed", "--alphabet", "ab", "aa|ab|bb", "--rel", "delta:3"
    )
    assert code == 0
    assert "aa ab ba bb" in out
    code, out, _ = run(
        capsys,
        "embed-closed",
        "--alphabet",
        "ab",
        "aa|ab|bb|aaaab|abbbb",
        "--rel",
        "delta:3",
    )
    assert code == 1
    code, out, _ = run(
        capsys, "embed-closed", "--alphabet", "ab", "aa", "--rel", "sigma:2"
    )
    assert code == 0
    assert "aa ab ba bb" in out


def test_simulate_is_reproducible(capsys):
    argv = [
        "simulate",
        "--code",
        "aabbb|bbbbaa",
        "--alphabet",
        "ab",
        "--rel",
        "Delta:2",
        "--p",
        "1.0",
        "--len",
        "10",
        "--seed",
        "7",
        "--trials",
        "5",
    ]
    code, first, _ = run(capsys, *argv)
    assert code == 0
    assert "correction_rate: 1" in first
    code, second, _ = run(capsys, *argv)
    assert first == second


# --- one answer per set, whatever its form ---------------------------------

VERDICT_ARGVS = [
    ["code"], ["prefix"], ["suffix"], ["bifix"], ["complete"], ["maximal"],
    *(["independent", "--rel", rel] for rel in (
        "delta:1", "iota:1", "sigma:1", "sigma:2", "Delta:2", "S:1", "S:2",
        "Lambda:1", "Lambda:2",
    )),
    *(["errcorrect", "--rel", rel] for rel in ("delta:1", "sigma:1", "Lambda:1")),
    *(["image-code", "--rel", rel, "--closure", closure]
      for rel in ("delta:1", "sigma:1") for closure in ("hat", "bar")),
    *(["closed", "--rel", rel] for rel in ("delta:1", "iota:1", "sigma:1")),
    *(["classify-closed", "--rel", rel] for rel in ("sigma:1", "Sigma:1")),
]


def run_quietly(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=30, deadline=None)
@given(st.sets(st.text(alphabet="ab", max_size=4), min_size=1, max_size=5))
def test_both_forms_print_the_same_report(words):
    # X is held as words, (X).eps* as an automaton
    expr = "|".join(w or "eps" for w in words)
    argvs = [[*argv, "--verify-witness"] for argv in VERDICT_ARGVS]
    for command, *options in [*argvs, ["measure", "--max-len", "5"]]:
        for fmt in ("text", "json"):
            reports = [
                run_quietly(command, "--alphabet", "ab", form, *options, "--format", fmt)
                for form in (expr, f"({expr}).eps*")
            ]
            assert reports[0] == reports[1], (command, options, fmt)


@st.composite
def small_word_sets(draw):
    letters = draw(st.sampled_from(["ab", "abc"]))
    words = draw(st.sets(st.text(alphabet=letters, max_size=4), min_size=1, max_size=6))
    return letters, words


@settings(max_examples=250, deadline=None, derandomize=True)
@given(small_word_sets())
# codes X whose least non-factor v is bordered, with X + {v} no code:
# maximal must report the least unbordered non-factor instead
@example(("ab", {"aa", "aabb", "ab", "bbaab"}))
@example(("ab", {"a", "aba", "abbaa"}))
def test_commands_check_themselves_on_small_sets(case):
    # code-ness by the dangling suffixes, a finite code's completeness by
    # its Kraft sum, the affix codes by startswith and endswith over
    # distinct pairs, and closure, independence, error correction and the
    # image's code-ness by the oracle's images, with no codekit call;
    # both forms of the set
    letters, words = case

    def is_code(ws):
        return "" not in ws and "" not in dangling_suffixes(ws)

    oracle = EditOracle(letters)

    def images(kind, k):
        return {x: oracle.image(x, kind, k) for x in words}

    pairs = list(itertools.permutations(words, 2))
    prefix = not any(y.startswith(x) for x, y in pairs)
    suffix = not any(y.endswith(x) for x, y in pairs)
    checks = [(["prefix"], prefix), (["suffix"], suffix), (["bifix"], prefix and suffix)]
    for kind in ("delta", "Lambda"):
        img = images(kind, 1)
        holds = all(img[x].isdisjoint(img[y]) for x, y in itertools.combinations(words, 2))
        checks.append((["errcorrect", "--rel", f"{kind}:1"], holds))
    for kind in ("delta", "iota", "sigma"):
        img = images(kind, 1)
        checks.append((["closed", "--rel", f"{kind}:1"], all(img[x] <= words for x in words)))
    for kind, k in (("delta", 1), ("Lambda", 2)):
        img = images(kind, k)
        holds = all((img[x] - {x}).isdisjoint(words) for x in words)
        checks.append((["independent", "--rel", f"{kind}:{k}"], holds))
    tau = set().union(*images("delta", 1).values())
    for closure, img in (("hat", words | tau), ("bar", tau)):
        checks.append((["image-code", "--rel", "delta:1", "--closure", closure], is_code(img)))
    is_a_code = is_code(words)
    kraft = sum(Fraction(1, len(letters) ** len(w)) for w in words)
    expr = "|".join(w or "eps" for w in words)
    for form in (expr, f"({expr}).eps*"):
        codes = {}
        for command, *options in [
            ["code", "--verify-witness"], ["complete", "--verify-witness"],
            ["maximal", "--verify-witness"], ["er-complete"], ["extend", "--rel", "delta:1"],
        ]:
            code, out, _ = run_quietly(command, "--alphabet", letters, form, *options)
            assert code != 5, (command, form, out)
            if code == 1:
                assert "witness_check: verified\n" in out, (command, form, out)
            codes[command] = code
            if command == "extend" and code == 0:
                w = dict(line.split(": ", 1) for line in out.splitlines())["word"]
                assert w not in words and is_code(words | {w})
        for (command, *options), holds in checks:
            argv = (command, "--alphabet", letters, form, *options, "--verify-witness")
            code, out, _ = run_quietly(*argv)
            assert code == (0 if holds else 1), (argv, out)
            if code == 1:
                assert "witness_check: verified\n" in out, (argv, out)
        assert codes["code"] == (0 if is_a_code else 1)
        if is_a_code:
            assert codes["complete"] == codes["maximal"] == (0 if kraft == 1 else 1)
            assert codes["er-complete"] == (3 if kraft == 1 else 0)
        else:
            assert codes["maximal"] == codes["er-complete"] == codes["extend"] == 3


@pytest.mark.parametrize("expr", ["eps|a", "(eps|a).eps*", "a*"])
def test_empty_word_member_witness_is_the_empty_word(capsys, expr):
    code, out, _ = run(capsys, "code", "--alphabet", "ab", expr, "--verify-witness")
    assert code == 1
    assert "witness: eps = (eps) = (eps)(eps)\n" in out
    code, out, _ = run(capsys, "image-code", "--alphabet", "ab", expr, "--rel",
                       "delta:1", "--closure", "hat", "--verify-witness")
    assert code == 1
    assert "witness: eps = (eps) = (eps)(eps)\n" in out


def test_failing_suffix_reverses_the_set_once(capsys):
    # one table: the reversed set's, read for its prefix pair
    with subset_table_builds() as builds:
        code, out, _ = run(capsys, "suffix", "--alphabet", "ab", "(ba)*.(a|bb)")
    assert code == 1
    assert out.endswith("witness: a begins or ends baa\n")
    assert len(builds) == 1


# --- unsupported channel ----------------------------------------------------

def test_open_questions_exit_two(capsys):
    code, out, _ = run(
        capsys, "independent", "--alphabet", "ab", "(a|b)*", "--rel", "S:2"
    )
    assert code == 2
    assert "question: Q1" in out
    code, out, _ = run(
        capsys, "errcorrect", "--alphabet", "ab", "(ab)*.a", "--rel", "sigma:1"
    )
    assert code == 2
    assert "question: Q2" in out
    code, out, _ = run(
        capsys,
        "image-code",
        "--alphabet",
        "ab",
        "(a|b)*",
        "--rel",
        "S:2",
        "--closure",
        "bar",
        "--format",
        "json",
    )
    assert code == 2
    assert json.loads(out)["question"] == "Q3"


def test_open_questions_need_no_subset_table(capsys):
    # the subset DFA has at least 2^17 states: an infinite set is told
    # from its automaton alone, so each question exits at once, not at
    # the state cap
    expr = "(a|b)*.a." + ".".join(["(a|b)"] * 16)
    for argv, question in (
        (["errcorrect", expr, "--rel", "delta:1"], "Q2"),
        (["independent", expr, "--rel", "Lambda:2"], "Q1"),
        (["image-code", expr, "--rel", "S:2"], "Q3"),
    ):
        with subset_table_builds() as builds:
            code, out, _ = run(capsys, *argv, "--alphabet", "ab")
        assert (code, len(builds)) == (2, 0)
        assert f"question: {question}\n" in out
    argv = ["simulate", "--code", expr, "--alphabet", "ab", "--rel", "delta:1"]
    code, _, err = run(capsys, *argv, "--p", "0.1", "--len", "5")
    assert code == 3
    assert "an infinite code cannot drive the simulator" in err


def test_an_uncovered_letter_is_the_witness_before_any_table_of_x_star(capsys):
    # star(X).trim() here passes the determinization cap (65536 states);
    # c occurs in no member, so the search answers without that table
    expr = "(a|b)*.a." + ".".join(["(a|b)"] * 16)
    code, out, _ = run(capsys, "complete", "--alphabet", "abc", expr)
    assert code == 1
    assert "witness: c\n" in out


def test_both_forms_of_a_word_list_are_read_member_by_member(capsys, monkeypatch):
    # the automaton form's trim table fits under this cap; the search of
    # the set's inverse image beside the set does not
    rng = random.Random(0)
    words = sorted({"".join(rng.choice("ab") for _ in range(16)) for _ in range(60)})
    monkeypatch.setattr(automata, "DEFAULT_STATE_CAP", 1000)
    outs = [
        run(capsys, "independent", "--alphabet", "ab", expr, "--rel", "Lambda:1")
        for expr in ("|".join(words), f"({'|'.join(words)}).eps*")
    ]
    assert outs[0] == outs[1]
    holds = "property: independent\nrelation: Lambda:1\nverdict: holds\n"
    assert outs[0][:2] == (0, holds)


def test_truncation_lifts_the_block(capsys):
    code, out, _ = run(
        capsys,
        "errcorrect",
        "--alphabet",
        "ab",
        "(ab)*.a",
        "--rel",
        "sigma:1",
        "--max-word-len",
        "7",
    )
    assert code == 0


# --- usage channel ----------------------------------------------------------

def test_bad_expression_exits_three(capsys):
    code, _, err = run(capsys, "code", "--alphabet", "ab", "a|(b")
    assert code == 3
    assert "parse error" in err


def test_deep_nesting_exits_three(capsys):
    code, out, err = run(capsys, "code", "--alphabet", "ab", "(" * 1500 + "a" + ")" * 1500)
    assert (code, out) == (3, "")
    assert err == "codekit: parse error: expression nested too deeply\n"


def test_a_letter_weighted_twice_exits_three(capsys):
    argv = ["measure", "--alphabet", "ab", "a", "--max-len", "2", "--probs", "a=1/2,b=1/4,a=3/4"]
    assert run(capsys, *argv) == (3, "", "codekit: parse error: letter 'a' weighted twice\n")


def test_a_run_of_stars_is_one_star(capsys):
    assert run(capsys, "code", "--alphabet", "ab", "a" + "*" * 3000) == run(
        capsys, "code", "--alphabet", "ab", "a*"
    )


def test_missing_alphabet_exits_three(capsys):
    code, _, err = run(capsys, "code", "a|b")
    assert code == 3


def test_bad_relation_exits_three(capsys):
    code, _, err = run(
        capsys, "independent", "--alphabet", "ab", "a|b", "--rel", "gamma:1"
    )
    assert code == 3


def test_unknown_subcommand_exits_three(capsys):
    assert run(capsys, "nosuch")[0] == 3


def test_precondition_failure_exits_three(capsys):
    code, _, err = run(capsys, "extend", "--alphabet", "ab", "a|b", "--rel", "delta:1")
    assert code == 3
    assert "complete" in err


def test_help_exits_zero(capsys):
    assert run(capsys, "--help")[0] == 0


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["nope", "a"],
        ["--help"],
        ["code", "-h"],
        ["code", "--alph", "ab", "a"],
        ["code", "--alphabet=ab", "a"],
        ["code", "--alphabet", "ab", "--", "a"],
        ["code", "--alphabet", "ab", "a", "--format", "xml"],
        ["measure", "--alphabet", "ab", "a", "--max-len", "x"],
        ["code", "--alphabet", "ab", "a", "--bogus"],
        ["code", "--alphabet", "ab", "a", "b"],
        ["code", "--alphabet"],
        ["--alphabet", "ab", "code", "a"],
        ["code", "--alphabet", "ab", "--", "--a"],
        ["sigma-star", "ab", "--alphabet", "ab", "--k", "1"],
    ],
)
def test_argv_is_read_as_the_full_parser_reads_it(capsys, argv):
    # main hands argv to the named subcommand's parser alone; what it
    # parses, or exits with and prints, is what the full parser gives
    parser = cli.build_parser()

    def outcome(parse):
        try:
            got = parse(list(argv))
        except SystemExit as e:
            got = e.code
        return got, capsys.readouterr()

    assert outcome(lambda a: cli._parse_args(parser, a)) == outcome(parser.parse_args)


CODE_ARGV = ["code", "--alphabet", "ab", "a|ab|ba"]
CODE_TEXT = "property: code\nverdict: fails\nwitness: aba = (a)(ba) = (ab)(a)\n"
COMPLETE_ARGV = ["complete", "--alphabet", "ab", "aa|ab|bb"]
COMPLETE_TEXT = (
    "property: complete\nverdict: fails\nwitness: baaba\n"
    "detail: no message contains this word as a factor\n"
)


def test_cached_parser_carries_nothing_between_calls(capsys):
    # main builds its parser once per process; every call must still
    # see only its own arguments
    assert cli.build_parser() is cli.build_parser()
    assert run(capsys, *CODE_ARGV, "--format", "json") == (
        1,
        '{"property": "code", "verdict": "fails", '
        '"witness": "aba = (a)(ba) = (ab)(a)"}\n',
        "",
    )
    assert run(capsys, *CODE_ARGV) == (1, CODE_TEXT, "")
    assert run(capsys, *COMPLETE_ARGV, "--verify-witness") == (
        1,
        COMPLETE_TEXT + "witness_check: verified\n",
        "",
    )
    assert run(capsys, *COMPLETE_ARGV) == (1, COMPLETE_TEXT, "")
    code, out, err = run(capsys, "code", "--alphabet", "ab")
    assert (code, out) == (3, "")
    assert err.endswith(
        "codekit code: error: the following arguments are required: language\n"
    )
    assert run(capsys, *CODE_ARGV) == (1, CODE_TEXT, "")
    code, help_text, err = run(capsys, "--help")
    assert (code, err) == (0, "")
    assert help_text.startswith("usage: codekit")
    assert run(capsys, *COMPLETE_ARGV) == (1, COMPLETE_TEXT, "")
    assert run(capsys, "--help") == (0, help_text, "")


# --- internal error channel -------------------------------------------------

def test_failed_witness_replay_exits_five(capsys, monkeypatch):
    monkeypatch.setattr(cli, "verify_double_factorization", lambda *args: False)
    code, out, err = run(capsys, "code", "--alphabet", "ab", "a|ab|ba", "--verify-witness")
    assert code == 5
    assert out == ""
    assert err == "codekit: internal error: RuntimeError: internal: witness failed replay\n"


def test_prefix_replay_rejects_a_suffix_pair(capsys, monkeypatch):
    # "a" ends "ba" but does not begin it, so the prefix claim is false
    monkeypatch.setattr(cli, "_prefix_pair", lambda lang: ("a", "ba"))
    code, out, err = run(capsys, "prefix", "--alphabet", "ab", "a|ab|ba", "--verify-witness")
    assert code == 5
    assert out == ""
    assert err == "codekit: internal error: RuntimeError: internal: witness failed replay\n"


def test_errcorrect_replay_rejects_one_word_twice(capsys, monkeypatch):
    # aa is in the image of aab, but a word colliding with itself is no pair
    report = cli.indep_mod.ErrorCorrectionReport(False, ("aab", "aab", "aa"))
    monkeypatch.setattr(cli.indep_mod, "is_error_correcting", lambda *args: report)
    argv = ["errcorrect", "--alphabet", "ab", "aab|bba", "--rel", "delta:1"]
    code, out, err = run(capsys, *argv, "--verify-witness")
    assert code == 5
    assert out == ""
    assert err == "codekit: internal error: RuntimeError: internal: witness failed replay\n"


def test_maximal_replay_rejects_a_member(capsys, monkeypatch):
    # adjoining aa to aa|bb leaves the code as it was: it extends nothing
    monkeypatch.setattr(cli, "_maximal_witness", lambda lang: "aa")
    code, out, err = run(capsys, "maximal", "--alphabet", "ab", "aa|bb", "--verify-witness")
    assert code == 5
    assert out == ""
    assert err == "codekit: internal error: RuntimeError: internal: witness failed replay\n"


@pytest.mark.parametrize("fault", [RuntimeError, AssertionError, IndexError, KeyError])
def test_internal_faults_exit_five(capsys, monkeypatch, fault):
    def sardinas_patterson(lang):
        raise fault("inconsistent state")

    monkeypatch.setattr(cli, "sardinas_patterson", sardinas_patterson)
    code, out, err = run(capsys, "code", "--alphabet", "ab", "a|b", "--format", "json")
    assert code == 5
    assert out == ""
    assert err == f"codekit: internal error: {fault.__name__}: {fault('inconsistent state')}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["measure", "--max-len", "-1"],
        ["measure", "--max-len", "2", "--probs", "a=x"],
        ["er-complete", "--sample-len", "-1"],
        ["closed", "--rel", "bogus:1"],
        ["classify-closed", "--rel", "delta:1"],
        ["embed-closed", "--rel", "Lambda:1"],
        ["simulate", "--rel", "delta:1", "--p", "2", "--len", "5"],
    ],
)
def test_a_bad_language_is_reported_before_a_bad_option(capsys, argv):
    language = ["--code", "((a"] if argv[0] == "simulate" else ["((a"]
    code, out, err = run(capsys, *argv, *language, "--alphabet", "ab")
    assert (code, out) == (3, "")
    assert err == "codekit: parse error: missing closing parenthesis (at position 3)\n"


def test_each_subcommand_parser_carries_its_own_handler():
    subcommands = cli.build_parser().subcommands
    handlers = [p.get_default("run") for p in subcommands.values()]
    for handler in handlers:
        assert handler.__name__.startswith("_cmd_")
        assert getattr(cli, handler.__name__) is handler
    assert len(set(handlers)) == len(handlers)


@pytest.mark.parametrize(
    "argv, message",
    [
        (["code", "--alphabet", "a", "a"], "alphabet needs at least two letters"),
        (["code", "--alphabet", "aa", "a"], "alphabet letters must be distinct"),
        (["sigma-star", "abc", "--alphabet", "ab", "--k", "1"], "letter 'c' not in alphabet ab"),
        (["sigma-star", "ab", "--alphabet", "ab", "--k", "0"], "defect count must be at least 1"),
        (["enum-delta-closed", "--alphabet", "ab", "--k", "0"], "defect count must be at least 1"),
        (["measure", "--alphabet", "ab", "a", "--max-len", "2", "--probs", "a=1/2,b=1/3"],
         "letter probabilities must sum to 1"),
        (["measure", "--alphabet", "ab", "a", "--max-len", "2", "--probs", "a=1"],
         "letter probabilities must be positive fractions"),
        (["simulate", "--code", "a|b", "--alphabet", "ab", "--rel", "delta:1", "--p", "2",
          "--len", "3"], "corruption probability must lie in [0, 1]"),
        (["simulate", "--code", "a|b", "--alphabet", "ab", "--rel", "delta:1", "--p", "0",
          "--len", "0"], "message length must be positive"),
        (["simulate", "--code", "a|b", "--alphabet", "ab", "--rel", "delta:1", "--p", "0",
          "--len", "3", "--trials", "0"], "trial count must be positive"),
        (["simulate", "--code", "a*", "--alphabet", "ab", "--rel", "delta:1", "--p", "0",
          "--len", "3"], "an infinite code cannot drive the simulator; truncate it first"),
        (["simulate", "--code", "aa", "--alphabet", "ab", "--rel", "delta:1", "--p", "0",
          "--len", "3", "--max-word-len", "1"], "cannot transmit over an empty code"),
        (["embed-closed", "--alphabet", "ab", "a*", "--rel", "delta:1"],
         "deletion-closed analysis needs a finite set"),
        (["classify-closed", "--alphabet", "ab", "aa", "--rel", "Sigma:1", "--max-word-len", "1"],
         "a nonempty set is required"),
        (["complete", "--alphabet", "ab", "a|b", "--max-word-len", "-1"],
         "max_len must be at least 0, got -1"),
        (["er-complete", "--alphabet", "ab", "aa|b", "--sample-len", "-1"],
         "sample_len must be at least 0, got -1"),
        # Random(-1) would seed as Random(1) and print seed: -1 beside its counts
        (["simulate", "--code", "a|b", "--alphabet", "ab", "--rel", "delta:1", "--p", "0.5",
          "--len", "3", "--seed", "-1"], "seed must be at least 0, got -1"),
    ],
)
def test_usage_errors_exit_three(capsys, argv, message):
    assert run(capsys, *argv) == (3, "", f"codekit: error: {message}\n")


def test_an_internal_value_error_exits_five(capsys, monkeypatch):
    # usage and precondition errors have types of their own, so a plain
    # ValueError is a fault, not bad input
    def fault(*args, **kwargs):
        raise ValueError("internal fault")

    monkeypatch.setattr(cli.closed_mod, "embed_delta_closed_complete", fault)
    code, out, err = run(capsys, "embed-closed", "--alphabet", "ab", "a", "--rel", "delta:4")
    assert (code, out) == (5, "")
    assert err == "codekit: internal error: ValueError: internal fault\n"


# --- budget channel ---------------------------------------------------------

def test_budget_exhaustion_exits_four(capsys):
    code, out, _ = run(
        capsys, "enum-delta-closed", "--alphabet", "ab", "--k", "3", "--budget", "5"
    )
    assert code == 4
    assert "budget-exceeded" in out


@pytest.mark.parametrize(
    "argv",
    [
        ["enum-delta-closed", "--alphabet", "ab", "--k", "3"],
        ["embed-closed", "--alphabet", "ab", "aa", "--rel", "delta:3"],
        ["classify-closed", "--alphabet", "ab", "aa|ab|ba|bb", "--rel", "sigma:1"],
    ],
    ids=["enum-delta-closed", "embed-closed", "classify-closed"],
)
def test_negative_budget_exits_three_and_zero_budget_four(capsys, argv):
    code, out, err = run(capsys, *argv, "--budget", "-1")
    assert (code, out) == (3, "")
    assert err == "codekit: error: candidate budget must be at least 0, got -1\n"
    code, out, _ = run(capsys, *argv, "--budget", "0")
    assert code == 4
    assert out.startswith("verdict: budget-exceeded\n")


def test_image_product_past_the_state_cap_exits_four(capsys):
    # 1000 random length-40 words share few suffixes, so merging equal
    # futures leaves 21159 states: (21159 + 1) * (4 + 1) pairs > 65536,
    # refused before any arc of the product is built
    rng = random.Random(1)
    words = ["".join(rng.choice("ab") for _ in range(40)) for _ in range(1000)]
    argv = ["closed", "--alphabet", "ab", f"({'|'.join(words)})*", "--rel", "delta:4"]
    tracemalloc.start()
    try:
        code, out, _ = run(capsys, *argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 4
    assert out == (
        "verdict: budget-exceeded\ndetail: transducer image exceeded 65536 states\n"
    )
    assert peak < 32 << 20


def test_relation_machine_past_the_state_cap_exits_four(capsys):
    # 70001 machine states: refused before any of its arcs is built
    argv = ["closed", "--alphabet", "ab", "aa|ab", "--rel", "delta:70000"]
    tracemalloc.start()
    try:
        code, out, _ = run(capsys, *argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 4
    assert out == (
        "verdict: budget-exceeded\ndetail: relation machine exceeded 65536 states\n"
    )
    assert peak < 4 << 20


def test_a_relation_machine_past_the_state_cap_exits_four_before_any_bound(capsys):
    # a bound on one image under Lambda:10^9 would have two billion bits;
    # the word list hands over to the product path, which refuses the machine
    argv = ["closed", "--alphabet", "ab", "aa|ab", "--rel", "Lambda:1000000000"]
    code, out, _ = run(capsys, *argv)
    assert code == 4
    assert out == (
        "verdict: budget-exceeded\ndetail: relation machine exceeded 65536 states\n"
    )


@pytest.mark.parametrize("command", ["closed", "independent"])
def test_an_empty_set_holds_under_a_machine_past_the_state_cap(capsys, command):
    # a set with no members tests no image, so no machine is built
    argv = ["--alphabet", "ab", "aa|ab", "--rel", "delta:70000", "--max-word-len", "0"]
    code, out, _ = run(capsys, command, *argv)
    assert code == 0
    assert out.splitlines()[-1] == "verdict: holds"


# --- closed stdout ----------------------------------------------------------

class _ClosedPipe:
    """A stdout whose reader has gone, with no file descriptor."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        pass


@pytest.mark.parametrize(
    "argv",
    [
        ["enum-delta-closed", "--alphabet", "ab", "--k", "3"],
        ["enum-delta-closed", "--alphabet", "ab", "--k", "3", "--format", "json"],
        ["enum-delta-closed", "--alphabet", "ab", "--k", "3", "--budget", "5"],
    ],
    ids=["report", "json-report", "budget-payload"],
)
def test_closed_stdout_exits_141_quietly(capsys, monkeypatch, argv):
    monkeypatch.setattr(sys, "stdout", _ClosedPipe())
    assert main(argv) == 141
    assert capsys.readouterr().err == ""


# --- language files ---------------------------------------------------------

def test_language_file_round_trip(tmp_path, capsys):
    path = tmp_path / "five.lang"
    path.write_text(
        "# comment lines and blanks are skipped\n"
        "alphabet: ab\n"
        "aa|ab|bb\n"
        "\n"
        "aaaab\n"
        "abbbb\n"
    )
    code, out, _ = run(capsys, "closed", f"@{path}", "--rel", "delta:3")
    assert code == 0
    code, out, _ = run(capsys, "measure", f"@{path}", "--max-len", "5")
    assert "13/16" in out


def test_language_file_header_required(tmp_path, capsys):
    path = tmp_path / "bad.lang"
    path.write_text("aa|bb\n")
    assert run(capsys, "code", f"@{path}")[0] == 3


def test_language_file_alphabet_mismatch(tmp_path, capsys):
    path = tmp_path / "five.lang"
    path.write_text("alphabet: ab\naa|bb\n")
    assert run(capsys, "code", f"@{path}", "--alphabet", "abc")[0] == 3


def test_missing_language_file(capsys):
    assert run(capsys, "code", "@/no/such/file.lang")[0] == 3


# --- json formatting --------------------------------------------------------

def test_json_reports_are_sorted_and_parseable(capsys):
    code, out, _ = run(
        capsys, "code", "--alphabet", "ab", "a|ab|ba", "--format", "json"
    )
    assert code == 1
    payload = json.loads(out)
    assert list(payload) == sorted(payload)
    assert payload["verdict"] == "fails"


def test_json_simulate_renders_fractions_as_strings(capsys):
    code, out, _ = run(
        capsys,
        "simulate",
        "--code",
        "aabbb|bbbbaa",
        "--alphabet",
        "ab",
        "--rel",
        "Delta:2",
        "--p",
        "1.0",
        "--len",
        "5",
        "--seed",
        "1",
        "--trials",
        "2",
        "--format",
        "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["correction_rate"] == "1"
    assert payload["blocks"] == 10


def test_witness_does_not_depend_on_hash_seed():
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    argv = [
        sys.executable, "-m", "codekit.cli", "image-code", "--alphabet", "ab",
        "aabb|bbaa", "--rel", "S:2", "--closure", "bar",
    ]
    outputs = set()
    for seed in "0123":
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path)
        proc = subprocess.run(argv, capture_output=True, text=True, env=env)
        assert proc.returncode == 1
        outputs.add(proc.stdout)
    assert len(outputs) == 1


# --- console script ---------------------------------------------------------

def test_installed_entry_point_runs():
    exe = shutil.which("codekit")
    if exe is None:
        pytest.skip("console script not installed")
    proc = subprocess.run(
        [exe, "code", "--alphabet", "ab", "a|ab|ba"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1
    assert "aba" in proc.stdout
