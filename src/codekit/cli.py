"""Command-line front end.

Every request takes one path through ``main``: argv is parsed, the
subcommand's language (inline expression or @file) is loaded and its
``--rel`` edit relation parsed, where it has them, and the handler set
on the subcommand's parser runs one decision procedure or construction
on them.  A negative verdict carries a witness, which
``--verify-witness`` replays before the report is emitted.  A new
subcommand is one ``add(...)`` line in ``build_parser`` plus its
handler.  Exit codes separate
the verdict channel from the error channel: 0 holds or constructed,
1 fails, 2 undecidable here, 3 bad usage or input, 4 budget exhausted,
5 internal error (a failed self-check such as a witness replay), and
141 (128 + SIGPIPE, as shells report it) when stdout closes before the
report is written, as when it is piped into ``head``.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys
from fractions import Fraction

from . import channel as channel_mod
from . import closed as closed_mod
from . import independence as indep_mod
from .analysis import (
    Distribution,
    DoubleFactorization,
    _least_non_factor,
    _maximal_witness,
    _prefix_pair,
    is_code,
    measure_partial,
    sardinas_patterson,
    verify_double_factorization,
)
from .automata import (
    Language,
    compile_expression,
    factors,
    least_member,
    reverse,
    star,
    truncate,
    union,
    words_upto,
)
from .errors import (
    BudgetExceededError,
    ParseError,
    PreconditionError,
    UnsupportedError,
    UsageError,
)
from .transducers import EditRelationSpec, relation_image, relation_image_word
from .words import Alphabet, format_word, parse_alphabet, parse_word

MEMBER_SAMPLE_LIMIT = 1024


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(3, f"{self.prog}: error: {message}\n")


def _add_budget(p):
    p.add_argument(
        "--budget",
        type=int,
        default=closed_mod.DEFAULT_CANDIDATE_BUDGET,
        help="candidate evaluation cap",
    )


@functools.cache
def build_parser() -> _Parser:
    """The argument parser, built on first use and shared by every later
    ``main`` call in the process; parsing leaves it unchanged.  Its
    ``subcommands`` maps each subcommand's name to its own parser, which
    ``_parse_args`` calls directly."""
    parser = _Parser(prog="codekit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    parser.subcommands = sub.choices

    def add(name, run, help_text, language=True, rel=False, verify=False):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(run=run)
        if language:
            p.add_argument("language", help="expression, or @file with an alphabet header")
            p.add_argument("--alphabet", help="alphabet letters, e.g. ab")
            p.add_argument(
                "--max-word-len",
                type=int,
                default=None,
                help="truncate the language to words up to this length",
            )
        if rel:
            p.add_argument(
                "--rel", required=True, help="edit relation, e.g. delta:1 or Lambda:2"
            )
        if verify:
            p.add_argument(
                "--verify-witness",
                action="store_true",
                help="replay any reported witness through an independent check",
            )
        p.add_argument(
            "--format", choices=("text", "json"), default="text", help="report style"
        )
        return p

    add("code", _cmd_code, "unique decipherability", verify=True)
    add("prefix", _cmd_prefix, "no codeword is a proper prefix of another", verify=True)
    add("suffix", _cmd_suffix, "no codeword is a proper suffix of another", verify=True)
    add("bifix", _cmd_bifix, "prefix and suffix at once", verify=True)

    p = add("measure", _cmd_measure, "probability mass of the language up to a length")
    p.add_argument("--max-len", type=int, required=True)
    p.add_argument("--probs", help="letter weights, e.g. a=1/2,b=1/2")

    add("complete", _cmd_complete, "every word occurs inside some message", verify=True)
    add("maximal", _cmd_maximal, "no strictly larger code exists", verify=True)
    add("independent", _cmd_independent, "the relation maps no codeword onto another",
        rel=True, verify=True)
    add("errcorrect", _cmd_errcorrect, "distinct codewords never corrupt alike",
        rel=True, verify=True)

    p = add("image-code", _cmd_image_code, "code-ness of the relation's image",
            rel=True, verify=True)
    p.add_argument(
        "--closure", choices=("hat", "bar"), default="bar", help="image variant"
    )

    add("extend", _cmd_extend, "a word enlarging a non-complete independent code", rel=True)

    p = add("er-complete", _cmd_er_complete, "embed a non-complete code into a complete one")
    p.add_argument("--sample-len", type=int, default=6)

    add("closed", _cmd_closed, "the relation never leaves the set", rel=True, verify=True)

    p = add("sigma-star", _cmd_sigma_star, "substitution orbit of a word", language=False)
    p.add_argument("word")
    p.add_argument("--alphabet", required=True)
    p.add_argument("--k", type=int, required=True)

    p = add("classify-closed", _cmd_classify_closed, "shape of a substitution-closed code",
            rel=True, verify=True)
    _add_budget(p)

    p = add("enum-delta-closed", _cmd_enum_delta_closed, "all deletion-closed codes",
            language=False)
    p.add_argument("--alphabet", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--limit", type=int, default=None)
    _add_budget(p)

    p = add("embed-closed", _cmd_embed_closed, "complete closed codes containing the input",
            rel=True)
    _add_budget(p)

    p = add("simulate", _cmd_simulate, "noisy block transmission", language=False, rel=True)
    p.add_argument("--code", required=True, dest="language")
    p.add_argument("--alphabet")
    p.add_argument("--max-word-len", type=int, default=None)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--len", type=int, required=True, dest="message_length")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=1)

    return parser


# --- input loading ----------------------------------------------------------

def _load_language(args) -> Language:
    text = args.language
    if text.startswith("@"):
        lang = _read_language_file(text[1:], args.alphabet)
    else:
        if not args.alphabet:
            raise ParseError("--alphabet is required for inline expressions")
        lang = compile_expression(text, parse_alphabet(args.alphabet))
    if args.max_word_len is not None:
        lang = truncate(lang, args.max_word_len)
    return lang


def _read_language_file(path: str, declared: str | None) -> Language:
    try:
        with open(path, encoding="utf-8") as handle:
            raw = handle.read()
    except OSError as e:
        raise ParseError(f"cannot read language file: {e}") from None
    lines = [ln.strip() for ln in raw.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines or not lines[0].startswith("alphabet:"):
        raise ParseError("language file must start with 'alphabet: <letters>'")
    alphabet = parse_alphabet(lines[0].split(":", 1)[1].strip())
    if declared and tuple(declared) != alphabet.letters:
        raise ParseError("--alphabet disagrees with the language file header")
    exprs = lines[1:]
    if not exprs:
        raise ParseError("language file declares no expressions")
    return union(*[compile_expression(expr, alphabet) for expr in exprs])


def _parse_probs(alphabet: Alphabet, text: str | None) -> Distribution:
    if text is None:
        return Distribution.uniform(alphabet)
    probs = {}
    for part in text.split(","):
        if "=" not in part:
            raise ParseError(f"bad weight entry {part!r}")
        letter, value = part.split("=", 1)
        letter = letter.strip()
        if letter not in alphabet:
            raise ParseError(f"unknown letter {letter!r} in weights")
        if letter in probs:
            raise ParseError(f"letter {letter!r} weighted twice")
        try:
            probs[letter] = Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as e:
            raise ParseError(f"bad weight {value!r}: {e}") from None
    return Distribution(alphabet, tuple(probs.get(c, Fraction(0)) for c in alphabet))


# --- rendering --------------------------------------------------------------

def _fact(seq) -> str:
    return "".join(f"({format_word(x)})" for x in seq)


def _render_double(w: DoubleFactorization) -> str:
    return f"{format_word(w.word)} = {_fact(w.left)} = {_fact(w.right)}"


def _render_value(value):
    if isinstance(value, (list, tuple)):
        return " ".join(_render_value(v) for v in value)
    return str(value)


def _emit(payload: dict, fmt: str) -> None:
    if fmt == "json":
        # a measure's Fraction, the one value json cannot write, as "p/q"
        print(json.dumps(payload, sort_keys=True, default=str))
        return
    for key, value in payload.items():
        if isinstance(value, list) and value and isinstance(value[0], list):
            print(f"{key}:")
            for item in value:
                print(f"  {_render_value(item)}")
        else:
            print(f"{key}: {_render_value(value)}")


# --- witnesses --------------------------------------------------------------

def _suffix_pair(lang: Language):
    """The prefix pair of the set reversed once, or None for a suffix code."""
    pair = _prefix_pair(reverse(lang))
    return pair and (pair[0][::-1], pair[1][::-1])


def _render_pair(middle: str):
    return lambda pair: f"{format_word(pair[0])} {middle} {format_word(pair[1])}"


def _double_replay(lang: Language):
    return lambda w: verify_double_factorization(w, lang)


def _outside_replay(lang: Language, spec: EditRelationSpec):
    # x is a member and y is not, so y != x and the closure does not matter
    def replay(pair):
        x, y = pair
        ok = lang.member(x) and not lang.member(y)
        return ok and y in relation_image_word(spec, lang.alphabet, x)

    return replay


def _witnessed(args, payload: dict, witness, render, replay, detail=None):
    """Exit 1 with the rendered witness; --verify-witness replays it first."""
    payload["witness"] = render(witness)
    if detail is not None:
        payload["detail"] = detail
    if args.verify_witness:
        if not replay(witness):
            raise RuntimeError("internal: witness failed replay")
        payload["witness_check"] = "verified"
    return 1, payload


def _verdict(args, prop, witness, render, replay, spec=None, detail=None):
    """Exit code and payload of a yes/no question; a witness of None
    means the property holds."""
    payload = {"property": prop}
    if spec is not None:
        payload["relation"] = spec.render()
    if witness is None:
        payload["verdict"] = "holds"
        return 0, payload
    payload["verdict"] = "fails"
    return _witnessed(args, payload, witness, render, replay, detail)


# --- subcommands ------------------------------------------------------------

def _cmd_code(args, lang, spec):
    verdict = sardinas_patterson(lang)
    return _verdict(args, "code", verdict.witness, _render_double, _double_replay(lang))


def _affix(args, name, lang, pair, relation):
    """``relation(y, x)`` is what the pair (x, y) claims: y starts or ends with x."""

    def replay(xy):
        x, y = xy
        return lang.member(x) and lang.member(y) and x != y and relation(y, x)

    return _verdict(args, name, pair, _render_pair("begins or ends"), replay)


def _cmd_prefix(args, lang, spec):
    return _affix(args, "prefix-code", lang, _prefix_pair(lang), str.startswith)


def _cmd_suffix(args, lang, spec):
    return _affix(args, "suffix-code", lang, _suffix_pair(lang), str.endswith)


def _cmd_bifix(args, lang, spec):
    pair = _prefix_pair(lang)
    if pair is not None:
        return _affix(args, "bifix-code", lang, pair, str.startswith)
    return _affix(args, "bifix-code", lang, _suffix_pair(lang), str.endswith)


def _cmd_measure(args, lang, spec):
    dist = _parse_probs(lang.alphabet, args.probs)
    value = measure_partial(lang, dist, args.max_len)
    return 0, {
        "measure": value,
        "max_len": args.max_len,
        "decimal": f"{float(value):.6f}",
    }


def _cmd_complete(args, lang, spec):
    return _verdict(
        args,
        "complete",
        _least_non_factor(lang),
        format_word,
        lambda w: not factors(star(lang)).member(w),
        detail="no message contains this word as a factor",
    )


def _cmd_maximal(args, lang, spec):

    def replay(w):
        extended = union(lang, Language.finite((w,), lang.alphabet))
        return not lang.member(w) and is_code(extended)

    return _verdict(
        args,
        "maximal-code",
        _maximal_witness(lang),
        format_word,
        replay,
        detail="adjoining this word keeps the set a code",
    )


def _cmd_independent(args, lang, spec):
    report = indep_mod.is_independent(lang, spec)
    bar = spec.with_closure("antireflexive")

    def replay(pair):
        x, y = pair
        ok = lang.member(x) and lang.member(y)
        return ok and y in relation_image_word(bar, lang.alphabet, x)

    render = _render_pair("maps onto")
    return _verdict(args, "independent", report.witness, render, replay, spec)


def _cmd_errcorrect(args, lang, spec):
    report = indep_mod.is_error_correcting(lang, spec)

    def replay(triple):
        x, y, common = triple
        ok = x != y and lang.member(x) and lang.member(y)
        ok = ok and common in relation_image_word(spec, lang.alphabet, x)
        return ok and common in relation_image_word(spec, lang.alphabet, y)

    def render(triple):
        x, y, common = triple
        return (
            f"{format_word(x)} and {format_word(y)} both corrupt to "
            f"{format_word(common)}"
        )

    return _verdict(args, "error-correcting", report.witness, render, replay, spec)


def _cmd_image_code(args, lang, spec):
    if args.closure == "hat":
        verdict = indep_mod.hat_image_is_code(lang, spec)
        closure = "reflexive"
    else:
        verdict = indep_mod.underline_image_is_code(lang, spec)
        closure = "antireflexive"

    def replay(w):
        img = relation_image(spec.with_closure(closure), lang.alphabet, lang)
        return verify_double_factorization(w, img)

    name = f"image-code[{args.closure}]"
    return _verdict(args, name, verdict.witness, _render_double, replay, spec)


def _cmd_extend(args, lang, spec):
    w = indep_mod.witness_independent_extension(lang, spec)
    return 0, {"relation": spec.render(), "word": format_word(w)}


def _cmd_er_complete(args, lang, spec):
    if args.sample_len < 0:
        raise UsageError(f"sample_len must be at least 0, got {args.sample_len}")
    completed = indep_mod.er_complete(lang)
    added = least_member(completed, lang, False)
    sample = [
        format_word(w)
        for w in sorted(words_upto(completed, args.sample_len), key=lang.alphabet.lex_key)
    ]
    return 0, {
        "added": format_word(added),
        "sample_len": args.sample_len,
        "sample": sample,
    }


def _cmd_closed(args, lang, spec):
    report = closed_mod.is_closed(lang, spec)
    render = _render_pair("maps outside, onto")
    return _verdict(
        args, "closed", report.witness, render, _outside_replay(lang, spec), spec
    )


def _cmd_sigma_star(args, lang, spec):
    alphabet = parse_alphabet(args.alphabet)
    word = parse_word(args.word, alphabet)
    orbit = closed_mod.sigma_star(word, args.k, alphabet)
    payload = {
        "word": format_word(word),
        "k": args.k,
        "shape": orbit.shape,
        "cardinality": orbit.cardinality(),
    }
    if orbit.cardinality() <= MEMBER_SAMPLE_LIMIT:
        members = sorted(orbit.materialize(), key=alphabet.lex_key)
        payload["members"] = [format_word(w) for w in members]
    return 0, payload


def _cmd_classify_closed(args, lang, spec):
    if spec.kind == "sigma":
        result = closed_mod.classify_sigma_closed(
            lang, spec.k, candidate_budget=args.budget
        )
    elif spec.kind == "Sigma":
        result = closed_mod.classify_Sigma_closed(lang, spec.k)
    else:
        raise ParseError("classification applies to sigma:k or Sigma:k")
    payload = {"relation": spec.render(), "class": result.kind}
    if result.n is not None:
        payload["n"] = result.n
    if result.kind == "not_code":
        render, replay = _render_double, _double_replay(lang)
    elif result.kind == "not_closed":
        render = _render_pair("maps outside, onto")
        replay = _outside_replay(lang, spec)
    else:
        return 0, payload
    return _witnessed(args, payload, result.witness, render, replay)


def _cmd_enum_delta_closed(args, lang, spec):
    alphabet = parse_alphabet(args.alphabet)
    codes = []
    for found in closed_mod.enumerate_delta_closed(
        args.k, alphabet, limit=args.limit, candidate_budget=args.budget
    ):
        codes.append(sorted(found.words(), key=alphabet.lex_key))
    return 0, {"k": args.k, "count": len(codes), "codes": codes}


def _cmd_embed_closed(args, lang, spec):
    if spec.kind == "delta":
        results = closed_mod.embed_delta_closed_complete(
            lang, spec.k, candidate_budget=args.budget
        )
    elif spec.kind == "sigma":
        results = closed_mod.sigma_complete_embedding(
            lang, spec.k, candidate_budget=args.budget
        )
    else:
        raise ParseError("embedding applies to delta:k or sigma:k")
    alphabet = lang.alphabet
    rendered = [sorted(r.words(), key=alphabet.lex_key) for r in results]
    payload = {"relation": spec.render(), "count": len(rendered), "codes": rendered}
    return (0 if rendered else 1), payload


def _cmd_simulate(args, lang, spec):
    config = channel_mod.ExperimentConfig(
        code=lang,
        spec=spec,
        p=args.p,
        message_length=args.message_length,
        trials=args.trials,
        seed=args.seed,
    )
    report = channel_mod.run_experiment(config)
    counts = dataclasses.asdict(report)
    seed = counts.pop("config_seed")
    payload = {"relation": spec.render(), "p": args.p, "seed": seed, **counts}
    for rate in ("correction_rate", "ambiguity_rate", "detection_rate"):
        payload[rate] = getattr(report, rate)
    return 0, payload


def _parse_args(parser: _Parser, argv: list[str]) -> argparse.Namespace:
    """argv parsed once: when its first word names a subcommand, by that
    subcommand's parser alone.  An empty argv, an unknown name or a
    leftover argument goes to the full parser, whose usage errors and
    help are the ones reported."""
    sub = parser.subcommands.get(argv[0]) if argv else None
    if sub is not None:
        args, rest = sub.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
        if not rest:
            return args
    return parser.parse_args(argv)


def main(argv=None) -> int:
    """Run one subcommand on argv (``sys.argv[1:]`` when None), parsed
    once by ``_parse_args``: load its language, parse its relation, call
    its handler with both (None where it has neither), print its report
    and return its exit code."""
    parser = build_parser()
    try:
        args = _parse_args(parser, sys.argv[1:] if argv is None else list(argv))
    except SystemExit as e:
        return int(e.code or 0)
    fmt = getattr(args, "format", "text")
    try:
        lang = _load_language(args) if hasattr(args, "language") else None
        spec = EditRelationSpec.parse(args.rel) if hasattr(args, "rel") else None
        code, payload = args.run(args, lang, spec)
    except ParseError as e:
        print(f"codekit: parse error: {e}", file=sys.stderr)
        return 3
    except UnsupportedError as e:
        code = 2
        payload = {"verdict": "unsupported", "question": e.question, "detail": str(e)}
    except BudgetExceededError as e:
        code = 4
        payload = {"verdict": "budget-exceeded", "detail": str(e)}
    except (UsageError, PreconditionError) as e:
        print(f"codekit: error: {e}", file=sys.stderr)
        return 3
    except Exception as e:
        print(f"codekit: internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 5
    try:
        _emit(payload, fmt)
        sys.stdout.flush()
    except BrokenPipeError:
        _discard_stdout()
        return 141
    return code


def _discard_stdout() -> None:
    """Point stdout at the null device, once its reader has gone, so
    that flushing what is left at shutdown raises nothing."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


if __name__ == "__main__":
    raise SystemExit(main())
