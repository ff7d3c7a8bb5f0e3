"""The three benchmark workloads: inputs from a seed, ops, and checks.

Each workload is a closed loop with one caller: an op runs to
completion before the next one starts.  ``cycle()`` yields one full
pass over the workload's inputs as ``(key, op)`` pairs, in an order
drawn from the seed, so that every run measures whole passes and the
mix of inputs is the same at every seed.  ``check()`` compares each
recorded output with a reference codekit did not produce and returns
the indices of the records that are wrong.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import itertools
import json
import random
import re
import warnings
from pathlib import Path

import reference as ref

from codekit import channel, cli, closed
from codekit.automata import compile_expression
from codekit.transducers import EditRelationSpec
from codekit.words import Alphabet

HERE = Path(__file__).resolve().parent

# An op that ends a stream without producing output; it is timed into
# the run's wall clock but is not an op of its own.
END = object()


class Workload:
    name = ""
    deadline_s = 0.0

    def cycle(self):
        raise NotImplementedError

    def check(self, records) -> set[int]:
        """Indices of records whose output is missing or wrong."""
        raise NotImplementedError

    def work(self, records) -> int:
        return len(records)


# --- decide ------------------------------------------------------------------

@dataclasses.dataclass
class Request:
    argv: list[str]
    exit: int
    lang: ref.RefLanguage | None = None
    expect: dict = dataclasses.field(default_factory=dict)

    @property
    def command(self) -> str:
        return self.argv[0]


def _req(command, expr, letters, exit, *extra, verify=True, **expect):
    argv = [command, "--alphabet", letters, expr, *extra]
    if verify:
        argv.append("--verify-witness")
    return Request(argv, exit, ref.RefLanguage(expr, letters), expect)


R1 = "(ba)*.(a|bb)"
R2 = "(a.b*.a)|(b.a*.b)"
R3 = "(a.b*.c)|(c.a*.b)"
XPLUS = "(ab|ba|a).(ab|ba|a)*"
CODE_PLUS = "(aab|abb|ba).(aab|abb|ba)*"
CODE_STAR = "(aab|abb|ba)*"
FOUR = "aaaa|aaab|abb|bab"
FIVE = "aaaaa|abbbb|babab|bbaab"
README_CLOSED = "aa|ab|bb|aaaab|abbbb"

# The fixed part of the pool.  Expected exit codes are verdicts known by
# construction (prefix codes are codes, X+ of a code is not) or by the
# brute-force checks in test_bench.py; negative witnesses are replayed
# in check_request.
FIXED = [
    _req("code", R1, "ab", 0),
    _req("code", R2, "ab", 0),
    _req("code", R3, "abc", 0),
    _req("code", XPLUS, "ab", 1),
    _req("code", CODE_PLUS, "ab", 1),
    _req("code", CODE_STAR, "ab", 1),
    _req("code", "a|ab|ba", "ab", 1),
    _req("code", FOUR, "ab", 0),
    _req("prefix", R1, "ab", 0),
    _req("prefix", R3, "abc", 0),
    _req("suffix", R1, "ab", 1),
    _req("bifix", R2, "ab", 0),
    _req("bifix", "a|ab|bb", "ab", 1),
    _req("measure", R1, "ab", 0, "--max-len", "12", verify=False),
    _req("measure", R3, "abc", 0, "--max-len", "8", verify=False),
    _req("complete", R1, "ab", 0),
    _req("complete", "aa|ab|bb", "ab", 1),
    _req("maximal", R1, "ab", 0),
    _req("maximal", "aa|ab|bb", "ab", 1),
    _req("independent", R1, "ab", 0, "--rel", "sigma:1"),
    _req("independent", FOUR, "ab", 1, "--rel", "Lambda:2"),
    _req("independent", "aabbb|bbbbaa", "ab", 0, "--rel", "Delta:2"),
    _req("errcorrect", FOUR, "ab", 1, "--rel", "delta:1"),
    _req("errcorrect", FIVE, "ab", 1, "--rel", "Lambda:1"),
    _req("errcorrect", "aabbb|bbbbaa", "ab", 0, "--rel", "Delta:2"),
    _req("image-code", FOUR, "ab", 0, "--rel", "delta:1"),
    _req("image-code", R1, "ab", 1, "--rel", "delta:1", "--closure", "hat"),
    _req("extend", "aa|bb", "ab", 0, "--rel", "delta:1", verify=False),
    _req("er-complete", "aa|bb", "ab", 0, verify=False),
    _req("closed", README_CLOSED, "ab", 0, "--rel", "delta:3"),
    _req("closed", R1, "ab", 1, "--rel", "delta:1"),
    Request(["sigma-star", "abab", "--alphabet", "ab", "--k", "2"], 0,
            expect={"shape": "parity"}),
    Request(["sigma-star", "abcab", "--alphabet", "abc", "--k", "2"], 0,
            expect={"shape": "full"}),
    _req("classify-closed", "aa|bb", "ab", 1, "--rel", "sigma:1"),
    _req("classify-closed", "aab|abb", "ab", 1, "--rel", "Sigma:1"),
    _req("classify-closed", "aa|ab|ba|bb", "ab", 0, "--rel", "sigma:1",
         **{"class": "full"}),
    _req("classify-closed", "aaa|abb|bab|bba", "ab", 0, "--rel", "sigma:2",
         **{"class": "even"}),
    _req("embed-closed", "aa", "ab", 0, "--rel", "sigma:1", verify=False, count=1),
]

LARGE_WORDS = 300
MEDIUM_WORDS = 32
BLOCK_LENGTH = 10


def random_prefix_code(rng: random.Random, n: int) -> list[str]:
    """A complete binary prefix code of n words, by random leaf splits."""
    leaves = [""]
    while len(leaves) < n:
        w = leaves.pop(rng.randrange(len(leaves)))
        leaves += [w + "a", w + "b"]
    return leaves


def _finite(command, words, exit):
    return _req(command, "|".join(words), "ab", exit)


def seeded_requests(rng: random.Random) -> list[Request]:
    """Large finite sets: a block code plus sets drawn from the seed."""
    block = ["".join(t) for t in itertools.product("ab", repeat=BLOCK_LENGTH)]
    big = random_prefix_code(rng, LARGE_WORDS)
    suffix = [w[::-1] for w in random_prefix_code(rng, LARGE_WORDS)]
    base = random_prefix_code(rng, LARGE_WORDS)
    x, y = rng.sample(base, 2)
    non_code = base + [x + y]
    medium = random_prefix_code(rng, MEDIUM_WORDS)
    holed = random_prefix_code(rng, MEDIUM_WORDS)
    for _ in range(2):
        holed.pop(rng.randrange(len(holed)))
    return [
        _finite("code", block, 0),
        _finite("code", big, 0),
        _finite("prefix", big, 0),
        _finite("suffix", suffix, 0),
        _finite("code", non_code, 1),
        _finite("prefix", non_code, 1),
        _finite("complete", medium, 0),
        _finite("complete", holed, 1),
        _finite("maximal", holed, 1),
    ]


def run_cli(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv + ["--format", "json"])
    return rc, out.getvalue()


def _relation(req: Request) -> tuple[str, int, str]:
    return ref.parse_relation(req.argv[req.argv.index("--rel") + 1])


def _option(req: Request, name: str) -> str:
    return req.argv[req.argv.index(name) + 1]


def _pair(text: str, middle: str) -> tuple[str, str]:
    m = re.fullmatch(rf"(\S+) {middle} (\S+)", text)
    if m is None:
        raise ValueError(f"malformed witness {text!r}")
    return ref.word(m.group(1)), ref.word(m.group(2))


def _image_member(lang: ref.RefLanguage, f: str, kind: str, k: int, closure: str) -> bool:
    """Whether f lies in the image of lang, by searching its preimages."""
    letters = lang.letters
    if lang.words is not None:
        sources = lang.words
    else:
        sources = lang.upto(len(f) + k)
    return any(f in ref.image(letters, x, kind, k, closure) for x in sources)


def _bounded(lang: ref.RefLanguage, n: int = 8):
    return lang.words if lang.words is not None else lang.upto(n)


def _check_verdict(req: Request, payload: dict) -> bool:
    """Checks shared by every yes/no subcommand."""
    holds = req.exit == 0
    if payload.get("verdict") != ("holds" if holds else "fails"):
        return False
    return holds or payload.get("witness_check") == "verified"


def check_request(req: Request, rc: int, out: str) -> bool:
    """Whether one CLI answer is right, by a reference codekit did not produce."""
    if rc != req.exit:
        return False
    payload = json.loads(out)
    cmd, lang = req.command, req.lang
    letters = lang.letters if lang is not None else None
    if cmd in ("code", "prefix", "suffix", "bifix", "complete", "maximal",
               "independent", "errcorrect", "image-code", "closed"):
        if not _check_verdict(req, payload):
            return False
    if cmd == "code":
        if req.exit == 0:
            return lang.words is None or ref.is_code(lang.words)
        w = ref.parse_double(payload["witness"])[0]
        ok = ref.check_double(payload["witness"], lang.member)
        if lang.words is not None:
            ok = ok and ref.count_factorizations(w, lang.words) >= 2
        return ok
    if cmd in ("prefix", "suffix", "bifix"):
        if req.exit == 0:
            return True
        x, y = _pair(payload["witness"], "begins or ends")
        rel = {"prefix": (y.startswith(x),), "suffix": (y.endswith(x),),
               "bifix": (y.startswith(x), y.endswith(x))}[cmd]
        return lang.member(x) and lang.member(y) and x != y and any(rel)
    if cmd == "measure":
        return payload["measure"] == str(ref.measure_upto(lang, int(_option(req, "--max-len"))))
    if cmd in ("complete", "maximal"):
        if req.exit == 0:
            return lang.words is None or ref.kraft(lang.words, letters) == 1
        w = ref.word(payload["witness"])
        if cmd == "complete":
            return not ref.is_star_factor(w, lang.words)
        return w not in lang.words and ref.is_code(lang.words | {w})
    if cmd == "independent":
        kind, k, _ = _relation(req)
        if req.exit == 0:
            return ref.independent(_bounded(lang), letters, kind, k)
        x, y = _pair(payload["witness"], "maps onto")
        return (lang.member(x) and lang.member(y)
                and y in ref.image(letters, x, kind, k, "antireflexive"))
    if cmd == "errcorrect":
        kind, k, closure = _relation(req)
        if req.exit == 0:
            return ref.error_correcting(lang.words, letters, kind, k)
        m = re.fullmatch(r"(\S+) and (\S+) both corrupt to (\S+)", payload["witness"])
        x, y, z = (ref.word(g) for g in m.groups())
        return (x != y and lang.member(x) and lang.member(y)
                and z in ref.image(letters, x, kind, k, closure)
                and z in ref.image(letters, y, kind, k, closure))
    if cmd == "image-code":
        kind, k, _ = _relation(req)
        closure = "reflexive" if "hat" in req.argv else "antireflexive"
        if req.exit == 0:
            img = set()
            for x in lang.words:
                img |= ref.image(letters, x, kind, k, closure)
            return ref.is_code(img)
        return ref.check_double(
            payload["witness"], lambda f: _image_member(lang, f, kind, k, closure)
        )
    if cmd == "extend":
        kind, k, _ = _relation(req)
        w = ref.word(payload["word"])
        grown = lang.words | {w}
        return (w not in lang.words and ref.is_code(grown)
                and ref.independent(grown, letters, kind, k))
    if cmd == "er-complete":
        w = ref.word(payload["added"])
        sample = {ref.word(v) for v in payload["sample"]}
        n = payload["sample_len"]
        return (not ref.is_star_factor(w, lang.words) and ref.is_unbordered(w)
                and {x for x in lang.words if len(x) <= n} <= sample
                and (len(w) > n or w in sample) and ref.is_code(sample))
    if cmd == "closed":
        kind, k, _ = _relation(req)
        if req.exit == 0:
            return all(lang.member(v) for x in _bounded(lang)
                       for v in ref.image(letters, x, kind, k))
        x, y = _pair(payload["witness"], "maps outside, onto")
        return lang.member(x) and not lang.member(y) and y in ref.image(letters, x, kind, k)
    if cmd == "sigma-star":
        w, letters, k = req.argv[1], _option(req, "--alphabet"), int(_option(req, "--k"))
        orbit = ref.sigma_orbit(w, k, letters)
        return (payload["shape"] == req.expect["shape"]
                and payload["cardinality"] == len(orbit)
                and set(payload["members"]) == orbit)
    if cmd == "classify-closed":
        kind, k, _ = _relation(req)
        cls = payload["class"]
        if req.exit == 1:
            if cls == "not_code":
                return ref.check_double(payload["witness"], lang.member)
            x, y = _pair(payload["witness"], "maps outside, onto")
            return (cls == "not_closed" and lang.member(x) and not lang.member(y)
                    and y in ref.image(letters, x, kind, k))
        n = payload["n"]
        length_class = {"".join(t) for t in itertools.product(letters, repeat=n)}
        if cls in ("even", "odd"):
            parity = 0 if cls == "even" else 1
            length_class = {w for w in length_class if w.count(letters[1]) % 2 == parity}
        return cls == req.expect["class"] and set(lang.words) == length_class
    if cmd == "embed-closed":
        kind, k, _ = _relation(req)
        codes = [set(map(ref.word, c)) for c in payload["codes"]]
        return payload["count"] == req.expect["count"] == len(codes) and all(
            lang.words <= c and ref.closed_under(c, letters, kind, k)
            and ref.is_code(c) and ref.kraft(c, letters) == 1
            for c in codes
        )
    raise ValueError(f"no reference check for {cmd!r}")


class Decide(Workload):
    name = "decide"
    deadline_s = 5.0

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.requests = FIXED + seeded_requests(self.rng)

    def cycle(self):
        order = list(range(len(self.requests)))
        self.rng.shuffle(order)
        for i in order:
            argv = self.requests[i].argv
            yield i, lambda argv=argv: run_cli(argv)

    def check(self, records) -> set[int]:
        verdicts = {}
        bad = set()
        for n, (key, out) in enumerate(records):
            if out is None:
                bad.add(n)
                continue
            if (key, out) not in verdicts:
                try:
                    verdicts[key, out] = check_request(self.requests[key], *out)
                except (ValueError, KeyError, TypeError, AttributeError, IndexError):
                    verdicts[key, out] = False
            if not verdicts[key, out]:
                bad.add(n)
        return bad


# --- channel -----------------------------------------------------------------

CHANNEL_PAIRS = [
    (FOUR, "Lambda:2"),
    (FOUR, "S:2"),
    (FOUR, "delta:1"),
    (FOUR, "iota:1"),
    (FIVE, "Lambda:3"),
    (FIVE, "Sigma:2"),
    ("aabbb|bbbbaa", "Delta:2"),
    ("aabbb|bbbbaa", "Sigma:2"),
]
CHANNEL_P = 0.5
CHANNEL_LENGTH = 200
CHANNEL_TRIALS = 2
# Experiment seeds come from this range so that every report can be
# compared with the one recorded in channel_golden.json.
CHANNEL_SEEDS = 4
GOLDEN = HERE / "channel_golden.json"


def golden_key(code: str, rel: str, seed: int) -> str:
    return f"{code} {rel} {seed}"


def experiment(code: str, rel: str, seed: int) -> channel.ExperimentConfig:
    return channel.ExperimentConfig(
        code=compile_expression(code, Alphabet("ab")),
        spec=EditRelationSpec.parse(rel),
        p=CHANNEL_P,
        message_length=CHANNEL_LENGTH,
        trials=CHANNEL_TRIALS,
        seed=seed,
    )


def report_dict(report) -> dict:
    return dataclasses.asdict(report)


def report_invariants(r: dict) -> bool:
    outcomes = r["exact"] + r["corrected"] + r["ambiguous"] + r["detected"]
    return (
        r["trials"] == CHANNEL_TRIALS
        and r["blocks"] == CHANNEL_TRIALS * CHANNEL_LENGTH == outcomes
        and 0 <= r["corrupted"] <= r["blocks"]
        and r["exact"] >= r["blocks"] - r["corrupted"]
        and 0 <= r["miscorrected"] <= r["corrected"]
        and 0 <= r["restored_messages"] <= r["trials"]
    )


def replay_trial(code: str, rel: str, seed: int) -> bool:
    """Send the first trial of an experiment again and check every block.

    Uses the same draws as run_experiment, then checks what the channel
    received and what the decoder made of it against EditOracle.
    """
    config = experiment(code, rel, seed)
    kind, k, _ = ref.parse_relation(rel)
    words = sorted(code.split("|"), key=lambda w: (len(w), w))
    trial = random.Random(random.Random(seed).getrandbits(64))
    message = [trial.randrange(len(words)) for _ in range(CHANNEL_LENGTH)]
    sent = channel.encode(message, config.code)
    if sent != [words[i] for i in message]:
        return False
    blocks = channel.corrupt(sent, config.spec, config.code.alphabet, CHANNEL_P,
                             trial.getrandbits(64))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        report = channel.decode([b.received for b in blocks], config.code, config.spec)
    for block, outcome, x in zip(blocks, report.outcomes, sent):
        r = block.received
        if block.sent != x or not (r == x or r in ref.image("ab", x, kind, k, "antireflexive")):
            return False
        candidates = (r,) if r in words else tuple(
            w for w in words if r in ref.image("ab", w, kind, k)
        )
        kind_want = ("exact" if r in words else "corrected" if len(candidates) == 1
                     else "ambiguous" if candidates else "detected")
        if outcome.kind != kind_want or outcome.candidates != candidates:
            return False
    return len(report.outcomes) == len(blocks) == CHANNEL_LENGTH


class Channel(Workload):
    name = "channel"
    deadline_s = 10.0

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.golden = json.loads(GOLDEN.read_text())
        self.configs = {}
        for code, rel in CHANNEL_PAIRS:
            for s in range(CHANNEL_SEEDS):
                self.configs[code, rel, s] = experiment(code, rel, s)

    def cycle(self):
        order = list(CHANNEL_PAIRS)
        self.rng.shuffle(order)
        for code, rel in order:
            key = (code, rel, self.rng.randrange(CHANNEL_SEEDS))
            config = self.configs[key]
            yield key, lambda config=config: report_dict(channel.run_experiment(config))

    def check(self, records) -> set[int]:
        verdicts = {}
        bad = set()
        for n, (key, out) in enumerate(records):
            if out is None:
                bad.add(n)
                continue
            if key not in verdicts:
                verdicts[key] = replay_trial(*key)
            ok = (verdicts[key] and report_invariants(out)
                  and out == self.golden.get(golden_key(*key)))
            if not ok:
                bad.add(n)
        return bad

    def work(self, records) -> int:
        return sum(out["blocks"] for _, out in records if out is not None)


# --- enum --------------------------------------------------------------------

ENUM_STREAMS = [("ab", 3, None, 48), ("ab", 4, None, 1449)]
ABC_PREFIX = 1000


class Enum(Workload):
    name = "enum"
    deadline_s = 5.0

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.serial = 0

    def streams(self):
        """This pass's streams; the abc letter order is drawn from the seed."""
        abc = "".join(self.rng.sample("abc", 3))
        return ENUM_STREAMS + [(abc, 3, ABC_PREFIX, ABC_PREFIX)]

    def cycle(self):
        for letters, k, limit, _ in self.streams():
            self.serial += 1
            gen = closed.enumerate_delta_closed(k, Alphabet(letters), limit=limit)
            state = {"done": False}

            def step(gen=gen, state=state):
                code = next(gen, None)
                if code is None:
                    state["done"] = True
                    return END
                return code.words()

            for position in itertools.count():
                if state["done"]:
                    break
                yield (letters, k, self.serial, position), step

    def check(self, records) -> set[int]:
        """Per stream: the exact count, no repeats, each code closed and a code.

        None of this depends on the order in which a stream emits codes.
        """
        want = {(letters, k): count for letters, k, _, count in ENUM_STREAMS}
        verdicts = {}
        bad = set()
        streams = {}
        for n, (key, out) in enumerate(records):
            letters, k, serial, _ = key
            streams.setdefault((letters, k, serial), []).append(n)
            if out is None:
                bad.add(n)
                continue
            if (letters, out) not in verdicts:
                verdicts[letters, out] = (
                    ref.closed_under(out, letters, "delta", k) and ref.is_code(out)
                )
            if not verdicts[letters, out]:
                bad.add(n)
        for (letters, k, _), members in streams.items():
            codes = {records[n][1] for n in members}
            if len(members) != want.get((letters, k), ABC_PREFIX) or len(codes) != len(members):
                bad.update(members)
        return bad


WORKLOADS = {w.name: w for w in (Decide, Channel, Enum)}
