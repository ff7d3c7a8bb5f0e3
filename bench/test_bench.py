"""Tests of the benchmark's own logic.

    python3 -m pytest bench/test_bench.py

Kept out of the repository's test suite, which collects ``tests/`` only.
"""

from __future__ import annotations

import itertools
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import reference as ref  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
import workloads as wl  # noqa: E402
from oracles import double_factorization_witness  # noqa: E402
from tracer import Tracer, layer_metrics, self_times  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


# --- spans ---------------------------------------------------------------------

def test_self_time_subtracts_children_at_every_depth():
    spans = [
        (2, 1, "g", 2.0, 3.0, False),
        (1, 0, "a", 1.0, 4.0, False),
        (3, 0, "b", 5.0, 7.0, False),
        (0, -1, "root", 0.0, 10.0, False),
    ]
    assert self_times(spans) == pytest.approx({0: 5.0, 1: 2.0, 2: 1.0, 3: 2.0})


def test_tracer_wraps_every_binding_and_restores_them():
    import codekit.analysis
    import codekit.channel
    import codekit.closed

    sp = codekit.analysis.sardinas_patterson
    tracer = Tracer()
    tracer.install()
    try:
        assert codekit.closed.sardinas_patterson is not sp
        assert codekit.channel.relation_image_word.__wrapped__ is not None
        wl.run_cli(["code", "--alphabet", "ab", "a|ab|ba"])
    finally:
        tracer.uninstall()
    assert codekit.closed.sardinas_patterson is sp
    names = {name for _, _, name, _, _, _ in tracer.spans}
    assert {"cli.main", "cli.build_parser", "analysis.sardinas_patterson"} <= names
    parents = {sid: parent for sid, parent, *_ in tracer.spans}
    by_name = {name: sid for sid, _, name, *_ in tracer.spans}
    assert parents[by_name["analysis.sardinas_patterson"]] == by_name["cli.main"]


def test_traced_metrics_are_the_declared_per_layer_metrics():
    tracer = Tracer()
    tracer.install()
    try:
        wl.run_cli(["code", "--alphabet", "ab", "(ba)*.(a|bb)"])
    finally:
        tracer.uninstall()
    names = set(layer_metrics(tracer)) | {"trace_overhead"}
    assert names == {m["name"] for m in SPEC["per_layer"]}
    for m in SPEC["per_layer"]:
        if m["name"] != "trace_overhead":
            assert run.unit_of(m["name"]) == m["unit"], m["name"]


def test_end_to_end_metrics_are_the_declared_ones():
    class FakeRunner:
        def phase(self, *args):
            return 0.1, {"ops": 3, "failed": 0, "passes": 1, "wall_s": 2.5, "busy_s": 2.0,
                         "work": 6, "op_p50_ms": 1.0, "op_p90_ms": 2.0, "peak_rss_mb": 30.0,
                         "scale": 0.5}

        def launch(self, argv, name):
            # the reference start took twice its time on the reference machine
            return 2 * run.REFERENCE_START_S, None

    _, metrics = run.end_to_end(FakeRunner(), 1)
    assert set(metrics) == {m["name"] for m in SPEC["end_to_end"]}
    assert metrics["work_per_s"] == (3.0, "1/s")
    assert metrics["setup_s"] == (pytest.approx(0.05), "s")


# --- failures --------------------------------------------------------------------

def _request(argv_start):
    return next(i for i, r in enumerate(wl.FIXED) if r.argv[:4] == argv_start)


def test_wrong_verdicts_and_forged_witnesses_are_failed():
    decide = wl.Decide(1)
    i = _request(["code", "--alphabet", "ab", "a|ab|ba"])
    right = wl.run_cli(decide.requests[i].argv)
    wrong_verdict = (0, json.dumps({"property": "code", "verdict": "holds"}))
    forged = (1, right[1].replace("(ab)(a)", "(a)(ba)"))
    garbage = (1, "not json")
    records = [(i, right), (i, wrong_verdict), (i, forged), (i, garbage)]
    assert decide.check(records) == {1, 2, 3}


def test_wrong_channel_report_is_failed():
    channel = wl.Channel(1)
    (key, op), = itertools.islice(channel.cycle(), 1)
    right = op()
    wrong = dict(right, corrected=right["corrected"] + 1)
    assert channel.check([(key, right), (key, wrong)]) == {1}


class Raising(wl.Workload):
    deadline_s = 60.0

    def cycle(self):
        yield "ok", lambda: 1
        yield "boom", self.boom

    def boom(self):
        raise RuntimeError("fault inside the program")

    def check(self, records):
        return {n for n, (_, out) in enumerate(records) if out is None}


def test_exceptions_and_missed_deadlines_are_failed():
    loop = worker.run_loop(Raising(), cycles=2)
    assert [k for k, _ in loop.records] == ["ok", "boom", "ok", "boom"]
    assert loop.failed == {1, 3} and loop.passes == 2
    result = worker.summarize(Raising(), loop)
    assert result["failed"] == 2 and result["ops"] == 4
    late = Raising()
    late.deadline_s = 0.0
    assert worker.run_loop(late, cycles=1).failed == {0, 1}


def test_steps_are_charged_their_latency_times_their_scale():
    # the first two steps ran while the machine was twice as slow as the
    # reference machine, the third at reference speed
    loop = worker.Loop(records=[("a", 1), ("b", 1), ("a", 1)],
                       latencies=worker.array("d", [0.004, 0.002, 0.001]),
                       scales=worker.array("d", [0.5, 0.5, 1.0]),
                       op_steps=worker.array("l", [0, 1, 2]), passes=2, wall_s=1.0)
    result = worker.summarize(Raising(), loop)
    assert result["scale"] == pytest.approx(0.5)
    assert result["busy_s"] == pytest.approx(0.004)
    assert result["op_p50_ms"] == pytest.approx(1.0)
    assert result["wall_p50_ms"] == pytest.approx(2.0)


def test_every_step_is_scaled_by_the_probes_around_it(monkeypatch):
    times = iter([1, 3, 5, 7])  # probe times in units of PROBE_REF_S
    monkeypatch.setattr(worker, "probe", lambda: next(times) * worker.PROBE_REF_S)
    loop = worker.run_loop(Raising(), cycles=3)
    assert list(loop.scales) == [0.5, 0.5, 0.25, 0.25, 1 / 6, 1 / 6]


# --- inputs from the seed --------------------------------------------------------

def _inputs(name, seed, passes=5):
    w = wl.WORKLOADS[name](seed)
    if name == "decide":
        order = [k for _ in range(passes) for k, _ in w.cycle()]
        return [r.argv for r in w.requests], order
    if name == "channel":
        return [k for _ in range(passes) for k, _ in w.cycle()]
    return [w.streams() for _ in range(passes)]


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_inputs_follow_the_seed(name):
    assert _inputs(name, 3) == _inputs(name, 3)
    assert _inputs(name, 3) != _inputs(name, 4)


# --- the fixed decide pool against brute force -----------------------------------

@pytest.mark.parametrize(
    "req", [r for r in wl.FIXED if r.command == "code"], ids=lambda r: r.argv[3]
)
def test_code_verdicts_agree_with_brute_force(req):
    lang = req.lang
    bound = 10 if len(lang.letters) == 2 else 7
    words = lang.upto(bound)
    found = double_factorization_witness(words, lang.letters, bound)
    assert (found is None) == (req.exit == 0)
    if req.exit == 0 and lang.words is None:
        assert ref.is_code([w for w in words if len(w) <= 8])


@pytest.mark.parametrize(
    "req",
    [r for r in wl.FIXED if r.exit == 0 and r.command in ("prefix", "bifix", "independent", "closed")],
    ids=lambda r: " ".join(r.argv[:4]),
)
def test_positive_verdicts_hold_on_truncations(req):
    words = wl._bounded(req.lang, 9)
    if req.command in ("prefix", "bifix"):
        pairs = [(x, y) for x in words for y in words if x != y]
        assert not any(y.startswith(x) for x, y in pairs)
        if req.command == "bifix":
            assert not any(y.endswith(x) for x, y in pairs)
    else:
        assert wl.check_request(req, 0, json.dumps({"verdict": "holds"}))


def test_complete_regular_code_has_full_measure():
    # (ba)*(a|bb) has measure (3/4) / (1 - 1/4) = 1, so it is complete
    lang = ref.RefLanguage(wl.R1, "ab")
    assert ref.measure_upto(lang, 12) == 1 - ref.kraft(["a" * 12], "ab")


def test_reference_code_test_matches_brute_force():
    for words in itertools.combinations(["a", "b", "ab", "ba", "aab", "abb", "bb"], 3):
        brute = double_factorization_witness(words, "ab", 12) is None
        assert ref.is_code(words) == brute, words
