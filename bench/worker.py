"""One phase of one workload, in a fresh interpreter.

    python3 bench/worker.py WORKLOAD SEED setup
    python3 bench/worker.py WORKLOAD SEED run --seconds S | --cycles C
    python3 bench/worker.py WORKLOAD SEED trace --cycles C --spans PATH

Every phase imports codekit from the checkout's ``src``, builds the
workload's inputs from the seed and prints ``ready`` with the time.
``setup`` stops there.  ``run`` repeats whole passes over the inputs until S seconds
have gone by, or makes exactly C passes; ``trace`` makes C passes
with spans recorded.
Both then check every output and print one JSON line of results.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import traceback
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from time import CLOCK_MONOTONIC, clock_gettime, perf_counter

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]


@dataclass
class Loop:
    """What one closed loop did: every timed step, and which were ops."""

    records: list = field(default_factory=list)  # (key, output) per op
    latencies: array = field(default_factory=lambda: array("d"))  # per step
    scales: array = field(default_factory=lambda: array("d"))  # per step, see _close_segment
    op_steps: array = field(default_factory=lambda: array("l"))
    failed: set = field(default_factory=set)  # indices into records
    passes: int = 0
    wall_s: float = 0.0


def run_loop(workload, seconds: float | None = None, cycles: int | None = None) -> Loop:
    """Closed loop over whole passes, until S seconds or C passes.

    An op that raises or misses the workload's deadline is failed.
    Between steps, about every ``SEGMENT_S`` seconds and at the end of
    each pass, the loop times ``probe()``; see ``_close_segment``.
    Outputs are interned, so the loop's own memory grows only by a few
    machine words per op.
    """
    from workloads import END

    loop = Loop()
    interned: dict = {}
    before = probe()
    start = segment = perf_counter()
    while True:
        for key, op in workload.cycle():
            t0 = perf_counter()
            try:
                out = op()
            except Exception:
                if not loop.failed:
                    traceback.print_exc()
                out = None
                loop.failed.add(len(loop.records))
            t1 = perf_counter()
            loop.latencies.append(t1 - t0)
            if t1 - segment >= SEGMENT_S:
                before = _close_segment(loop, before)
                segment = perf_counter()
            if out is END:
                continue
            if t1 - t0 > workload.deadline_s:
                loop.failed.add(len(loop.records))
            loop.op_steps.append(len(loop.latencies) - 1)
            loop.records.append((key, interned.setdefault(_hashable(out), out)))
        loop.passes += 1
        before = _close_segment(loop, before)
        segment = perf_counter()
        loop.wall_s = segment - start
        if (loop.passes >= cycles) if cycles is not None else (loop.wall_s >= seconds):
            return loop


SEGMENT_S = 0.05


def _close_segment(loop: Loop, before: float) -> float:
    """Scale the steps since the last probe; returns this probe's time.

    Each step gets ``PROBE_REF_S`` over the mean of the probe times
    just before and just after it, which takes out how fast the shared
    machine was while it ran.  Other tenants change that speed within
    a second, so one probe per pass tracks it too coarsely.
    """
    after = probe()
    scale = 2 * PROBE_REF_S / (before + after)
    loop.scales.extend(array("d", [scale]) * (len(loop.latencies) - len(loop.scales)))
    return after


# The probe's fastest time on the machine the benchmark was defined on
# (2-vCPU Xeon VM, CPython 3.11.7), when no other tenant slowed it.
PROBE_REF_S = 0.00066
_PROBE_WORDS = [format(i, "08b").replace("0", "a").replace("1", "b") for i in range(0, 256, 2)]


def probe() -> float:
    """Fastest of three timings of a fixed task that shares no code with codekit.

    Slicing, set building and sorting of short words, as codekit's
    inner loops do, so that the probe slows down with the machine the
    way codekit does.
    """
    best = float("inf")
    for _ in range(3):
        t0 = perf_counter()
        acc = set()
        for w in _PROBE_WORDS:
            for i in range(len(w)):
                acc.add(w[:i] + w[i + 1 :])
        tails = {v[len(u) :] for u in _PROBE_WORDS[:24] for v in _PROBE_WORDS
                 if v.startswith(u[:4])}
        sorted(acc | tails, key=lambda w: (len(w), w))
        best = min(best, perf_counter() - t0)
    return best


def _hashable(out):
    return tuple(sorted(out.items())) if isinstance(out, dict) else out


def _p50_p90(ms: list[float]) -> tuple[float, float]:
    return statistics.median(ms), statistics.quantiles(ms, n=10, method="inclusive")[8]


def summarize(workload, loop: Loop) -> dict:
    """Counts, checks and timings of one loop.

    Each step is charged its own latency times its scale (see
    ``_close_segment``), so the times read as on the reference
    machine.  Nothing the program does is dropped: garbage collections,
    first uses and rebuilds count on whichever step they land.  Raw
    wall-clock figures are kept alongside.
    """
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    failed = loop.failed | workload.check(loop.records)
    charged = [latency * scale for latency, scale in zip(loop.latencies, loop.scales)]
    p50, p90 = _p50_p90(sorted(charged[i] * 1000 for i in loop.op_steps))
    wall_p50, wall_p90 = _p50_p90(sorted(loop.latencies[i] * 1000 for i in loop.op_steps))
    work = workload.work(loop.records)
    return {
        "ops": len(loop.records),
        "failed": len(failed),
        "passes": loop.passes,
        "work": work,
        "busy_s": sum(charged),
        "wall_s": loop.wall_s,
        "op_p50_ms": p50,
        "op_p90_ms": p90,
        "wall_work_per_s": work / sum(loop.latencies),
        "wall_p50_ms": wall_p50,
        "wall_p90_ms": wall_p90,
        "peak_rss_mb": peak_rss_mb,
        "scale": statistics.median(loop.scales),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload")
    parser.add_argument("seed", type=int)
    parser.add_argument("phase", choices=("setup", "run", "trace"))
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--cycles", type=int, default=None)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)

    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    print(f"ready {clock_gettime(CLOCK_MONOTONIC)!r}", flush=True)
    if args.phase == "setup":
        return 0
    if args.phase == "run":
        result = summarize(workload, run_loop(workload, args.seconds, args.cycles))
    else:
        from tracer import Tracer, layer_metrics

        tracer = Tracer()
        tracer.install()
        try:
            loop = run_loop(workload, cycles=args.cycles or 1)
        finally:
            tracer.uninstall()
        result = summarize(workload, loop)
        result["layers"] = layer_metrics(tracer)
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
