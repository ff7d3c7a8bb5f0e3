"""codekit benchmark: one run of one workload.

    python3 bench/run.py --workload decide|channel|enum --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout; codekit is imported from its ``src``.
With ``--trace 0`` the run reports end-to-end metrics: set-up time is
the median over sixteen fresh interpreters, each scaled by the start of
a reference interpreter (see ``setup_time``), and the measured loop
runs in one more fresh interpreter for S seconds of whole passes.  The
loop's times are scaled by the speed the machine showed on a fixed
probe task around them (see ``worker.run_loop``).  Peak
memory comes from a third interpreter that makes a fixed number of
passes.  With
``--trace 1`` it reports per-layer metrics: the same passes run once
untraced and once with spans around every codekit call, and the ratio
of the two busy times is ``trace_overhead``.  Spans are written to
``bench/out/``.  The last line of output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import CLOCK_MONOTONIC, clock_gettime, monotonic

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("decide", "channel", "enum")
SETUP_SAMPLES = 8  # on each side of the measured loop
FOOTPRINT_PASSES = 2
TIME_LIMIT_S = 170.0


class BenchError(RuntimeError):
    pass


class Runner:
    def __init__(self, workload: str, seed: int):
        self.base = [sys.executable, str(HERE / "worker.py"), workload, str(seed)]
        self.deadline = monotonic() + TIME_LIMIT_S

    def phase(self, *args: str) -> tuple[float, dict | None]:
        """Run one worker phase; returns its time to ``ready`` and its result."""
        return self.launch(self.base + list(args), f"worker {args[0]}")

    def launch(self, argv: list[str], name: str) -> tuple[float, dict | None]:
        """Run a fresh interpreter that prints ``ready`` first.

        It stamps ``ready`` with the system-wide monotonic clock, so the
        time covers starting the interpreter as well.
        """
        start = clock_gettime(CLOCK_MONOTONIC)
        try:
            proc = subprocess.run(
                argv, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                timeout=max(1.0, self.deadline - monotonic()),
            )
        except subprocess.TimeoutExpired:
            raise BenchError(f"{name} ran out of time") from None
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines or not lines[0].startswith("ready "):
            raise BenchError(f"{name} failed with exit code {proc.returncode}")
        ready = float(lines[0].split()[1]) - start
        return ready, json.loads(lines[-1]) if len(lines) > 1 else None


# A fresh interpreter that imports a fixed set of standard modules and
# nothing of codekit: the kind of work set-up does, without the program.
REFERENCE_START = (
    "import argparse, dataclasses, fractions, inspect, json, pathlib, random, statistics,"
    " tempfile\n"
    "from time import CLOCK_MONOTONIC, clock_gettime\n"
    "print('ready', repr(clock_gettime(CLOCK_MONOTONIC)))"
)
# About its fastest time to ready on the machine the benchmark was defined on.
REFERENCE_START_S = 0.05


def setup_time(runner: Runner) -> float:
    """One set-up, scaled by the reference start launched right after it.

    The probe that scales the loop's times does not track the speed of
    starting an interpreter and importing modules; a reference start
    does.  So set-up times read as on the reference machine too.
    """
    ready, _ = runner.phase("setup")
    reference, _ = runner.launch([sys.executable, "-c", REFERENCE_START], "reference start")
    return ready * REFERENCE_START_S / reference


def end_to_end(runner: Runner, seconds: int) -> tuple[dict, dict]:
    # Half of the set-ups run after the measured loop, so that one slow
    # stretch of the machine cannot slow them all.
    setups = [setup_time(runner) for _ in range(SETUP_SAMPLES)]
    _, result = runner.phase("run", "--seconds", str(seconds))
    # Peak memory over a fixed amount of work, so that a faster program,
    # which fits more passes into the same seconds, is not charged for it.
    _, footprint = runner.phase("run", "--cycles", str(FOOTPRINT_PASSES))
    setups += [setup_time(runner) for _ in range(SETUP_SAMPLES)]
    result = dict(result, ops=result["ops"] + footprint["ops"],
                  failed=result["failed"] + footprint["failed"],
                  peak_rss_mb=footprint["peak_rss_mb"])
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "work_per_s": (result["work"] / result["busy_s"], "1/s"),
        "op_p50_ms": (result["op_p50_ms"], "ms"),
        "op_p90_ms": (result["op_p90_ms"], "ms"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }
    return result, metrics


def per_layer(runner: Runner, seconds: int, workload: str, seed: int) -> tuple[dict, dict]:
    _, plain = runner.phase("run", "--seconds", str(max(1.0, seconds / 3)))
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    spans = out / f"spans-{workload}-{seed}.jsonl"
    _, traced = runner.phase("trace", "--cycles", str(plain["passes"]), "--spans", str(spans))
    metrics = {
        name: (value, unit_of(name)) for name, value in traced["layers"].items()
    }
    metrics["trace_overhead"] = (traced["busy_s"] / plain["busy_s"], "ratio")
    both = dict(traced, ops=traced["ops"] + plain["ops"],
                failed=traced["failed"] + plain["failed"])
    return both, metrics


def unit_of(name: str) -> str:
    if name.endswith("_s") and not name.endswith("per_s"):
        return "s"
    if name.endswith("per_s"):
        return "1/s"
    if name.endswith(("share", "ratio")):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "codekit" / "__init__.py").is_file():
        print(f"bench: no codekit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    runner = Runner(args.workload, args.seed)
    try:
        if args.trace:
            result, metrics = per_layer(runner, args.seconds, args.workload, args.seed)
        else:
            result, metrics = end_to_end(runner, args.seconds)
    except BenchError as e:
        print(f"bench: {e}", file=sys.stderr)
        return 1
    shown = " ".join(f"{k}={v:.6g}{u if u in ('s', 'ms', 'MB') else ''}"
                     for k, (v, u) in sorted(metrics.items()))
    wall = "" if args.trace else (
        f" wall_work_per_s={result['wall_work_per_s']:.6g}"
        f" wall_p50_ms={result['wall_p50_ms']:.6g} wall_p90_ms={result['wall_p90_ms']:.6g}"
    )
    print(f"{args.workload} seed={args.seed} ops={result['ops']} "
          f"failed={result['failed']} {shown}{wall}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["ops"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
