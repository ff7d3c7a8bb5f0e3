"""Run the workloads at given seeds; report medians and spreads per metric.

    python3 bench/suite.py --seeds 1 --repeats 5          # one seed, five runs
    python3 bench/suite.py --seeds 1,2,3,4,5,6,7,8,9,10   # ten seeds, one run each

Each run is one ``bench/run.py`` process of ``run_seconds`` from
``BENCHMARK.json``, one after another, so every workload gets fresh
interpreters and the machine to itself.  Metrics are
printed by their workload names (``requests_per_s`` on decide,
``blocks_per_s`` on channel, ``codes_per_s`` on enum) with units and
``failed_share``.  Per workload, over all its runs, the report gives the
median, the quartile spread as a share of the median, and the bound
from ``BENCHMARK.json``; a spread above a third of the bound is flagged
as unsteady.  Results are also written to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAMES = {
    "decide": {"work_per_s": "requests_per_s"},
    "channel": {"work_per_s": "blocks_per_s"},
    "enum": {"work_per_s": "codes_per_s"},
}


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: run.py exited {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def spread(values: list[float]) -> tuple[float, float, float]:
    """Median, and the quartile distance as a share of the median."""
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return med, 0.0, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, (q3 - q1) / med


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1")
    parser.add_argument("--repeats", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    seeds = [int(s) for s in args.seeds.split(",")]

    report = {}
    status = 0
    for workload in NAMES:
        runs = []
        for seed in seeds:
            for _ in range(args.repeats):
                result = run_once(workload, seed, seconds, args.trace)
                runs.append(result)
                shown = " ".join(
                    f"{NAMES[workload].get(k, k)}={v['value']:.6g} {v['unit']}"
                    for k, v in result["metrics"].items()
                )
                share = result["failed"] / result["attempted"]
                print(f"{workload} seed={seed} {shown} failed_share={share:g}", flush=True)
                status |= share > 0
        summary = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            med, _, rel = spread(values)
            summary[name] = {"median": med, "spread": rel, "values": values}
            bound = bounds.get(name, {}).get("bound")
            line = f"  {workload} {NAMES[workload].get(name, name)}: median {med:.6g}"
            if len(values) > 1:
                line += f", spread {rel:.1%}"
            if bound is not None:
                line += f" (bound {bound:.0%})"
                if len(values) > 1 and rel > bound / 3:
                    line += " UNSTEADY"
            print(line, flush=True)
        report[workload] = summary
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    path = out / f"suite-{time.strftime('%Y%m%d-%H%M%S')}.json"
    path.write_text(json.dumps(report, indent=1) + "\n")
    print(f"report written to {path.relative_to(ROOT)}")
    return status


if __name__ == "__main__":
    raise SystemExit(main())
