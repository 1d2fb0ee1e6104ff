"""Run the benchmark over several seeds and report each metric's spread.

Usage, from the root of the repository::

    python3 perfbench/spread.py --workloads crowd hub --seeds 1 2 3 4 5

For every end-to-end metric of every workload this prints the median of
the runs and their interquartile distance as a share of that median
(``statistics.quantiles(values, n=4)``), next to the metric's bound in
BENCHMARK.json. A spread at or above a third of the bound is flagged.
Every run's JSON line is appended to ``--out`` when given.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from measure import spread

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    worst = 0.0
    for workload in args.workloads:
        results = []
        for seed in args.seeds:
            result = run_once(workload, seed, args.seconds)
            if not result["correct"] or result["failed"]:
                print(f"{workload} seed {seed}: outputs not correct: {result}")
                return 1
            results.append(result)
            if args.out:
                with args.out.open("a") as f:
                    f.write(json.dumps({"workload": workload, "seed": seed,
                                        **result}) + "\n")
        print(f"{workload} ({len(results)} seeds, {args.seconds}s runs)")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = [r["metrics"][name]["value"] for r in results]
            s = spread(values)
            flag = ""
            if s >= bound / 3:
                flag = "  <-- at or above a third of the bound"
                worst = max(worst, s / bound)
            print(f"  {name:<16} median {statistics.median(values):12.4f} "
                  f"{metric['unit']:<6} spread {s:7.2%} bound {bound:.0%}{flag}")
        sys.stdout.flush()
    return 0 if worst == 0.0 else 3


if __name__ == "__main__":
    sys.exit(main())
