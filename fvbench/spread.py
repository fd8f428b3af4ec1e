"""Run-to-run spread of the end-to-end metrics.

    python3 fvbench/spread.py --seeds 10 [--workloads marked-4x4 ...]

Runs the benchmark command once per seed and workload, one process at a
time, as BENCHMARK.json describes it, and prints for each end-to-end metric
the median of the runs and the distance between their first and third
quartiles as a share of the median, beside the metric's bound. Every run's
result line is appended to fvbench/results/runs.jsonl.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=0)
    args = parser.parse_args()

    results_dir = HERE / "results"
    results_dir.mkdir(exist_ok=True)
    ok = True
    for workload in args.workloads:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            start = time.perf_counter()
            done = subprocess.run(
                spec["command"] + [
                    "--workload", workload, "--seed", str(seed),
                    "--seconds", str(spec["run_seconds"]), "--trace", "0",
                ],
                cwd=ROOT, capture_output=True, text=True, check=True,
            )
            result = json.loads(done.stdout.strip().splitlines()[-1])
            wall = time.perf_counter() - start
            runs.append(result)
            with open(results_dir / "runs.jsonl", "a") as out:
                out.write(json.dumps({"workload": workload, "seed": seed,
                                      "wall_s": wall, **result}) + "\n")
            ok &= result["correct"] and result["failed"] == 0
            print(f"{workload} seed {seed}: {wall:.1f} s, correct "
                  f"{result['correct']}, failed {result['failed']}/"
                  f"{result['attempted']}", flush=True)
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            print(f"  {metric['name']:<20} median {median:.6g} "
                  f"{metric['unit']:<9} spread {spread:.3f} "
                  f"(bound {metric['bound']}, a third {metric['bound'] / 3:.3f})")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
