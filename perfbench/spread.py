"""Run the benchmark over several seeds and print each metric's spread.

    python3 perfbench/spread.py --seeds 1-10

Untraced runs are made one after another, each in its own process, for every
workload of BENCHMARK.json and every seed, with its run length. For each
workload and metric it prints the median of the runs, the first and third
quartiles as statistics.quantiles(values, n=4) gives them, and their distance
as a share of the median. Raw results are appended to .perfbench_out/spread.jsonl.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seeds, required=True, help="e.g. 1-10")
    args = parser.parse_args()
    log = ROOT / ".perfbench_out" / "spread.jsonl"
    log.parent.mkdir(parents=True, exist_ok=True)
    for workload in (w["name"] for w in spec["workloads"]):
        results = []
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=900,
            )
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            results.append(result)
            with log.open("a") as fh:
                fh.write(json.dumps({"workload": workload, "seed": seed, **result}) + "\n")
        failed = {r["failed"] / r["attempted"] for r in results}
        correct = all(r["correct"] for r in results)
        print(f"{workload}: {len(results)} runs, correct={correct}, failed shares {sorted(failed)}")
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else 0.0
            print(f"  {name:32s} median {med:12.4f}  q1 {q1:12.4f}  q3 {q3:12.4f}  "
                  f"spread {100 * spread:5.1f} %  {results[0]['metrics'][name]['unit']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
