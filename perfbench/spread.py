"""Run each workload over several seeds and report, per end-to-end metric,
the median, the quartiles and the spread (interquartile distance over the
median) against the metric's bound in BENCHMARK.json.

    python3 perfbench/spread.py --runs 10 [--first-seed 1]
        [--workloads paper,mini] [--out FILE]

Run from the repository root. Runs are sequential, one process each, with
the command and run length BENCHMARK.json gives. A spread above a third of
its bound is flagged (`setup_s` is only reported). The summary is written
as JSON to --out (default perfbench/out/spread-<time>.json).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def summarize(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"n": len(values), "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(median) if median else float("inf"),
            "values": values}


def main(argv=None):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    summary, status = {}, 0
    for workload in args.workloads.split(","):
        values, walls, failed = {}, [], 0
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = bench["command"] + ["--workload", workload,
                                      "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]),
                                      "--trace", "0"]
            start = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                  stderr=subprocess.DEVNULL, text=True,
                                  timeout=600)
            walls.append(time.perf_counter() - start)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            failed += result["failed"] + (proc.returncode != 0)
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed}: {walls[-1]:.1f} s, "
                  f"{result['failed']} failed", file=sys.stderr)
        rows = {name: summarize(v) for name, v in values.items()}
        print(f"{workload}: runs {len(walls)}, failed {failed}, run time "
              f"median {statistics.median(walls):.1f} s max {max(walls):.1f} s")
        for name, row in sorted(rows.items()):
            bound = bounds[name]
            flag = ""
            if name != "setup_s" and row["spread"] >= bound / 3:
                flag = "  <-- spread >= bound/3"
                status = 1
            print(f"  {name:28s} median {row['median']:12.6g}  "
                  f"spread {row['spread']:6.3f}  bound {bound:4.2f}{flag}")
        summary[workload] = {"run_seconds": walls, "failed": failed,
                             "metrics": rows}
    out = Path(args.out) if args.out else (
        ROOT / "perfbench" / "out" / f"spread-{int(time.time())}.json")
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(summary, indent=1) + "\n")
    print(f"summary written to {out}")
    return status


if __name__ == "__main__":
    sys.exit(main())
