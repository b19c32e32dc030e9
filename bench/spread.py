"""Run the benchmark over several seeds and report each metric's spread.

Usage:
    python3 bench/spread.py --workload NAME [--workload NAME ...]
        [--seeds 1-10] [--seconds S] [--trace 0|1] [--out FILE]

For each workload and metric this prints the median over the seeds, the
first and third quartiles (``statistics.quantiles(values, n=4)``) and the
interquartile distance as a share of the median, which must stay within
the metric's bound in BENCHMARK.json.  ``--seconds`` defaults to the
``run_seconds`` of BENCHMARK.json.  ``--out`` writes the same figures, with
every run's values, as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)], capture_output=True, text=True, check=True)
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    for line in lines:
        if line.startswith("# environment "):
            result["environment"] = json.loads(line[len("# environment "):])
    return result


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--out")
    args = ap.parse_args()
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    args.seconds = args.seconds or spec["run_seconds"]
    report = {}
    for workload in args.workload:
        runs = [run(workload, s, args.seconds, args.trace)
                for s in seed_list(args.seeds)]
        bad = [r for r in runs if not r["correct"] or r["failed"]]
        rows = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            rows[name] = {"median": med, "q1": q1, "q3": q3,
                          "spread": spread, "values": values,
                          "unit": runs[0]["metrics"][name]["unit"]}
            bound = bounds.get(name)
            flag = "" if bound is None else (
                f" bound {bound}" + (" EXCEEDED" if spread > bound else ""))
            print(f"{workload:<16} {name:<36} median {med:<12.6g} "
                  f"spread {spread:.4f}{flag}")
        print(f"{workload:<16} runs {len(runs)}, incorrect {len(bad)}")
        report[workload] = {"seeds": args.seeds, "seconds": args.seconds,
                            "trace": args.trace, "incorrect_runs": len(bad),
                            "environment": runs[0].get("environment"),
                            "metrics": rows}
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
