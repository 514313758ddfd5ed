"""Run every uavmec benchmark workload, each in its own process.

    python3 perfbench/suite.py [--seed 0] [--trace]

Run from the repository root. Runs td3-learn, ppo-paper, greedy-paper and
rollout-large one after another (untraced, or traced with --trace), each
for run.py's default measuring time, prints
every metric each run reports by workload, name and unit (declared metrics,
then failed_frac and the checked returns), writes the combined record
to .bench_out/BENCH_suite_seed<seed>_trace<t>.json, and exits 1 if any
workload's output checks failed.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
OUT = HERE.parent / ".bench_out"
# A run measures 25 s plus set-up and its last unit; 180 s is far above.
RUN_TIMEOUT_S = 180


def run_one(workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        return {"correct": False, "attempted": 0, "failed": 0, "metrics": {},
                "error": f"no result within {RUN_TIMEOUT_S} s"}
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stderr.write(proc.stderr)
        return {"correct": False, "attempted": 0, "failed": 0, "metrics": {},
                "error": f"exit {proc.returncode}, no result line"}
    result["checks"] = [ln[2:] for ln in lines if ln.startswith("# CHECK FAILED")]
    result["lines"] = [ln for ln in lines[:-1] if not ln.startswith("#")]
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    trace = int(args.trace)

    results = {}
    for workload in WORKLOADS:
        res = results[workload] = run_one(workload, args.seed, trace)
        status = "ok" if res["correct"] else "FAILED"
        print(f"== {workload}: checks {status}, episodes attempted "
              f"{res['attempted']}, failed {res['failed']}", flush=True)
        for check in res.get("checks", []) + [res.get("error", "")]:
            if check:
                print(f"   {check}")
        for line in res.get("lines", []):
            print(f"   {line}", flush=True)

    OUT.mkdir(exist_ok=True)
    path = OUT / f"BENCH_suite_seed{args.seed}_trace{trace}.json"
    path.write_text(json.dumps({"seed": args.seed, "trace": trace,
                                "results": results},
                               indent=1) + "\n", encoding="utf-8")
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
