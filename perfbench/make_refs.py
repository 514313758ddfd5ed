"""Regenerate refs.json, the reference output of every pool unit.

    python3 perfbench/make_refs.py [--workload NAME ...]

Run from the repository root. Each workload's units for seeds
0..pool-1 run untraced with the benchmark's BLAS setting, and their
episode returns are stored with full precision. Re-baseline only on purpose:
the benchmark compares every run against these values.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append")
    args = parser.parse_args(argv)
    run.configure_blas()
    run.use_checkout_src()
    from timing import StepLog
    from workloads import WORKLOADS
    refs = (json.loads(run.REFS.read_text(encoding="utf-8"))
            if run.REFS.exists() else {})
    for name in args.workload or list(WORKLOADS):
        wl = WORKLOADS[name]
        log = StepLog(calibrate=False)
        _, m, ctx, env_cls = run.timed_setup(wl, 0, log)
        values = {}
        for seed in range(wl.pool):
            returns = wl.unit(m, ctx, seed, env_cls)
            if log.ledger_errors or not all(math.isfinite(r) for r in returns):
                raise SystemExit(f"{name} seed {seed}: failed output checks")
            values[str(seed)] = [float(r) for r in returns]
            print(f"{name} {seed} {wl.quality_name} "
                  f"{float(wl.quality(m, returns))!r}", flush=True)
        refs[name] = values
    run.REFS.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n",
                        encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
