"""uavmec benchmark: one closed-loop workload per process.

    python3 perfbench/run.py --workload td3-learn --seed 0 --seconds 25 --trace 0

Run from the repository root (any checkout holding ``src/uavmec``). With
``--trace 0`` the run times set-up, then runs units of the workload until
``--seconds`` have passed (the last unit completes) and reports the
end-to-end metrics. With ``--trace 1`` it runs the workload's fixed traced
work twice, untraced and then traced, checks that both give identical
returns, and reports the per-layer metrics and the tracing overhead.

Every unit's output is checked against ``refs.json``; the last stdout line
is one JSON object ``{"correct", "attempted", "failed", "metrics"}`` and the
exit code is 1 when any check fails. Human-readable lines precede it, and
the full record goes to ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import platform
import random
import resource
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
REFS = Path(__file__).resolve().parent / "refs.json"
MODULES = ("config", "world", "channel", "compute_energy", "economics", "env",
           "nets", "replay", "td3", "ppo", "baseline", "harness")
SETUP_REPS = 11

END_TO_END_UNITS = {"setup_s": "s", "steps_per_s": "1/s", "step_ms.p50": "ms",
                    "step_ms.p90": "ms", "peak_rss_mb": "MB"}


def configure_blas() -> int:
    """Pin BLAS to one thread; must run before numpy is imported.

    The nets are at most 256 wide and run at batch 1 to 256. On a shared
    2-vCPU Xeon VM at 2.1 GHz, two threads were no faster than one on
    td3-learn (689 against 706 steps/s) or ppo-paper (666 against 672), and
    made step times depend on the second vCPU's load, which the calibration
    cannot see.
    """
    if "numpy" in sys.modules:
        raise RuntimeError("configure_blas() must run before numpy is imported")
    threads = 1
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    return threads


def environment(threads: int) -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
            "blas_threads": threads, "nproc": os.cpu_count(),
            "cpus_available": (len(os.sched_getaffinity(0))
                               if hasattr(os, "sched_getaffinity") else None),
            "machine": platform.machine()}


def load_uavmec() -> SimpleNamespace:
    """Import uavmec afresh from the checkout's src/ (drops cached modules)."""
    for name in [n for n in sys.modules if n == "uavmec" or n.startswith("uavmec.")]:
        del sys.modules[name]
    return SimpleNamespace(**{n: importlib.import_module(f"uavmec.{n}")
                              for n in MODULES})


def use_checkout_src() -> None:
    if not (SRC / "uavmec" / "__init__.py").is_file():
        raise SystemExit(f"error: no uavmec sources under {SRC}; run from a "
                         "checkout of the repository")
    sys.path.insert(0, str(SRC))


def unit_order(wl, seed: int) -> list[int]:
    """Unit seeds for this run: the reference pool shuffled by --seed."""
    order = list(range(wl.pool))
    random.Random(f"{wl.name}:{seed}").shuffle(order)
    return order


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tally:
    """Episodes attempted/failed, check failures and per-unit figures."""

    def __init__(self, wl, refs: dict):
        self.wl = wl
        self.refs = refs
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.units: list[dict] = []

    def run_unit(self, m, ctx, env_cls, log, seed: int) -> list[float] | None:
        wl = self.wl
        steps0, episodes0 = log.steps, log.episodes
        t0 = time.perf_counter()
        try:
            returns = wl.unit(m, ctx, seed, env_cls)
        except Exception:  # an episode that raises is a failed operation
            traceback.print_exc(file=sys.stderr)
            returns = None
        seconds = time.perf_counter() - t0
        steps = log.steps - steps0
        self.attempted += wl.episodes_per_unit
        if returns is None:
            # The raising episode and the rest of the unit's run fail.
            lost = wl.episodes_per_unit - (log.episodes - episodes0)
            self.failed += lost
            self.errors.append(f"unit seed {seed}: raised; {lost} episodes failed")
        else:
            bad = sum(not math.isfinite(r) for r in returns)
            self.failed += bad
            if bad:
                self.errors.append(f"unit seed {seed}: {bad} non-finite returns")
        quality = None
        if returns is not None and all(math.isfinite(r) for r in returns):
            quality = float(wl.quality(m, returns))
            self.compare(seed, returns)
        self.units.append({"seed": seed, "steps": steps, "seconds": seconds,
                           wl.quality_name: quality})
        return returns

    def compare(self, seed: int, returns: list[float]) -> None:
        """Check every episode return against the unit's references."""
        ref = self.refs[str(seed)]
        if len(returns) != len(ref):
            self.errors.append(f"unit seed {seed}: {len(returns)} episode "
                               f"returns, reference has {len(ref)}")
            return
        for episode, (got, want) in enumerate(zip(returns, ref)):
            if abs(got - want) > self.wl.rtol * abs(want):
                self.errors.append(
                    f"unit seed {seed}: episode {episode} return {got!r} "
                    f"differs from reference {want!r} by more than rtol "
                    f"{self.wl.rtol:g}")

    @property
    def steps(self) -> int:
        return sum(u["steps"] for u in self.units)

    @property
    def seconds(self) -> float:
        return sum(u["seconds"] for u in self.units)


def timed_setup(wl, seed: int, log):
    """Set the workload up SETUP_REPS times from a fresh import; keep the last.

    Returns (median set-up seconds, modules, context, timed env class). The
    median is scaled by the calibration samples taken between set-ups.
    Interpreter start and the numpy import are outside the timed span: they
    are fixed costs that no uavmec change can move.
    """
    from timing import calibration_time, scale_factor, timed_env_class
    calibs = [calibration_time()]
    times = []
    for _ in range(SETUP_REPS):
        gc.collect()  # drop the previous import's module cycles untimed
        t0 = time.perf_counter()
        m = load_uavmec()
        env_cls = timed_env_class(m.env.OffloadEnv, log)
        ctx = wl.setup(m, seed, env_cls)
        times.append(time.perf_counter() - t0)
        calibs.append(calibration_time())
    loaded = Path(m.env.__file__).resolve()
    if SRC.resolve() not in loaded.parents:
        raise SystemExit(f"error: imported uavmec from {loaded}, not {SRC}")
    times.sort()
    return times[len(times) // 2] * scale_factor(calibs), m, ctx, env_cls


def percentile(values, q: float) -> float:
    import numpy as np
    return float(np.percentile(np.asarray(values), q))


def measure(wl, seed: int, seconds: float, refs: dict):
    """Untraced run: end-to-end metrics."""
    from timing import StepLog
    log = StepLog()
    setup_s, m, ctx, env_cls = timed_setup(wl, seed, log)
    log.clear()
    tally = Tally(wl, refs)
    order = unit_order(wl, seed)
    start = time.perf_counter()
    i = 0
    while True:
        tally.run_unit(m, ctx, env_cls, log, order[i % len(order)])
        i += 1
        if time.perf_counter() - start >= seconds:
            break
    tally.errors += log.ledger_errors
    if not log.intervals:
        raise SystemExit("error: no env step completed; " + "; ".join(tally.errors))
    ms = [1000.0 * x for x in log.scaled()]
    raw_ms = [1000.0 * x for x in log.intervals]
    metrics = {
        "setup_s": setup_s,
        "steps_per_s": 1000.0 * len(ms) / sum(ms),
        "step_ms.p50": percentile(ms, 50),
        "step_ms.p90": percentile(ms, 90),
        "peak_rss_mb": peak_rss_mb(),
    }
    info = {"step_ms.samples": len(ms),
            "raw_steps_per_s": 1000.0 * len(raw_ms) / sum(raw_ms),
            "raw_step_ms.p50": percentile(raw_ms, 50),
            "raw_step_ms.p90": percentile(raw_ms, 90),
            "units": tally.units}
    return tally, {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}, info


def reported(wl, tally) -> dict:
    """Figures printed and recorded but not declared in BENCHMARK.json (a
    declared metric must never be 0 and must be steady across seeds): the
    failed fraction and the mean of the units' checked returns."""
    out = {"failed_frac": (tally.failed / tally.attempted, "ratio")}
    values = [u[wl.quality_name] for u in tally.units
              if u[wl.quality_name] is not None]
    if values:
        out[wl.quality_name] = (sum(values) / len(values), "return")
    return out


def layer_metrics(tracer, traced_sps: float, untraced_sps: float) -> dict:
    """Per-layer metrics from the spans of one traced run."""
    stats = tracer.per_name()

    def calls(name):
        return stats.get(name, {}).get("calls", 0)

    def secs(name):
        return stats.get(name, {}).get("self_s", 0.0)

    def module(prefix):
        names = [n for n in stats if n.startswith(prefix + ".")]
        return sum(calls(n) for n in names), sum(secs(n) for n in names)

    out = {}
    out["env.step.calls"] = (calls("env.step"), "count")
    out["env.step.self_s"] = (secs("env.step"), "s")
    for name in ("decode", "state", "reset"):
        out[f"env.{name}.s"] = (secs(f"env.{name}"), "s")
    out["env.clone.calls"] = (calls("env.clone"), "count")
    out["env.clone.s"] = (secs("env.clone"), "s")
    out["env.peek_reward.calls"] = (calls("env.peek_reward"), "count")
    for mod in ("channel", "compute_energy", "economics", "world"):
        n, s = module(mod)
        out[f"{mod}.calls"] = (n, "count")
        out[f"{mod}.s"] = (s, "s")
    for name in ("forward", "backward", "optim"):
        out[f"nets.{name}.calls"] = (calls(f"nets.{name}"), "count")
        out[f"nets.{name}.s"] = (secs(f"nets.{name}"), "s")
    out["nets.soft_update.s"] = (secs("nets.soft_update"), "s")
    out["nets.all_finite.s"] = (secs("nets.all_finite"), "s")
    out["nets.flops"] = (tracer.flops, "flop")
    out["replay.push.s"] = (secs("replay.push"), "s")
    out["replay.sample.calls"] = (calls("replay.sample"), "count")
    out["replay.sample.s"] = (secs("replay.sample"), "s")
    for name in ("act", "td_targets", "critic_update", "actor_update",
                 "check_finite"):
        out[f"td3.{name}.s"] = (secs(f"td3.{name}"), "s")
    critic_calls = calls("td3.critic_update")
    out["td3.critic_update.calls"] = (critic_calls, "count")
    out["td3.actor_per_critic"] = (
        calls("td3.actor_update") / critic_calls if critic_calls else 0.0, "ratio")
    for name in ("sample_action", "value", "gae", "update"):
        out[f"ppo.{name}.s"] = (secs(f"ppo.{name}"), "s")
    slots = calls("baseline.greedy_action")
    probes, improving = tracer.greedy_probe_stats()
    out["baseline.greedy_action.s"] = (secs("baseline.greedy_action"), "s")
    out["baseline.probes_per_slot"] = (
        calls("env.peek_reward") / slots if slots else 0.0, "probe/slot")
    out["baseline.accept_ratio"] = (improving / probes if probes else 0.0, "ratio")
    out["trace.steps_per_s"] = (traced_sps, "1/s")
    out["trace.untraced_steps_per_s"] = (untraced_sps, "1/s")
    out["trace.slowdown"] = (untraced_sps / traced_sps, "ratio")
    out["trace.spans"] = (len(tracer.name), "count")
    return out


def trace_run(wl, seed: int, refs: dict, spans_path: Path | None):
    """Traced run: the fixed traced work untraced, then traced."""
    from timing import StepLog
    from tracer import Tracer, traced
    log = StepLog(calibrate=False)
    _, m, ctx, env_cls = timed_setup(wl, seed, log)
    seeds = unit_order(wl, seed)[:wl.trace_units]

    plain = Tally(wl, refs)
    plain_returns = [plain.run_unit(m, ctx, env_cls, log, s) for s in seeds]

    tracer = Tracer()
    tally = Tally(wl, refs)
    with traced(tracer):
        traced_returns = []
        for s in seeds:
            with tracer.span("bench.unit"):
                traced_returns.append(tally.run_unit(m, ctx, env_cls, log, s))
    tally.attempted += plain.attempted
    tally.failed += plain.failed
    tally.errors += plain.errors + log.ledger_errors
    if traced_returns != plain_returns:
        tally.errors.append("traced returns differ from untraced returns")
    metrics = layer_metrics(tracer, tally.steps / tally.seconds,
                            plain.steps / plain.seconds)
    if spans_path is not None:
        tracer.save(str(spans_path))
    info = {"units": tally.units, "untraced_units": plain.units,
            "span_names": tracer.per_name()}
    return tally, metrics, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    threads = configure_blas()
    use_checkout_src()
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)}")
    wl = WORKLOADS[args.workload]
    refs = json.loads(REFS.read_text(encoding="utf-8"))[wl.name]
    env = environment(threads)
    OUT.mkdir(exist_ok=True)
    stem = f"{wl.name}_seed{args.seed}_trace{args.trace}"

    if args.trace:
        tally, metrics, info = trace_run(wl, args.seed, refs,
                                         OUT / f"spans_{stem}.npz")
    else:
        tally, metrics, info = measure(wl, args.seed, args.seconds, refs)
    correct = not tally.errors and tally.failed == 0
    result = {"correct": correct, "attempted": tally.attempted,
              "failed": tally.failed,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}

    extra = reported(wl, tally)
    record = {"workload": wl.name, "why": wl.why, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "environment": env, "errors": tally.errors,
              "reported": {k: v for k, (v, _) in extra.items()}, "info": info,
              "result": result}
    (OUT / f"BENCH_{stem}.json").write_text(json.dumps(record, indent=1) + "\n",
                                            encoding="utf-8")

    print(f"# workload {wl.name}: {wl.why}")
    print("# environment " + " ".join(f"{k}={v}" for k, v in env.items()))
    for err in tally.errors:
        print(f"# CHECK FAILED {err}")
    print(f"# attempted {tally.attempted} episodes, failed {tally.failed}")
    for k, (v, u) in metrics.items():
        print(f"{k:30s} {v!r} {u}")
    for k, (v, u) in extra.items():
        print(f"{k:30s} {v!r} {u} (reported, not declared)")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
