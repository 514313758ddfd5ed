"""Self-checks of the benchmark: tracing must not perturb results.

    python3 perfbench/selftest.py            # or: python3 -m pytest perfbench/selftest.py

Run from the repository root. For every workload at one seed: an untraced
run and two traced runs pass every output check; the traced runs return
exactly what the untraced run returned on the same unit; and both traced
runs produce identical call counts, so the counts can be cited. Takes about
a minute.
"""

from __future__ import annotations

import json
import sys
import time

import run

if "numpy" not in sys.modules:
    run.configure_blas()
run.use_checkout_src()

from tracer import Tracer, _resolve, all_targets, traced  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 3


def _counts(metrics, info):
    counts = {k: v for k, (v, unit) in metrics.items() if unit == "count"}
    counts.update({f"span:{k}": v["calls"] for k, v in info["span_names"].items()})
    return counts


def _check_workload(name):
    wl = WORKLOADS[name]
    refs = json.loads(run.REFS.read_text(encoding="utf-8"))[name]
    untraced, _, _ = run.measure(wl, SEED, 0.0, refs)  # exactly one unit
    first = run.trace_run(wl, SEED, refs, None)
    second = run.trace_run(wl, SEED, refs, None)
    # trace_run records an error when its traced pass returns anything but
    # what its untraced pass of the same units returned.
    for tally in (untraced, first[0], second[0]):
        assert not tally.errors, tally.errors
        assert tally.failed == 0
    q = wl.quality_name
    assert first[0].units[0][q] == untraced.units[0][q]
    assert _counts(*first[1:]) == _counts(*second[1:])
    assert first[1]["env.step.calls"][0] > 0


def test_td3_learn():
    _check_workload("td3-learn")


def test_ppo_paper():
    _check_workload("ppo-paper")


def test_greedy_paper():
    _check_workload("greedy-paper")


def test_rollout_large():
    _check_workload("rollout-large")


def _calibrated_steps(wl, extra_objects: int, seconds: float):
    """Raw steps/s of rollout-large and the mean calibration time, with a
    fixed extra cost in every step when the block's flag is set: building
    ``extra_objects`` small dicts and keeping the last few such lists, so
    the heap grows and the garbage collector runs. The plain and the costly
    program alternate in blocks of 0.25 s, so both see the same machine."""
    from timing import calibration_time
    m = run.load_uavmec()
    kept: list = []

    class CostlyEnv(m.env.OffloadEnv):
        costly = False

        def step(self, raw_action):
            if self.costly:
                kept.append([{"i": i} for i in range(extra_objects)])
                del kept[:-5]
            return super().step(raw_action)

    ctx = wl.setup(m, SEED, CostlyEnv)
    env, actor = ctx["env"], ctx["actor"]
    steps, busy, calibs = [0, 0], [0.0, 0.0], [[], []]
    s = env.reset(SEED)
    end = time.perf_counter() + 2 * seconds
    while time.perf_counter() < end:
        costly = int(time.perf_counter() // 0.25) % 2
        CostlyEnv.costly = bool(costly)
        t0 = time.perf_counter()
        s, _, _, done = env.step(actor.forward(s)[0])
        if done:
            s = env.reset()
        busy[costly] += time.perf_counter() - t0
        steps[costly] += 1
        calibs[costly].append(calibration_time())
    return [n / t for n, t in zip(steps, busy)], [sum(c) / len(c) for c in calibs]


def test_calibration_scales_a_program_change_as_raw_time():
    """Scaled steps/s is raw steps/s times the mean calibration time over
    CALIB_REF_S, so a program change moves both by the same ratio exactly
    when the calibration time does not depend on the program."""
    raw_sps, calib = _calibrated_steps(WORKLOADS["rollout-large"], 20_000, 10.0)
    raw_ratio = raw_sps[1] / raw_sps[0]
    scaled_ratio = raw_ratio * calib[1] / calib[0]
    print(f"extra cost: raw steps/s x{raw_ratio:.3f}, scaled x{scaled_ratio:.3f}, "
          f"calibration {1e3 * calib[0]:.3f} -> {1e3 * calib[1]:.3f} ms")
    assert raw_ratio < 0.8, "the extra cost is too small to test anything"
    assert abs(scaled_ratio / raw_ratio - 1) < 0.05


def test_tracer_restores_every_target():
    run.load_uavmec()
    targets = [t for ts in all_targets().values() for t in ts]
    before = {t: _resolve(t)[2] for t in targets}
    with traced(Tracer()):
        assert all(_resolve(t)[2] is not f for t, f in before.items())
    assert all(_resolve(t)[2] is f for t, f in before.items())


if __name__ == "__main__":
    tests = [v for k, v in sorted(globals().items()) if k.startswith("test_")]
    for test in tests:
        test()
        print(f"ok {test.__name__}", flush=True)
    print(f"{len(tests)} passed")
