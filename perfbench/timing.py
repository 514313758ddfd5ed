"""Step timing for the benchmark, scaled by interleaved CPU-speed calibration.

On a shared 2-vCPU Xeon VM at 2.1 GHz, where the benchmark was defined, the
same Python work runs up to 1.6x slower from one millisecond to the next,
and whole 20-25 s runs sat in a slow or a fast state, so raw steps/s and
step latency spread by 15-42% (IQR over median, five seeds) across runs. The
benchmark therefore takes a ~1 ms calibration sample of fixed work every
``CALIBRATE_EVERY_S`` seconds, between steps and outside every timed
interval, and scales each stretch of step intervals by ``CALIB_REF_S`` over
the mean of the samples around it. A reported second is a second on a
machine where the loop takes ``CALIB_REF_S``. The loop runs with the
garbage collector off, and a program change does not touch it, so a change
should move scaled figures as it moves raw ones; ``selftest.py`` checks this
against a fixed extra cost that allocates and retains objects. Raw figures
are kept in the run record.
"""

from __future__ import annotations

import copy
import gc
import math
import random
import time
import weakref

import numpy as np

# Mean time of calibration_loop() during the benchmark's runs on that VM, so
# scaled figures read close to its raw ones. It only sets the scale of
# reported times.
CALIB_REF_S = 0.0014
CALIBRATE_EVERY_S = 0.05
CALIB_WINDOW = 4

# Scattered reads over ~2 MB of float objects, more than a core's L2.
_TABLE = [float(i) for i in range(1 << 16)]
_ORDER = random.Random(0).sample(range(1 << 16), 1250)
_VEC = np.ones(3)
_NESTED = {"rows": [{"x": float(i), "pair": [i, i + 1]} for i in range(40)],
           "vec": _VEC}


def calibration_loop() -> float:
    """Fixed work in the kinds the workloads mix: cache-missing reads, per-call
    overhead of small numpy operations, deep copies of small object graphs,
    and interpreter arithmetic with dict stores."""
    s = 0.0
    for i in _ORDER:
        s += _TABLE[i]
    for i in range(75):
        s += float(np.linalg.norm(_VEC * i))
    for _ in range(2):
        s += copy.deepcopy(_NESTED)["rows"][-1]["x"]
    slots = {}
    for i in range(1250):
        s += (i * 0.5) ** 0.5
        slots[i & 255] = s
    return s


def calibration_time() -> float:
    """Time one calibration_loop() with the garbage collector off, so that no
    collection, whose cost depends on the program's heap, lands in it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        calibration_loop()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def scale_factor(samples: list[float]) -> float:
    """Raw seconds to reference seconds, from calibration samples."""
    return CALIB_REF_S * len(samples) / sum(samples)


class StepLog:
    """What the timed env records on committed (non-probe) steps.

    ``intervals`` holds the raw seconds between consecutive step returns of
    an env (the first measured from its construction). With ``calibrate``
    on, a calibration sample is taken every ``CALIBRATE_EVERY_S`` between
    steps, and :meth:`scaled` scales each stretch of intervals by the mean
    of the ``2 * CALIB_WINDOW`` samples around it. One ~1 ms sample is a
    noisy reading of the machine's speed; the window averages that noise
    out while still following changes that last half a second or more.
    Traced runs turn calibration off.
    """

    def __init__(self, calibrate: bool = True):
        self.calibrate = calibrate
        self.steps = 0
        self.episodes = 0
        self.ledger_errors: list[str] = []
        # Weak keys: an env's entry dies with it, so a later clone that
        # reuses its address is never mistaken for a committed env.
        self._last: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self.clear()

    def clear(self) -> None:
        """Drop the intervals recorded so far and calibrate afresh."""
        self.intervals: list[float] = []
        self._calibs: list[float] = []
        self._cuts: list[int] = []     # len(intervals) at each sample
        self._sample()

    def _sample(self) -> None:
        if self.calibrate:
            self._calibs.append(calibration_time())
            self._cuts.append(len(self.intervals))
        self._calib_at = time.perf_counter()

    def ready(self, env) -> None:
        self._last[env] = time.perf_counter()

    def committed(self, env, reward, entry, done) -> None:
        last = self._last.get(env)
        if last is None:        # a clone made by peek_reward, not a commit
            return
        now = time.perf_counter()
        self.intervals.append(now - last)
        self.steps += 1
        self.episodes += bool(done)
        if not (math.isfinite(reward) and entry.reward == reward
                and entry.reward == entry.q - entry.penalty):
            self.ledger_errors.append(
                f"slot {entry.slot}: reward {entry.reward!r} != "
                f"q {entry.q!r} - penalty {entry.penalty!r}")
        if self.calibrate and now - self._calib_at >= CALIBRATE_EVERY_S:
            self._sample()
            now = time.perf_counter()
        self._last[env] = now

    def scaled(self) -> list[float]:
        """Intervals scaled to a machine where calibration takes CALIB_REF_S."""
        self._sample()
        calibs, cuts = self._calibs, self._cuts
        out = []
        for k in range(len(cuts) - 1):
            factor = scale_factor(
                calibs[max(0, k + 1 - CALIB_WINDOW):k + 1 + CALIB_WINDOW])
            out += [x * factor for x in self.intervals[cuts[k]:cuts[k + 1]]]
        return out


def timed_env_class(base, log: StepLog):
    """Subclass of OffloadEnv that times and checks every committed step.

    Envs built through the constructor are the ones a loop commits to;
    clones made by deepcopy skip ``__init__`` and are not recorded.
    """

    class TimedEnv(base):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            log.ready(self)

        def step(self, raw_action):
            out = super().step(raw_action)
            log.committed(self, out[1], out[2], out[3])
            return out

    return TimedEnv
