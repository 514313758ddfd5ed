"""Scenario sweeps with the RL-free greedy baseline.

The greedy policy picks each scalar action dimension by coordinate search
and steers UAVs toward the busy-UD centroid. Because it needs no training
it isolates the environment economics: revenue should grow with more
UAVs, more idle helpers, and more UAV compute.
"""

import numpy as np

from uavmec.baseline import greedy_episode
from uavmec.config import SimConfig, SweepAxes, WorldConfig, apply_axis

base = SimConfig(world=WorldConfig(n_busy=4, n_idle=2, n_uav=2, n_slots=10))

for axis in ("n_uav", "n_idle", "f_k_max"):
    values = getattr(SweepAxes(), axis)
    means = []
    for v in values:
        sim = apply_axis(base, axis, v)
        means.append(np.mean([greedy_episode(sim, s)[0] for s in range(5)]))
    pretty = [f"{v/1e9:.0f} GHz" if axis == "f_k_max" else str(v) for v in values]
    print(f"{axis:8s}: " + "   ".join(f"{p} -> {m:.0f}"
                                      for p, m in zip(pretty, means)))
