"""Walk through one slot of the offloading economy.

Builds a small world, takes one environment step with a hand-picked raw
action, and prints how the physical quantities (rates, delays, energies)
roll up into party utilities, system revenue, and the reward.
"""

import numpy as np

from uavmec.config import SimConfig, WorldConfig
from uavmec.env import OffloadEnv, decode

sim = SimConfig(world=WorldConfig(n_busy=4, n_idle=2, n_uav=2, n_slots=10))
env = OffloadEnv(sim, seed=0)

# A raw action is a vector in [-1, 1]; decode() maps it to the feasible set.
raw = np.zeros(env.action_dim)
raw[0:3] = [0.5, -0.2, 0.0]    # offload-split logits
raw[5] = 0.8                   # generous UAV compute level
raw[6] = -0.5                  # cheap UAV price
raw[11:14] = 0.05              # gentle drift for UAV 0

act = decode(raw, sim)
print("decoded action")
print(f"  split     eps1={act.eps1:.3f} eps2={act.eps2:.3f} eps3={act.eps3:.3f}")
print(f"  compute   busy={act.f_busy/1e9:.2f} GHz  idle={act.f_idle/1e9:.2f} GHz  "
      f"uav={act.f_uav/1e9:.2f} GHz")
print(f"  prices    uav={act.p_uav:.2f}  idle={act.p_idle:.2f}")
print(f"  weights   w1={act.w1:.3f} w2={act.w2:.3f} w3={act.w3:.3f}")
print(f"  transcode target {act.bitrate_mbps} Mbps "
      f"(from {sim.task.original_bitrate_mbps} Mbps)")

_, reward, entry, _ = env.step(raw)

print("\nslot ledger")
print(f"  energies [J]  local={entry.e_local:.3f}  uplink={entry.e_off_uav:.4f}  "
      f"d2d={entry.e_off_d2d:.4f}")
print(f"                transcode={entry.e_transcode:.2f}  "
      f"uav-compute={entry.e_uav_compute:.2f}  idle-compute={entry.e_idle_compute:.3f}")
print(f"                flight={entry.e_fly:.1f}")
print(f"  utilities     U_uav={entry.u_uav:.2f}  U_idle={entry.u_idle:.2f}  "
      f"U_busy={entry.u_busy:.2f}")
print(f"  revenue Q     {entry.q:.2f}")
print(f"  penalties     F1={entry.f1} F2={entry.f2} F3={entry.f3} F4={entry.f4}")
print(f"  reward        {reward:.2f}  (= Q - penalties)")
