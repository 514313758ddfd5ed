"""RL-free greedy policy: per slot, coordinate search over a coarse action
grid with velocities steered toward the busy-UD centroid."""

from __future__ import annotations

import itertools

import numpy as np

from .config import SimConfig
from .env import OffloadEnv, episode_return, rollout, velocity_columns

GRID = (-1.0, 0.0, 1.0)
# Scalar dims scored per kernel call. On a 2-vCPU x86_64 machine a
# peek_rewards call inside greedy search at 20/10/5 costs about 170 us at 3
# rows, 220 us at 27 and 345 us at 81, mostly fixed per-call overhead. In
# alternating in-process rounds, a greedy slot with 2 dims per call took
# about 1.27x as long as with 3; with 4 it was faster than with 3 in 22 of
# 30 pairs in each of two sessions, by a median 2-3.5%, within the
# run-to-run spread.
GROUP = 3
# Product grid of GRID over GROUP dims, last dim fastest. Its first
# len(GRID)**g rows, last g columns, are the product grid over g dims.
PRODUCT_GRID = np.array(list(itertools.product(GRID, repeat=GROUP)))
# Raw magnitude of the steering command; small speeds sit near the propulsion
# bowl minimum so approaching users costs almost nothing.
STEER_RAW = 0.08


def steering_velocities(env: OffloadEnv) -> np.ndarray:
    """Raw velocity block pointing each UAV at the busy-UD centroid."""
    centroid = env.world.busy_pos.mean(axis=0)
    target_alt = 0.5 * (env.cfg.world.h_min + env.cfg.world.h_max)
    target = np.array([centroid[0], centroid[1], target_alt])
    d = target - env.world.uav_pos
    norm = np.sqrt(np.vecdot(d, d))
    far = norm > 1.0
    block = np.zeros_like(d)
    block[far] = d[far] / norm[far, None] * STEER_RAW
    return block.ravel()


def greedy_action(env: OffloadEnv) -> np.ndarray:
    """Coordinate-wise argmax over the 3-point grid for each scalar dim.

    The scalar dims go in consecutive groups of GROUP; each group scores its
    whole product grid in one :meth:`OffloadEnv.peek_rewards` call. Then, one
    dim at a time, it moves to the first best value in GRID order, if that
    value's reward beats the current value's, reading the rows where the
    group's earlier dims hold their picks and its later dims their current
    values. Those rows are the actions that probing one value at a time,
    skipping the current one, would score; the current value's row scores
    the current action, whose reward is the best so far, and rows are
    scored independently. So this picks the action that search would.
    """
    vel = velocity_columns(env.cfg.world.n_uav)
    action = np.zeros(env.action_dim)
    action[vel] = steering_velocities(env)
    scalar_idx = [*range(vel.start), *range(vel.stop, env.action_dim)]
    for start in range(0, len(scalar_idx), GROUP):
        dims = scalar_idx[start:start + GROUP]
        n = len(dims)
        trials = np.repeat(action[None], len(GRID) ** n, axis=0)
        trials[:, dims] = PRODUCT_GRID[:len(trials), GROUP - n:]
        rewards = env.peek_rewards(trials).reshape((len(GRID),) * n)
        pick = [GRID.index(action[dim]) for dim in dims]
        for p in range(n):
            line = rewards[(*pick[:p], slice(None), *pick[p + 1:])].tolist()
            m = max(line)
            if m > line[pick[p]]:
                pick[p] = line.index(m)
        action[dims] = [GRID[v] for v in pick]
    return action


def greedy_episode(cfg: SimConfig, seed: int):
    """Roll one greedy episode; returns (episode return, ledger entries)."""
    env = OffloadEnv(cfg, seed)
    entries = rollout(env, lambda _: greedy_action(env))
    return episode_return(e.reward for e in entries), entries
