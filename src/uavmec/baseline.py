"""RL-free greedy policy: per slot, coordinate search over a coarse action
grid with velocities steered toward the busy-UD centroid."""

from __future__ import annotations

import itertools

import numpy as np

from .config import SimConfig
from .env import OffloadEnv, episode_return, rollout

GRID = (-1.0, 0.0, 1.0)
# Scalar dims scored per kernel call. On a 2-vCPU x86_64 machine a
# peek_rewards call at 20/10/5 costs about 410 us at 3 rows and 660 us at 27,
# mostly fixed per-call overhead; with 1, 2, 3 and 4 dims per call the
# greedy-paper step p50 was 5.9, 3.8, 3.5 and 4.5 ms: 81 rows cost more than
# the calls they save.
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
    dim at a time, it takes in GRID order each value whose reward is
    strictly greater than the best so far, reading the rows where the
    group's earlier dims hold their picks and its later dims their current
    values. Those rows are the actions that probing one value at a time,
    skipping the current one, would score; the current value's row scores
    the current action, whose reward is the best so far, and rows are
    scored independently. So this picks the action that search would.
    """
    k = env.cfg.world.n_uav
    action = np.zeros(env.action_dim)
    action[11:11 + 3 * k] = steering_velocities(env)
    scalar_idx = list(range(0, 11)) + [11 + 3 * k]
    for start in range(0, len(scalar_idx), GROUP):
        dims = scalar_idx[start:start + GROUP]
        n = len(dims)
        trials = np.repeat(action[None], len(GRID) ** n, axis=0)
        trials[:, dims] = PRODUCT_GRID[:len(trials), GROUP - n:]
        rewards = env.peek_rewards(trials).reshape((len(GRID),) * n)
        pick = [GRID.index(action[dim]) for dim in dims]
        for p in range(n):
            line = rewards[(*pick[:p], slice(None), *pick[p + 1:])].tolist()
            best = line[pick[p]]
            for v, r in enumerate(line):
                if r > best:
                    best, pick[p] = r, v
        action[dims] = [GRID[v] for v in pick]
    return action


def greedy_episode(cfg: SimConfig, seed: int):
    """Roll one greedy episode; returns (episode return, ledger entries)."""
    env = OffloadEnv(cfg, seed)
    entries = rollout(env, lambda _: greedy_action(env))
    return episode_return(e.reward for e in entries), entries


def greedy_baseline(cfg: SimConfig, seed: int) -> float:
    """Episode return of the greedy policy; deterministic per (cfg, seed)."""
    total, _ = greedy_episode(cfg, seed)
    return total


def zeros_baseline(cfg: SimConfig, seed: int) -> float:
    """Episode return of the all-zeros raw action (comparison policy)."""
    env = OffloadEnv(cfg, seed)
    entries = rollout(env, lambda _: np.zeros(env.action_dim))
    return episode_return(e.reward for e in entries)
