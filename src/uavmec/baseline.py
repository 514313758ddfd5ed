"""RL-free greedy policy: per slot, coordinate search over a coarse action
grid with velocities steered toward the busy-UD centroid."""

from __future__ import annotations

import numpy as np

from .config import SimConfig
from .env import OffloadEnv

SCALAR_DIMS = 12          # split logits, f levels, prices, weight logits, selector
GRID = (-1.0, 0.0, 1.0)
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


def greedy_action(env: OffloadEnv, passes: int = 1) -> np.ndarray:
    """Coordinate-wise argmax over the 3-point grid for each scalar dim.

    Each dim scores its whole grid in one :meth:`OffloadEnv.peek_rewards`
    call, then takes, in GRID order, each value whose reward is strictly
    greater than the best so far. The current value is on the grid and its
    row scores the current action, whose reward is the best so far; rows
    are scored independently. So this picks the action that probing one
    value at a time, skipping the current one, would.
    """
    k = env.cfg.world.n_uav
    action = np.zeros(env.action_dim)
    action[11:11 + 3 * k] = steering_velocities(env)
    scalar_idx = list(range(0, 11)) + [11 + 3 * k]
    for _ in range(passes):
        for dim in scalar_idx:
            trials = np.repeat(action[None], len(GRID), axis=0)
            trials[:, dim] = GRID
            rewards = env.peek_rewards(trials).tolist()
            best = rewards[GRID.index(action[dim])]
            for value, r in zip(GRID, rewards):
                if r > best:
                    best = r
                    action[dim] = value
    return action


def greedy_episode(cfg: SimConfig, seed: int, passes: int = 1):
    """Roll one greedy episode; returns (episode return, ledger entries)."""
    env = OffloadEnv(cfg, seed)
    total = 0.0
    entries = []
    done = False
    while not done:
        a = greedy_action(env, passes=passes)
        _, r, entry, done = env.step(a)
        total += r
        entries.append(entry)
    return total, entries


def greedy_baseline(cfg: SimConfig, seed: int) -> float:
    """Episode return of the greedy policy; deterministic per (cfg, seed)."""
    total, _ = greedy_episode(cfg, seed)
    return total


def zeros_baseline(cfg: SimConfig, seed: int) -> float:
    """Episode return of the all-zeros raw action (comparison policy)."""
    env = OffloadEnv(cfg, seed)
    total = 0.0
    done = False
    while not done:
        _, r, _, done = env.step(np.zeros(env.action_dim))
        total += r
    return total
