"""The batched greedy search against the one-probe-at-a-time search it
replaces, kept here as the oracle."""

import itertools

import numpy as np
import pytest

from uavmec import baseline
from uavmec.baseline import GRID, greedy_action, steering_velocities
from uavmec.config import SimConfig
from uavmec.env import OffloadEnv


def sequential_greedy_action(env: OffloadEnv) -> np.ndarray:
    """Coordinate search scoring one candidate per peek_reward call."""
    k = env.cfg.world.n_uav
    action = np.zeros(env.action_dim)
    action[11:11 + 3 * k] = steering_velocities(env)
    scalar_idx = list(range(0, 11)) + [11 + 3 * k]
    best_reward = env.peek_reward(action)
    for dim in scalar_idx:
        for candidate in GRID:
            if candidate == action[dim]:
                continue
            trial = action.copy()
            trial[dim] = candidate
            r = env.peek_reward(trial)
            if r > best_reward:
                best_reward = r
                action = trial
    return action


def _sized(n_busy, n_idle, n_uav, deterministic_fading=False) -> SimConfig:
    cfg = SimConfig()
    cfg.world.n_busy, cfg.world.n_idle, cfg.world.n_uav = n_busy, n_idle, n_uav
    cfg.deterministic_fading = deterministic_fading
    # 20 slots keep the test short; with a 2 kJ battery the energy penalty
    # F2, which the action moves, starts firing mid-episode.
    cfg.world.n_slots, cfg.world.battery_j = 20, 2_000.0
    return cfg


@pytest.mark.parametrize("shape", [(20, 10, 5), (6, 3, 2), (6, 3, 2, True)],
                         ids=["20-10-5", "6-3-2", "6-3-2-deterministic"])
def test_batched_greedy_equals_sequential_search(shape):
    cfg = _sized(*shape)
    for seed in range(5):
        env = OffloadEnv(cfg, seed)
        f2_fired = done = False
        while not done:
            action = greedy_action(env)
            assert action.tobytes() == sequential_greedy_action(env).tobytes()
            _, _, entry, done = env.step(action)
            f2_fired |= entry.f2 > 0
        assert f2_fired


@pytest.mark.parametrize("group", [1, 2, 5], ids=["1", "2", "5-5-2"])
def test_any_group_size_equals_sequential_search(group, monkeypatch):
    # 12 scalar dims in groups of 5 leave a final group of 2.
    monkeypatch.setattr(baseline, "GROUP", group)
    monkeypatch.setattr(baseline, "PRODUCT_GRID",
                        np.array(list(itertools.product(GRID, repeat=group))))
    cfg = _sized(6, 3, 2)
    for seed in range(2):
        env = OffloadEnv(cfg, seed)
        done = False
        while not done:
            action = greedy_action(env)
            assert action.tobytes() == sequential_greedy_action(env).tobytes()
            _, _, _, done = env.step(action)
