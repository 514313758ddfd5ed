"""The batched greedy search against the one-probe-at-a-time search it
replaces, kept here as the oracle."""

import numpy as np
import pytest

from uavmec.baseline import GRID, greedy_action, steering_velocities
from uavmec.config import SimConfig
from uavmec.env import OffloadEnv


def sequential_greedy_action(env: OffloadEnv, passes: int = 1) -> np.ndarray:
    """Coordinate search scoring one candidate per peek_reward call."""
    k = env.cfg.world.n_uav
    action = np.zeros(env.action_dim)
    action[11:11 + 3 * k] = steering_velocities(env)
    scalar_idx = list(range(0, 11)) + [11 + 3 * k]
    best_reward = env.peek_reward(action)
    for _ in range(passes):
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


def _sized(n_busy, n_idle, n_uav) -> SimConfig:
    cfg = SimConfig()
    cfg.world.n_busy, cfg.world.n_idle, cfg.world.n_uav = n_busy, n_idle, n_uav
    # 20 slots keep the test short; with a 2 kJ battery the energy penalty
    # F2, which the action moves, starts firing mid-episode.
    cfg.world.n_slots, cfg.world.battery_j = 20, 2_000.0
    return cfg


@pytest.mark.parametrize("passes", [1, 2])
@pytest.mark.parametrize("shape", [(20, 10, 5), (6, 3, 2)], ids=["20-10-5", "6-3-2"])
def test_batched_greedy_equals_sequential_search(shape, passes):
    cfg = _sized(*shape)
    for seed in range(5):
        env = OffloadEnv(cfg, seed)
        f2_fired = done = False
        while not done:
            action = greedy_action(env, passes=passes)
            assert action.tobytes() == sequential_greedy_action(env, passes).tobytes()
            _, _, entry, done = env.step(action)
            f2_fired |= entry.f2 > 0
        assert f2_fired
