"""The batched greedy search against the one-probe-at-a-time search it
replaces, kept here as the oracle."""

import itertools

import numpy as np
import pytest

from conftest import small_sim
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
    # 20 slots keep the test short; with a 2 kJ battery the energy penalty
    # F2, which the action moves, starts firing mid-episode.
    return small_sim(n_busy, n_idle, n_uav, n_slots=20, battery_j=2_000.0,
                     deterministic_fading=deterministic_fading)


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


@pytest.mark.parametrize("values", [(0.0, 1.0), (-1.0, -0.0, 0.0)],
                         ids=["ties", "signed-zero"])
def test_tied_rewards_pick_as_sequential_search(values, monkeypatch):
    """Rewards drawn from a table over the 3**12 grid points of the scalar
    dims. With two values every 3-point line holds a tie, either of a
    candidate with the current value or of two candidates; with -0.0 and
    0.0, which compare equal, the first zero on a line is the first best.
    The batched and the one-probe search read the same table."""
    env = OffloadEnv(_sized(6, 3, 2), 0)
    k = env.cfg.world.n_uav
    scalar_idx = list(range(0, 11)) + [11 + 3 * k]

    def peek_reward(action):
        return table[tuple(GRID.index(action[d]) for d in scalar_idx)]

    monkeypatch.setattr(env, "peek_reward", peek_reward)
    monkeypatch.setattr(env, "peek_rewards",
                        lambda actions: np.array([peek_reward(a) for a in actions]))
    for seed in range(20):
        table = np.random.default_rng(seed).choice(values, size=(len(GRID),) * 12)
        assert greedy_action(env).tobytes() == sequential_greedy_action(env).tobytes()
