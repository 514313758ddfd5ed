import numpy as np
import pytest

from uavmec.config import SimConfig


def small_sim(n_busy=4, n_idle=2, n_uav=2, n_slots=10) -> SimConfig:
    cfg = SimConfig()
    cfg.world.n_busy = n_busy
    cfg.world.n_idle = n_idle
    cfg.world.n_uav = n_uav
    cfg.world.n_slots = n_slots
    return cfg


@pytest.fixture
def sim_cfg() -> SimConfig:
    return small_sim()


class BanditEnv:
    """1-step, 1-D environment with reward -(a - optimum)^2."""

    state_dim = 1
    action_dim = 1

    def __init__(self, seed: int = 0, optimum: float = 0.5):
        self.optimum = optimum
        self.done = True

    def reset(self, seed=None):
        self.done = False
        return np.zeros(1)

    def step(self, a):
        if self.done:
            raise RuntimeError("episode finished")
        self.done = True
        r = -float((float(a[0]) - self.optimum) ** 2)
        return np.zeros(1), r, _FakeEntry(), True


class _FakeEntry:
    penalty = 0.0
