import dataclasses
import typing

import numpy as np
import pytest

from uavmec.config import SimConfig, WorldConfig
from uavmec.env import LedgerEntry, OffloadEnv


def small_sim(n_busy=4, n_idle=2, n_uav=2, n_slots=10, deterministic_fading=False,
              **world) -> SimConfig:
    """The default scenario at I/J/K = n_busy/n_idle/n_uav; world holds
    further WorldConfig fields (``battery_j=2_000.0``, say)."""
    return SimConfig(world=WorldConfig(n_busy=n_busy, n_idle=n_idle, n_uav=n_uav,
                                       n_slots=n_slots, **world),
                     deterministic_fading=deterministic_fading)


def _bare(hint):
    return typing.get_args(hint)[0] if typing.get_origin(hint) is typing.Annotated else hint


def numeric_leaves(cls, path=""):
    """(dotted path, int or float) of every numeric field of the config
    dataclass cls, at every depth, found from ``dataclasses.fields``; a
    tuple of numbers is named by its first element, ``<path>[0]``."""
    hints = typing.get_type_hints(cls, include_extras=True)
    for f in dataclasses.fields(cls):
        hint, where = _bare(hints[f.name]), f"{path}.{f.name}" if path else f.name
        if dataclasses.is_dataclass(hint):
            yield from numeric_leaves(hint, where)
        elif hint in (int, float):
            yield where, hint
        elif typing.get_origin(hint) is tuple and _bare(typing.get_args(hint)[0]) in (int, float):
            yield where + "[0]", _bare(typing.get_args(hint)[0])


# The ledger CSV's columns before the per-UAV ones, written out by hand so
# that a change to LedgerEntry shows up as a change to this text.
LEDGER_HEADER = ("episode,slot,q,u_uav,u_idle,u_busy,f1,f2,f3,f4,penalty,reward,"
                 "e_local,e_off_uav,e_off_d2d,e_transcode,e_uav_compute,"
                 "e_idle_compute,e_fly,t_local,t_off_uav,t_off_d2d")


def uav_columns(n_uav: int) -> str:
    """The ledger CSV's per-UAV columns, each led by a comma."""
    return "".join(f",uav{k}_{c}" for k in range(n_uav) for c in ("x", "y", "z", "energy"))


@pytest.fixture
def sim_cfg() -> SimConfig:
    return small_sim()


def left_to_right_sum(values) -> float:
    total = 0.0
    for v in values:
        total += v
    return total


def ledger_sums(entries) -> dict[str, float]:
    """Field name -> left_to_right_sum of that LedgerEntry field over the
    entries, for every field but slot and uav_rows, in declaration order."""
    return {f.name: left_to_right_sum(getattr(e, f.name) for e in entries)
            for f in dataclasses.fields(LedgerEntry) if f.name not in ("slot", "uav_rows")}


class RecordingEnv(OffloadEnv):
    """OffloadEnv that keeps the ledger entries it steps, one list per
    ``reset`` (the constructor's included)."""

    def __init__(self, *args, **kwargs):
        self.episodes = []
        super().__init__(*args, **kwargs)

    def reset(self, seed=None):
        self.episodes.append([])
        return super().reset(seed)

    def step(self, raw_action):
        out = super().step(raw_action)
        self.episodes[-1].append(out[2])
        return out


class BanditEnv:
    """1-step, 1-D environment with reward -(a - optimum)^2."""

    state_dim = 1
    action_dim = 1

    def __init__(self, seed: int = 0, optimum: float = 0.5):
        self.optimum = optimum
        self.done = True

    def reset(self, seed=None):
        self.done = False
        return self.state()

    def state(self):
        return np.zeros(1)

    def step(self, a):
        if self.done:
            raise RuntimeError("episode finished")
        self.done = True
        r = -float((float(a[0]) - self.optimum) ** 2)
        return self.state(), r, _FakeEntry(r), True


class _FakeEntry(LedgerEntry):
    """A ledger entry whose reward is the given one and every other field 0.0."""

    def __init__(self, reward: float):
        zeros = {f.name: 0.0 for f in dataclasses.fields(LedgerEntry) if f.name != "uav_rows"}
        super().__init__(**{**zeros, "reward": reward})
