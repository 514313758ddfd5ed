"""Bit-identity of the learners against a recorded training stream.

``tests/data/learner_stream.json`` holds, for short TD3, DDPG and PPO runs
on a 6/3/2 world, the ``repr`` of every episode return and a SHA-256 over
the final parameter bits of every network (actor, critics and their
targets; PPO's mean and value nets and its log-std) plus every logged loss.
The test replays the same runs and requires the same bits: the learner's
element-wise order and matmul operands are fixed, so a refactor of its
storage must not move a single bit.

Regenerate (only for a deliberate change of learning semantics, stated in
``CHANGES.md``)::

    PYTHONPATH=src python tests/test_learner_stream.py --write
"""

import hashlib
import json
import os
import sys

import numpy as np
import pytest

from uavmec.config import PpoConfig, SimConfig, Td3Config
from uavmec.env import OffloadEnv
from uavmec.ppo import ppo_train
from uavmec.td3 import ddpg_train, td3_train

FIXTURE = os.path.join(os.path.dirname(__file__), "data", "learner_stream.json")


def _env_factory(seed):
    cfg = SimConfig()
    cfg.world.n_busy, cfg.world.n_idle, cfg.world.n_uav = 6, 3, 2
    cfg.world.n_slots = 20
    return OffloadEnv(cfg, seed)


def _td3_cfg(**kw) -> Td3Config:
    base = dict(episodes=10, warmup_steps=40, batch_size=32,
                buffer_capacity=1000, hidden=(64, 48))
    base.update(kw)
    return Td3Config(**base)


def _td3_case(train, **kw):
    def run(seed):
        log, agent = train(_env_factory, _td3_cfg(**kw), seed)
        nets = ([agent.actor, agent.actor_target] + agent.critics
                + agent.critic_targets)
        return log, [n.flat.copy() for n in nets]
    return run


def _run_ppo(seed):
    cfg = PpoConfig(episodes=4, rollout_episodes=2, epochs=3,
                    minibatch_size=16, hidden=(64, 48))
    log, agent = ppo_train(_env_factory, cfg, seed)
    return log, [agent.mean_net.flat.copy(), agent.value_net.flat.copy(),
                 agent.log_std.copy()]


# name -> (runner, training seed).
CASES = {
    "td3": (_td3_case(td3_train), 0),
    "ddpg": (_td3_case(ddpg_train, episodes=4), 2),
    "ppo": (_run_ppo, 3),
}


def run_case(name: str) -> tuple[list[str], str]:
    """(episode-return reprs, SHA-256 of final parameters and losses)."""
    runner, seed = CASES[name]
    log, flats = runner(seed)
    digest = hashlib.sha256()
    for flat in flats:
        digest.update(np.asarray(flat, dtype=np.float64).tobytes())
    for series in (log.critic_losses, log.actor_objectives):
        digest.update(np.asarray(series, dtype=np.float64).tobytes())
    return [repr(float(r)) for r in log.episode_returns], digest.hexdigest()


def _fixture() -> dict:
    with open(FIXTURE, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", sorted(CASES))
def test_learner_matches_fixture(name):
    want = _fixture()[name]
    returns, sha = run_case(name)
    assert returns == want["returns"]
    assert sha == want["sha256"]


def main(argv) -> int:
    if argv != ["--write"]:
        print(__doc__)
        return 2
    out = {}
    for name in CASES:
        returns, sha = run_case(name)
        out[name] = {"returns": returns, "sha256": sha}
    os.makedirs(os.path.dirname(FIXTURE), exist_ok=True)
    with open(FIXTURE, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    print(f"wrote {FIXTURE}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
