"""Bit-identity of the slot kernel against a recorded stream.

``tests/data/slot_stream.json`` holds, for five scenarios, the ``repr`` of
every slot's reward and a SHA-256 over the bits of every state vector and
every ledger field that a fixed random-action stream produced. The test
replays the same streams and requires the same bits: a last-bit change in a
reward or a state moves TD3 training runs onto other trajectories.

Two more records per scenario reach what uniform actions do not:

- ``batch <name>``: per slot, a fixed batch of actions with entries at
  exactly -1 and +1 mixed in, where the clips, the decoder floor and the top
  bitrate rung act. It hashes every row's reward terms, then steps the
  batch's first row.
- ``greedy <name>``: one greedy episode per env seed. It hashes the picked
  actions and the rewards, and keeps each episode return's ``repr``.

Regenerate (only for a deliberate change of reward semantics, stated in
``CHANGES.md``)::

    PYTHONPATH=src python tests/test_slot_stream.py --write
"""

import dataclasses
import hashlib
import sys

import numpy as np
import pytest

import streams
from conftest import small_sim
from uavmec.baseline import greedy_action
from uavmec.config import EconParams, SimConfig
from uavmec.env import OffloadEnv, decode, episode_return, transitions

FIXTURE = "slot_stream.json"


def _deterministic() -> SimConfig:
    return SimConfig(deterministic_fading=True)


def _physical_sign() -> SimConfig:
    return SimConfig(econ=EconParams(paper_sign_convention=False))


# name -> (config factory, env seeds, one per episode, action-stream seed).
# The 6/3/2 battery is small enough for the energy penalty F2 to fire.
CASES = {
    "6-3-2": (lambda: small_sim(6, 3, 2, n_slots=20, battery_j=3_000.0), (1,), 101),
    "20-10-5": (SimConfig, (2,), 102),
    "200-100-20": (lambda: small_sim(200, 100, 20, n_slots=50), (3, 4), 103),
    "deterministic-fading": (_deterministic, (5,), 104),
    "physical-sign": (_physical_sign, (6,), 105),
}


def run_case(name: str) -> tuple[list[str], str]:
    """(reward reprs, SHA-256 of every state and ledger field) of one case."""
    make_cfg, seeds, action_seed = CASES[name]
    env = OffloadEnv(make_cfg(), seeds[0])
    rng = np.random.default_rng(action_seed)
    digest = hashlib.sha256()
    rewards = []
    for seed in seeds:
        digest.update(env.reset(seed).tobytes())
        done = False
        while not done:
            s, r, entry, done = env.step(rng.uniform(-1.0, 1.0, env.action_dim))
            rewards.append(repr(float(r)))
            digest.update(s.tobytes())
            for f in dataclasses.fields(entry):
                digest.update(np.asarray(getattr(entry, f.name),
                                         dtype=np.float64).tobytes())
    return rewards, digest.hexdigest()


BATCH_ROWS = 40


def _saturated_batch(rng: np.random.Generator, action_dim: int) -> np.ndarray:
    """BATCH_ROWS uniform actions with about 30% of entries set to exactly
    -1 and 10% to exactly +1."""
    batch = rng.uniform(-1.0, 1.0, (BATCH_ROWS, action_dim))
    u = rng.uniform(size=batch.shape)
    batch[u < 0.3] = -1.0
    batch[u >= 0.9] = 1.0
    return batch


def run_batch_case(name: str) -> str:
    """SHA-256 of every row's reward terms of each slot's saturated batch,
    and of every state the stream of first rows reaches."""
    make_cfg, seeds, action_seed = CASES[name]
    env = OffloadEnv(make_cfg(), seeds[0])
    rng = np.random.default_rng([action_seed, 0xBA7])
    digest = hashlib.sha256()
    for seed in seeds:
        digest.update(env.reset(seed).tobytes())
        while not env.done:
            batch = _saturated_batch(rng, env.action_dim)
            rows = env._evaluate_finite(decode(batch, env.cfg)).rows
            for value in rows.values():   # F1 and F4 may be one float for all rows
                digest.update(np.broadcast_to(np.asarray(value, dtype=np.float64),
                                              (BATCH_ROWS,)).tobytes())
            digest.update(env.step(batch[0])[0].tobytes())
    return digest.hexdigest()


def run_greedy_case(name: str) -> tuple[list[str], str]:
    """(episode-return reprs, SHA-256 of every picked action and reward) of
    one greedy episode per env seed of the scenario."""
    make_cfg, seeds, _ = CASES[name]
    digest = hashlib.sha256()
    returns = []
    for seed in seeds:
        env = OffloadEnv(make_cfg(), seed)
        rewards = []
        for _, action, entry, _ in transitions(env, lambda _: greedy_action(env)):
            digest.update(action.tobytes())
            rewards.append(entry.reward)
        digest.update(np.asarray(rewards, dtype=np.float64).tobytes())
        returns.append(repr(episode_return(rewards)))
    return returns, digest.hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_stream_matches_fixture(name):
    want = streams.load(FIXTURE)[name]
    rewards, sha = run_case(name)
    assert rewards == want["rewards"]
    assert sha == want["sha256"]


@pytest.mark.parametrize("name", sorted(CASES))
def test_saturated_batches_match_fixture(name):
    assert run_batch_case(name) == streams.load(FIXTURE)[f"batch {name}"]["sha256"]


@pytest.mark.parametrize("name", sorted(CASES))
def test_greedy_episodes_match_fixture(name):
    want = streams.load(FIXTURE)[f"greedy {name}"]
    returns, sha = run_greedy_case(name)
    assert returns == want["returns"]
    assert sha == want["sha256"]


def _record() -> dict:
    out = {}
    for name in CASES:
        rewards, sha = run_case(name)
        out[name] = {"rewards": rewards, "sha256": sha}
    for name in CASES:
        out[f"batch {name}"] = {"sha256": run_batch_case(name)}
    for name in CASES:
        returns, sha = run_greedy_case(name)
        out[f"greedy {name}"] = {"returns": returns, "sha256": sha}
    return out


if __name__ == "__main__":
    sys.exit(streams.main(sys.argv[1:], __doc__, FIXTURE, _record))
