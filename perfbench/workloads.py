"""The four closed-loop workloads of the uavmec benchmark.

Each workload has one caller: the next env step starts only after the
previous one returns. A workload's work comes in *units*, each a fixed,
deterministic job keyed by one seed from a pool whose reference outputs are
stored in ``refs.json``:

- ``td3-learn``: one ``td3_train`` run at I/J/K = 6/3/2, 20 slots, with the
  acceptance suite's ``LEARNING_TD3`` settings (100 episodes).
- ``ppo-paper``: one 8-episode ``ppo_train`` run (two policy updates) on
  the default ``SimConfig`` with the default ``PpoConfig`` at reward_scale
  1e-3.
- ``greedy-paper``: one ``greedy_episode`` on the default ``SimConfig``.
- ``rollout-large``: one noise-free episode of a fixed, seeded, randomly
  initialised 256x256 actor at I/J/K = 200/100/20.

The ``m`` argument is a namespace of freshly imported ``uavmec`` modules
(see ``run.load_uavmec``); configs and objects are always built from it so
that set-up can be timed from a fresh import.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

# Fixed seed of the rollout-large actor, so every run rolls the same policy.
ROLLOUT_ACTOR_SEED = 20_241_203


def _learning_td3(m):
    # Same values as LEARNING_TD3 in tests/test_acceptance.py.
    return m.config.Td3Config(episodes=100, warmup_steps=300, batch_size=64,
                              hidden=(64, 64), actor_lr=5e-4, critic_lr=1e-3,
                              exploration_noise_sigma=0.2,
                              buffer_capacity=20_000, reward_scale=1e-3)


def _small_sim(m):
    cfg = m.config
    return cfg.SimConfig(world=cfg.WorldConfig(n_busy=6, n_idle=3, n_uav=2,
                                               n_slots=20))


def _large_sim(m):
    cfg = m.config
    return cfg.SimConfig(world=cfg.WorldConfig(n_busy=200, n_idle=100,
                                               n_uav=20))


def _ppo_cfg(m):
    return m.config.PpoConfig(episodes=8, reward_scale=1e-3)


# ----------------------------------------------------------------- set-up
# Each set-up builds what the workload needs before its first step: configs
# (validated) and the env (constructed and reset); rollout-large also builds
# its actor. The training workloads build their agent and replay buffer
# inside td3_train/ppo_train, so setup_s does not see a change to that code
# (it shows in the first step interval of each training run); copying it
# here would time a copy, not the program.

def _setup_td3(m, seed, env_cls):
    sim, cfg = _small_sim(m), _learning_td3(m)
    sim.validate()
    cfg.validate()
    env_cls(sim, seed).reset()
    return {"sim": sim, "cfg": cfg}


def _setup_ppo(m, seed, env_cls):
    sim, cfg = m.config.SimConfig(), _ppo_cfg(m)
    sim.validate()
    cfg.validate()
    env_cls(sim, seed).reset()
    return {"sim": sim, "cfg": cfg}


def _setup_greedy(m, seed, env_cls):
    sim = m.config.SimConfig()
    sim.validate()
    env_cls(sim, seed)
    return {"sim": sim}


def _setup_rollout(m, seed, env_cls):
    sim = _large_sim(m)
    sim.validate()
    env = env_cls(sim, seed)
    actor = m.nets.Mlp([env.state_dim, 256, 256, env.action_dim], "tanh",
                       np.random.default_rng(ROLLOUT_ACTOR_SEED))
    env.state()
    return {"sim": sim, "env": env, "actor": actor}


# ------------------------------------------------------------------ units
# A unit returns its episode returns. Functions are looked up on the module
# at call time, so a traced run sees the wrapped callables.

def _unit_td3(m, ctx, seed, env_cls):
    sim = ctx["sim"]
    log, _ = m.td3.td3_train(lambda s: env_cls(sim, s), ctx["cfg"], seed)
    return [float(r) for r in log.episode_returns]


def _unit_ppo(m, ctx, seed, env_cls):
    sim = ctx["sim"]
    log, _ = m.ppo.ppo_train(lambda s: env_cls(sim, s), ctx["cfg"], seed)
    return [float(r) for r in log.episode_returns]


def _unit_greedy(m, ctx, seed, env_cls):
    # greedy_episode builds its env by the name OffloadEnv in baseline's
    # namespace; point it at the timed env for the duration of the unit.
    original = m.baseline.OffloadEnv
    m.baseline.OffloadEnv = env_cls
    try:
        total, _ = m.baseline.greedy_episode(ctx["sim"], seed)
    finally:
        m.baseline.OffloadEnv = original
    return [float(total)]


def _unit_rollout(m, ctx, seed, env_cls):
    env, actor = ctx["env"], ctx["actor"]
    s = env.reset(seed)
    total = 0.0
    done = False
    while not done:
        s, r, _, done = env.step(actor.forward(s)[0])
        total += r
    return [float(total)]


def _converged(m, returns):
    return m.harness.converged_return(returns)


def _single(m, returns):
    return returns[0]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    setup: Callable
    unit: Callable
    # Reported figure of one unit, from its episode returns.
    quality: Callable
    quality_name: str
    # Every episode return is compared with refs.json at this tolerance.
    rtol: float
    episodes_per_unit: int
    pool: int            # unit seeds 0..pool-1 have stored references
    trace_units: int     # fixed work of a traced run, so counts repeat


# Tolerances: a 1e-15 relative reward perturbation moved td3-learn's
# converged return by at most 3.1e-10 relative (per-episode 1.5e-9) and a
# 12-episode ppo run's by 6.4e-12, on four and three seeds. The env-only
# workloads sum 50 slot rewards; a reordered per-UD sum moved I=200 slot
# revenue by 4.7e-16 relative.
WORKLOADS = {w.name: w for w in (
    Workload("td3-learn",
             "TD3 learning at 6/3/2 as Tier-1 runs it; learner per-call "
             "overhead dominates, env is about 30%",
             _setup_td3, _unit_td3, _converged, "converged_return", 1e-6,
             episodes_per_unit=100, pool=16, trace_units=1),
    Workload("ppo-paper",
             "PPO at the paper default 20/10/5 with 256x256 nets: batch-1 "
             "inference plus minibatch epochs; the only ppo.py workload",
             _setup_ppo, _unit_ppo, _converged, "converged_return", 1e-6,
             episodes_per_unit=8, pool=16, trace_units=1),
    Workload("greedy-paper",
             "greedy baseline at 20/10/5: env-only, 25 or more deep-copy probes "
             "per slot; bypasses the learner",
             _setup_greedy, _unit_greedy, _single, "episode_return", 1e-9,
             episodes_per_unit=1, pool=16, trace_units=1),
    Workload("rollout-large",
             "fixed-actor rollouts at 200/100/20: the per-UD env loop is "
             "~95% of time; no cloning, nets read-only",
             _setup_rollout, _unit_rollout, _single, "episode_return", 1e-9,
             episodes_per_unit=1, pool=24, trace_units=2),
)}
