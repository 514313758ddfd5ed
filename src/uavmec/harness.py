"""Experiment orchestration: convergence runs, sweeps, trajectory export,
and deterministic CSV artifacts."""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass

import numpy as np

from . import config as cfgmod
from .baseline import greedy_baseline
from .config import ExperimentConfig, SimConfig, apply_axis
from .env import OffloadEnv, write_ledger_csv
from .nets import Mlp
from .ppo import ppo_train
from .td3 import ddpg_train, save_actor, td3_train


@dataclass
class RunArtifact:
    run_dir: str
    convergence_csv: str | None = None
    sweep_csv: str | None = None
    config_snapshot: str | None = None
    metadata: str | None = None


def output_root(cfg: ExperimentConfig) -> str:
    return os.environ.get("UAVMEC_OUTPUT_ROOT", cfg.output_dir)


def _prepare_dir(cfg: ExperimentConfig, name: str) -> str:
    run_dir = os.path.join(output_root(cfg), name)
    os.makedirs(run_dir, exist_ok=True)
    return run_dir


def _snapshot(cfg: ExperimentConfig, run_dir: str) -> tuple[str, str]:
    snap = os.path.join(run_dir, "resolved_config.json")
    cfgmod.save_experiment(cfg, snap)
    meta = os.path.join(run_dir, "metadata.json")
    with open(meta, "w", encoding="utf-8") as fh:
        json.dump({"seeds": list(cfg.seeds), "algorithms": list(cfg.algorithms),
                   "timestamp": time.time()}, fh, indent=2)
    return snap, meta


def _train_one(algo: str, sim: SimConfig, cfg: ExperimentConfig, seed: int):
    """Returns (per-episode returns, trained actor or None)."""
    def factory(s):
        return OffloadEnv(sim, s)
    if algo == "td3":
        log, agent = td3_train(factory, cfg.td3, seed)
        return log.episode_returns, agent.actor
    if algo == "ddpg":
        log, agent = ddpg_train(factory, cfg.td3, seed)
        return log.episode_returns, agent.actor
    if algo == "ppo":
        log, agent = ppo_train(factory, cfg.ppo, seed)
        return log.episode_returns, agent.mean_net
    if algo == "greedy":
        return [greedy_baseline(sim, seed)], None
    raise ValueError(f"unknown algorithm '{algo}'")


def converged_return(returns: list[float]) -> float:
    """Mean over the final 10% (at least one) of episode returns."""
    tail = max(1, len(returns) // 10)
    return float(np.mean(returns[-tail:]))


def run(cfg: ExperimentConfig, name: str = "run") -> RunArtifact:
    """Train every (algorithm, seed) cell on the base scenario and record
    per-episode return curves."""
    cfg.validate()
    run_dir = _prepare_dir(cfg, name)
    snap, meta = _snapshot(cfg, run_dir)
    conv = os.path.join(run_dir, "convergence.csv")
    with open(conv, "w", encoding="utf-8", newline="") as fh:
        fh.write("algorithm,seed,episode,return\n")
        for algo in cfg.algorithms:
            for seed in cfg.seeds:
                returns, actor = _train_one(algo, cfg.sim, cfg, seed)
                for ep, ret in enumerate(returns):
                    fh.write(f"{algo},{seed},{ep},{float(ret)!r}\n")
                if actor is not None:
                    save_actor(os.path.join(run_dir, f"actor_{algo}_{seed}.npz"),
                               actor)
    return RunArtifact(run_dir=run_dir, convergence_csv=conv,
                       config_snapshot=snap, metadata=meta)


def sweep(cfg: ExperimentConfig, axis: str, name: str | None = None) -> RunArtifact:
    """For each axis value, record the converged return per algorithm per
    seed; emit a summary CSV with mean and stddev across seeds."""
    cfg.validate()
    if axis not in cfg.sweep_axes:
        raise ValueError(f"axis '{axis}' not present in sweep_axes")
    run_dir = _prepare_dir(cfg, name or f"sweep_{axis}")
    snap, meta = _snapshot(cfg, run_dir)
    detail_rows = []
    for value in cfg.sweep_axes[axis]:
        sim = apply_axis(cfg.sim, axis, value)
        for algo in cfg.algorithms:
            for seed in cfg.seeds:
                returns, _ = _train_one(algo, sim, cfg, seed)
                detail_rows.append((value, algo, seed, converged_return(returns)))
    detail = os.path.join(run_dir, f"sweep_{axis}_detail.csv")
    with open(detail, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"{axis},algorithm,seed,converged_return\n")
        for value, algo, seed, ret in detail_rows:
            fh.write(f"{value!r},{algo},{seed},{ret!r}\n")
    summary = os.path.join(run_dir, f"sweep_{axis}_summary.csv")
    with open(summary, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"{axis},algorithm,mean_return,std_return,n_seeds\n")
        for value in cfg.sweep_axes[axis]:
            for algo in cfg.algorithms:
                vals = [r for v, a, _, r in detail_rows if v == value and a == algo]
                fh.write(f"{value!r},{algo},{float(np.mean(vals))!r},"
                         f"{float(np.std(vals))!r},{len(vals)}\n")
    return RunArtifact(run_dir=run_dir, sweep_csv=summary,
                       config_snapshot=snap, metadata=meta)


def export_trajectory(actor: Mlp, sim: SimConfig, seed: int, path: str) -> None:
    """Roll one noise-free episode under the actor and write per-slot
    positions. UD rows are static and carry slot = -1."""
    env = OffloadEnv(sim, seed)
    rows = []
    for i, p in enumerate(env.world.busy_pos):
        rows.append(("busy", i, -1, p[0], p[1], p[2]))
    for j, p in enumerate(env.world.idle_pos):
        rows.append(("idle", j, -1, p[0], p[1], p[2]))
    s = env.state()
    done = False
    slot = 0
    while not done:
        a = actor.forward(s)[0]
        s, _, entry, done = env.step(a)
        for k, (x, y, z, _e) in enumerate(entry.uav_rows):
            rows.append(("uav", k, slot, x, y, z))
        slot += 1
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("kind,id,slot,x,y,z\n")
        for kind, eid, sl, x, y, z in rows:
            fh.write(f"{kind},{eid},{sl},{float(x)!r},{float(y)!r},{float(z)!r}\n")


def export_ledger(cfg: SimConfig, actor: Mlp, seed: int, path: str,
                  episodes: int = 1) -> None:
    """Noise-free rollouts of the actor, written as the per-slot ledger CSV."""
    by_episode = {}
    for ep in range(episodes):
        env = OffloadEnv(cfg, seed + ep)
        s = env.state()
        entries = []
        done = False
        while not done:
            s, _, entry, done = env.step(actor.forward(s)[0])
            entries.append(entry)
        by_episode[ep] = entries
    write_ledger_csv(path, by_episode, cfg.world.n_uav)
