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
from .env import LedgerEntry, OffloadEnv, rollout
from .nets import Mlp
from .ppo import ppo_train
from .td3 import DivergenceError, ddpg_train, save_actor, td3_train


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


def _write_csv(path: str, header, rows) -> None:
    """header, then one line per row. A float cell, numpy's included, is
    written as repr(float(x)), the shortest text that reads back to the same
    float; any other cell as str."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(repr(float(x)) if isinstance(x, (float, np.floating))
                              else str(x) for x in row) + "\n")


def _snapshot(cfg: ExperimentConfig, run_dir: str) -> tuple[str, str]:
    snap = os.path.join(run_dir, "resolved_config.json")
    cfgmod.save_experiment(cfg, snap)
    meta = os.path.join(run_dir, "metadata.json")
    with open(meta, "w", encoding="utf-8") as fh:
        json.dump({"seeds": list(cfg.seeds), "algorithms": list(cfg.algorithms),
                   "timestamp": time.time()}, fh, indent=2)
    return snap, meta


def _train_one(algo: str, sim: SimConfig, cfg: ExperimentConfig, seed: int):
    """(per-episode returns, trained actor or None) of one cell."""
    if algo == "greedy":
        return [greedy_baseline(sim, seed)], None
    def factory(s):
        return OffloadEnv(sim, s)
    if algo == "ppo":
        log, agent = ppo_train(factory, cfg.ppo, seed)
        return log.episode_returns, agent.mean_net
    log, agent = (td3_train if algo == "td3" else ddpg_train)(factory, cfg.td3, seed)
    return log.episode_returns, agent.actor


def cells(cfg: ExperimentConfig, axis: str | None = None):
    """Train each cell, one algorithm on one seed of one scenario, in order:
    each axis value (None: the base scenario), each algorithm, each seed.
    Yields (value, algorithm, seed, per-episode returns, actor or None). A
    failing cell re-raises its DivergenceError or ValueError, same type,
    prefixed ``<axis>=<value>: <algorithm> seed <seed>: ``."""
    for value in cfg.sweep_axes[axis] if axis else [None]:
        sim = apply_axis(cfg.sim, axis, value) if axis else cfg.sim
        for algo in cfg.algorithms:
            for seed in cfg.seeds:
                try:
                    returns, actor = _train_one(algo, sim, cfg, seed)
                except (DivergenceError, ValueError) as exc:
                    cell = f"{axis}={value!r}: " if axis else ""
                    raise type(exc)(f"{cell}{algo} seed {seed}: {exc}") from exc
                yield value, algo, seed, returns, actor


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
    rows = []
    for _, algo, seed, returns, actor in cells(cfg):
        rows += [(algo, seed, ep, ret) for ep, ret in enumerate(returns)]
        if actor is not None:
            save_actor(os.path.join(run_dir, f"actor_{algo}_{seed}.npz"), actor)
    conv = os.path.join(run_dir, "convergence.csv")
    _write_csv(conv, ("algorithm", "seed", "episode", "return"), rows)
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
    detail_rows = [(value, algo, seed, converged_return(returns))
                   for value, algo, seed, returns, _ in cells(cfg, axis)]
    detail = os.path.join(run_dir, f"sweep_{axis}_detail.csv")
    _write_csv(detail, (axis, "algorithm", "seed", "converged_return"), detail_rows)
    by_pair = {}   # (value, algorithm) -> returns, in cell order
    for value, algo, _, ret in detail_rows:
        by_pair.setdefault((value, algo), []).append(ret)
    summary_rows = [(value, algo, np.mean(vals), np.std(vals), len(vals))
                    for (value, algo), vals in by_pair.items()]
    summary = os.path.join(run_dir, f"sweep_{axis}_summary.csv")
    _write_csv(summary, (axis, "algorithm", "mean_return", "std_return", "n_seeds"),
               summary_rows)
    return RunArtifact(run_dir=run_dir, sweep_csv=summary,
                       config_snapshot=snap, metadata=meta)


def export_trajectory(actor: Mlp, sim: SimConfig, seed: int, path: str) -> None:
    """Roll one noise-free episode under the actor and write per-slot
    positions. UD rows are static and carry slot = -1."""
    env = OffloadEnv(sim, seed)
    rows = [("busy", i, -1, *p) for i, p in enumerate(env.world.busy_pos)]
    rows += [("idle", j, -1, *p) for j, p in enumerate(env.world.idle_pos)]
    for entry in rollout(env, lambda s: actor.forward(s)[0]):
        rows += [("uav", k, entry.slot, x, y, z)
                 for k, (x, y, z, _) in enumerate(entry.uav_rows)]
    _write_csv(path, ("kind", "id", "slot", "x", "y", "z"), rows)


def write_ledger_csv(path: str, entries_by_episode: dict[int, list[LedgerEntry]],
                     n_uav: int) -> None:
    """One row per (episode, slot), with per-UAV position/energy columns."""
    header = ["episode", "slot", "Q", "U_K", "U_J", "U_I",
              "F1", "F2", "F3", "F4", "reward"]
    header += [f"uav{k}_{c}" for k in range(n_uav) for c in ("x", "y", "z", "energy")]
    # float(): a penalty configured as an int stays an int in the ledger.
    rows = ([ep, e.slot, *map(float, (e.q, e.u_uav, e.u_idle, e.u_busy,
                                      e.f1, e.f2, e.f3, e.f4, e.reward))]
            + [v for cells in e.uav_rows for v in cells]
            for ep in sorted(entries_by_episode) for e in entries_by_episode[ep])
    _write_csv(path, header, rows)


def export_ledger(cfg: SimConfig, actor: Mlp, seed: int, path: str,
                  episodes: int = 1) -> None:
    """Noise-free rollouts of the actor, written as the per-slot ledger CSV."""
    by_episode = {ep: rollout(OffloadEnv(cfg, seed + ep), lambda s: actor.forward(s)[0])
                  for ep in range(episodes)}
    write_ledger_csv(path, by_episode, cfg.world.n_uav)
