"""Command-line entry point.

Subcommands:
    run <config.json>                       train all configured algorithms
    sweep <config.json> --axis <name>       sweep one scenario axis
    trajectory <checkpoint> <config.json>   export the UAV trajectory of one
                                            noise-free rollout of its actor
    baseline <config.json>                  print greedy-baseline returns

Output root defaults to the config's output_dir and may be overridden with
the UAVMEC_OUTPUT_ROOT environment variable. Exit code 0 on success; on
failure (a bad config or file, or a failed cell, out of memory included,
named as ``<axis>=<value>: <algorithm> seed <seed>: ...``) one machine-readable
``ERROR {json}`` line, and nothing else, goes to stderr and the exit code is 2.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

import numpy as np

from . import harness
from .config import SWEEP_AXES, load_experiment
from .env import action_length, state_length
from .td3 import load_actor


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="uavmec",
                                description="UAV-assisted D2D offloading experiments")
    sub = p.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="train configured algorithms and seeds")
    run_p.add_argument("config")
    run_p.add_argument("--name", default="run")

    sweep_p = sub.add_parser("sweep", help="sweep one scenario axis")
    sweep_p.add_argument("config")
    sweep_p.add_argument("--axis", required=True, choices=list(SWEEP_AXES))
    sweep_p.add_argument("--name", default=None)

    traj_p = sub.add_parser(
        "trajectory", help="export the UAV trajectory of one noise-free actor rollout")
    traj_p.add_argument("checkpoint")
    traj_p.add_argument("config")
    traj_p.add_argument("--seed", type=int, default=0)
    traj_p.add_argument("--out", default="trajectory.csv")

    base_p = sub.add_parser("baseline", help="greedy-baseline episode returns")
    base_p.add_argument("config")
    return p


# Each non-finite outcome raises a named error: numpy's warnings add nothing.
@np.errstate(all="ignore")
def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            art = harness.run(load_experiment(args.config), name=args.name)
            print(f"convergence CSV: {art.convergence_csv}")
        elif args.command == "sweep":
            cfg = load_experiment(args.config)
            art = harness.sweep(cfg, args.axis, name=args.name)
            print(f"sweep summary CSV: {art.sweep_csv}")
        elif args.command == "trajectory":
            cfg = load_experiment(args.config)
            actor = load_actor(args.checkpoint)
            world = cfg.sim.world
            want = (state_length(world.n_busy, world.n_uav), action_length(world.n_uav))
            got = (actor.sizes[0], actor.sizes[-1])
            if got != want:
                raise ValueError(f"checkpoint {args.checkpoint} maps {got[0]} state "
                                 f"inputs to {got[1]} actions, but the config has "
                                 f"{want[0]} state inputs and {want[1]} actions")
            harness.export_trajectory(actor, cfg.sim, args.seed, args.out)
            print(f"trajectory CSV: {args.out}")
        elif args.command == "baseline":
            cfg = replace(load_experiment(args.config), algorithms=("greedy",))
            for _, _, seed, returns, _ in harness.cells(cfg):
                print(f"seed={seed} return={returns[0]!r}")
    except (*harness.CELL_ERRORS, OSError) as exc:
        print("ERROR " + json.dumps({"error": str(exc)}), file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
