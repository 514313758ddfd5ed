"""One unit of every benchmark workload reproduces its stored returns.

``perfbench/workloads.py`` drives ``uavmec`` through the calls the benchmark
times, and ``perfbench/refs.json`` holds every unit's episode returns. This
test loads the workloads read-only, runs ``setup`` and one ``unit`` at pool
seed 0 for each, and compares every episode return with the reference at the
workload's ``rtol``, so a renamed call or a drifted return shows here first.
"""

import importlib.util
import json
import os
import sys
from types import SimpleNamespace

import pytest

from uavmec import baseline, config, harness, nets, ppo, td3
from uavmec.env import OffloadEnv

BENCH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")


def _load_workloads():
    name = "_perfbench_workloads"
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(BENCH, "workloads.py"))
    module = importlib.util.module_from_spec(spec)
    # Loading must leave the benchmark directory as it is: no __pycache__.
    # The frozen dataclass resolves its module through sys.modules.
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    sys.modules[name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[name]
        sys.dont_write_bytecode = saved
    return module.WORKLOADS


WORKLOADS = _load_workloads()
# The namespace of uavmec modules the workloads build from.
MODULES = SimpleNamespace(baseline=baseline, config=config, harness=harness,
                          nets=nets, ppo=ppo, td3=td3)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_unit_matches_refs(name):
    wl = WORKLOADS[name]
    with open(os.path.join(BENCH, "refs.json"), encoding="utf-8") as fh:
        want = json.load(fh)[name]["0"]
    ctx = wl.setup(MODULES, 0, OffloadEnv)
    got = wl.unit(MODULES, ctx, 0, OffloadEnv)
    assert len(got) == len(want) == wl.episodes_per_unit
    for episode, (g, w) in enumerate(zip(got, want)):
        assert abs(g - w) <= wl.rtol * abs(w), f"episode {episode}: {g!r} != {w!r}"
