"""Bit-identity of the training artifacts against recorded hashes.

``tests/data/artifact_stream.json`` holds the SHA-256 of every CSV and every
actor checkpoint that :func:`uavmec.harness.run` and
:func:`uavmec.harness.sweep` write for a tiny experiment: 3/2/2 UDs and UAVs,
5 slots, TD3, DDPG, PPO and greedy on seeds 0 and 1, and a sweep over two
UAV counts. The test reruns both and requires the same bytes: a refactor of
the learners, the kernel or the writers must not move a byte of what a user
reads, and an added output file leaves the recorded ones as they are.
(``np.savez`` writes a fixed timestamp into each archive member, so a
checkpoint's bytes depend only on its arrays; ``metadata.json`` holds the
wall-clock time and is not hashed.)

Regenerate (only for a deliberate change of results, stated in
``CHANGES.md``)::

    PYTHONPATH=src python tests/test_artifact_stream.py --write
"""

import hashlib
import os
import sys
import tempfile

import streams
from conftest import small_sim
from uavmec import harness
from uavmec.config import ExperimentConfig, PpoConfig, SweepAxes, Td3Config

FIXTURE = "artifact_stream.json"


def _experiment(output_dir: str) -> ExperimentConfig:
    # Two 5-slot episodes per PPO update: 10 samples in minibatches of 4, 4
    # and 2, over two epochs.
    return ExperimentConfig(
        sim=small_sim(3, 2, 2, n_slots=5),
        td3=Td3Config(episodes=3, warmup_steps=5, batch_size=8,
                      buffer_capacity=500, hidden=(16, 16)),
        ppo=PpoConfig(episodes=4, rollout_episodes=2, epochs=2,
                      minibatch_size=4, hidden=(16, 16)),
        algorithms=("td3", "ddpg", "ppo", "greedy"),
        seeds=(0, 1),
        output_dir=output_dir,
        sweep_axes=SweepAxes(n_uav=(1, 2)))


def artifact_hashes(output_dir: str) -> dict[str, str]:
    """'<run dir>/<file>' -> SHA-256 of every CSV and actor checkpoint that
    one run and one n_uav sweep write under output_dir."""
    cfg = _experiment(output_dir)
    run_dirs = [harness.run(cfg).run_dir, harness.sweep(cfg, "n_uav").run_dir]
    out = {}
    for run_dir in run_dirs:
        for name in sorted(os.listdir(run_dir)):
            if name.endswith(".csv") or (name.startswith("actor_")
                                         and name.endswith(".npz")):
                with open(os.path.join(run_dir, name), "rb") as fh:
                    digest = hashlib.sha256(fh.read()).hexdigest()
                out[f"{os.path.basename(run_dir)}/{name}"] = digest
    return out


def test_artifacts_match_fixture(tmp_path, monkeypatch):
    # Every recorded file, byte for byte. A file that a later change adds is
    # pinned once the fixture is regenerated.
    monkeypatch.delenv("UAVMEC_OUTPUT_ROOT", raising=False)
    want = streams.load(FIXTURE)
    got = artifact_hashes(str(tmp_path))
    assert {name: got.get(name) for name in want} == want


def _record() -> dict:
    os.environ.pop("UAVMEC_OUTPUT_ROOT", None)
    with tempfile.TemporaryDirectory() as tmp:
        return artifact_hashes(tmp)


if __name__ == "__main__":
    sys.exit(streams.main(sys.argv[1:], __doc__, FIXTURE, _record))
