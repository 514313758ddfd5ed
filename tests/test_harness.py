"""Orchestration layer: run/sweep/trajectory artifacts, CSV schemas,
byte-identical re-runs, and the CLI wrapper."""

import gc
import importlib.util
import json
import math
import os
import subprocess
import sys
import tempfile
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import numeric_leaves, small_sim
from uavmec import cli, config, harness
from uavmec.config import (ConfigError, ExperimentConfig, PpoConfig, SimConfig,
                           Td3Config, WorldConfig, apply_axis, experiment_from_dict,
                           load_experiment, save_experiment)
from uavmec.env import OffloadEnv
from uavmec.ppo import ppo_train
from uavmec.nets import Mlp
from uavmec.td3 import load_actor, save_actor, td3_train


def tiny_experiment(**kw):
    """Smallest config that still exercises every artifact path."""
    base = dict(
        sim=small_sim(n_busy=3, n_idle=2, n_uav=2, n_slots=5),
        td3=Td3Config(episodes=3, warmup_steps=5, batch_size=8,
                      buffer_capacity=500, hidden=(16, 16)),
        ppo=PpoConfig(episodes=3, rollout_episodes=1, hidden=(16, 16),
                      epochs=2, minibatch_size=8),
        algorithms=("td3",),
        seeds=(0, 1),
        sweep_axes={"n_uav": [1, 2], "f_k_max": [10e9, 30e9]},
    )
    base.update(kw)
    return ExperimentConfig(**base)


@pytest.fixture
def out_root(tmp_path, monkeypatch):
    monkeypatch.setenv("UAVMEC_OUTPUT_ROOT", str(tmp_path))
    return tmp_path


class TestRun:
    def test_artifacts_and_schema(self, out_root):
        art = harness.run(tiny_experiment(), name="r0")
        assert os.path.isdir(art.run_dir)
        with open(art.convergence_csv) as fh:
            lines = fh.read().splitlines()
        assert lines[0] == "algorithm,seed,episode,return"
        # one row per (algorithm, seed, episode)
        assert len(lines) - 1 == 1 * 2 * 3
        for row in lines[1:]:
            algo, seed, ep, ret = row.split(",")
            assert algo == "td3"
            assert int(seed) in (0, 1)
            assert 0 <= int(ep) < 3
            float(ret)
        # checkpoints exist and round-trip
        for seed in (0, 1):
            p = os.path.join(art.run_dir, f"actor_td3_{seed}.npz")
            assert os.path.isfile(p)
            load_actor(p)
        assert os.path.isfile(art.config_snapshot)
        assert os.path.isfile(art.metadata)

    def test_snapshot_reloads_and_rerun_is_byte_identical(self, out_root):
        cfg = tiny_experiment()
        art1 = harness.run(cfg, name="a")
        cfg2 = load_experiment(art1.config_snapshot)
        art2 = harness.run(cfg2, name="b")
        with open(art1.convergence_csv, "rb") as f1, \
                open(art2.convergence_csv, "rb") as f2:
            assert f1.read() == f2.read()

    def test_ppo_and_greedy_rows_appear(self, out_root):
        cfg = tiny_experiment(algorithms=("ppo", "greedy"), seeds=(0,))
        art = harness.run(cfg, name="pg")
        with open(art.convergence_csv) as fh:
            rows = fh.read().splitlines()[1:]
        algos = {r.split(",")[0] for r in rows}
        assert algos == {"ppo", "greedy"}

    def test_unknown_algorithm_rejected(self, out_root):
        cfg = tiny_experiment()
        cfg.algorithms = ("td3", "sarsa")
        with pytest.raises(ConfigError, match=r"^algorithms\[1\] must be one of td3, "
                                              r"ddpg, ppo, greedy, got 'sarsa'$"):
            harness.run(cfg)


class TestCells:
    def test_order_and_values(self):
        cfg = tiny_experiment(algorithms=("greedy", "ppo"),
                              sim=small_sim(n_busy=3, n_idle=2, n_uav=2, n_slots=2),
                              ppo=PpoConfig(episodes=1, rollout_episodes=1,
                                            hidden=(4,), epochs=1, minibatch_size=2))
        got = [(value, algo, seed, len(returns), actor is None)
               for value, algo, seed, returns, actor in harness.cells(cfg, "n_uav")]
        assert got == [(v, a, s, 1, a == "greedy")
                       for v in (1, 2) for a in ("greedy", "ppo") for s in (0, 1)]
        assert [cell[:3] for cell in harness.cells(cfg)] == [
            (None, a, s) for a in ("greedy", "ppo") for s in (0, 1)]

    def test_failing_cell_keeps_the_error_type(self):
        cfg = tiny_experiment(algorithms=("greedy",), sim=small_sim(n_slots=2),
                              sweep_axes={"f_k_max": [1e300]})
        with pytest.raises(ValueError, match=r"^f_k_max=1e\+300: greedy seed 0: slot 0: ") \
                as info:
            next(harness.cells(cfg, "f_k_max"))
        assert type(info.value) is ValueError
        assert isinstance(info.value.__cause__, ValueError)


class TestConvergedReturn:
    def test_tail_mean(self):
        returns = list(range(100))
        # final 10% of 100 episodes -> last 10 values
        assert harness.converged_return(returns) == pytest.approx(np.mean(range(90, 100)))

    def test_short_history_uses_last_value(self):
        assert harness.converged_return([3.0, 7.0]) == 7.0


class TestSweep:
    def test_detail_and_summary_schema(self, out_root):
        cfg = tiny_experiment(algorithms=("greedy",))
        art = harness.sweep(cfg, "n_uav")
        detail = os.path.join(art.run_dir, "sweep_n_uav_detail.csv")
        with open(detail) as fh:
            lines = fh.read().splitlines()
        assert lines[0] == "n_uav,algorithm,seed,converged_return"
        assert len(lines) - 1 == 2 * 1 * 2  # values * algos * seeds
        with open(art.sweep_csv) as fh:
            lines = fh.read().splitlines()
        assert lines[0] == "n_uav,algorithm,mean_return,std_return,n_seeds"
        assert len(lines) - 1 == 2
        for row in lines[1:]:
            val, algo, mean, std, n = row.split(",")
            assert algo == "greedy"
            assert int(n) == 2
            float(mean), float(std)

    def test_summary_matches_detail(self, out_root):
        cfg = tiny_experiment(algorithms=("greedy",))
        art = harness.sweep(cfg, "f_k_max")
        detail = os.path.join(art.run_dir, "sweep_f_k_max_detail.csv")
        per_value = {}
        with open(detail) as fh:
            for row in fh.read().splitlines()[1:]:
                val, _, _, ret = row.split(",")
                per_value.setdefault(val, []).append(float(ret))
        with open(art.sweep_csv) as fh:
            for row in fh.read().splitlines()[1:]:
                val, _, mean, std, _ = row.split(",")
                assert float(mean) == pytest.approx(np.mean(per_value[val]), rel=1e-12)
                assert float(std) == pytest.approx(np.std(per_value[val]), abs=1e-12)

    def test_axis_must_be_configured(self, out_root):
        cfg = tiny_experiment()
        with pytest.raises(ValueError, match="n_busy"):
            harness.sweep(cfg, "n_busy")

    def test_axis_actually_changes_scenario(self):
        sim = small_sim()
        assert apply_axis(sim, "n_uav", 3).world.n_uav == 3
        assert apply_axis(sim, "n_idle", 4).world.n_idle == 4
        assert apply_axis(sim, "n_busy", 7).world.n_busy == 7
        assert apply_axis(sim, "f_k_max", 10e9).caps.f_uav_max == 10e9
        # base config untouched
        assert sim.world.n_uav == small_sim().world.n_uav


class TestTrajectory:
    def test_export_schema_and_bounds(self, out_root, tmp_path):
        sim = small_sim(n_busy=3, n_idle=2, n_uav=2, n_slots=5)
        _, agent = td3_train(lambda s: OffloadEnv(sim, s),
                             Td3Config(episodes=1, warmup_steps=5, batch_size=8,
                                       buffer_capacity=200, hidden=(16, 16)),
                             seed=0)
        path = str(tmp_path / "traj.csv")
        harness.export_trajectory(agent.actor, sim, 0, path)
        with open(path) as fh:
            lines = fh.read().splitlines()
        assert lines[0] == "kind,id,slot,x,y,z"
        rows = [r.split(",") for r in lines[1:]]
        kinds = {r[0] for r in rows}
        assert kinds == {"busy", "idle", "uav"}
        ud_rows = [r for r in rows if r[0] != "uav"]
        assert all(int(r[2]) == -1 for r in ud_rows)
        assert len(ud_rows) == 3 + 2
        uav_rows = [r for r in rows if r[0] == "uav"]
        assert len(uav_rows) == 2 * 5  # n_uav * n_slots
        w = sim.world
        for r in uav_rows:
            x, y, z = float(r[3]), float(r[4]), float(r[5])
            assert 0 <= x <= w.area_side and 0 <= y <= w.area_side
            assert w.h_min <= z <= w.h_max

    def test_export_is_deterministic(self, out_root, tmp_path):
        sim = small_sim(n_slots=4)
        rng = np.random.default_rng(7)
        env = OffloadEnv(sim, 0)
        actor = Mlp((env.state_dim, 8, env.action_dim), out_activation="tanh", rng=rng)
        p1, p2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        harness.export_trajectory(actor, sim, 3, p1)
        harness.export_trajectory(actor, sim, 3, p2)
        with open(p1, "rb") as f1, open(p2, "rb") as f2:
            assert f1.read() == f2.read()


class TestLedgerExport:
    def _actor(self, sim):
        env = OffloadEnv(sim, 0)
        return Mlp((env.state_dim, 8, env.action_dim), "tanh", np.random.default_rng(5))

    def test_schema_rows_and_seeds(self, tmp_path):
        sim = small_sim(n_uav=2, n_slots=4)
        actor = self._actor(sim)
        path, later = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        harness.export_ledger(sim, actor, 3, path, episodes=2)
        with open(path) as fh:
            lines = fh.read().splitlines()
        assert lines[0] == ("episode,slot,Q,U_K,U_J,U_I,F1,F2,F3,F4,reward,"
                            + ",".join(f"uav{k}_{c}" for k in range(2)
                                       for c in ("x", "y", "z", "energy")))
        rows = [line.split(",", 2) for line in lines[1:]]
        assert [(int(e), int(t)) for e, t, _ in rows] == [
            (e, t) for e in range(2) for t in range(4)]
        # Episode 1 is the rollout at seed + 1: episode 0 of an export at 4.
        harness.export_ledger(sim, actor, 4, later)
        with open(later) as fh:
            first = [line.split(",", 2) for line in fh.read().splitlines()[1:]]
        assert [rest for _, _, rest in rows[4:]] == [rest for _, _, rest in first]
        assert [rest for _, _, rest in rows[:4]] != [rest for _, _, rest in first]

    def test_rerun_is_byte_identical(self, tmp_path):
        sim = small_sim(n_slots=3)
        actor = self._actor(sim)
        p1, p2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        harness.export_ledger(sim, actor, 0, p1, episodes=2)
        harness.export_ledger(sim, actor, 0, p2, episodes=2)
        with open(p1, "rb") as f1, open(p2, "rb") as f2:
            assert f1.read() == f2.read()


class TestCli:
    def _write_cfg(self, tmp_path, cfg):
        path = str(tmp_path / "cfg.json")
        save_experiment(cfg, path)
        return path

    @staticmethod
    def _diverging_experiment():
        """A TD3 cell whose parameters leave the floats at step 6."""
        return tiny_experiment(
            sim=small_sim(n_busy=2, n_idle=1, n_uav=1, n_slots=5),
            td3=Td3Config(actor_lr=1e100, critic_lr=1e100,
                          reward_scale=1e100, episodes=3, warmup_steps=5,
                          batch_size=4, buffer_capacity=100, hidden=(8, 8)),
            seeds=(0,), sweep_axes={"n_uav": [1]})

    def test_run_subcommand(self, out_root, tmp_path, capsys):
        path = self._write_cfg(tmp_path, tiny_experiment(seeds=(0,)))
        assert cli.main(["run", path, "--name", "clirun"]) == 0
        assert "convergence.csv" in capsys.readouterr().out
        assert os.path.isfile(out_root / "clirun" / "convergence.csv")

    def test_sweep_subcommand(self, out_root, tmp_path, capsys):
        path = self._write_cfg(
            tmp_path, tiny_experiment(algorithms=("greedy",), seeds=(0,)))
        assert cli.main(["sweep", path, "--axis", "n_uav"]) == 0
        assert "summary" in capsys.readouterr().out

    def test_trajectory_subcommand(self, out_root, tmp_path):
        cfg = tiny_experiment(seeds=(0,))
        path = self._write_cfg(tmp_path, cfg)
        assert cli.main(["run", path, "--name", "tr"]) == 0
        ckpt = str(out_root / "tr" / "actor_td3_0.npz")
        out = str(tmp_path / "traj.csv")
        assert cli.main(["trajectory", ckpt, path, "--seed", "1", "--out", out]) == 0
        with open(out) as fh:
            assert fh.readline().strip() == "kind,id,slot,x,y,z"

    def test_negative_trajectory_seed_reports_error_json(self, out_root, tmp_path, capsys):
        # Before the check numpy's "expected non-negative integer" named no seed.
        cfg = tiny_experiment(seeds=(0,))
        path = self._write_cfg(tmp_path, cfg)
        env = OffloadEnv(cfg.sim, 0)
        ckpt = str(tmp_path / "actor.npz")
        save_actor(ckpt, Mlp([env.state_dim, 4, env.action_dim], "tanh",
                             np.random.default_rng(0)))
        out = str(tmp_path / "traj.csv")
        assert cli.main(["trajectory", ckpt, path, "--seed", "-1", "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith("ERROR ")
        assert json.loads(err[len("ERROR "):])["error"] == "seed must be nonnegative, got -1"
        assert not os.path.exists(out)

    @pytest.mark.parametrize("misfit", ["state", "action"])
    def test_trajectory_checkpoint_misfit_reports_error_json(self, out_root, tmp_path,
                                                             capsys, misfit):
        # Before the check these died at the first step with "input width
        # 101 != 5" or "action vector must have length 27", naming no file.
        cfg = tiny_experiment(seeds=(0,))
        path = self._write_cfg(tmp_path, cfg)
        env = OffloadEnv(cfg.sim, 0)
        sizes = ([5, 8, env.action_dim] if misfit == "state"
                 else [env.state_dim, 8, 3])
        ckpt = str(tmp_path / "actor.npz")
        save_actor(ckpt, Mlp(sizes, "tanh", np.random.default_rng(0)))
        out = str(tmp_path / "traj.csv")
        assert cli.main(["trajectory", ckpt, path, "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith("ERROR ")
        message = json.loads(err[len("ERROR "):])["error"]
        assert message == (f"checkpoint {ckpt} maps {sizes[0]} state inputs to "
                           f"{sizes[-1]} actions, but the config has {env.state_dim} "
                           f"state inputs and {env.action_dim} actions")
        assert not os.path.exists(out)

    def test_baseline_subcommand(self, out_root, tmp_path, capsys):
        path = self._write_cfg(
            tmp_path, tiny_experiment(algorithms=("greedy",), seeds=(0,)))
        assert cli.main(["baseline", path]) == 0
        out = capsys.readouterr().out
        assert "seed=0 return=" in out
        # A plain number, not a numpy repr such as np.float64(...).
        float(out.split("return=", 1)[1].split()[0])

    def test_bad_config_reports_error_json(self, out_root, tmp_path, capsys):
        path = str(tmp_path / "bad.json")
        with open(path, "w") as fh:
            json.dump({"not_a_field": 1}, fh)
        assert cli.main(["run", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("ERROR ")
        json.loads(err[len("ERROR "):])

    def test_ill_typed_config_reports_error_json(self, out_root, tmp_path, capsys):
        path = str(tmp_path / "bad.json")
        with open(path, "w") as fh:
            json.dump({"sim": {"world": {"n_busy": "abc"}}}, fh)
        assert cli.main(["run", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("ERROR ")
        assert "sim.world.n_busy" in json.loads(err[len("ERROR "):])["error"]

    @pytest.mark.parametrize("text,path", [
        ('{"sim": {"energy": {"kappa": NaN}}}', "sim.energy.kappa"),
        ('{"sim": {"world": {"area_side": Infinity}}}', "sim.world.area_side"),
        ('{"sim": {"world": {"area_side": 1%s}}}' % ("0" * 400), "sim.world.area_side"),
    ], ids=["nan", "infinity", "int-too-large-for-a-float"])
    def test_non_finite_literal_reports_error_json(self, out_root, tmp_path, capsys,
                                                   text, path):
        # json.load accepts these literals. Before the finiteness check the
        # NaN printed return=nan and exited 0, and the other two died with an
        # OverflowError traceback.
        cfg_path = str(tmp_path / "bad.json")
        with open(cfg_path, "w") as fh:
            fh.write(text)
        assert cli.main(["baseline", cfg_path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("ERROR ")
        assert path in json.loads(err[len("ERROR "):])["error"]

    def test_unbounded_count_reports_error_json(self, out_root, tmp_path, capsys):
        # Before the bound this validated, and numpy's "Maximum allowed
        # dimension exceeded" named no field.
        path = str(tmp_path / "big.json")
        with open(path, "w") as fh:
            json.dump({"sim": {"world": {"n_busy": 10**30}}}, fh)
        assert cli.main(["baseline", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("ERROR ")
        assert "sim.world.n_busy" in json.loads(err[len("ERROR "):])["error"]

    @pytest.mark.parametrize("section,leaf,message", [
        ("energy", "kappa", "slot 0, row 0: the reward is not finite: q = -inf"),
        ("chan_uav", "noise_power", "slot 0, row 0: the reward is not finite: q = inf"),
        ("caps", "f_uav_max", "slot 0: the reward overflows"),
    ])
    def test_extreme_value_reports_error_json(self, out_root, tmp_path, capsys,
                                              section, leaf, message):
        # Before the finite check these validated, and the greedy baseline
        # printed return=-inf or return=inf and exited 0, or ended with an
        # OverflowError traceback and exit 1.
        path = str(tmp_path / "extreme.json")
        with open(path, "w") as fh:
            json.dump({"sim": {section: {leaf: 1e300}}, "seeds": [0]}, fh)
        assert cli.main(["baseline", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("ERROR ")
        assert json.loads(err[len("ERROR "):])["error"].startswith("greedy seed 0: " + message)

    def test_failing_sweep_cell_names_axis_value(self, out_root, tmp_path, capsys):
        # Before, the error named no axis value, algorithm or seed.
        path = str(tmp_path / "extreme.json")
        with open(path, "w") as fh:
            json.dump({"sim": {"world": {"n_busy": 4, "n_idle": 2, "n_uav": 2,
                                         "n_slots": 3}},
                       "algorithms": ["greedy"], "seeds": [0, 1],
                       "sweep_axes": {"f_k_max": [30e9, 1e300]}}, fh)
        assert cli.main(["sweep", path, "--axis", "f_k_max"]) == 2
        err = capsys.readouterr().err
        assert json.loads(err[len("ERROR "):])["error"].startswith(
            "f_k_max=1e+300: greedy seed 0: slot 0: the reward overflows (")
        assert not list(out_root.rglob("*.csv"))

    @pytest.mark.parametrize("command,cell", [
        (["run"], "td3 seed 0: non-finite parameters"),
        (["sweep", "--axis", "n_uav"], "n_uav=1: td3 seed 0: non-finite parameters"),
    ], ids=["run", "sweep"])
    def test_diverging_cell_reports_error_json(self, out_root, tmp_path, capsys,
                                               command, cell):
        # Before, the DivergenceError ended the CLI with a traceback and exit 1.
        path = self._write_cfg(tmp_path, self._diverging_experiment())
        assert cli.main(command[:1] + [path] + command[1:]) == 2
        err = capsys.readouterr().err
        assert err.startswith("ERROR ")
        assert cell in json.loads(err[len("ERROR "):])["error"]
        # A failed cell writes no curve: neither file holds a partial table.
        assert not list(out_root.rglob("*.csv"))

    @pytest.mark.parametrize("case", ["kappa", "diverging"])
    def test_stderr_is_one_error_line(self, out_root, tmp_path, case):
        # In a child process, where nothing captures numpy's warnings: before,
        # RuntimeWarning lines came ahead of the ERROR line.
        if case == "kappa":
            cfg = tiny_experiment(sim=small_sim(n_slots=3), algorithms=("greedy",),
                                  seeds=(0,))
            cfg.sim.energy.kappa = 1e300
            command = "baseline"
        else:
            cfg = self._diverging_experiment()
            command = "run"
        path = self._write_cfg(tmp_path, cfg)
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-m", "uavmec.cli", command, path],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 2
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("ERROR "), proc.stderr

    def test_missing_file_reports_error(self, out_root, capsys):
        assert cli.main(["run", "/nonexistent/cfg.json"]) == 2
        assert capsys.readouterr().err.startswith("ERROR ")


class TestConfigErrors:
    def test_error_names_offending_field(self, tmp_path):
        cfg = tiny_experiment()
        cfg.td3.gamma = 1.5
        with pytest.raises(ConfigError, match="gamma"):
            cfg.validate()

    @pytest.mark.parametrize("section,field,value", [
        ("td3", "policy_delay", 0),
        ("td3", "batch_size", 0),
        ("td3", "buffer_capacity", 0),
        ("td3", "buffer_capacity", 15),      # below the batch size of 16
        ("td3", "episodes", -1),
        ("td3", "hidden", (0,)),
        ("ppo", "minibatch_size", 0),
        ("ppo", "epochs", 0),
        ("ppo", "rollout_episodes", 0),
        ("ppo", "episodes", -1),
        ("ppo", "hidden", (16, 0)),
        ("td3", "exploration_noise_sigma", -0.1),
        ("td3", "target_noise_sigma", -0.2),
        ("td3", "warmup_steps", -1),
        ("td3", "reward_scale", 0.0),
        ("ppo", "reward_scale", -1.0),
        ("", "config_version", 99),          # "" is the experiment itself
        ("td3", "buffer_capacity", 10**30),
    ])
    def test_learner_range_names_field(self, section, field, value):
        cfg = tiny_experiment()
        cfg.td3.batch_size = 16
        cfg.validate()
        setattr(getattr(cfg, section) if section else cfg, field, value)
        with pytest.raises(ConfigError, match=f"{section}.{field}".lstrip(".")):
            cfg.validate()

    def test_zero_noise_and_warmup_allowed(self):
        cfg = tiny_experiment()
        cfg.td3.exploration_noise_sigma = 0.0
        cfg.td3.target_noise_sigma = 0.0
        cfg.td3.warmup_steps = 0
        cfg.validate()

    @pytest.mark.parametrize("section,field,value", [
        ("world", "n_slots", 0),
        ("world", "battery_j", 0.0),
        ("task", "bitrate_ladder", ()),
        ("world", "n_idle", 0),
        ("world", "n_idle", -1),
        ("task", "cycles_per_bit_min", 2000.0),
        ("task", "bitrate_ladder", (0.0, -1.0)),
        ("chan_d2d", "beta0", 0.0),
        ("chan_uav", "chi", 1.5),
        ("econ", "p_uav_min", 3.0),
        ("econ", "energy_price", -1.0),
        ("econ", "beta_busy", -1.0),
        ("econ", "beta_idle", -2.0),
        ("world", "h_max", 50.0),
        ("world", "h_min", -50.0),    # UAVs sent down would fly below the UDs
        ("world", "h_min", 0.0),
        ("world", "n_busy", 10**30),
    ])
    def test_sim_range_names_field(self, section, field, value):
        cfg = tiny_experiment()
        cfg.validate()
        setattr(getattr(cfg.sim, section), field, value)
        with pytest.raises(ConfigError, match=f"{section}.{field}"):
            cfg.validate()

    def test_negative_seed_names_index(self):
        # Before the bound this validated, and the first run died in numpy's
        # default_rng with "expected non-negative integer", naming no field.
        with pytest.raises(ConfigError, match=r"seeds\[0\] must be nonnegative"):
            experiment_from_dict({"seeds": [-1]})
        with pytest.raises(ConfigError, match=r"seeds\[1\] must be nonnegative"):
            tiny_experiment(seeds=(0, -1)).validate()

    @pytest.mark.parametrize("blob,path", [
        ({"sim": {"world": {"n_busy": "abc"}}}, r"sim\.world\.n_busy"),
        ({"seeds": 3}, "seeds"),
        ({"sim": {"world": {"n_uav": 2.5}}}, r"sim\.world\.n_uav"),
        ({"sim": {"world": {"n_uav": True}}}, r"sim\.world\.n_uav"),
        ({"sim": {"deterministic_fading": "yes"}}, r"sim\.deterministic_fading"),
        ({"sim": {"task": {"bitrate_ladder": [0.4, "x"]}}},
         r"sim\.task\.bitrate_ladder\[1\]"),
    ])
    def test_ill_typed_leaf_names_path(self, blob, path):
        with pytest.raises(ConfigError, match=path):
            experiment_from_dict(blob)

    @pytest.mark.parametrize("value,message", [
        (2.5, "expected int, got float 2.5"),
        (True, "expected int, got bool True"),
        (0, "must be positive"),
        ("3", "expected int, got str '3'"),
    ])
    def test_ill_typed_sweep_value_names_axis_index(self, value, message):
        # Before the check, 2.5 and True ran 2 and 1 UAVs under CSV labels
        # "2.5" and "True".
        blob = {"sweep_axes": {"n_uav": [1, value]}}
        with pytest.raises(ConfigError, match=r"sweep_axes\.n_uav\[1\]") as err:
            experiment_from_dict(blob)
        assert message in str(err.value)

    def test_zero_idle_sweep_value_names_axis_index(self):
        # Before the check this validated, and the sweep's first run died
        # in OffloadEnv: the D2D route needs an idle UD.
        blob = {"sweep_axes": {"n_idle": [0]}}
        with pytest.raises(ConfigError, match=r"sweep_axes\.n_idle\[0\]") as err:
            experiment_from_dict(blob)
        assert "world.n_idle" in str(err.value)

    def test_int_accepted_for_float_field(self):
        cfg = experiment_from_dict({"sim": {"world": {"area_side": 100}}})
        assert cfg.sim.world.area_side == 100

    def test_zero_rollout_episodes_raises_instead_of_hanging(self):
        cfg = PpoConfig(episodes=2, rollout_episodes=0, hidden=(8,))
        with pytest.raises(ConfigError, match="ppo.rollout_episodes"):
            ppo_train(lambda s: OffloadEnv(small_sim(n_slots=2), s), cfg, 0)

    def test_removed_induced_term_knob_is_unknown(self):
        # Each retired field fails by name, as any unknown field does.
        for blob, path in [
                ({"sim": {"energy": {"classical_induced_term": False}}},
                 r"sim\.energy\.classical_induced_term"),
                ({"td3": {"optimizer": "adam"}}, r"td3\.optimizer")]:
            with pytest.raises(ConfigError, match=f"unknown field '{path}'"):
                experiment_from_dict(blob)

    def test_repeated_sweep_value_names_axis(self):
        # Before, [1, 1] validated, and the sweep ran each cell twice and
        # wrote two identical summary rows, each with n_seeds twice the seeds.
        with pytest.raises(ConfigError, match=r"^sweep_axes\.n_uav must be distinct, "
                                              r"got \[1, 1\]$"):
            experiment_from_dict({"sweep_axes": {"n_uav": [1, 1]}})
        # Each value is checked first, so a bad repeat is named by its index.
        with pytest.raises(ConfigError, match=r"sweep_axes\.n_uav\[0\]"):
            experiment_from_dict({"sweep_axes": {"n_uav": [0, 0]}})
        with pytest.raises(ConfigError, match=r"^sweep_axes\.f_k_max must be distinct"):
            experiment_from_dict({"sweep_axes": {"f_k_max": [1e10, 10**10]}})

    def test_repeated_seed_message(self):
        with pytest.raises(ConfigError, match=r"^seeds must be distinct, got \(0, 0\)$"):
            experiment_from_dict({"seeds": [0, 0]})

    def test_unknown_key_names_path(self, tmp_path):
        path = str(tmp_path / "c.json")
        save_experiment(tiny_experiment(), path)
        with open(path) as fh:
            blob = json.load(fh)
        blob["td3"]["momentum"] = 0.9
        with open(path, "w") as fh:
            json.dump(blob, fh)
        with pytest.raises(ConfigError, match="momentum"):
            load_experiment(path)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("path", [path for path, _ in numeric_leaves(ExperimentConfig)])
def test_non_finite_number_names_path(path, value):
    # Before one walker checked every field, 110 of the 195 float probes
    # validated and 76 of the rejections named no path.
    *parents, name = path.removesuffix("[0]").split(".")
    in_tuple = path.endswith("[0]")
    blob = {name: [value] if in_tuple else value}
    for key in reversed(parents):
        blob = {key: blob}
    with pytest.raises(ConfigError) as err:
        experiment_from_dict(blob)
    assert path in str(err.value)
    # A config built in Python gets the same check from validate().
    cfg = ExperimentConfig()
    section = cfg
    for key in parents:
        section = getattr(section, key)
    setattr(section, name, (value,) if in_tuple else value)
    with pytest.raises(ConfigError) as err:
        cfg.validate()
    assert path in str(err.value)


def test_a_second_config_module_is_freed():
    # typing caches hashable Annotated[...] hints for the life of the
    # process. With a hashable Domain that cache kept every re-imported
    # config module alive, and the benchmark re-imports it at each set-up.
    spec = importlib.util.spec_from_file_location("uavmec_config_copy", config.__file__)
    copy = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(copy)
    copy.SimConfig().validate()
    world = weakref.ref(copy.WorldConfig)
    del copy, spec
    gc.collect()
    assert world() is None


_counts = st.integers(1, 64)
_widths = st.lists(st.integers(1, 512), min_size=1, max_size=3).map(tuple)


@st.composite
def _experiments(draw) -> ExperimentConfig:
    """Valid experiment configs with a few sim, TD3 and sweep fields drawn."""
    world = WorldConfig(n_busy=draw(_counts), n_idle=draw(_counts),
                        n_uav=draw(_counts), n_slots=draw(_counts),
                        area_side=draw(st.floats(1.0, 1e4)),
                        battery_j=draw(st.floats(1e-3, 1e9)))
    batch = draw(st.integers(1, 512))
    td3 = Td3Config(gamma=draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)),
                    tau=draw(st.floats(0.0, 1.0, exclude_min=True)),
                    exploration_noise_sigma=draw(st.floats(0.0, 2.0)),
                    batch_size=batch,
                    buffer_capacity=batch + draw(st.integers(0, 10**6)),
                    hidden=draw(_widths))
    sweep_axes = draw(st.fixed_dictionaries({}, optional={
        "n_uav": st.lists(_counts, min_size=1, max_size=4, unique=True),
        "n_idle": st.lists(_counts, min_size=1, max_size=4, unique=True),
        "n_busy": st.lists(_counts, min_size=1, max_size=4, unique=True),
        "f_k_max": st.lists(st.floats(1e6, 1e12), min_size=1, max_size=4, unique=True),
    }))
    return ExperimentConfig(
        sim=SimConfig(world=world, deterministic_fading=draw(st.booleans())),
        td3=td3,
        algorithms=tuple(draw(st.lists(st.sampled_from(("td3", "ddpg", "ppo", "greedy")),
                                       min_size=1, unique=True))),
        seeds=tuple(draw(st.lists(st.integers(0, 2**31 - 1), min_size=1,
                                  max_size=5, unique=True))),
        sweep_axes=sweep_axes)


@settings(max_examples=60, deadline=None)
@given(_experiments())
def test_experiment_round_trips_through_json(cfg):
    cfg.validate()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cfg.json")
        save_experiment(cfg, path)
        loaded = load_experiment(path)
    assert loaded == cfg
    loaded.validate()
