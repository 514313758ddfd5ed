import re

import numpy as np
import pytest

from conftest import BanditEnv, RecordingEnv, ledger_sums, left_to_right_sum, small_sim
from uavmec.config import Td3Config
from uavmec import td3
from uavmec.env import OffloadEnv
from uavmec.nets import Mlp
from uavmec.td3 import (DivergenceError, Td3Agent, ddpg_train, load_actor,
                        save_actor, td3_train, td_target)


def tiny_cfg(**kw) -> Td3Config:
    base = dict(batch_size=16, buffer_capacity=1000, warmup_steps=16,
                episodes=3, hidden=(16, 16))
    base.update(kw)
    return Td3Config(**base)


class TestTdTarget:
    def test_done_truncates(self):
        y = td_target(np.array([1.5]), np.array([10.0]), np.array([20.0]),
                      np.array([1.0]), 0.98)
        assert y[0] == 1.5

    def test_min_and_discount(self):
        y = td_target(np.array([1.0]), np.array([2.0]), np.array([3.0]),
                      np.array([0.0]), 0.98)
        assert y[0] == pytest.approx(2.96)

    def test_equal_critics(self):
        y = td_target(np.array([0.0]), np.array([5.0]), np.array([5.0]),
                      np.array([0.0]), 0.5)
        assert y[0] == pytest.approx(2.5)

    def test_strictly_below_max_when_critics_differ(self):
        r, d, g = np.array([1.0]), np.array([0.0]), 0.9
        q1, q2 = np.array([2.0]), np.array([4.0])
        y = td_target(r, q1, q2, d, g)
        assert y[0] < (r + g * np.maximum(q1, q2))[0]
        assert y[0] == (r + g * np.minimum(q1, q2))[0]


class TestSmoothedTargetAction:
    def _agent(self, sigma, clip=0.5):
        cfg = tiny_cfg(target_noise_sigma=sigma, target_noise_clip=clip)
        return Td3Agent(3, 2, cfg, np.random.default_rng(0))

    def test_zero_sigma_is_exact(self):
        agent = self._agent(0.0)
        s = np.ones((4, 3))
        assert np.array_equal(agent.smoothed_target_action(s),
                              agent.actor_target.forward(s))

    def test_noise_bounded_by_clip(self):
        agent = self._agent(5.0, clip=0.5)
        s = np.random.default_rng(1).normal(size=(64, 3))
        base = agent.actor_target.forward(s)
        for _ in range(20):
            a = agent.smoothed_target_action(s)
            assert np.all(np.abs(a - base) <= 0.5 + 1e-12)

    def test_output_within_action_bounds(self):
        agent = self._agent(2.0, clip=3.0)
        s = np.random.default_rng(2).normal(size=(32, 3))
        for _ in range(20):
            assert np.all(np.abs(agent.smoothed_target_action(s)) <= 1.0)


class TestUpdates:
    def test_critic_loss_decreases_on_frozen_batch(self):
        rng = np.random.default_rng(0)
        agent = Td3Agent(4, 2, tiny_cfg(critic_lr=1e-3), rng)
        s = rng.normal(size=(32, 4))
        a = rng.uniform(-1, 1, size=(32, 2))
        y = rng.normal(size=32)
        first = agent.critic_update(s, a, y)[0]
        for _ in range(200):
            last = agent.critic_update(s, a, y)[0]
        assert last < first

    def test_actor_moves_toward_critic_peak(self):
        # critic fixed at Q(s, a) = -(a - 0.4)^2 (via training), actor should
        # drive its output toward 0.4
        rng = np.random.default_rng(1)
        agent = Td3Agent(1, 1, tiny_cfg(actor_lr=5e-3, critic_lr=5e-3), rng)
        s = np.zeros((64, 1))
        a_grid = rng.uniform(-1, 1, size=(64, 1))
        q_true = -(a_grid[:, 0] - 0.4) ** 2
        for _ in range(600):
            agent.critic_update(s, a_grid, q_true)
        for _ in range(400):
            agent.actor_update(s)
        out = agent.act(np.zeros(1))
        assert abs(out[0] - 0.4) < 0.1

    def test_actor_objective_is_mean_q(self):
        rng = np.random.default_rng(2)
        agent = Td3Agent(2, 1, tiny_cfg(actor_lr=1e-9), rng)
        s = rng.normal(size=(16, 2))
        a = agent.actor.forward(s)
        x = np.concatenate([s, a], axis=1)
        expected = float(np.mean(agent.critics[0].forward(x)))
        assert agent.actor_update(s) == pytest.approx(expected)

    def test_update_cadence_respects_policy_delay(self):
        cfg = tiny_cfg(episodes=4, policy_delay=2, warmup_steps=16)
        log, agent = td3_train(lambda s: OffloadEnv(small_sim(n_slots=8), s), cfg, 0)
        assert agent.critic_update_count > 0
        assert agent.actor_update_count == agent.critic_update_count // 2


class TestTraining:
    def test_deterministic_same_seed(self):
        cfg = tiny_cfg()
        env_factory = lambda s: OffloadEnv(small_sim(n_slots=6), s)
        log1, _ = td3_train(env_factory, cfg, 5)
        log2, _ = td3_train(env_factory, cfg, 5)
        assert log1.episode_returns == log2.episode_returns

    def test_logs_one_return_per_episode(self):
        cfg = tiny_cfg(episodes=7)
        log, _ = td3_train(lambda s: OffloadEnv(small_sim(n_slots=5), s), cfg, 0)
        assert len(log.episode_returns) == 7
        assert len(log.episodes) == 7

    @pytest.mark.parametrize("train", [td3_train, ddpg_train])
    def test_logs_the_sums_of_the_stepped_entries(self, train):
        envs = []

        def factory(seed):
            envs.append(RecordingEnv(small_sim(n_slots=5), seed))
            return envs[-1]

        log, _ = train(factory, tiny_cfg(episodes=4), 0)
        [env] = envs
        episodes = env.episodes[1:]     # [0] is the constructor's reset
        assert [len(ep) for ep in episodes] == [5] * 4
        assert log.episode_returns == [left_to_right_sum(e.reward for e in ep)
                                       for ep in episodes]
        assert log.episodes == [ledger_sums(ep) for ep in episodes]

    def test_bandit_learns_optimum(self):
        cfg = tiny_cfg(episodes=600, batch_size=32, warmup_steps=100,
                       actor_lr=1e-2, critic_lr=1e-2, exploration_noise_sigma=0.3,
                       gamma=0.9)
        log, agent = td3_train(lambda s: BanditEnv(s), cfg, 0)
        assert abs(agent.act(np.zeros(1))[0] - 0.5) < 0.1

    def test_ddpg_variant_shapes(self):
        cfg = tiny_cfg(episodes=3)
        log, agent = ddpg_train(lambda s: OffloadEnv(small_sim(n_slots=5), s), cfg, 1)
        assert len(agent.critics) == 1
        assert agent.cfg.policy_delay == 1
        assert agent.cfg.target_noise_sigma == 0.0
        assert len(log.episode_returns) == 3
        # DDPG runs on a copy; the caller's config keeps its TD3 values.
        assert (cfg.policy_delay, cfg.target_noise_sigma) == (2, 0.2)

    def test_ddpg_bandit_learns_optimum(self):
        cfg = tiny_cfg(episodes=600, batch_size=32, warmup_steps=100,
                       actor_lr=1e-2, critic_lr=1e-2, exploration_noise_sigma=0.3,
                       gamma=0.9)
        log, agent = ddpg_train(lambda s: BanditEnv(s), cfg, 0)
        assert abs(agent.act(np.zeros(1))[0] - 0.5) < 0.1

    def test_divergence_guard(self):
        cfg = tiny_cfg(episodes=2)
        rng = np.random.default_rng(0)
        agent = Td3Agent(2, 1, cfg, rng)
        agent.actor.weights[0][0, 0] = np.inf
        with pytest.raises(DivergenceError):
            agent.check_finite(step=42)

    def test_divergence_guard_checks_the_nets_named(self):
        agent = Td3Agent(2, 1, tiny_cfg(), np.random.default_rng(0))
        agent.actor.weights[0][0, 0] = np.inf
        agent.check_finite(7, agent.critics)
        agent.critics[1].biases[0][0] = np.nan
        with pytest.raises(DivergenceError, match="at step 7$"):
            agent.check_finite(7, agent.critics)

    @pytest.mark.parametrize("scale,step", [(1e300, 5), (1e100, 6)],
                             ids=["critic-step", "actor-step"])
    def test_changed_nets_check_names_the_all_nets_step(self, monkeypatch, scale, step):
        """Training checks only the critics after a critic-only step; a
        diverging run still fails at the step that checking all six nets
        after every step names. The first case diverges on a critic-only
        step, the second on an actor step."""
        cfg = tiny_cfg(critic_lr=scale, actor_lr=scale, reward_scale=scale,
                       warmup_steps=5, batch_size=4, buffer_capacity=100,
                       hidden=(8, 8))
        sim = small_sim(n_busy=2, n_idle=1, n_uav=1, n_slots=5)

        def diverged_at():
            with np.errstate(all="ignore"), pytest.raises(DivergenceError) as err:
                td3_train(lambda s: OffloadEnv(sim, s), cfg, 0)
            return str(err.value)

        changed = diverged_at()
        check = Td3Agent.check_finite
        monkeypatch.setattr(Td3Agent, "check_finite",
                            lambda agent, at, nets=None: check(agent, at))
        assert changed == diverged_at() == f"non-finite parameters at step {step}"


class TestCheckpoint:
    def test_roundtrip(self, tmp_path):
        actor = Mlp([4, 8, 2], "tanh", np.random.default_rng(3))
        path = str(tmp_path / "actor.npz")
        save_actor(path, actor)
        loaded = load_actor(path)
        x = np.random.default_rng(4).normal(size=(5, 4))
        assert np.array_equal(actor.forward(x), loaded.forward(x))

    @pytest.mark.parametrize("key", ["w1", "b0"])
    def test_shape_mismatch_names_key(self, tmp_path, key):
        actor = Mlp([4, 8, 2], "tanh", np.random.default_rng(3))
        path = str(tmp_path / "actor.npz")
        save_actor(path, actor)
        arrays = dict(np.load(path))
        arrays[key] = np.zeros(arrays[key].size + 1)
        np.savez(path, **arrays)
        with pytest.raises(ValueError, match=f"'{key}'"):
            load_actor(path)

    def test_shapes_checked_before_the_net_is_built(self, tmp_path, monkeypatch):
        # Before, load_actor built Mlp(sizes) first: these sizes asked for
        # 298 GiB before the stored 2x2 w0 was compared with them.
        path = str(tmp_path / "actor.npz")
        np.savez(path, format_version=np.array([1]), sizes=np.array([200000, 200000, 3]),
                 out_activation=np.array(["tanh"]), w0=np.zeros((2, 2)),
                 w1=np.zeros((2, 3)), b0=np.zeros(2), b1=np.zeros(3))

        def no_net(*args):
            raise AssertionError("the net was built before its shapes were checked")

        monkeypatch.setattr(td3, "Mlp", no_net)
        with pytest.raises(ValueError, match=re.escape(
                f"checkpoint {path}: 'w0' has shape (2, 2), want (200000, 200000)")):
            load_actor(path)

    def test_missing_key_named(self, tmp_path):
        actor = Mlp([4, 8, 2], "tanh", np.random.default_rng(3))
        path = str(tmp_path / "actor.npz")
        save_actor(path, actor)
        arrays = dict(np.load(path))
        del arrays["b1"]
        np.savez(path, **arrays)
        with pytest.raises(ValueError, match="'b1'"):
            load_actor(path)

    def test_version_check(self, tmp_path):
        path = str(tmp_path / "bad.npz")
        np.savez(path, format_version=np.array([99]), sizes=np.array([1, 1]),
                 out_activation=np.array(["tanh"]))
        with pytest.raises(ValueError):
            load_actor(path)
