import sys

import numpy as np
import pytest

from conftest import BanditEnv, RecordingEnv, ledger_sums, left_to_right_sum, small_sim
from uavmec.config import PpoConfig
from uavmec.env import OffloadEnv
from uavmec.ppo import LOG_STD_MAX, PpoAgent, gae, ppo_train


class TestGae:
    def test_single_step(self):
        adv, ret = gae(np.array([1.0]), np.array([0.5]), np.array([1.0]), 0.9, 0.95)
        assert adv[0] == pytest.approx(0.5)   # 1.0 - 0.5, terminal
        assert ret[0] == pytest.approx(1.0)

    def test_matches_brute_force_discounting(self):
        rng = np.random.default_rng(0)
        n, gamma, lam = 12, 0.95, 0.9
        r = rng.normal(size=n)
        v = rng.normal(size=n)
        dones = np.zeros(n)
        dones[-1] = 1.0
        adv, _ = gae(r, v, dones, gamma, lam)
        # brute force: sum of (gamma*lam)^k * delta_k within the episode
        deltas = np.array([
            r[t] + gamma * (v[t + 1] if t + 1 < n else 0.0) * (1 - dones[t]) - v[t]
            for t in range(n)
        ])
        for t in range(n):
            expected = sum((gamma * lam) ** (k - t) * deltas[k] for k in range(t, n))
            assert adv[t] == pytest.approx(expected, rel=1e-10)

    def test_episode_boundary_blocks_bootstrap(self):
        r = np.array([1.0, 1.0])
        v = np.array([0.0, 100.0])
        dones = np.array([1.0, 1.0])
        adv, _ = gae(r, v, dones, 0.99, 0.95)
        assert adv[0] == pytest.approx(1.0)  # no leak from v[1]


class TestAgent:
    def test_deterministic_action_bounded(self):
        agent = PpoAgent(3, 2, PpoConfig(hidden=(8, 8)), np.random.default_rng(0))
        for _ in range(50):
            a = agent.act(np.random.default_rng(1).normal(size=3))
            assert np.all(np.abs(a) <= 1.0)

    def test_log_prob_matches_gaussian(self):
        agent = PpoAgent(2, 1, PpoConfig(hidden=(4,), init_log_std=0.0),
                         np.random.default_rng(0))
        mu = agent.mean_net.forward(np.zeros((1, 2)))
        a = mu + 0.3
        logp = agent._log_prob(a, mu)[0]
        expected = -0.5 * 0.3 ** 2 - 0.5 * np.log(2 * np.pi)
        assert logp == pytest.approx(expected)

    def test_log_std_clip_writes_the_optimized_array(self):
        # The policy optimizer holds log_std, so the clip must write into
        # that array, never rebind it.
        agent = PpoAgent(2, 1, PpoConfig(hidden=(4,)), np.random.default_rng(0))
        held = agent.log_std
        held[...] = LOG_STD_MAX + 3.0
        s, a = np.zeros((4, 2)), np.zeros((4, 1))
        agent._policy_step(s, a, agent._log_prob(a, agent.mean_net.forward(s)),
                           np.ones(4))
        assert agent.log_std is held
        assert agent.policy_opt.params[1] is held
        assert held[0] == LOG_STD_MAX

    def test_update_equals_the_serial_loop_under_frequent_switches(self):
        # update() runs the value chain on a worker thread. The reference runs
        # each minibatch's policy step, then its value step, on one thread.
        # With the interpreter switching threads every microsecond, the
        # losses and every parameter must still match bit for bit.
        cfg = PpoConfig(hidden=(32, 32), epochs=3, minibatch_size=16)
        rng = np.random.default_rng(0)
        n, s_dim, a_dim = 50, 6, 3
        s, a_raw = rng.normal(size=(n, s_dim)), rng.normal(size=(n, a_dim))
        logp_old, adv, returns = rng.normal(size=(3, n))
        ref, agent = (PpoAgent(s_dim, a_dim, cfg, np.random.default_rng(1))
                      for _ in range(2))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(3):
                adv_n = (adv - adv.mean()) / (adv.std() + 1e-8)
                idx_rng = np.random.default_rng(ref.rng.integers(2 ** 63))
                for _ in range(cfg.epochs):
                    order = idx_rng.permutation(n)
                    for start in range(0, n, cfg.minibatch_size):
                        mb = order[start:start + cfg.minibatch_size]
                        want = (ref._policy_step(s[mb], a_raw[mb], logp_old[mb],
                                                 adv_n[mb]),
                                ref._value_step(s[mb], returns[mb]))
                assert agent.update(s, a_raw, logp_old, adv, returns) == want
        finally:
            sys.setswitchinterval(interval)
        for want_bits, got_bits in ((ref.mean_net.flat, agent.mean_net.flat),
                                    (ref.log_std, agent.log_std),
                                    (ref.value_net.flat, agent.value_net.flat)):
            assert got_bits.tobytes() == want_bits.tobytes()


class TestTraining:
    def test_bandit_learns_optimum(self):
        cfg = PpoConfig(episodes=600, rollout_episodes=40, hidden=(16, 16),
                        lr=5e-3, epochs=8, minibatch_size=20, gamma=0.9)
        log, agent = ppo_train(lambda s: BanditEnv(s), cfg, 0)
        assert abs(agent.act(np.zeros(1))[0] - 0.5) < 0.1

    def test_deterministic_same_seed(self):
        cfg = PpoConfig(episodes=6, rollout_episodes=3, hidden=(8, 8))
        factory = lambda s: OffloadEnv(small_sim(n_slots=5), s)
        log1, _ = ppo_train(factory, cfg, 2)
        log2, _ = ppo_train(factory, cfg, 2)
        assert log1.episode_returns == log2.episode_returns

    def test_logs_one_return_per_episode(self):
        cfg = PpoConfig(episodes=5, rollout_episodes=2, hidden=(8, 8))
        log, _ = ppo_train(lambda s: OffloadEnv(small_sim(n_slots=5), s), cfg, 0)
        assert len(log.episode_returns) == 5

    def test_logs_the_sums_of_the_stepped_entries(self):
        envs = []

        def factory(seed):
            envs.append(RecordingEnv(small_sim(n_slots=5), seed))
            return envs[-1]

        cfg = PpoConfig(episodes=5, rollout_episodes=2, hidden=(8, 8))
        log, _ = ppo_train(factory, cfg, 0)
        [env] = envs
        episodes = env.episodes[1:]     # [0] is the constructor's reset
        assert [len(ep) for ep in episodes] == [5] * 5
        assert log.episode_returns == [left_to_right_sum(e.reward for e in ep)
                                       for ep in episodes]
        assert log.episodes == [ledger_sums(ep) for ep in episodes]
