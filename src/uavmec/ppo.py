"""Minimal clipped-surrogate on-policy baseline with a Gaussian policy head
and generalized advantage estimation."""

from __future__ import annotations

import contextvars
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .config import LOG_STD_MAX, LOG_STD_MIN, PpoConfig
from .env import episode_sums, rollout
from .nets import Adam, Mlp, all_finite
from .td3 import DivergenceError, TrainLog


class PpoAgent:
    def __init__(self, state_dim: int, action_dim: int, cfg: PpoConfig,
                 rng: np.random.Generator):
        self.cfg = cfg
        self.rng = rng
        self.mean_net = Mlp([state_dim, *cfg.hidden, action_dim], "tanh", rng)
        self.value_net = Mlp([state_dim, *cfg.hidden, 1], "identity", rng)
        self.log_std = np.full(action_dim, cfg.init_log_std)
        self.policy_opt = Adam([self.mean_net.flat, self.log_std], cfg.lr)
        self.value_opt = Adam([self.value_net.flat], cfg.lr)

    def act(self, s: np.ndarray) -> np.ndarray:
        """Deterministic (mean) action."""
        return self.mean_net.forward(s)[0]

    def sample_action(self, s: np.ndarray):
        """(a, log-probability of a) for a drawn around the mean; decode clips a."""
        mu = self.mean_net.forward(s)[0]
        std = np.exp(self.log_std)
        a = mu + std * self.rng.standard_normal(mu.shape)
        return a, self._log_prob(a[None, :], mu[None, :])[0]

    def _log_prob(self, a: np.ndarray, mu: np.ndarray) -> np.ndarray:
        std = np.exp(self.log_std)
        z = (a - mu) / std
        return (-0.5 * z ** 2 - self.log_std - 0.5 * np.log(2 * np.pi)).sum(axis=1)

    def value(self, s: np.ndarray) -> np.ndarray:
        return self.value_net.forward(s)[:, 0]

    def update(self, s, a_raw, logp_old, adv, returns) -> tuple[float, float]:
        """cfg.epochs passes over the samples in shuffled minibatches; returns
        the last minibatch's (policy loss, value loss).

        The policy chain (mean net, log-std, policy optimizer) and the value
        chain (value net, value optimizer) share no parameter and only read
        the samples, and the value chain draws no random numbers. So the
        value chain runs on a worker thread while this thread runs the
        policy chain, each doing exactly the operations of a serial loop;
        numpy releases the GIL in their matrix products and large ufuncs.
        The worker runs in a copy of this thread's context, so it keeps the
        caller's ``np.errstate``."""
        cfg = self.cfg
        n = s.shape[0]
        adv = (adv - adv.mean()) / (adv.std() + 1e-8)
        idx_rng = np.random.default_rng(self.rng.integers(2 ** 63))
        batches = [order[start:start + cfg.minibatch_size]
                   for order in [idx_rng.permutation(n) for _ in range(cfg.epochs)]
                   for start in range(0, n, cfg.minibatch_size)]

        def value_chain() -> float:
            loss = 0.0
            for mb in batches:
                loss = self._value_step(s[mb], returns[mb])
            return loss

        policy_loss = 0.0
        with ThreadPoolExecutor(max_workers=1) as pool:
            value_loss = pool.submit(contextvars.copy_context().run, value_chain)
            for mb in batches:
                policy_loss = self._policy_step(s[mb], a_raw[mb], logp_old[mb], adv[mb])
        return policy_loss, value_loss.result()

    def _policy_step(self, s, a_raw, logp_old, adv) -> float:
        cfg = self.cfg
        b = s.shape[0]
        mu, cache = self.mean_net.forward_cache(s)
        logp = self._log_prob(a_raw, mu)
        # Exponent clamp keeps far-off-policy samples from overflowing.
        ratio = np.exp(np.clip(logp - logp_old, -20.0, 20.0))
        unclipped = ratio * adv
        clipped = np.clip(ratio, 1 - cfg.clip_ratio, 1 + cfg.clip_ratio) * adv
        loss = -float(np.mean(np.minimum(unclipped, clipped)))
        # Gradient flows only where the unclipped branch is active.
        active = ~((adv >= 0) & (ratio > 1 + cfg.clip_ratio)
                   | (adv < 0) & (ratio < 1 - cfg.clip_ratio))
        dlogp = np.where(active, -(adv * ratio) / b, 0.0)
        std = np.exp(self.log_std)
        z = (a_raw - mu) / std
        dmu = dlogp[:, None] * (z / std)          # dlogp/dmu = (a-mu)/std^2
        dlogstd = (dlogp[:, None] * (z ** 2 - 1.0)).sum(axis=0)
        self.mean_net.backward(cache, dmu, inputs=False)
        self.policy_opt.step([self.mean_net.grad, dlogstd])
        np.clip(self.log_std, LOG_STD_MIN, LOG_STD_MAX, out=self.log_std)
        return loss

    def _value_step(self, s, returns) -> float:
        b = s.shape[0]
        v, cache = self.value_net.forward_cache(s)
        err = v[:, 0] - returns
        self.value_net.backward(cache, (2.0 / b) * err[:, None], inputs=False)
        self.value_opt.step([self.value_net.grad])
        return float(np.mean(err ** 2))


def gae(rewards, values, dones, gamma, lam):
    """Generalized advantage estimates and discounted return targets. The
    batch ends on a terminal step, so nothing is bootstrapped past its end."""
    n = len(rewards)
    adv = np.zeros(n)
    running = 0.0
    next_value = 0.0
    for t in range(n - 1, -1, -1):
        nonterminal = 1.0 - dones[t]
        delta = rewards[t] + gamma * next_value * nonterminal - values[t]
        running = delta + gamma * lam * nonterminal * running
        adv[t] = running
        next_value = values[t]
    return adv, adv + values


def ppo_train(env_factory, cfg: PpoConfig, seed: int):
    env = env_factory(seed)
    rng = np.random.default_rng([seed, 0x9970])
    agent = PpoAgent(env.state_dim, env.action_dim, cfg, rng)
    log = TrainLog()

    def policy(s):   # records what the update reads, in the lists of this batch
        a, logp = agent.sample_action(s)
        values.append(float(agent.value(s[None, :])[0]))
        states.append(s)
        actions.append(a)
        logps.append(logp)
        return a

    episodes_done = 0
    while episodes_done < cfg.episodes:
        batch_eps = min(cfg.rollout_episodes, cfg.episodes - episodes_done)
        states, actions, logps, rewards, dones, values = [], [], [], [], [], []
        for _ in range(batch_eps):
            env.reset()
            entries = rollout(env, policy)
            rewards += [e.reward * cfg.reward_scale for e in entries]
            dones += [0.0] * (len(entries) - 1) + [1.0]
            log.episodes.append(episode_sums(entries))
        episodes_done += batch_eps
        adv, returns = gae(np.array(rewards), np.array(values),
                           np.array(dones), cfg.gamma, cfg.gae_lambda)
        p_loss, v_loss = agent.update(np.array(states), np.array(actions),
                                      np.array(logps), adv, returns)
        log.critic_losses.append(v_loss)
        log.actor_objectives.append(-p_loss)
        if not (all_finite(agent.mean_net) and all_finite(agent.value_net)
                and np.all(np.isfinite(agent.log_std))):
            raise DivergenceError(f"non-finite parameters after episode {episodes_done}")
    return log, agent
