"""Twin-delayed deterministic policy gradient training. DDPG is its special
case: one critic, no target smoothing, an actor update every step.

Training iterates :func:`uavmec.env.transitions`, pushing and learning
between one step and the next action. A training env provides
``state_dim``, ``action_dim``, ``reset()``, ``state()``, ``done``, and
``step(a)`` returning ``(s, r, entry, done)``, whose entry has ``reward``
and ``penalty``."""

from __future__ import annotations

import zipfile
from dataclasses import dataclass, field, replace

import numpy as np

from .config import Td3Config
from .env import episode_return, transitions
from .nets import Adam, Mlp, all_finite, soft_update
from .replay import ReplayBuffer


class DivergenceError(RuntimeError):
    """Raised when any network parameter becomes non-finite."""


def td_target(r: np.ndarray, q1: np.ndarray, q2: np.ndarray,
              done: np.ndarray, gamma: float) -> np.ndarray:
    """Bellman target with the pairwise-min twin-critic estimate."""
    return r + gamma * (1.0 - done) * np.minimum(q1, q2)


@dataclass
class TrainLog:
    episode_returns: list[float] = field(default_factory=list)
    critic_losses: list[float] = field(default_factory=list)
    actor_objectives: list[float] = field(default_factory=list)
    penalty_totals: list[float] = field(default_factory=list)


class Td3Agent:
    def __init__(self, state_dim: int, action_dim: int, cfg: Td3Config,
                 rng: np.random.Generator, n_critics: int = 2):
        self.cfg = cfg
        self.rng = rng
        self.action_dim = action_dim
        self.actor = Mlp([state_dim, *cfg.hidden, action_dim], "tanh", rng)
        self.actor_target = self.actor.copy()
        self.critics = [Mlp([state_dim + action_dim, *cfg.hidden, 1], "identity", rng)
                        for _ in range(n_critics)]
        self.critic_targets = [c.copy() for c in self.critics]
        self.actor_opt = Adam([self.actor.flat], cfg.actor_lr)
        self.critic_opt = Adam([c.flat for c in self.critics], cfg.critic_lr)
        self.critic_update_count = 0
        self.actor_update_count = 0

    def act(self, s: np.ndarray) -> np.ndarray:
        return self.actor.forward(s)[0]

    def act_noisy(self, s: np.ndarray) -> np.ndarray:
        noise = self.rng.normal(0.0, self.cfg.exploration_noise_sigma,
                                size=self.action_dim)
        return np.clip(self.act(s) + noise, -1.0, 1.0)

    def smoothed_target_action(self, s_next: np.ndarray) -> np.ndarray:
        """Target-actor action plus clipped Gaussian smoothing noise."""
        a = self.actor_target.forward(s_next)
        if self.cfg.target_noise_sigma > 0:
            noise = self.rng.normal(0.0, self.cfg.target_noise_sigma, size=a.shape)
            noise = np.clip(noise, -self.cfg.target_noise_clip,
                            self.cfg.target_noise_clip)
            a = a + noise
        return np.clip(a, -1.0, 1.0)

    def td_targets(self, r: np.ndarray, s_next: np.ndarray,
                   done: np.ndarray) -> np.ndarray:
        a_bar = self.smoothed_target_action(s_next)
        x = np.concatenate([s_next, a_bar], axis=1)
        qs = [c.forward(x)[:, 0] for c in self.critic_targets]
        # One critic is its own twin: min(q, q) = q.
        return td_target(r, qs[0], qs[-1], done, self.cfg.gamma)

    def critic_update(self, s: np.ndarray, a: np.ndarray,
                      y: np.ndarray) -> list[float]:
        """One MSE descent step on each critic toward the shared target y."""
        x = np.concatenate([s, a], axis=1)
        losses = []
        batch = x.shape[0]
        for critic in self.critics:
            q, cache = critic.forward_cache(x)
            err = q[:, 0] - y
            losses.append(float(np.mean(err ** 2)))
            grad_out = (2.0 / batch) * err[:, None]
            critic.backward(cache, grad_out, inputs=False)
        self.critic_opt.step([c.grad for c in self.critics])
        self.critic_update_count += 1
        return losses

    def actor_update(self, s: np.ndarray) -> float:
        """Ascent step on the batch-mean of Q1(s, pi(s)); returns the objective."""
        a, actor_cache = self.actor.forward_cache(s)
        x = np.concatenate([s, a], axis=1)
        q, critic_cache = self.critics[0].forward_cache(x)
        batch = s.shape[0]
        grad_out = np.full((batch, 1), 1.0 / batch)
        # The critic's parameter gradients would go unread (the next
        # critic_update overwrites them): only the action gradient is needed.
        grad_x = self.critics[0].backward(critic_cache, grad_out, params=False)
        grad_a = grad_x[:, s.shape[1]:]
        self.actor.backward(actor_cache, grad_a, inputs=False)
        # Gradient ascent: feed negated gradients to the descent optimizer.
        np.negative(self.actor.grad, out=self.actor.grad)
        self.actor_opt.step([self.actor.grad])
        self.actor_update_count += 1
        return float(np.mean(q))

    def sync_targets(self) -> None:
        soft_update(self.actor_target, self.actor, self.cfg.tau)
        for tgt, online in zip(self.critic_targets, self.critics):
            soft_update(tgt, online, self.cfg.tau)

    def check_finite(self, step: int, nets: list[Mlp] | None = None) -> None:
        """Raise DivergenceError naming step if one of nets (by default every
        net, online and target) holds a non-finite parameter."""
        if nets is None:
            nets = [self.actor, self.actor_target] + self.critics + self.critic_targets
        if not all(all_finite(n) for n in nets):
            raise DivergenceError(f"non-finite parameters at step {step}")


def _train(env_factory, cfg: Td3Config, seed: int, n_critics: int):
    env = env_factory(seed)
    rng = np.random.default_rng([seed, 0x7D3])
    agent = Td3Agent(env.state_dim, env.action_dim, cfg, rng, n_critics)
    buf = ReplayBuffer(cfg.buffer_capacity, env.state_dim, env.action_dim,
                       np.random.default_rng([seed, 0xB0F]))
    log = TrainLog()
    step = 0

    def policy(s):
        if step < cfg.warmup_steps:
            return rng.uniform(-1.0, 1.0, size=env.action_dim)
        return agent.act_noisy(s)

    for _ in range(cfg.episodes):
        env.reset()
        entries = []
        for s, a, entry, s_next in transitions(env, policy):
            entries.append(entry)
            buf.push(s, a, entry.reward * cfg.reward_scale, s_next, float(env.done))
            step += 1
            if step >= cfg.warmup_steps and buf.size >= cfg.batch_size:
                bs, ba, br, bs2, bd = buf.sample(cfg.batch_size)
                y = agent.td_targets(br, bs2, bd)
                losses = agent.critic_update(bs, ba, y)
                log.critic_losses.append(losses[0])
                actor_step = agent.critic_update_count % cfg.policy_delay == 0
                if actor_step:
                    log.actor_objectives.append(agent.actor_update(bs))
                    agent.sync_targets()
                # Only the nets this step changed can have turned non-finite.
                agent.check_finite(step, None if actor_step else agent.critics)
        log.episode_returns.append(episode_return(e.reward for e in entries))
        log.penalty_totals.append(episode_return(e.penalty for e in entries))
    return log, agent


def td3_train(env_factory, cfg: Td3Config, seed: int):
    """Full twin-critic training with smoothing and delayed actor updates."""
    return _train(env_factory, cfg, seed, n_critics=2)


def ddpg_train(env_factory, cfg: Td3Config, seed: int):
    """TD3 with one critic, no target smoothing and an actor update every
    step; ``cfg`` itself is left as it is."""
    return _train(env_factory,
                  replace(cfg, policy_delay=1, target_noise_sigma=0.0), seed,
                  n_critics=1)


CHECKPOINT_VERSION = 1


def _checkpoint_items(net: Mlp) -> list[tuple[str, np.ndarray]]:
    """(key, parameter view) pairs: ``w0, w1, ...`` then ``b0, b1, ...``."""
    return ([(f"w{i}", w) for i, w in enumerate(net.weights)]
            + [(f"b{i}", b) for i, b in enumerate(net.biases)])


def save_actor(path: str, actor: Mlp) -> None:
    """Write an actor checkpoint (.npz: version, sizes, activation, params)."""
    arrays = {"format_version": np.array([CHECKPOINT_VERSION]),
              "sizes": np.array(actor.sizes),
              "out_activation": np.array([actor.out_activation])}
    arrays.update(_checkpoint_items(actor))
    np.savez(path, **arrays)


def load_actor(path: str) -> Mlp:
    """The actor of a :func:`save_actor` checkpoint. A file that is not one
    (not an .npz archive, a missing or badly shaped entry, a non-finite
    parameter) raises ValueError("checkpoint <path>: ...")."""
    def entry(key, shape=None):   # data[key], of that shape, or 1-D for None
        if key not in data:
            raise ValueError(f"lacks '{key}'")
        value = data[key]
        if (value.shape != shape) if shape else (value.ndim != 1):
            raise ValueError(f"'{key}' has shape {value.shape}, want {shape or '1-D'}")
        return value

    try:
        with open(path, "rb") as fh:   # np.savez writes a zip: local header first
            if fh.read(4) != b"PK\x03\x04":
                raise ValueError("not an .npz archive")
        with np.load(path, allow_pickle=False) as data:
            version = int(entry("format_version", (1,))[0])
            if version != CHECKPOINT_VERSION:
                raise ValueError(f"unsupported checkpoint version {version}")
            sizes = [int(v) for v in entry("sizes")]
            # Shapes first: sizes alone could ask for any amount of memory.
            params = [entry(f"w{i}", (m, n)) for i, (m, n) in enumerate(zip(sizes, sizes[1:]))]
            params += [entry(f"b{i}", (n,)) for i, n in enumerate(sizes[1:])]
            net = Mlp(sizes, str(entry("out_activation", (1,))[0]), np.random.default_rng(0))
            for (key, view), value in zip(_checkpoint_items(net), params):
                view[...] = value
                if not np.isfinite(view).all():
                    raise ValueError(f"'{key}' holds non-finite values")
            return net
    except (EOFError, zipfile.BadZipFile, ValueError) as exc:
        raise ValueError(f"checkpoint {path}: {exc}") from exc
