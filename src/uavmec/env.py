"""Episodic MDP wrapping the offloading economy.

State vector layout (length 4*I + 4*K + 1, every entry normalized to [0,1]):

    [x/area, y/area, z/area(=0), bits/d_max]      for each busy UD
    [shared cycles-per-bit, min-max normalized]
    [x/area, y/area, (z-h_min)/(h_max-h_min), energy/battery]  per UAV

Raw action layout (length 12 + 3*K, every entry in [-1, 1]):

    [0:3]        offload-split logits (softmax -> eps1, eps2, eps3)
    [3:6]        busy / idle / UAV compute levels (affine to [0, cap])
    [6:8]        UAV price, idle price (affine to [min, max])
    [8:11]       revenue-weight logits (softmax -> w1, w2, w3)
    [11:11+3K]   per-UAV commanded velocity, each component times v_max
    [11+3K]      transcode-bitrate selector (binned into the ladder)

Each step evaluates the slot's physics and economics at the current
positions, assesses constraint penalties, then advances the UAVs, drains
their batteries, re-associates, and draws the next slot's tasks.

The slot evaluation is one array pass over all busy UDs, for one action or
for a batch of B actions. In a batch each action's scalars (split, compute
levels, prices, weights, bitrate) are (B, 1) columns against the per-UD
axis, and the per-UAV and per-idle-UD totals are one ``np.bincount`` each
over row-offset indices; one action's scalars are plain floats. The evaluation is a pure
function of the world, the drawn tasks and the actions: a slot's fading
normals are drawn together with its tasks, and its link distances, gains and
rates are fixed right then, so :meth:`OffloadEnv.peek_rewards` scores any
number of actions without copying the env or drawing from its generator.
:meth:`OffloadEnv.step` is the same evaluation of one action plus the commit.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import channel, compute_energy as ce, economics as econ, libm
from .config import SimConfig
from .world import (WorldState, associate, clamp_velocity, move,
                    pairwise_min_distance, spawn_world)


@dataclass
class DecodedAction:
    """One decoded action, or a batch of them: every field has the raw
    input's leading shape, a scalar for one (A,) vector and a (B,) array
    for a (B, A) batch (velocities (..., K, 3), commanded speeds (..., K))."""
    eps1: float                   # split: share to the associated UAV
    eps2: float                   # share to the D2D idle partner
    eps3: float                   # share processed locally
    f_busy: float                 # compute levels (cycles/s)
    f_idle: float
    f_uav: float
    p_uav: float                  # currency per GHz of UAV compute
    p_idle: float                 # currency per GHz of idle-UD compute
    w1: float                     # revenue weights: UAVs
    w2: float                     # idle UDs
    w3: float                     # busy UDs
    velocities: np.ndarray        # (..., K, 3), speed-clamped
    commanded_speeds: np.ndarray  # (..., K), pre-clamp magnitudes
    bitrate_mbps: float           # transcode target, a ladder rung


@dataclass
class LedgerEntry:
    slot: int
    q: float
    u_uav: float
    u_idle: float
    u_busy: float
    f1: float
    f2: float
    f3: float
    f4: float
    penalty: float
    reward: float
    e_local: float
    e_off_uav: float
    e_off_d2d: float
    e_transcode: float
    e_uav_compute: float
    e_idle_compute: float
    e_fly: float
    t_local: float
    t_off_uav: float
    t_off_d2d: float
    uav_rows: list[tuple[float, float, float, float]] = field(default_factory=list)


class _SlotOutcome(NamedTuple):
    """Evaluated slots and the UAV states they leave behind, with the decoded
    action's leading shape L: () for one action, (B,) for a batch. A row
    field that no action changes (F1, or F4 before the last slot) is one
    float for all rows."""
    rows: dict[str, np.ndarray]     # LedgerEntry fields, shape L
    totals: dict[str, np.ndarray]   # ledger energy totals by party, L + (K,) or L + (J,)
    pos: np.ndarray                 # L + (K, 3) after the move
    vel: np.ndarray                 # L + (K, 3)
    energy_used: np.ndarray         # L + (K,) cumulative

    def entry(self, slot: int, battery_j: float) -> LedgerEntry:
        """The ledger entry of a one-action outcome."""
        remaining = np.maximum(battery_j - self.energy_used, 0.0).tolist()
        return LedgerEntry(
            slot=slot, **self.rows,
            **{name: float(v.sum()) for name, v in self.totals.items()},
            uav_rows=[(x, y, z, e) for (x, y, z), e in zip(self.pos.tolist(), remaining)])


def action_length(n_uav: int) -> int:
    return 12 + 3 * n_uav


def state_length(n_busy: int, n_uav: int) -> int:
    return 4 * n_busy + 4 * n_uav + 1


def _softmax3(logits: np.ndarray) -> np.ndarray:
    """Softmax over the last axis of length 3."""
    z = np.exp(logits - logits.max(axis=-1, keepdims=True))
    return z / z.sum(axis=-1, keepdims=True)


def _running_sums(rows: np.ndarray) -> np.ndarray:
    """Left-to-right sum of each row from 0.0: the bits a Python loop of
    += gives, which numpy's pairwise ``sum`` does not."""
    return 0.0 + np.cumsum(rows, axis=-1)[..., -1]


_LOGITS = np.array([0, 1, 2, 8, 9, 10])


def decode(raw: np.ndarray, cfg: SimConfig) -> DecodedAction:
    """Map a raw action vector (A,), or a batch of them (B, A), onto the
    feasible set.

    Finite entries outside [-1, 1] are clipped into it; a non-finite entry
    raises ValueError naming its index (and, in a batch, its row).
    """
    raw = np.asarray(raw, dtype=float)
    k = cfg.world.n_uav
    if raw.ndim not in (1, 2) or raw.shape[-1] != action_length(k):
        raise ValueError(f"action vector must have length {action_length(k)}, "
                         f"got shape {raw.shape}")
    finite = np.isfinite(raw)
    if np.count_nonzero(finite) != finite.size:
        *row, i = np.argwhere(~finite)[0].tolist()
        at = f"row {row[0]} " if row else ""
        raise ValueError(f"action {at}entry {i} is not finite ({raw[(*row, i)]})")
    raw = np.minimum(np.maximum(raw, -1.0), 1.0)   # np.clip, minus its overhead
    # Split logits [0:3] and weight logits [8:11] in one softmax; compute
    # levels [3:6] and prices [6:8] in one affine map onto [lo, hi].
    s = _softmax3(raw[..., _LOGITS].reshape(raw.shape[:-1] + (2, 3)))
    caps, ec = cfg.caps, cfg.econ
    lo = np.array([0.0, 0.0, 0.0, ec.p_uav_min, ec.p_idle_min])
    hi = np.array([caps.f_busy_max, caps.f_idle_max, caps.f_uav_max, ec.p_uav_max,
                   ec.p_idle_max])
    u = lo + (raw[..., 3:8] + 1.0) * 0.5 * (hi - lo)
    n_levels = len(cfg.task.bitrate_ladder)
    rung = (raw[..., 11 + 3 * k] + 1.0) * 0.5 * n_levels
    if raw.ndim == 1:    # plain floats, as the scalar formulas take them
        (eps, w), levels = s.tolist(), u.tolist()
        idx = min(int(rung), n_levels - 1)
    else:                # one (B,) array per quantity
        (eps, w), levels = s.transpose(1, 2, 0), u.T
        idx = np.minimum(rung.astype(int), n_levels - 1)
    vel_raw = raw[..., 11:11 + 3 * k].reshape(raw.shape[:-1] + (k, 3)) * cfg.world.v_max
    commanded = np.sqrt(np.add.reduce(vel_raw * vel_raw, axis=-1))  # norm(axis=-1)
    velocities = clamp_velocity(vel_raw, cfg.world.v_max)
    # Positional, in field order: eps1-3, f_busy f_idle f_uav p_uav p_idle, w1-3.
    return DecodedAction(*eps, *levels, *w, velocities, commanded,
                         ce.ladder_level(cfg.task, idx))


def episode_return(rewards) -> float:
    return float(sum(rewards))


def rollout(env: OffloadEnv, policy) -> list[LedgerEntry]:
    """Step env from its current state until it is done, taking
    ``policy(state)`` as each raw action; the ledger entry of every step."""
    s = env.state()
    entries = []
    while not env.done:
        s, _, entry, _ = env.step(policy(s))
        entries.append(entry)
    return entries


class OffloadEnv:
    """Deterministic, seedable episodic environment (step/reset interface)."""

    def __init__(self, cfg: SimConfig, seed: int = 0):
        cfg.validate()
        self.cfg = cfg
        self._seed = seed
        self.world: WorldState | None = None
        self.slot = 0
        self.done = True
        self.reset(seed)

    @property
    def state_dim(self) -> int:
        return state_length(self.cfg.world.n_busy, self.cfg.world.n_uav)

    @property
    def action_dim(self) -> int:
        return action_length(self.cfg.world.n_uav)

    def reset(self, seed: int | None = None) -> np.ndarray:
        if seed is not None:
            if seed < 0:
                raise ValueError(f"seed must be nonnegative, got {seed!r}")
            self._seed = seed
        self.world = spawn_world(self.cfg.world, self._seed)
        self.rng = np.random.default_rng([self._seed, 0xE17])
        self.slot = 0
        self.done = False
        self._initial_uav_pos = self.world.uav_pos.copy()
        # The battery ledger: energy only accrues, so the state's remaining
        # energy and the battery penalty are both read off this sum.
        self._energy_used = np.zeros(self.cfg.world.n_uav)
        # Static D2D pairing: each busy UD offloads to its nearest idle UD.
        busy, idle = self.world.busy_pos, self.world.idle_pos
        partner = associate(busy, idle)
        self._d2d_partner = partner
        self._d2d_distance = np.maximum(channel.link_distance(busy, idle[partner]), 1.0)
        # Idle compute is shared evenly among the busy UDs an idle UD serves.
        self._partner_load = np.bincount(partner)[partner]
        self._draw_tasks()
        return self.state()

    def _draw_tasks(self) -> None:
        """Draw the next slot's tasks and, under stochastic fading, its
        fading normals: per busy UD the real and imaginary parts of the UAV
        link, then of the D2D link. Then fix the slot's link rates, which no
        action changes: each busy UD to its associated UAV and to its D2D
        partner."""
        cfg = self.cfg
        t = cfg.task
        n_busy = cfg.world.n_busy
        self._bits = self.rng.uniform(t.d_min_bits, t.d_max_bits, size=n_busy)
        self._cycles = float(self.rng.uniform(t.cycles_per_bit_min,
                                              t.cycles_per_bit_max))
        self._normals = (None if cfg.deterministic_fading
                         else self.rng.standard_normal((n_busy, 4)))
        w = self.world
        d_uav = channel.link_distance(w.busy_pos, w.uav_pos[w.assoc])
        d_d2d = self._d2d_distance
        if cfg.deterministic_fading:
            g_uav = channel.los_gain_sq(cfg.chan_uav, d_uav)
            g_d2d = channel.los_gain_sq(cfg.chan_d2d, d_d2d)
        else:
            n = self._normals
            g_uav = channel.fading_gain_sq(cfg.chan_uav, d_uav, n[:, 0], n[:, 1])
            g_d2d = channel.fading_gain_sq(cfg.chan_d2d, d_d2d, n[:, 2], n[:, 3])
        tx = cfg.caps.tx_power
        self._rate_uav = channel.rate(cfg.chan_uav.bandwidth, tx, g_uav,
                                      cfg.chan_uav.noise_power)
        self._rate_d2d = channel.rate(cfg.chan_d2d.bandwidth, tx, g_d2d,
                                      cfg.chan_d2d.noise_power)

    def state(self) -> np.ndarray:
        cfg = self.cfg
        w = self.world
        n_busy = cfg.world.n_busy
        out = np.empty(self.state_dim)
        busy = out[:4 * n_busy].reshape(n_busy, 4)
        busy[:, :3] = w.busy_pos / cfg.world.area_side
        busy[:, 3] = self._bits / cfg.task.d_max_bits
        c_span = cfg.task.cycles_per_bit_max - cfg.task.cycles_per_bit_min
        # degenerate range (fixed cycle density) normalizes to 0
        out[4 * n_busy] = ((self._cycles - cfg.task.cycles_per_bit_min) / c_span
                           if c_span > 0 else 0.0)
        uav = out[4 * n_busy + 1:].reshape(-1, 4)
        pos = w.uav_pos
        uav[:, :2] = pos[:, :2] / cfg.world.area_side
        uav[:, 2] = (pos[:, 2] - cfg.world.h_min) / (cfg.world.h_max - cfg.world.h_min)
        battery = cfg.world.battery_j
        uav[:, 3] = np.maximum(battery - self._energy_used, 0.0) / battery
        return out

    def _evaluate(self, act: DecodedAction) -> _SlotOutcome:
        """The slot under one decoded action, or under each action of a
        decoded batch, at the current state; changes nothing. Rows of a batch
        are independent: a row's results do not depend on the other rows."""
        cfg = self.cfg
        w = self.world
        kappa = cfg.energy.kappa
        tx = cfg.caps.tx_power
        n_busy, n_idle, n_uav = cfg.world.n_busy, cfg.world.n_idle, cfg.world.n_uav
        lead = act.velocities.shape[:-2]        # () for one action, (B,) for a batch
        n_rows = math.prod(lead)
        bits, cyc = self._bits, self._cycles

        # A batch's per-action values meet the per-UD and per-UAV axes as
        # (B, 1) columns; one action's are plain floats, which the formulas
        # take on their scalar branch, as cheap as Python arithmetic.
        def col(x):
            return x[:, None] if lead else x

        def per_ud(x):   # a scalar guard may have decided all UDs alike
            return x if libm.is_array(x) else np.full(lead + (n_busy,), x)

        def flag(fired, value):   # value where fired, else 0.0
            return np.where(fired, value, 0.0) if lead else (value if fired else 0.0)

        eps1, eps2, eps3 = col(act.eps1), col(act.eps2), col(act.eps3)
        f_busy, f_idle, f_uav = col(act.f_busy), col(act.f_idle), col(act.f_uav)
        bitrate = col(act.bitrate_mbps)

        # Per-UD terms, L + (I,).
        t_loc = ce.local_delay(eps3, bits, cyc, f_busy)
        e_loc = ce.local_energy(eps3, bits, cyc, f_busy, kappa)
        t_up = ce.uplink_delay_uav(eps1, bits, self._rate_uav)
        e_up = ce.uplink_energy(tx, t_up)
        ck = ce.transcode_cycles_per_bit(bitrate, cfg.energy)
        t_tr = ce.transcode_time(ck * eps1 * bits, f_uav)
        e_tr = ce.transcode_energy(f_uav, t_tr, cfg.energy)
        d_prime = ce.transcoded_bits(eps1, bits, bitrate, cfg.task.original_bitrate_mbps)
        e_uc = ce.uav_compute_energy(f_uav, d_prime, ck, kappa)
        t_d2d = ce.d2d_delay(eps2, bits, self._rate_d2d)
        e_d2d = ce.uplink_energy(tx, t_d2d)
        f_share = f_idle / self._partner_load
        e_idle = ce.idle_compute_energy(eps2, bits, cyc, f_share, kappa)

        # Per-UAV and per-idle-UD totals: in a batch, row b's bins follow row
        # b - 1's, so each bin adds its UDs in index order, as a loop would.
        def bins(index, n_bins):
            return (np.arange(n_rows)[:, None] * n_bins + index).ravel() if lead else index

        def binned(index, n_bins, x):
            return np.bincount(index, weights=per_ud(x).ravel(),
                               minlength=n_rows * n_bins).reshape(lead + (n_bins,))

        uav_bins = bins(w.assoc, n_uav)
        e_trans_k = binned(uav_bins, n_uav, e_tr)
        e_comp_k = binned(uav_bins, n_uav, e_uc)
        e_idle_j = binned(bins(self._d2d_partner, n_idle), n_idle, e_idle)
        speeds = np.sqrt(np.vecdot(act.velocities, act.velocities))
        e_fly_k = ce.flight_energy(speeds, cfg.world.slot_seconds, cfg.energy)

        inc = econ.incentive_factors(cfg.caps)
        beta_uav = econ.uav_inconvenience(eps1, cfg.econ)
        u_uav = _running_sums(econ.uav_utility(f_uav, col(act.p_uav), e_trans_k,
                                               e_fly_k, e_comp_k, beta_uav, cfg.econ))
        u_idle = _running_sums(econ.idle_utility(f_idle, col(act.p_idle),
                                                 e_idle_j, cfg.econ))
        u_busy_own = econ.busy_own_utility(f_busy, e_loc, e_up, e_d2d,
                                           inc.u_busy, cfg.econ)
        (u_busy_own, e_local, e_off_uav, e_off_d2d, t_local, t_off_uav,
         t_off_d2d) = _running_sums(np.array([
             per_ud(x) for x in (u_busy_own, e_loc, e_up, e_d2d, t_loc, t_up, t_d2d)]))
        u_busy = (u_busy_own
                  + n_idle * econ.busy_purchase_utility(
                      act.f_idle, act.p_idle, inc.u_idle)
                  + n_uav * econ.busy_purchase_utility(
                      act.f_uav, act.p_uav, inc.u_uav))
        q = econ.system_revenue(u_uav, u_idle, u_busy, act.w1, act.w2, act.w3)

        # Constraint penalties on this slot's configuration.
        pen = cfg.penalty
        f1 = pen.f1 if (n_uav > 1 and pairwise_min_distance(w.uav_pos) < cfg.world.d_min) else 0.0
        f3 = flag((act.commanded_speeds > cfg.world.v_max * (1 + 1e-12)).any(axis=-1),
                  pen.f3)
        # Every energy term is >= 0, so once used > battery it stays so.
        used = self._energy_used + (e_fly_k + e_trans_k + e_comp_k)
        f2 = flag((used > cfg.world.battery_j).any(axis=-1), pen.f2)

        # Kinematics and battery drain; the commit re-associates.
        vel = act.velocities
        pos = move(w.uav_pos, w.uav_vel, vel, cfg.world.slot_seconds, cfg.world)
        f4 = 0.0
        if self.slot + 1 >= cfg.world.n_slots and pen.f4 > 0:
            disp = np.linalg.norm(pos - self._initial_uav_pos, axis=-1)
            f4 = pen.f4 * np.mean(disp, axis=-1) / cfg.world.area_side

        penalty = f1 + f2 + f3 + f4
        rows = dict(q=q, u_uav=u_uav, u_idle=u_idle, u_busy=u_busy,
                    f1=f1, f2=f2, f3=f3, f4=f4, penalty=penalty, reward=q - penalty,
                    e_local=e_local, e_off_uav=e_off_uav, e_off_d2d=e_off_d2d,
                    t_local=t_local, t_off_uav=t_off_uav, t_off_d2d=t_off_d2d)
        totals = dict(e_transcode=e_trans_k, e_uav_compute=e_comp_k,
                      e_idle_compute=e_idle_j, e_fly=e_fly_k)
        return _SlotOutcome(rows=rows, totals=totals, pos=pos, vel=vel, energy_used=used)

    def step(self, raw_action) -> tuple[np.ndarray, float, LedgerEntry, bool]:
        if self.done:
            raise RuntimeError("step() called on a finished episode")
        raw = np.asarray(raw_action, dtype=float)
        if raw.ndim != 1:
            raise ValueError(f"step takes one action vector, got shape {raw.shape}")
        out = self._evaluate(decode(raw, self.cfg))
        entry = out.entry(self.slot, self.cfg.world.battery_j)
        # Commit: move the UAVs, drain their batteries, re-associate, and
        # draw the next slot's tasks.
        w = self.world
        w.uav_pos, w.uav_vel = out.pos, out.vel
        self._energy_used = out.energy_used
        w.assoc = associate(w.busy_pos, w.uav_pos)
        self._draw_tasks()
        self.slot += 1
        self.done = self.slot >= self.cfg.world.n_slots
        return self.state(), entry.reward, entry, self.done

    def clone(self) -> "OffloadEnv":
        return copy.deepcopy(self)

    def peek_rewards(self, actions) -> np.ndarray:
        """Rewards (B,) of taking each row of actions (B, A) now; changes
        nothing and draws no random numbers. Row b's reward is the one
        ``step(actions[b])`` would return, bit for bit."""
        if self.done:
            raise RuntimeError("peek_rewards() called on a finished episode")
        actions = np.asarray(actions, dtype=float)
        if actions.ndim != 2:
            raise ValueError(f"actions must be a (B, {self.action_dim}) batch, "
                             f"got shape {actions.shape}")
        return self._evaluate(decode(actions, self.cfg)).rows["reward"]

    def peek_reward(self, raw_action) -> float:
        """Reward of taking raw_action now: :meth:`peek_rewards` of one row."""
        return self.peek_rewards(np.asarray(raw_action, dtype=float)[None])[0]
