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

Each quantity is computed when the last thing it depends on is fixed:

- Per episode, at ``reset``: the UD positions, each busy UD's D2D partner
  (its nearest idle UD), the D2D path loss ``beta0 * d^-chi`` of that
  static link, and how many busy UDs share each idle UD's compute.
- Per slot, when the previous step commits (or at ``reset``): the tasks,
  the fading normals, the UAV association, the two link rates no action
  changes, the UAV link's and the D2D link's (the episode's path loss
  times, under stochastic fading, the slot's scatter gain), and the
  proximity penalty F1, which reads only the UAV positions.
- Per action: the split, compute levels, prices, weights, bitrate and
  velocities, and with them every delay, energy, utility and F2-F4.
  Powers run once per distinct value: the idle compute share squared once
  per distinct partner load (``reset`` keeps those loads), and a velocity
  block that a batch's rows share flies once per slot, however many calls
  score it.
- Per ledger entry, only for the action ``step`` commits: the sums of the
  per-UD delays and energies, and the move (also computed for every action
  on the last slot, where the return penalty F4 reads it).

The slot evaluation is one array pass over all busy UDs, for one action or
for a batch of B actions. One action's scalars (split, compute levels,
prices, weights, bitrate) are plain floats, and so is each scalar that every
row of a batch shares; a scalar that varies over the rows is a (B, 1) column
against the per-UD axis. A term is per row only where one of its inputs is,
and the per-UAV and per-idle-UD totals of such a term are one
``np.bincount`` over row-offset indices. The evaluation is a pure function
of the world, the drawn tasks and the actions, so
:meth:`OffloadEnv.peek_rewards` scores any number of actions without
copying the env or drawing from its generator. :meth:`OffloadEnv.step` is
the same evaluation of one action plus the commit; an action whose bits
equal a row of the slot's last scored batch is not evaluated again, and
``step`` commits that row's outcome. Both raise a ValueError
naming the slot (and the row of a batch) where a reward is not finite or
its evaluation overflows; ``step`` then commits nothing.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field, fields
from typing import NamedTuple

import numpy as np

from . import channel, compute_energy as ce, economics as econ, libm
from .config import SimConfig
from .world import associate, clamp_velocity, move, pairwise_min_distance, spawn_world


@dataclass
class DecodedAction:
    """One decoded action, or a batch of them. One (A,) vector gives plain
    floats, a (K, 3) velocity block and (K,) commanded speeds. A (B, A)
    batch gives a field in that same form where its raw columns hold the
    same bits in every row, and otherwise with a leading row axis: a (B,)
    array, (B, K, 3) velocities and (B, K) commanded speeds."""
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
    """Evaluated slots and the velocities and battery use they commit. A
    value has a leading row axis (B,) only where it reads a field of the
    decoded batch that varies over the rows; otherwise it is one action's
    value, the same for all rows (F1, say, or F4 before the last slot). The
    ledger's per-UD and per-party terms are kept unreduced: only
    :meth:`entry` sums them."""
    rows: dict[str, np.ndarray]      # the reward and its terms, () or (B,)
    ud_terms: dict[str, np.ndarray]  # ledger delays and energies, (I,) or (B, I)
    totals: dict[str, np.ndarray]    # ledger energy totals by party, (K,) or (J,), or per row
    vel: np.ndarray                  # (K, 3) or (B, K, 3), the clamped velocities
    energy_used: np.ndarray          # (K,) or (B, K) cumulative

    def entry(self, slot: int, battery_j: float, pos: np.ndarray) -> LedgerEntry:
        """The ledger entry of a one-action outcome, whose move ends at pos."""
        remaining = np.maximum(battery_j - self.energy_used, 0.0).tolist()
        ud_sums = _running_sums(np.array(list(self.ud_terms.values())))
        return LedgerEntry(
            slot=slot, **self.rows, **dict(zip(self.ud_terms, ud_sums)),
            **{name: float(v.sum()) for name, v in self.totals.items()},
            uav_rows=[(x, y, z, e) for (x, y, z), e in zip(pos.tolist(), remaining)])

    def row(self, b: int) -> _SlotOutcome:
        """Row b of a batch outcome as one action's outcome: ``v[b]`` of
        each value that has the row axis, and every other value as it is."""
        def pick(v, ndim):
            return v[b] if np.ndim(v) > ndim else v

        return _SlotOutcome(*(
            {name: pick(v, ndim) for name, v in x.items()} if isinstance(x, dict)
            else pick(x, ndim)
            for x, ndim in zip(self, _ONE_ACTION_NDIM)))


# The number of dimensions of each _SlotOutcome field's values for one
# action; a batch value with one more carries the row axis.
_ONE_ACTION_NDIM = (0, 1, 1, 2, 1)


def velocity_columns(n_uav: int) -> slice:
    """The raw action's velocity block, three columns per UAV. Every other
    column is a scalar; the bitrate selector is the last, after the block."""
    return slice(11, 11 + 3 * n_uav)


def action_length(n_uav: int) -> int:
    return velocity_columns(n_uav).stop + 1


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
# The raw column group each DecodedAction field is decoded from, in field
# order: 0 the split logits, 1-5 the compute levels and prices one column
# each, 6 the weight logits, 7 the velocity block (velocities and commanded
# speeds), 8 the bitrate selector.
_FIELD_GROUP = (0, 0, 0, 1, 2, 3, 4, 5, 6, 6, 6, 7, 7, 8)


def decode(raw: np.ndarray, cfg: SimConfig) -> DecodedAction:
    """Map a raw action vector (A,), or a batch of them (B, A), onto the
    feasible set.

    Finite entries outside [-1, 1] are clipped into it; a non-finite entry
    raises ValueError naming its index (and, in a batch, its row). A batch
    field whose clipped raw columns hold the same bits in every row is row
    0's value in one action's form (see :class:`DecodedAction`), so the slot
    kernel computes it once; the bits are compared, so -0.0 and 0.0 differ.
    """
    raw = np.asarray(raw, dtype=float)
    k = cfg.world.n_uav
    vel = velocity_columns(k)   # the bitrate selector, last, is at vel.stop
    if raw.ndim not in (1, 2) or raw.shape[-1] != vel.stop + 1:
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
    rung = (raw[..., vel.stop] + 1.0) * 0.5 * n_levels
    if raw.ndim == 1:    # plain floats, as the scalar formulas take them
        (eps, w), levels = s.tolist(), u.tolist()
        idx = min(int(rung), n_levels - 1)
    else:                # one (B,) array per quantity
        (eps, w), levels = s.transpose(1, 2, 0), u.T
        idx = np.minimum(rung.astype(int), n_levels - 1)
    vel_raw = raw[..., vel].reshape(raw.shape[:-1] + (k, 3)) * cfg.world.v_max
    commanded = np.sqrt(np.add.reduce(vel_raw * vel_raw, axis=-1))  # norm(axis=-1)
    velocities = clamp_velocity(vel_raw, cfg.world.v_max)
    bitrate = ce.ladder_level(cfg.task, idx)
    # In field order: eps1-3, f_busy f_idle f_uav p_uav p_idle, w1-3.
    fields = [*eps, *levels, *w, velocities, commanded, bitrate]
    if raw.ndim == 2 and len(raw):
        bits = raw.view(np.int64)
        group_starts = [0, 3, 4, 5, 6, 7, 8, vel.start, vel.stop]
        same = np.logical_and.reduceat((bits == bits[0]).all(axis=0), group_starts).tolist()
        (eps, w), levels = s[0].tolist(), u[0].tolist()
        first = [*eps, *levels, *w, velocities[0], commanded[0], bitrate[0].item()]
        fields = [one if same[g] else f for one, f, g in zip(first, fields, _FIELD_GROUP)]
    return DecodedAction(*fields)


def episode_return(rewards) -> float:
    return float(sum(rewards))


# The LedgerEntry fields an episode record sums, in declaration order.
SUMMED_FIELDS = tuple(f.name for f in fields(LedgerEntry) if f.name not in ("slot", "uav_rows"))


def episode_sums(entries) -> dict[str, float]:
    """The episode record: each SUMMED_FIELDS field's :func:`episode_return`
    over the entries, by name, in field order. Its ``reward`` is the
    episode return."""
    return {name: episode_return(getattr(e, name) for e in entries)
            for name in SUMMED_FIELDS}


def transitions(env: OffloadEnv, policy):
    """The one step loop: step env from its current state until it is done,
    taking ``policy(s)`` as each action, and yield ``(s, a, entry, s_next)``
    per step. The consumer's body for a step runs before the next
    ``policy`` call, so a learner updates between step t and action t + 1."""
    s = env.state()
    while not env.done:
        a = policy(s)
        s_next, _, entry, _ = env.step(a)
        yield s, a, entry, s_next
        s = s_next


def rollout(env: OffloadEnv, policy) -> list[LedgerEntry]:
    """The ledger entry of every step of :func:`transitions`."""
    return [entry for _, _, entry, _ in transitions(env, policy)]


class OffloadEnv:
    """Deterministic, seedable episodic environment (step/reset interface)."""

    def __init__(self, cfg: SimConfig, seed: int = 0):
        self.cfg = cfg
        self.reset(seed)

    @property
    def state_dim(self) -> int:
        return state_length(self.cfg.world.n_busy, self.cfg.world.n_uav)

    @property
    def action_dim(self) -> int:
        return action_length(self.cfg.world.n_uav)

    def reset(self, seed: int | None = None) -> np.ndarray:
        if seed is None:   # the last seed again; at construction there is none
            seed = getattr(self, "_seed", None)
        if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)):
            raise ValueError(f"seed must be an integer, got {seed!r}")
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
        # Static D2D pairing: each busy UD offloads to its nearest idle UD,
        # over a link whose path loss is fixed for the episode.
        busy, idle = self.world.busy_pos, self.world.idle_pos
        partner = associate(busy, idle)
        self._d2d_partner = partner
        self._d2d_loss = channel.los_gain_sq(
            self.cfg.chan_d2d, np.maximum(channel.link_distance(busy, idle[partner]), 1.0))
        # Idle compute is shared evenly among the busy UDs an idle UD serves:
        # the distinct loads, and each busy UD's index into them.
        self._loads, self._load_index = np.unique(np.bincount(partner)[partner],
                                                  return_inverse=True)
        self._draw_tasks()
        return self.state()

    def _draw_tasks(self) -> None:
        """Draw the next slot's tasks and, under stochastic fading, its
        fading normals: per busy UD the real and imaginary parts of the UAV
        link, then of the D2D link. Then fix what no action changes: the
        slot's link rates, each busy UD to its associated UAV and to its D2D
        partner, and the proximity penalty F1 at the UAVs' positions. What
        peek_rewards scored was for the old inputs and is dropped."""
        self._scored = None
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
        if cfg.deterministic_fading:
            g_uav = channel.los_gain_sq(cfg.chan_uav, d_uav)
            g_d2d = self._d2d_loss
        else:
            n = self._normals
            g_uav = channel.fading_gain_sq(cfg.chan_uav, d_uav, n[:, 0], n[:, 1])
            g_d2d = self._d2d_loss * channel.scatter_gain_sq(cfg.chan_d2d, n[:, 2], n[:, 3])
        tx = cfg.caps.tx_power
        self._rate_uav = channel.rate(cfg.chan_uav.bandwidth, tx, g_uav,
                                      cfg.chan_uav.noise_power)
        self._rate_d2d = channel.rate(cfg.chan_d2d.bandwidth, tx, g_d2d,
                                      cfg.chan_d2d.noise_power)
        self._f1 = cfg.penalty.f1 if pairwise_min_distance(w.uav_pos) < cfg.world.d_min else 0.0

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
        n_idle, n_uav = cfg.world.n_idle, cfg.world.n_uav
        bits, cyc = self._bits, self._cycles

        # A value that varies over a batch's rows is a (B,) array and meets
        # the per-UD and per-UAV axes as a (B, 1) column. A value that every
        # row shares is one action's plain float, which the formulas take on
        # their scalar branch, as cheap as Python arithmetic.
        def col(x):
            return x[:, None] if libm.is_array(x) else x

        def flag(fired, value):   # value where fired, else 0.0
            if libm.is_array(fired):
                return np.where(fired, value, 0.0)
            return value if fired else 0.0

        eps1, eps2, eps3 = col(act.eps1), col(act.eps2), col(act.eps3)
        f_busy, f_idle, f_uav = col(act.f_busy), col(act.f_idle), col(act.f_uav)
        bitrate = col(act.bitrate_mbps)

        # Per-UD terms, (I,), or (B, I) where an input varies over the rows.
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
        e_idle = ce.idle_compute_energy(eps2, bits, cyc, f_idle / self._loads, kappa,
                                        self._load_index)

        # Per-UAV and per-idle-UD totals. Over a term's row axis, row b's
        # bins follow row b - 1's, so each bin adds its UDs in index order,
        # as a loop would.
        def binned(index, n_bins, x):
            if x.ndim == 1:
                return np.bincount(index, weights=x, minlength=n_bins)
            rows = len(x)
            return np.bincount((np.arange(rows)[:, None] * n_bins + index).ravel(),
                               weights=x.ravel(), minlength=rows * n_bins
                               ).reshape(rows, n_bins)

        e_trans_k = binned(w.assoc, n_uav, e_tr)
        e_comp_k = binned(w.assoc, n_uav, e_uc)
        e_idle_j = binned(self._d2d_partner, n_idle, e_idle)
        # A velocity block that the last scored batch's rows shared flies
        # the same; greedy search steers every row of a slot the same way.
        scored = None if self._scored is None else self._scored[1]
        if (scored is not None and act.velocities.ndim == scored.vel.ndim == 2
                and act.velocities.tobytes() == scored.vel.tobytes()):
            e_fly_k = scored.totals["e_fly"]
        else:
            speeds = np.sqrt(np.vecdot(act.velocities, act.velocities))
            e_fly_k = ce.flight_energy(speeds, cfg.world.slot_seconds, cfg.energy)

        inc = econ.incentive_factors(cfg.caps)
        beta_uav = econ.uav_inconvenience(eps1, cfg.econ)
        u_uav = _running_sums(econ.uav_utility(f_uav, col(act.p_uav), e_trans_k,
                                               e_fly_k, e_comp_k, beta_uav, cfg.econ))
        u_idle = _running_sums(econ.idle_utility(f_idle, col(act.p_idle),
                                                 e_idle_j, cfg.econ))
        u_busy_own = _running_sums(econ.busy_own_utility(
            f_busy, e_loc, e_up, e_d2d, inc.u_busy, cfg.econ))
        u_busy = (u_busy_own
                  + n_idle * econ.busy_purchase_utility(
                      act.f_idle, act.p_idle, inc.u_idle)
                  + n_uav * econ.busy_purchase_utility(
                      act.f_uav, act.p_uav, inc.u_uav))
        q = econ.system_revenue(u_uav, u_idle, u_busy, act.w1, act.w2, act.w3)

        # Constraint penalties on this slot's configuration.
        pen = cfg.penalty
        f3 = flag((act.commanded_speeds > cfg.world.v_max * (1 + 1e-12)).any(axis=-1),
                  pen.f3)
        # Every energy term is >= 0, so once used > battery it stays so.
        used = self._energy_used + (e_fly_k + e_trans_k + e_comp_k)
        f2 = flag((used > cfg.world.battery_j).any(axis=-1), pen.f2)

        # The return to the start, on the last slot only.
        f4 = 0.0
        if self.slot + 1 >= cfg.world.n_slots and pen.f4 > 0:
            disp = np.linalg.norm(self._move(act.velocities) - self._initial_uav_pos,
                                  axis=-1)
            f4 = pen.f4 * np.mean(disp, axis=-1) / cfg.world.area_side

        penalty = self._f1 + f2 + f3 + f4
        rows = dict(q=q, u_uav=u_uav, u_idle=u_idle, u_busy=u_busy,
                    f1=self._f1, f2=f2, f3=f3, f4=f4, penalty=penalty, reward=q - penalty)
        ud_terms = dict(e_local=e_loc, e_off_uav=e_up, e_off_d2d=e_d2d,
                        t_local=t_loc, t_off_uav=t_up, t_off_d2d=t_d2d)
        totals = dict(e_transcode=e_trans_k, e_uav_compute=e_comp_k,
                      e_idle_compute=e_idle_j, e_fly=e_fly_k)
        return _SlotOutcome(rows, ud_terms, totals, act.velocities, used)

    def _move(self, vel: np.ndarray) -> np.ndarray:
        """UAV positions L + (K, 3) after one slot at the clamped velocities
        vel; changes nothing."""
        w = self.world
        return move(w.uav_pos, w.uav_vel, vel, self.cfg.world.slot_seconds, self.cfg.world)

    def _evaluate_finite(self, act: DecodedAction, n_rows: int | None = None) -> _SlotOutcome:
        """:meth:`_evaluate` of one action, or of a decoded batch of n_rows,
        where every reward is finite. Otherwise raise a ValueError naming
        the slot, the first failing row of a batch, and the non-finite
        reward terms, or that the reward overflows."""
        try:
            out = self._evaluate(act)
        except OverflowError as exc:
            raise ValueError(f"slot {self.slot}: the reward overflows ({exc})") from exc
        finite = np.isfinite(out.rows["reward"])
        if np.count_nonzero(finite) != finite.size:
            row = None if n_rows is None else int(np.argmin(np.broadcast_to(finite, n_rows)))
            raise self._not_finite(out.rows, row)
        return out

    def _not_finite(self, rows: dict, row: int | None = None) -> ValueError:
        """The error for a non-finite reward, naming its non-finite terms."""
        def value(name):
            v = rows[name]
            return float(v[row] if row is not None and libm.is_array(v) else v)

        terms = [f"{name} = {value(name)!r}"
                 for name in ("q", "u_uav", "u_idle", "u_busy", "penalty")
                 if not math.isfinite(value(name))]
        at = f"slot {self.slot}" if row is None else f"slot {self.slot}, row {row}"
        return ValueError(f"{at}: the reward is not finite: "
                          + ", ".join(terms or [f"reward = {value('reward')!r}"]))

    def step(self, raw_action) -> tuple[np.ndarray, float, LedgerEntry, bool]:
        if self.done:
            raise RuntimeError("step() called on a finished episode")
        raw = np.asarray(raw_action, dtype=float)
        if raw.ndim != 1:
            raise ValueError(f"step takes one action vector, got shape {raw.shape}")
        out = self._scored_row(raw)
        if out is None:
            out = self._evaluate_finite(decode(raw, self.cfg))
        # Commit: move the UAVs, drain their batteries, re-associate, and
        # draw the next slot's tasks.
        pos = self._move(out.vel)
        entry = out.entry(self.slot, self.cfg.world.battery_j, pos)
        w = self.world
        w.uav_pos, w.uav_vel = pos, out.vel
        self._energy_used = out.energy_used
        w.assoc = associate(w.busy_pos, w.uav_pos)
        self._draw_tasks()
        self.slot += 1
        self.done = self.slot >= self.cfg.world.n_slots
        return self.state(), entry.reward, entry, self.done

    def _scored_row(self, raw: np.ndarray) -> _SlotOutcome | None:
        """The outcome of the first row of the slot's last scored batch that
        holds raw's bits, or None. Equal bits decode and evaluate to equal
        bits, so this is the outcome ``_evaluate_finite`` would give."""
        if self._scored is None:
            return None
        rows, out = self._scored
        if raw.shape != rows.shape[1:]:
            return None
        match = np.flatnonzero((rows.view(np.int64) == raw.view(np.int64)).all(axis=1))
        return out.row(match[0]) if len(match) else None

    def clone(self) -> "OffloadEnv":
        return copy.deepcopy(self)

    def peek_rewards(self, actions) -> np.ndarray:
        """Rewards (B,) of taking each row of actions (B, A) now; changes
        nothing of the episode and draws no random numbers. Row b's reward
        is the one ``step(actions[b])`` would return, bit for bit.

        The env keeps a copy of the rows and their outcome until the next
        commit or reset (or the next call that scores): ``step`` of an
        action with the bits of a kept row commits that row's outcome
        without scoring it again, and a later evaluation of the same shared
        velocity block takes its flight energy from it."""
        if self.done:
            raise RuntimeError("peek_rewards() called on a finished episode")
        actions = np.asarray(actions, dtype=float)
        if actions.ndim != 2:
            raise ValueError(f"actions must be a (B, {self.action_dim}) batch, "
                             f"got shape {actions.shape}")
        out = self._evaluate_finite(decode(actions, self.cfg), len(actions))
        self._scored = (actions.copy(), out)
        return np.full(len(actions), out.rows["reward"])   # the rows may share it

    def peek_reward(self, raw_action) -> float:
        """Reward of taking raw_action now: :meth:`peek_rewards` of one row."""
        return self.peek_rewards(np.asarray(raw_action, dtype=float)[None])[0]
