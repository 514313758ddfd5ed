import copy
import dataclasses
import functools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import LEDGER_HEADER, ledger_sums, numeric_leaves, small_sim, uav_columns
from uavmec import channel, compute_energy, env as env_module, libm
from uavmec.baseline import PRODUCT_GRID, greedy_action, greedy_episode, steering_velocities
from uavmec.config import ConfigError, PenaltyConfig, SimConfig, WorldConfig, replace_at
from uavmec.env import (DecodedAction, LedgerEntry, OffloadEnv, action_length, decode,
                        episode_return, episode_sums, rollout, state_length, transitions)
from uavmec.harness import write_ledger_csv
from uavmec.world import associate


def _assert_feasible(act, cfg):
    assert abs(act.eps1 + act.eps2 + act.eps3 - 1) < 1e-9
    assert min(act.eps1, act.eps2, act.eps3) >= 0
    assert abs(act.w1 + act.w2 + act.w3 - 1) < 1e-9
    assert min(act.w1, act.w2, act.w3) >= 0
    assert 0 <= act.f_busy <= cfg.caps.f_busy_max
    assert 0 <= act.f_idle <= cfg.caps.f_idle_max
    assert 0 <= act.f_uav <= cfg.caps.f_uav_max
    assert cfg.econ.p_uav_min <= act.p_uav <= cfg.econ.p_uav_max
    assert cfg.econ.p_idle_min <= act.p_idle <= cfg.econ.p_idle_max
    speeds = np.linalg.norm(act.velocities, axis=1)
    assert np.all(speeds <= cfg.world.v_max + 1e-12)
    assert act.bitrate_mbps in cfg.task.bitrate_ladder


class TestReset:
    def test_deterministic(self, sim_cfg):
        a = OffloadEnv(sim_cfg, 3).reset(3)
        b = OffloadEnv(sim_cfg, 3).reset(3)
        assert np.array_equal(a, b)

    def test_state_length_formula(self):
        cfg = small_sim(n_busy=20, n_idle=10, n_uav=5)
        env = OffloadEnv(cfg, 0)
        assert env.state_dim == 4 * 20 + 4 * 5 + 1 == 101
        assert state_length(20, 5) == 101
        assert env.reset().shape == (101,)

    def test_state_normalized(self, sim_cfg):
        s = OffloadEnv(sim_cfg, 1).reset()
        assert np.all(s >= 0.0) and np.all(s <= 1.0)

    def test_negative_seed_named(self, sim_cfg):
        # Before the check numpy raised "expected non-negative integer".
        with pytest.raises(ValueError, match="seed must be nonnegative, got -1"):
            OffloadEnv(sim_cfg, -1)
        env = OffloadEnv(sim_cfg, 0)
        with pytest.raises(ValueError, match="seed must be nonnegative, got -2"):
            env.reset(-2)

    @pytest.mark.parametrize("seed", [None, 1.5, "3", True, np.float64(2.0)],
                             ids=["none", "float", "str", "bool", "numpy-float"])
    def test_non_integer_seed_named(self, sim_cfg, seed):
        # Before the check None, 1.5 and "3" each raised a different
        # TypeError, and True silently ran seed 1.
        message = re.escape(f"seed must be an integer, got {seed!r}")
        with pytest.raises(ValueError, match=message):
            OffloadEnv(sim_cfg, seed)
        env = OffloadEnv(sim_cfg, 4)
        if seed is not None:   # reset(None) replays the last seed
            with pytest.raises(ValueError, match=message):
                env.reset(seed)
        assert np.array_equal(env.reset(), OffloadEnv(sim_cfg, 4).state())

    def test_numpy_integer_seed_accepted(self, sim_cfg):
        assert np.array_equal(OffloadEnv(sim_cfg, np.int64(3)).reset(np.uint8(5)),
                              OffloadEnv(sim_cfg, 5).state())

    def test_fixed_cycle_density_is_finite(self):
        cfg = replace_at(small_sim(), "task.cycles_per_bit_min", 1100.0)
        cfg = replace_at(cfg, "task.cycles_per_bit_max", 1100.0)
        env = OffloadEnv(cfg, 0)
        s = env.reset()
        assert np.all(np.isfinite(s))
        assert np.all(s >= 0.0) and np.all(s <= 1.0)


class TestDecode:
    def test_softmax_symmetry(self, sim_cfg):
        raw = np.zeros(action_length(sim_cfg.world.n_uav))
        act = decode(raw, sim_cfg)
        assert act.eps1 == pytest.approx(1 / 3)
        assert act.w1 == pytest.approx(1 / 3)

    def test_f_uav_cap(self, sim_cfg):
        raw = np.zeros(action_length(sim_cfg.world.n_uav))
        raw[5] = 1.0
        assert decode(raw, sim_cfg).f_uav == pytest.approx(30e9)

    def test_lowest_bitrate_bin(self, sim_cfg):
        raw = np.zeros(action_length(sim_cfg.world.n_uav))
        raw[-1] = -1.0
        assert decode(raw, sim_cfg).bitrate_mbps == pytest.approx(0.4)

    def test_highest_bitrate_bin(self, sim_cfg):
        raw = np.zeros(action_length(sim_cfg.world.n_uav))
        raw[-1] = 1.0
        assert decode(raw, sim_cfg).bitrate_mbps == pytest.approx(2.3)

    def test_wrong_length_rejected(self, sim_cfg):
        with pytest.raises(ValueError):
            decode(np.zeros(5), sim_cfg)

    def test_fuzz_constraints(self, sim_cfg):
        rng = np.random.default_rng(0)
        n = action_length(sim_cfg.world.n_uav)
        for _ in range(1000):
            _assert_feasible(decode(rng.uniform(-1, 1, n), sim_cfg), sim_cfg)

    def test_batch_rows_equal_single_decodes(self, sim_cfg):
        """Row b of a decoded batch is decode(batch[b]) bit for bit in every
        field, and every row is feasible: both simplices, every box."""
        rng = np.random.default_rng(5)
        batch = _mixed_batch(rng, 100, action_length(sim_cfg.world.n_uav))
        rows = decode(batch, sim_cfg)
        names = [f.name for f in dataclasses.fields(DecodedAction)]
        for b, raw in enumerate(batch):
            row = DecodedAction(**{name: getattr(rows, name)[b] for name in names})
            one = decode(raw, sim_cfg)
            for name in names:
                assert (np.asarray(getattr(row, name), dtype=float).tobytes()
                        == np.asarray(getattr(one, name), dtype=float).tobytes()), name
            _assert_feasible(row, sim_cfg)

    def test_shared_columns_decode_to_one_action_form(self, sim_cfg):
        """A batch field whose raw columns hold the same bits in every row is
        row 0's one-action value; the others keep the row axis. 0.0 and -0.0
        are different bits, though they decode to the same price."""
        k = sim_cfg.world.n_uav
        raw = np.random.default_rng(4).uniform(-1, 1, action_length(k))
        batch = np.repeat(raw[None], 3, axis=0)
        batch[:, 3] = [-1.0, 0.0, 1.0]     # f_busy
        batch[:, 6] = [0.0, -0.0, 0.0]     # p_uav
        rows, one = decode(batch, sim_cfg), decode(raw, sim_cfg)
        for f in dataclasses.fields(DecodedAction):
            value = getattr(rows, f.name)
            if f.name in ("f_busy", "p_uav"):
                assert value.shape == (3,), f.name
            elif f.name in ("velocities", "commanded_speeds"):
                assert value.tobytes() == getattr(one, f.name).tobytes(), f.name
            else:
                assert type(value) is float, f.name
                assert _float_bits(value) == _float_bits(getattr(one, f.name)), f.name
        assert rows.velocities.shape == (k, 3) and rows.commanded_speeds.shape == (k,)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_rejected_by_index(self, sim_cfg, bad):
        raw = np.zeros(action_length(sim_cfg.world.n_uav))
        raw[5] = bad
        with pytest.raises(ValueError, match="entry 5 is not finite"):
            decode(raw, sim_cfg)

    def test_out_of_range_entries_clipped(self, sim_cfg):
        n = action_length(sim_cfg.world.n_uav)
        high = decode(np.full(n, 5.0), sim_cfg)
        assert high.f_busy == sim_cfg.caps.f_busy_max
        assert high.p_uav == sim_cfg.econ.p_uav_max
        assert np.array_equal(high.velocities, decode(np.ones(n), sim_cfg).velocities)
        low = decode(np.full(n, -9.0), sim_cfg)
        assert low.f_uav == 0.0
        assert low.p_uav == sim_cfg.econ.p_uav_min
        assert low.bitrate_mbps == sim_cfg.task.bitrate_ladder[0]

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                    min_size=action_length(2), max_size=action_length(2)))
    def test_any_finite_vector_decodes_feasibly(self, raw):
        cfg = small_sim()
        _assert_feasible(decode(np.array(raw), cfg), cfg)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.sampled_from([0.0, -0.0, -1.0, 1.0])
                    | st.floats(allow_nan=False, allow_infinity=False),
                    min_size=action_length(2), max_size=action_length(2)))
    def test_batch_of_one_decodes_as_one_action(self, raw):
        """decode(v[None]) gives every field of decode(v) with the same type,
        shape and bits, so the two entries are interchangeable."""
        cfg = small_sim()
        v = np.array(raw)
        one, batch = decode(v, cfg), decode(v[None], cfg)
        for f in dataclasses.fields(DecodedAction):
            a, b = getattr(one, f.name), getattr(batch, f.name)
            assert type(b) is type(a), f.name
            assert np.shape(b) == np.shape(a), f.name
            assert np.asarray(b).tobytes() == np.asarray(a).tobytes(), f.name


class TestStep:
    def test_reward_identity(self, sim_cfg):
        env = OffloadEnv(sim_cfg, 2)
        rng = np.random.default_rng(2)
        for e in rollout(env, lambda _: rng.uniform(-1, 1, env.action_dim)):
            assert e.reward == e.q - e.penalty
            assert e.penalty == e.f1 + e.f2 + e.f3 + e.f4

    def test_step_after_done_raises(self, sim_cfg):
        env = OffloadEnv(sim_cfg, 0)
        for _ in range(sim_cfg.world.n_slots):
            env.step(np.zeros(env.action_dim))
        with pytest.raises(RuntimeError):
            env.step(np.zeros(env.action_dim))

    def test_remaining_energy_nonincreasing(self, sim_cfg):
        env = OffloadEnv(sim_cfg, 4)
        prev = [sim_cfg.world.battery_j] * sim_cfg.world.n_uav
        for entry in rollout(env, lambda _: np.zeros(env.action_dim)):
            cur = [row[3] for row in entry.uav_rows]
            assert all(c <= p for c, p in zip(cur, prev))
            prev = cur

    def test_speed_penalty_fires(self, sim_cfg):
        env = OffloadEnv(sim_cfg, 1)
        a = np.zeros(env.action_dim)
        a[11:14] = 1.0  # commanded speed sqrt(3) * v_max > v_max
        _, _, e, _ = env.step(a)
        assert e.f3 == sim_cfg.penalty.f3

    def test_proximity_penalty_fires(self, sim_cfg):
        # F1 is fixed per slot, when the slot's tasks are drawn, so a UAV
        # moved within a slot counts from the next slot on. A zero action
        # keeps the UAVs where they were put.
        env = OffloadEnv(sim_cfg, 1)
        env.world.uav_pos[1] = env.world.uav_pos[0] + np.array([0.0, 0.0, 1.0])
        a = np.zeros(env.action_dim)
        env.step(a)
        _, _, e, _ = env.step(a)
        assert e.f1 == sim_cfg.penalty.f1

    def test_proximity_distance_once_per_slot(self, monkeypatch):
        # The UAV positions change only at a commit, so a 50-slot greedy
        # episode takes the pairwise distance at reset and at each of its
        # 50 commits, and never while scoring probes.
        calls, peeking = [], []
        distance = env_module.pairwise_min_distance
        peek = OffloadEnv.peek_rewards

        def counted(pos):
            calls.append(bool(peeking))
            return distance(pos)

        def peek_rewards(self, actions):
            peeking.append(True)
            try:
                return peek(self, actions)
            finally:
                peeking.pop()

        monkeypatch.setattr(env_module, "pairwise_min_distance", counted)
        monkeypatch.setattr(OffloadEnv, "peek_rewards", peek_rewards)
        cfg = SimConfig()
        assert (cfg.world.n_busy, cfg.world.n_idle, cfg.world.n_uav,
                cfg.world.n_slots) == (20, 10, 5, 50)
        greedy_episode(cfg, 0)
        assert len(calls) == 51
        assert not any(calls)

    def test_battery_penalty_fires_and_sticks(self):
        cfg = small_sim(n_slots=6, battery_j=200.0)  # hover drains this in two slots
        env = OffloadEnv(cfg, 0)
        flags = [e.f2 > 0 for e in rollout(env, lambda _: np.zeros(env.action_dim))]
        assert any(flags)
        first = flags.index(True)
        assert all(flags[first:])

    def test_terminal_return_to_start_penalty(self):
        cfg = small_sim(n_slots=2)
        env = OffloadEnv(cfg, 5)
        a = np.zeros(env.action_dim)
        a[11] = 0.5  # steady drift away from the start
        env.step(a)
        _, _, last, done = env.step(a)
        assert done
        assert last.f4 > 0

    def test_done_after_n_slots(self, sim_cfg):
        env = OffloadEnv(sim_cfg, 0)
        for i in range(sim_cfg.world.n_slots):
            _, _, _, done = env.step(np.zeros(env.action_dim))
        assert done

    def test_deterministic_ledger_stream(self, sim_cfg):
        rng = np.random.default_rng(9)
        actions = [rng.uniform(-1, 1, action_length(sim_cfg.world.n_uav))
                   for _ in range(sim_cfg.world.n_slots)]
        streams = []
        for _ in range(2):
            env = OffloadEnv(sim_cfg, 7)
            streams.append([env.step(a)[2] for a in actions])
        for ea, eb in zip(*streams):
            assert ea.reward == eb.reward
            assert ea.q == eb.q
            assert ea.uav_rows == eb.uav_rows


class TestConfigChecks:
    def test_zero_tx_power_rejected(self):
        # At zero power every uplink delay is inf and its energy 0 * inf = nan.
        with pytest.raises(ConfigError, match=r"caps\.tx_power"):
            replace_at(small_sim(), "caps.tx_power", 0.0)

    def test_live_config_cannot_change(self, sim_cfg):
        # Before sections were frozen, setting n_uav to 3 under a live 4/2/2
        # env broke its next step inside numpy, and its next reset grew the
        # state from 25 to 29 entries.
        env = OffloadEnv(sim_cfg, 0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            env.cfg.world.n_uav = 3
        with pytest.raises(dataclasses.FrozenInstanceError):
            env.cfg.world = WorldConfig(n_uav=3)
        assert env.cfg.world.n_uav == 2
        for _ in range(sim_cfg.world.n_slots):
            s, reward, _, _ = env.step(np.zeros(env.action_dim))
            assert s.shape == (25,) and np.isfinite(reward)
        assert env.done
        assert env.reset().shape == (25,)


class TestFormulaInputs:
    """The slot formulas check nothing; the env keeps their inputs in their
    domains. UDs sit at z = 0 and UAVs at or above h_min (100 m here), and
    reset floors the D2D link at 1 m, so no link is shorter than 1 m."""

    @pytest.mark.parametrize("sizes", [(6, 3, 2), (20, 10, 5)])
    def test_env_feeds_formulas_in_domain(self, monkeypatch, sizes):
        seen = {"distance": [], "gain": [], "speed": []}

        def spy(module, name, key, arg):
            formula = getattr(module, name)

            def spied(*args):
                seen[key].append(np.ravel(args[arg]))
                return formula(*args)
            monkeypatch.setattr(module, name, spied)

        spy(channel, "los_gain_sq", "distance", 1)
        spy(channel, "rate", "gain", 2)
        spy(compute_energy, "flight_power", "speed", 0)
        sim = small_sim(*sizes)
        rng = np.random.default_rng(0)
        # Random actions, then full-speed climbs and dives.
        policies = [lambda n: rng.uniform(-1.0, 1.0, n), np.ones, lambda n: -np.ones(n)]
        for seed in range(5):
            for policy in policies:
                env = OffloadEnv(sim, seed)
                rollout(env, lambda _: policy(env.action_dim))
        values = {key: np.concatenate(arrays) for key, arrays in seen.items()}
        assert all(v.size for v in values.values())
        assert values["distance"].min() >= 1.0
        assert values["gain"].min() >= 0.0
        assert values["speed"].min() >= 0.0


def _float_bits(x) -> bytes:
    return np.float64(x).tobytes()


class TestPeekReward:
    def test_equals_cloned_step_on_every_slot(self):
        # 20/10/5, 50 slots, stochastic fading; the battery is drained within
        # the episode, so F2 fires.
        env = OffloadEnv(SimConfig(world=WorldConfig(battery_j=5_000.0)), 8)
        rng = np.random.default_rng(8)
        flags = set()
        done = False
        while not done:
            a = rng.uniform(-1, 1, env.action_dim)
            twin = env.clone()   # before the peek, so its step scores a anew
            peeked = env.peek_reward(a)
            _, cloned, _, _ = twin.step(a)
            _, r, e, done = env.step(a)
            assert _float_bits(peeked) == _float_bits(cloned) == _float_bits(r)
            flags |= {name for name in ("f2", "f4") if getattr(e, name) > 0}
        assert flags == {"f2", "f4"}

    def test_changes_nothing(self, sim_cfg):
        env = OffloadEnv(sim_cfg, 4)
        env.step(np.random.default_rng(1).uniform(-1, 1, env.action_dim))

        def snapshot():
            uavs = (env.world.uav_pos.copy(), env.world.uav_vel.copy(),
                    env._energy_used.copy())
            return (uavs, env.world.assoc.tolist(), env.slot, env.done,
                    env._bits.copy(), env._cycles, env._normals.copy(),
                    env.rng.bit_generator.state)

        before = snapshot()
        rng = np.random.default_rng(2)
        for _ in range(20):
            env.peek_reward(rng.uniform(-1, 1, env.action_dim))
        after = snapshot()
        for u, v in zip(before[0], after[0]):
            assert np.array_equal(u, v)
        assert before[1:4] == after[1:4]
        for x, y in zip(before[4:7], after[4:7]):
            assert np.array_equal(x, y)
        assert before[7] == after[7]

    def test_greedy_search_neither_steps_nor_clones(self):
        calls = []
        # clone() is one deep copy; any other copy of the env is caught here.

        class Watched(OffloadEnv):
            def step(self, raw_action):
                calls.append("step")
                return super().step(raw_action)

            def clone(self):
                calls.append("clone")
                return super().clone()

            def __deepcopy__(self, memo):
                calls.append("deepcopy")
                twin = memo[id(self)] = object.__new__(type(self))
                twin.__dict__.update(copy.deepcopy(self.__dict__, memo))
                return twin

            def peek_rewards(self, actions):
                calls.append(len(actions))
                return super().peek_rewards(actions)

        # At 20/10/5 the 12 scalar dims go three per kernel call, each call
        # scoring their 27-row product grid.
        env = Watched(SimConfig(), 0)
        greedy_action(env)
        assert calls == [27] * 4

    def test_finished_episode_rejected(self):
        env = OffloadEnv(small_sim(n_slots=1), 0)
        env.step(np.zeros(env.action_dim))
        with pytest.raises(RuntimeError):
            env.peek_reward(np.zeros(env.action_dim))


def _mixed_batch(rng, n_rows: int, dim: int) -> np.ndarray:
    """n_rows uniform rows, then n_rows rows drawn from {-1, 0, 1}: at -1 a
    compute level decodes to 0 and a share to the decoder's floor."""
    return np.concatenate([rng.uniform(-1, 1, (n_rows, dim)),
                           rng.choice([-1.0, 0.0, 1.0], size=(n_rows, dim))])


def _shared_velocity_rows(rng, n_rows: int, env) -> np.ndarray:
    """The 2 * n_rows rows of :func:`_mixed_batch`, shaped as greedy
    search's: every row takes the env's steering velocity block."""
    k = env.cfg.world.n_uav
    rows = _mixed_batch(rng, n_rows, env.action_dim)
    rows[:, 11:11 + 3 * k] = steering_velocities(env)
    return rows


def _greedy_shaped(rng, env) -> np.ndarray:
    """Nine rows shaped as one of greedy search's calls: they differ in two
    scalar dims and share every other field, the velocity block included."""
    scalar_dims = [*range(11), 11 + 3 * env.cfg.world.n_uav]
    batch = np.repeat(_shared_velocity_rows(rng, 1, env)[:1], 9, axis=0)
    batch[:, rng.choice(scalar_dims, 2, replace=False)] = PRODUCT_GRID[:9, -2:]
    return batch


def _peek_case(name):
    if name == "20-10-5":
        # 50 slots, stochastic fading; the battery is drained within the
        # episode, so F2 fires.
        return SimConfig(world=WorldConfig(battery_j=5_000.0)), 8
    if name == "12-3-2":                 # partner loads {1, 4, 7}
        return small_sim(n_busy=12, n_idle=3, n_uav=2), 0
    return small_sim(n_busy=6, n_idle=3, n_uav=2, n_slots=15, deterministic_fading=True), 3


def _row_entry(env, out, b: int):
    """Row b of a batch outcome as the ledger entry ``step`` would build:
    the row's one-action outcome, through ``_SlotOutcome.entry`` at the
    row's move."""
    row = out.row(b)
    return row.entry(env.slot, env.cfg.world.battery_j, env._move(row.vel))


def _assert_rows_equal_steps(env, batch):
    """Row b of peek_rewards(batch) is peek_reward(batch[b]) and the reward
    of clone().step(batch[b]) bit for bit, and so is every ledger field of
    the row's outcome. The clones are taken before any peek, so each of
    their steps scores its action anew."""
    clones = [env.clone() for _ in batch]
    rewards = env.peek_rewards(batch)
    assert rewards.shape == (len(batch),)
    out = env._evaluate(decode(batch, env.cfg))
    for b, (row, r, twin) in enumerate(zip(batch, rewards, clones)):
        _, stepped, entry, _ = twin.step(row)
        assert _float_bits(r) == _float_bits(env.peek_reward(row)) == _float_bits(stepped)
        # Every ledger field, not only the reward, which can round a
        # last-bit difference in a small term away.
        row_entry = _row_entry(env, out, b)
        for f in dataclasses.fields(entry):
            assert (np.asarray(getattr(row_entry, f.name), dtype=float).tobytes()
                    == np.asarray(getattr(entry, f.name), dtype=float).tobytes()), f.name


class TestPeekRewards:
    @pytest.mark.parametrize("name", ["20-10-5", "6-3-2-deterministic", "12-3-2"])
    def test_rows_equal_single_peeks_and_cloned_steps(self, name):
        cfg, seed = _peek_case(name)
        env = OffloadEnv(cfg, seed)
        rng = np.random.default_rng(seed)
        flags = set()
        done = False
        while not done:
            batch = np.concatenate([_mixed_batch(rng, 3, env.action_dim),
                                    _shared_velocity_rows(rng, 3, env)])
            _assert_rows_equal_steps(env, batch)
            _, _, e, done = env.step(batch[0])
            flags |= {f for f in ("f2", "f4") if getattr(e, f) > 0}
        if name == "20-10-5":
            assert flags == {"f2", "f4"}

    @pytest.mark.parametrize("name", ["20-10-5", "6-3-2-deterministic", "12-3-2"])
    def test_shared_field_rows_equal_cloned_steps(self, name):
        """Batches shaped as greedy search's: the rows differ in two scalar
        dims and share every other field, which decodes to one value."""
        cfg, seed = _peek_case(name)
        env = OffloadEnv(cfg, seed)
        rng = np.random.default_rng(seed)
        while not env.done:
            batch = _greedy_shaped(rng, env)
            _assert_rows_equal_steps(env, batch)
            env.step(batch[0])

    def test_greedy_call_powers_once_per_distinct_value(self, monkeypatch):
        """A greedy peek_rewards call at 20/10/5 takes libm.power over 23,
        205, 23 and 49 elements in its four calls. Four powers read one
        scalar field each (f_busy squared, f_uav to y1 and squared, the
        bitrate to m2) and the idle share is squared once per distinct
        partner load, L = 4: each over one element per load, times B = 27
        where its field varies over the rows. Flight power takes three
        powers of the K speeds of the one velocity block the rows share.
        So the groups of the split logits and of the prices (with a weight
        logit) take 4 + L + 3 * K = 23, the compute levels' group
        3 * B + 1 + B * L + 3 * K = 205, and the bitrate's group
        B + 3 + L + 3 * K = 49. Per UD and UAV it would be
        B * (I + 4 + 3 * K) = 1,053."""
        env = OffloadEnv(SimConfig(), 0)
        partner = associate(env.world.busy_pos, env.world.idle_pos)
        n_loads = len(np.unique(np.bincount(partner)[partner]))
        rows, elements = [], []
        power, peek = libm.power, env.peek_rewards

        def counted_power(x, y):
            elements[-1] += np.size(x)
            return power(x, y)

        def counted_peek(actions):
            rows.append(len(actions))
            elements.append(0)
            return peek(actions)

        monkeypatch.setattr(libm, "power", counted_power)
        monkeypatch.setattr(env, "peek_rewards", counted_peek)
        greedy_action(env)
        assert n_loads == 4 and rows == [27] * 4
        for n, bound in zip(elements, [23, 205, 23, 49]):
            assert n <= bound

    def test_greedy_calls_decode_shared_fields_once(self, monkeypatch):
        """In each of greedy's four calls at 20/10/5, every field whose raw
        columns lie outside the call's group of three scalar dims decodes to
        a plain float, and the velocities, which all rows share, to one
        (K, 3) block."""
        env = OffloadEnv(SimConfig(), 0)
        k = env.cfg.world.n_uav
        split, weights = range(0, 3), range(8, 11)
        columns = dict(eps1=split, eps2=split, eps3=split, f_busy=[3], f_idle=[4],
                       f_uav=[5], p_uav=[6], p_idle=[7], w1=weights, w2=weights,
                       w3=weights, bitrate_mbps=[11 + 3 * k])
        decoded = []
        real_decode = env_module.decode

        def spied_decode(raw, cfg):
            decoded.append(real_decode(raw, cfg))
            return decoded[-1]

        monkeypatch.setattr(env_module, "decode", spied_decode)
        greedy_action(env)
        scalar_dims = [*range(11), 11 + 3 * k]
        groups = [scalar_dims[i:i + 3] for i in range(0, len(scalar_dims), 3)]
        assert len(decoded) == len(groups) == 4
        for act, dims in zip(decoded, groups):
            for name, cols in columns.items():
                value = getattr(act, name)
                if set(cols).isdisjoint(dims):
                    assert type(value) is float, (dims, name)
                else:
                    assert value.shape == (27,), (dims, name)
            assert act.velocities.shape == (k, 3)
            assert act.commanded_speeds.shape == (k,)

    def test_empty_batch_gives_no_rewards(self, sim_cfg):
        env = OffloadEnv(sim_cfg, 0)
        rewards = env.peek_rewards(np.zeros((0, env.action_dim)))
        assert rewards.shape == (0,) and rewards.dtype == float

    def test_identical_rows_give_one_writable_reward_each(self, sim_cfg):
        env = OffloadEnv(sim_cfg, 0)
        a = np.random.default_rng(3).uniform(-1, 1, env.action_dim)
        twin = env.clone()
        rewards = env.peek_rewards(np.repeat(a[None], 4, axis=0))
        assert rewards.shape == (4,) and rewards.flags.writeable
        assert rewards.tobytes() == np.full(4, twin.step(a)[1]).tobytes()

    def test_permuting_rows_permutes_rewards(self):
        env = OffloadEnv(SimConfig(), 2)
        rng = np.random.default_rng(2)
        batch = _mixed_batch(rng, 4, env.action_dim)
        perm = rng.permutation(len(batch))
        assert (env.peek_rewards(batch[perm]).tobytes()
                == env.peek_rewards(batch)[perm].tobytes())

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_entry_named_by_row_and_index(self, sim_cfg, bad):
        env = OffloadEnv(sim_cfg, 0)
        batch = np.zeros((4, env.action_dim))
        batch[2, 5] = bad
        with pytest.raises(ValueError, match="row 2 entry 5 is not finite"):
            env.peek_rewards(batch)

    def test_single_vector_rejected(self, sim_cfg):
        env = OffloadEnv(sim_cfg, 0)
        with pytest.raises(ValueError, match="batch"):
            env.peek_rewards(np.zeros(env.action_dim))

    def test_finished_episode_rejected(self):
        env = OffloadEnv(small_sim(n_slots=1), 0)
        env.step(np.zeros(env.action_dim))
        with pytest.raises(RuntimeError):
            env.peek_rewards(np.zeros((2, env.action_dim)))

    def test_changes_nothing(self, sim_cfg):
        env = OffloadEnv(sim_cfg, 4)
        env.step(np.random.default_rng(1).uniform(-1, 1, env.action_dim))

        def snapshot():
            arrays = (env.world.uav_pos, env.world.uav_vel, env._energy_used,
                      env.world.assoc, env._bits, env._normals, env._rate_uav,
                      env._rate_d2d)
            return ([a.copy() for a in arrays],
                    (env.slot, env.done, env._cycles, env.rng.bit_generator.state))

        before = snapshot()
        rng = np.random.default_rng(2)
        for _ in range(5):
            env.peek_rewards(_mixed_batch(rng, 3, env.action_dim))
        after = snapshot()
        for x, y in zip(before[0], after[0]):
            assert np.array_equal(x, y)
        assert before[1] == after[1]


def _entry_bits(entry) -> bytes:
    fields = dataclasses.astuple(entry)
    return np.array(fields[:-1] + tuple(np.ravel(fields[-1])), dtype=float).tobytes()


def _assert_same_step(env, twin, a):
    """env.step(a) and twin.step(a) give the same bits: the reward, every
    ledger field, the next state and what the commit sets."""
    s, r, e, done = env.step(a)
    s_twin, r_twin, e_twin, done_twin = twin.step(a)
    assert _float_bits(r) == _float_bits(r_twin)
    assert _entry_bits(e) == _entry_bits(e_twin)
    assert s.tobytes() == s_twin.tobytes() and done == done_twin
    for x, y in [(env.world.uav_pos, twin.world.uav_pos),
                 (env.world.uav_vel, twin.world.uav_vel),
                 (env._energy_used, twin._energy_used)]:
        assert x.tobytes() == y.tobytes()


class TestScoredRows:
    """step commits the outcome peek_rewards scored for a row with the
    action's bits; each case steps a twin cloned before the peek, whose
    step scores the action anew."""

    @pytest.mark.parametrize("shape", ["mixed", "greedy-shaped", "greedy"])
    @pytest.mark.parametrize("name", ["20-10-5", "6-3-2-deterministic", "12-3-2"])
    def test_scored_row_commits_as_a_fresh_step(self, name, shape):
        cfg, seed = _peek_case(name)
        env = OffloadEnv(cfg, seed)
        rng = np.random.default_rng(seed)
        while not env.done:
            twin = env.clone()
            if shape == "greedy":
                a = greedy_action(env)
            else:
                batch = (_mixed_batch(rng, 3, env.action_dim) if shape == "mixed"
                         else _greedy_shaped(rng, env))
                env.peek_rewards(batch)
                a = batch[rng.integers(len(batch))].copy()
            assert env._scored_row(a) is not None
            _assert_same_step(env, twin, a)
        assert env._scored is None

    @pytest.mark.parametrize("column", [6, 11], ids=["price", "velocity"])
    @pytest.mark.parametrize("shape", ["mixed", "greedy-shaped"])
    def test_unscored_action_steps_anew(self, shape, column):
        """One row with one entry an ulp up. With a greedy-shaped batch and
        the price nudged, the action keeps the batch's velocity block, so
        only its flight energy is reused; with the velocity nudged, none."""
        cfg, seed = _peek_case("20-10-5")
        env = OffloadEnv(cfg, seed)
        rng = np.random.default_rng(seed)
        while not env.done:
            twin = env.clone()
            batch = (_mixed_batch(rng, 3, env.action_dim) if shape == "mixed"
                     else _greedy_shaped(rng, env))
            env.peek_rewards(batch)
            a = batch[0].copy()
            a[column] = np.nextafter(a[column], 2.0)
            assert env._scored_row(a) is None
            _assert_same_step(env, twin, a)

    def test_a_batch_changed_after_its_peek_is_not_reused(self, sim_cfg):
        env = OffloadEnv(sim_cfg, 0)
        twin = env.clone()
        batch = _mixed_batch(np.random.default_rng(0), 2, env.action_dim)
        env.peek_rewards(batch)
        batch[1, 3] = -batch[1, 3]
        assert env._scored_row(batch[1]) is None
        _assert_same_step(env, twin, batch[1])

    def test_negative_zero_matches_no_positive_zero_row(self, sim_cfg):
        env = OffloadEnv(sim_cfg, 0)
        twin = env.clone()
        env.peek_rewards(np.zeros((3, env.action_dim)))
        a = np.zeros(env.action_dim)
        a[4] = -0.0
        assert env._scored_row(a) is None
        _assert_same_step(env, twin, a)

    def test_reset_drops_the_scored_rows(self):
        cfg, seed = _peek_case("12-3-2")
        env = OffloadEnv(cfg, seed)
        rng = np.random.default_rng(seed)
        for _ in range(3):
            env.step(rng.uniform(-1, 1, env.action_dim))
        batch = _mixed_batch(rng, 3, env.action_dim)
        env.peek_rewards(batch)
        env.reset()
        assert env._scored is None
        _assert_same_step(env, OffloadEnv(cfg, seed), batch[1])

    def test_a_committed_row_is_scored_anew_at_the_next_slot(self):
        cfg, seed = _peek_case("20-10-5")
        env = OffloadEnv(cfg, seed)
        twin = env.clone()
        batch = _greedy_shaped(np.random.default_rng(seed), env)
        env.peek_rewards(batch)
        _assert_same_step(env, twin, batch[4])
        assert env._scored is None
        _assert_same_step(env, twin, batch[4])

    def test_a_failing_peek_keeps_the_last_scored_rows(self):
        env = OffloadEnv(small_sim(n_slots=3), 0)
        twin = env.clone()
        batch = _mixed_batch(np.random.default_rng(0), 2, env.action_dim)
        env.peek_rewards(batch)
        bad = batch.copy()
        bad[1, 0] = np.nan
        with pytest.raises(ValueError, match="row 1 entry 0"):
            env.peek_rewards(bad)
        assert env._scored_row(batch[2]) is not None
        _assert_same_step(env, twin, batch[2])

    def test_greedy_slot_evaluates_four_times_and_flies_once(self, monkeypatch):
        """A greedy slot at 20/10/5 scores its four 27-row calls and commits
        the row of the last one that it picked; the four calls and the
        commit share one steering velocity block."""
        calls = dict(evaluate=0, flight=0)
        evaluate, flight = OffloadEnv._evaluate, compute_energy.flight_energy

        def counted_evaluate(self, act):
            calls["evaluate"] += 1
            return evaluate(self, act)

        def counted_flight(*args):
            calls["flight"] += 1
            return flight(*args)

        monkeypatch.setattr(OffloadEnv, "_evaluate", counted_evaluate)
        monkeypatch.setattr(compute_energy, "flight_energy", counted_flight)
        env = OffloadEnv(SimConfig(), 0)
        env.step(greedy_action(env))
        assert calls == dict(evaluate=4, flight=1)
        while not env.done:
            env.step(greedy_action(env))
        assert calls == dict(evaluate=4 * env.slot, flight=env.slot)


class TestEpisodeCaches:
    """reset fixes the D2D partners, their path loss and the idle compute
    loads: nothing of the last episode may leak into the next."""

    @pytest.mark.parametrize("deterministic", [False, True])
    def test_reset_equals_a_fresh_env(self, deterministic):
        cfg = small_sim(n_busy=9, n_idle=4, n_uav=3, n_slots=6,
                        deterministic_fading=deterministic)
        rng = np.random.default_rng(5)
        actions = rng.uniform(-1, 1, (cfg.world.n_slots, action_length(3)))
        used = OffloadEnv(cfg, 1)
        for a in actions[:4]:
            used.step(a)
        fresh = OffloadEnv(cfg, 2)
        assert used.reset(2).tobytes() == fresh.state().tobytes()
        for a in actions:
            s_used, _, e_used, _ = used.step(a)
            s_fresh, _, e_fresh, _ = fresh.step(a)
            assert s_used.tobytes() == s_fresh.tobytes()
            assert _entry_bits(e_used) == _entry_bits(e_fresh)


class TestFiniteReward:
    def _env(self, path, value):
        return OffloadEnv(replace_at(small_sim(n_slots=3), path, value), 0)

    def test_step_names_slot_and_terms_and_commits_nothing(self):
        env = self._env("energy.kappa", 1e300)
        a = np.ones(env.action_dim)
        state = env.state()
        with pytest.warns(RuntimeWarning, match="overflow"):
            with pytest.raises(ValueError,
                               match=r"^slot 0: the reward is not finite: q = -inf, "):
                env.step(a)
        assert env.slot == 0
        assert env.state().tobytes() == state.tobytes()

    def test_peek_rewards_names_the_row(self):
        env = self._env("energy.kappa", 1e300)
        batch = -np.ones((4, env.action_dim))   # every compute level at 0
        assert np.isfinite(env.peek_rewards(batch)).all()
        batch[2, 3] = 1.0                        # row 2 runs f_busy at its cap
        with pytest.warns(RuntimeWarning, match="overflow"):
            with pytest.raises(ValueError, match=r"^slot 0, row 2: the reward is not "
                                                 r"finite: q = -?inf"):
                env.peek_rewards(batch)

    def test_peek_rewards_names_row_0_of_a_shared_reward(self):
        env = self._env("energy.kappa", 1e300)
        with pytest.warns(RuntimeWarning, match="overflow"):
            with pytest.raises(ValueError, match=r"^slot 0, row 0: the reward is not "
                                                 r"finite: q = -?inf"):
                env.peek_rewards(np.ones((3, env.action_dim)))

    def test_overflow_names_the_slot(self):
        env = self._env("caps.f_uav_max", 1e300)
        with pytest.raises(ValueError, match=r"^slot 0: the reward overflows") as info:
            env.step(np.ones(env.action_dim))
        assert isinstance(info.value.__cause__, OverflowError)
        with pytest.raises(ValueError, match=r"^slot 0: the reward overflows"):
            env.peek_rewards(np.ones((2, env.action_dim)))


# Leaves whose cross-field rule names the field it constrains, not the leaf:
# the ladder must stay below the original bitrate.
_RULE_SECTION = {"sim.task.original_bitrate_mbps": "sim.task.bitrate_ladder",
                 "sim.task.bitrate_ladder[0]": "sim.task.bitrate_ladder"}


@pytest.mark.parametrize("value", [1e300, 1e-300, -1e300])
@pytest.mark.parametrize("path", [path for path, kind in numeric_leaves(SimConfig, "sim")
                                  if kind is float])
def test_extreme_float_leaf_fails_by_name_or_runs_finite(path, value):
    # Before the finite check, 16 of these validated and gave an inf or nan
    # reward, and 7 ended in an OverflowError.
    cfg = small_sim(n_busy=4, n_idle=2, n_uav=2, n_slots=3)
    field = path.removeprefix("sim.").removesuffix("[0]")
    if path.endswith("[0]"):
        value = (value, *functools.reduce(getattr, field.split("."), cfg)[1:])
    try:
        cfg = replace_at(cfg, field, value)
    except ConfigError as exc:
        assert path in str(exc) or _RULE_SECTION.get(path, path) in str(exc)
        return
    rng = np.random.default_rng(0)
    with np.errstate(all="ignore"):
        env = OffloadEnv(cfg, 0)
        try:
            while not env.done:
                _, reward, _, _ = env.step(rng.uniform(-1.0, 1.0, env.action_dim))
                assert np.isfinite(reward)
        except ValueError as exc:
            assert re.match(r"slot \d+", str(exc)), exc


class TestRollout:
    def test_plays_from_the_current_state_to_the_end(self, sim_cfg):
        env = OffloadEnv(sim_cfg, 6)
        env.step(np.zeros(env.action_dim))
        first = env.state()
        seen = []

        def policy(s):
            seen.append(s)
            return np.zeros(env.action_dim)

        entries = rollout(env, policy)
        assert [e.slot for e in entries] == list(range(1, sim_cfg.world.n_slots))
        assert len(seen) == len(entries)
        assert np.array_equal(seen[0], first)
        assert env.done
        assert rollout(env, policy) == []


class TestTransitions:
    def test_policy_runs_after_the_body_of_the_previous_step(self, sim_cfg):
        env = OffloadEnv(sim_cfg, 2)
        events = []

        def policy(s):
            events.append("policy")
            return np.zeros(env.action_dim)

        for _ in transitions(env, policy):
            events.append("body")
        assert events == ["policy", "body"] * sim_cfg.world.n_slots

    def test_each_next_state_is_the_next_yielded_state(self, sim_cfg):
        env = OffloadEnv(sim_cfg, 4)
        rng = np.random.default_rng(4)
        first = env.state()
        steps = list(transitions(env, lambda _: rng.uniform(-1, 1, env.action_dim)))
        assert len(steps) == sim_cfg.world.n_slots
        assert np.array_equal(steps[0][0], first)
        for (_, _, _, s_next), (s, _, _, _) in zip(steps, steps[1:]):
            assert np.array_equal(s_next, s)
        assert np.array_equal(steps[-1][3], env.state())

    def test_yields_the_action_taken_and_its_entry(self, sim_cfg):
        env, twin = OffloadEnv(sim_cfg, 5), OffloadEnv(sim_cfg, 5)
        rng = np.random.default_rng(5)
        for s, a, entry, s_next in transitions(
                env, lambda _: rng.uniform(-1, 1, env.action_dim)):
            s_twin, _, entry_twin, _ = twin.step(a)
            assert entry == entry_twin
            assert np.array_equal(s_next, s_twin)

    def test_rollout_is_the_entries_of_the_stream(self, sim_cfg):
        rng = np.random.default_rng(7)
        actions = rng.uniform(-1, 1, (sim_cfg.world.n_slots, action_length(2)))
        env = OffloadEnv(sim_cfg, 7)
        streamed = [e for _, _, e, _ in transitions(env, lambda _: actions[env.slot])]
        env = OffloadEnv(sim_cfg, 7)
        assert rollout(env, lambda _: actions[env.slot]) == streamed

    def test_finished_env_yields_nothing(self, sim_cfg):
        env = OffloadEnv(sim_cfg, 1)
        rollout(env, lambda _: np.zeros(env.action_dim))

        def policy(s):
            raise AssertionError("policy called on a finished episode")

        assert list(transitions(env, policy)) == []


class TestEpisodeReturn:
    def test_examples(self):
        assert episode_return([]) == 0.0
        assert episode_return([1.0, 2.0, 3.0]) == 6.0

    def test_matches_q_minus_f(self, sim_cfg):
        env = OffloadEnv(sim_cfg, 3)
        rng = np.random.default_rng(3)
        entries = rollout(env, lambda _: rng.uniform(-1, 1, env.action_dim))
        assert episode_return(e.reward for e in entries) == pytest.approx(
            sum(e.q for e in entries) - sum(e.penalty for e in entries))


class TestEpisodeSums:
    def test_names_every_ledger_column_but_slot(self):
        # LEDGER_HEADER spells the fields out, so a new field shows up here.
        assert list(episode_sums([])) == LEDGER_HEADER.split(",")[2:]
        assert set(episode_sums([]).values()) == {0.0}

    def test_each_field_is_its_left_to_right_sum(self):
        env = OffloadEnv(_every_penalty_sim(), 0)
        rng = np.random.default_rng(0)
        entries = rollout(env, lambda _: rng.uniform(-1, 1, env.action_dim))
        record = episode_sums(entries)
        want = ledger_sums(entries)
        assert {k: _bits(v) for k, v in record.items()} == {k: _bits(v) for k, v in want.items()}
        assert record["reward"] == episode_return(e.reward for e in entries)
        assert record["f2"] > 0.0


def _every_penalty_sim(penalty=PenaltyConfig()):
    """A world where a rollout of all-ones actions fires every penalty:
    d_min exceeds any UAV spacing (F1), the first slot spends the battery
    (F2), every command is at full speed (F3) and the return term is paid
    on the last slot (F4)."""
    return dataclasses.replace(small_sim(d_min=1000.0, battery_j=1.0), penalty=penalty)


def _bits(x) -> int:
    return int(np.float64(x).view(np.int64))


class TestLedgerCsv:
    def test_schema_and_rows(self, tmp_path, sim_cfg):
        env = OffloadEnv(sim_cfg, 0)
        entries = rollout(env, lambda _: np.zeros(env.action_dim))
        path = tmp_path / "ledger.csv"
        write_ledger_csv(str(path), {0: entries})
        lines = path.read_text().strip().split("\n")
        assert lines[0] == LEDGER_HEADER + uav_columns(sim_cfg.world.n_uav)
        assert len(lines) == 1 + sim_cfg.world.n_slots
        assert all(len(l.split(",")) == len(lines[0].split(",")) for l in lines[1:])

    def test_empty_ledger_writes_the_scalar_header(self, tmp_path):
        path = tmp_path / "ledger.csv"
        for ledger in ({}, {0: []}):
            write_ledger_csv(str(path), ledger)
            assert path.read_text() == LEDGER_HEADER + "\n"

    def test_mixed_uav_counts_raise_before_writing(self, tmp_path):
        # Before, rows of the 3-UAV episode got 4 more cells than the header.
        def episode(n_uav):
            env = OffloadEnv(small_sim(n_uav=n_uav, n_slots=2), 0)
            return rollout(env, lambda _: np.zeros(env.action_dim))

        path = tmp_path / "ledger.csv"
        with pytest.raises(ValueError, match=r"^episode 4 has 3 UAVs, but the header has 2$"):
            write_ledger_csv(str(path), {4: episode(3), 1: episode(2), 7: episode(3)})
        assert not path.exists()

    def test_every_data_field_parses_as_a_number(self, tmp_path, sim_cfg):
        env = OffloadEnv(sim_cfg, 0)
        _, _, entry, _ = env.step(np.zeros(env.action_dim))
        path = tmp_path / "ledger.csv"
        write_ledger_csv(str(path), {0: [entry]})
        header, row = path.read_text().strip().split("\n")
        cells = dict(zip(header.split(","), row.split(",")))
        for name, text in cells.items():
            float(text)                      # raises on "np.float64(...)"
        assert float(cells["q"]) == entry.q
        assert float(cells["reward"]) == entry.reward

    def test_every_field_round_trips_bit_for_bit(self, tmp_path):
        sim = _every_penalty_sim()
        env = OffloadEnv(sim, 0)
        entries = rollout(env, lambda _: np.ones(env.action_dim))
        for name in ("f1", "f2", "f3", "f4"):
            assert any(getattr(e, name) > 0 for e in entries), name
        # Values a shortest-repr writer could get wrong on the way back.
        odd = dataclasses.replace(entries[0], slot=99, q=-0.0, t_local=float("inf"),
                                  u_idle=float("-inf"), e_fly=5e-324)
        by_episode = {0: entries, 3: [odd]}
        path = tmp_path / "ledger.csv"
        write_ledger_csv(str(path), by_episode)
        header, *rows = path.read_text().splitlines()
        names = [f.name for f in dataclasses.fields(LedgerEntry)][:-1]
        assert dataclasses.fields(LedgerEntry)[-1].name == "uav_rows"
        assert header == ",".join(["episode", *names]) + uav_columns(sim.world.n_uav)
        expected = [(ep, e) for ep in (0, 3) for e in by_episode[ep]]
        assert len(rows) == len(expected)
        for (ep, e), row in zip(expected, rows):
            cells = row.split(",")
            assert int(cells[0]) == ep
            assert int(cells[1]) == e.slot
            scalars = [getattr(e, n) for n in names[1:]]
            uav = [v for r in e.uav_rows for v in r]
            assert len(cells) == 2 + len(scalars) + len(uav)
            assert [_bits(float(c)) for c in cells[2:]] == [_bits(v) for v in scalars + uav]

    def test_int_penalties_write_the_float_config_bytes(self, tmp_path):
        def ledger(penalty):
            sim = _every_penalty_sim(penalty)
            env = OffloadEnv(sim, 0)
            path = tmp_path / "ledger.csv"
            entries = rollout(env, lambda _: np.ones(env.action_dim))
            write_ledger_csv(str(path), {0: entries})
            return path.read_bytes()

        written = ledger(PenaltyConfig(f1=50, f2=50, f3=50, f4=20))
        assert written == ledger(PenaltyConfig(f1=50.0, f2=50.0, f3=50.0, f4=20.0))
        assert b",50.0,50.0,50.0," in written
