import copy
import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import numeric_leaves, small_sim
from uavmec.baseline import greedy_action
from uavmec.config import ConfigError, SimConfig
from uavmec.env import (DecodedAction, OffloadEnv, action_length, decode,
                        episode_return, rollout, state_length, transitions)
from uavmec.harness import write_ledger_csv


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

    def test_fixed_cycle_density_is_finite(self):
        cfg = small_sim()
        cfg.task.cycles_per_bit_min = 1100.0
        cfg.task.cycles_per_bit_max = 1100.0
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
        env = OffloadEnv(sim_cfg, 1)
        env.world.uav_pos[1] = env.world.uav_pos[0] + np.array([0.0, 0.0, 1.0])
        _, _, e, _ = env.step(np.zeros(env.action_dim))
        assert e.f1 == sim_cfg.penalty.f1

    def test_battery_penalty_fires_and_sticks(self):
        cfg = small_sim(n_slots=6)
        cfg.world.battery_j = 200.0  # hover alone drains this within two slots
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
        cfg = small_sim()
        cfg.caps.tx_power = 0.0
        with pytest.raises(ConfigError, match=r"caps\.tx_power"):
            OffloadEnv(cfg, 0)


def _float_bits(x) -> bytes:
    return np.float64(x).tobytes()


class TestPeekReward:
    def test_equals_cloned_step_on_every_slot(self):
        cfg = SimConfig()                # 20/10/5, 50 slots, stochastic fading
        cfg.world.battery_j = 5_000.0    # drained within the episode: F2 fires
        env = OffloadEnv(cfg, 8)
        rng = np.random.default_rng(8)
        flags = set()
        done = False
        while not done:
            a = rng.uniform(-1, 1, env.action_dim)
            peeked = env.peek_reward(a)
            _, cloned, _, _ = env.clone().step(a)
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


def _peek_case(name):
    if name == "20-10-5":
        cfg = SimConfig()                # 50 slots, stochastic fading
        cfg.world.battery_j = 5_000.0    # drained within the episode: F2 fires
        return cfg, 8
    cfg = small_sim(n_busy=6, n_idle=3, n_uav=2, n_slots=15)
    cfg.deterministic_fading = True
    return cfg, 3


def _row_entry(out, b: int, cfg) -> dict:
    """Row b of a batch outcome as the ledger fields a step would write."""
    n = len(out.pos)
    fields = {name: np.broadcast_to(v, (n,))[b] for name, v in out.rows.items()}
    fields.update({name: v[b].sum() for name, v in out.totals.items()})
    remaining = np.maximum(cfg.world.battery_j - out.energy_used[b], 0.0)
    fields["uav_rows"] = np.column_stack([out.pos[b], remaining])
    return fields


class TestPeekRewards:
    @pytest.mark.parametrize("name", ["20-10-5", "6-3-2-deterministic"])
    def test_rows_equal_single_peeks_and_cloned_steps(self, name):
        cfg, seed = _peek_case(name)
        env = OffloadEnv(cfg, seed)
        rng = np.random.default_rng(seed)
        flags = set()
        done = False
        while not done:
            batch = _mixed_batch(rng, 3, env.action_dim)
            rewards = env.peek_rewards(batch)
            assert rewards.shape == (len(batch),)
            out = env._evaluate(decode(batch, cfg))
            for b, (row, r) in enumerate(zip(batch, rewards)):
                _, stepped, entry, _ = env.clone().step(row)
                assert (_float_bits(r) == _float_bits(env.peek_reward(row))
                        == _float_bits(stepped))
                # Every ledger field, not only the reward, which can round
                # a last-bit difference in a small term away.
                for field_name, value in _row_entry(out, b, cfg).items():
                    assert (np.asarray(value, dtype=float).tobytes()
                            == np.asarray(getattr(entry, field_name), dtype=float).tobytes()
                            ), field_name
            _, _, e, done = env.step(batch[0])
            flags |= {f for f in ("f2", "f4") if getattr(e, f) > 0}
        if name == "20-10-5":
            assert flags == {"f2", "f4"}

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


class TestEpisodeCaches:
    """reset fixes the D2D partners, their path loss and the idle compute
    loads: nothing of the last episode may leak into the next."""

    @pytest.mark.parametrize("deterministic", [False, True])
    def test_reset_equals_a_fresh_env(self, deterministic):
        cfg = small_sim(n_busy=9, n_idle=4, n_uav=3, n_slots=6)
        cfg.deterministic_fading = deterministic
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
    def _env(self, **leaves):
        cfg = small_sim(n_slots=3)
        for path, value in leaves.items():
            section, leaf = path.split("__")
            setattr(getattr(cfg, section), leaf, value)
        return OffloadEnv(cfg, 0)

    def test_step_names_slot_and_terms_and_commits_nothing(self):
        env = self._env(energy__kappa=1e300)
        a = np.ones(env.action_dim)
        state = env.state()
        with pytest.warns(RuntimeWarning, match="overflow"):
            with pytest.raises(ValueError,
                               match=r"^slot 0: the reward is not finite: q = -inf, "):
                env.step(a)
        assert env.slot == 0
        assert env.state().tobytes() == state.tobytes()

    def test_peek_rewards_names_the_row(self):
        env = self._env(energy__kappa=1e300)
        batch = -np.ones((4, env.action_dim))   # every compute level at 0
        assert np.isfinite(env.peek_rewards(batch)).all()
        batch[2, 3] = 1.0                        # row 2 runs f_busy at its cap
        with pytest.warns(RuntimeWarning, match="overflow"):
            with pytest.raises(ValueError, match=r"^slot 0, row 2: the reward is not "
                                                 r"finite: q = -?inf"):
                env.peek_rewards(batch)

    def test_overflow_names_the_slot(self):
        env = self._env(caps__f_uav_max=1e300)
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
    *parents, name = path.removeprefix("sim.").removesuffix("[0]").split(".")
    section = cfg
    for key in parents:
        section = getattr(section, key)
    old = getattr(section, name)
    setattr(section, name, (value, *old[1:]) if path.endswith("[0]") else value)
    try:
        cfg.validate()
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


class TestLedgerCsv:
    def test_schema_and_rows(self, tmp_path, sim_cfg):
        env = OffloadEnv(sim_cfg, 0)
        entries = rollout(env, lambda _: np.zeros(env.action_dim))
        path = tmp_path / "ledger.csv"
        write_ledger_csv(str(path), {0: entries}, sim_cfg.world.n_uav)
        lines = path.read_text().strip().split("\n")
        header = lines[0].split(",")
        assert header[:6] == ["episode", "slot", "Q", "U_K", "U_J", "U_I"]
        assert "uav1_energy" in header
        assert len(lines) == 1 + sim_cfg.world.n_slots
        assert all(len(l.split(",")) == len(header) for l in lines[1:])

    def test_every_data_field_parses_as_a_number(self, tmp_path, sim_cfg):
        env = OffloadEnv(sim_cfg, 0)
        _, _, entry, _ = env.step(np.zeros(env.action_dim))
        path = tmp_path / "ledger.csv"
        write_ledger_csv(str(path), {0: [entry]}, sim_cfg.world.n_uav)
        header, row = path.read_text().strip().split("\n")
        cells = dict(zip(header.split(","), row.split(",")))
        for name, text in cells.items():
            float(text)                      # raises on "np.float64(...)"
        assert float(cells["Q"]) == entry.q
        assert float(cells["reward"]) == entry.reward
