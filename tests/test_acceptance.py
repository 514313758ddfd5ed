"""End-to-end acceptance checks.

Each test prints a single PASS/FAIL line (visible with ``pytest -rA`` or
``-s``) and asserts the same condition, covering: closed-form oracles,
action-decoding feasibility, the reward identity, a brute-force slot oracle,
gradient correctness, the core TD3 mechanics, learning improvement over
DDPG, scenario-size revenue trends under the RL-free greedy policy,
trajectory sanity of the UAV trajectory that TD3 learns with the rest of
the action held fixed (the learned trajectory, not the trajectory of a
policy trained on the whole action), and byte-identical reproducibility.
"""

import math
from dataclasses import replace

import numpy as np
import scipy.stats

from uavmec.baseline import greedy_episode
from uavmec.config import (ChannelParams, EconParams, ExperimentConfig,
                           PenaltyConfig, SimConfig, Td3Config, WorldConfig,
                           apply_axis, load_experiment)
from uavmec.env import OffloadEnv, action_length, decode, rollout
from uavmec.harness import run
from uavmec.nets import Mlp, soft_update
from uavmec.td3 import Td3Agent, ddpg_train, td3_train, td_target
from uavmec import channel, compute_energy as ce, economics as econ


def _report(label: str, ok: bool, detail: str = "") -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {label}" + (f" ({detail})" if detail else ""))
    assert ok, f"{label}: {detail}"


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-30)


# ---------------------------------------------------------------------------
# 1. Closed-form formula oracles

class TestFormulaOracles:
    def test_formula_oracles(self):
        p = SimConfig()
        ep, cp, tp = p.energy, p.caps, p.task
        worst = 0.0

        # hover propulsion power: parasite and induced terms vanish at v=0
        hover = ce.flight_power(0.0, ep)
        assert abs(hover - 138.10) < 1e-6
        # transcode cycle model at the top ladder rung
        assert _rel(ce.transcode_cycles_per_bit(2.3, ep),
                    1.54 * 2.3 ** 0.08) < 1e-9

        rng = np.random.default_rng(20260826)
        for _ in range(100):
            bits = rng.uniform(1e5, 5e6)
            cyc = rng.uniform(500, 2000)
            e1, e2 = rng.uniform(0.05, 0.45, size=2)
            e3 = 1.0 - e1 - e2
            f_b = rng.uniform(1e8, 2e9)
            f_j = rng.uniform(1e8, 2e9)
            f_k = rng.uniform(1e9, 3e10)
            d = rng.uniform(5.0, 300.0)
            beta0 = rng.uniform(1e-6, 1e-4)
            chi = rng.uniform(2.0, 4.0)
            noise = rng.uniform(1e-14, 1e-12)
            bw = rng.uniform(1e6, 2e7)
            tx = rng.uniform(0.05, 0.5)
            kappa = ep.kappa
            v = rng.uniform(0.0, 25.0)
            b_mbps = rng.uniform(0.3, 2.5)

            checks = []
            # path loss and Shannon rate
            gain = beta0 * d ** (-chi)
            cpar = replace(p.chan_uav, beta0=beta0, chi=chi, noise_power=noise,
                           bandwidth=bw)
            checks.append((channel.los_gain_sq(cpar, d), gain))
            r = bw * math.log2(1.0 + tx * gain / noise)
            checks.append((channel.rate(bw, tx, gain, noise), r))
            # local processing
            checks.append((ce.local_delay(e3, bits, cyc, f_b), e3 * bits * cyc / f_b))
            checks.append((ce.local_energy(e3, bits, cyc, f_b, kappa),
                           kappa * f_b ** 2 * e3 * bits * cyc))
            # uplink to the UAV and D2D link
            t_up = e1 * bits / r
            checks.append((ce.uplink_delay_uav(e1, bits, r), t_up))
            checks.append((ce.uplink_energy(tx, t_up), tx * t_up))
            checks.append((ce.d2d_delay(e2, bits, r), e2 * bits / r))
            # transcoding on the UAV
            ck = ep.m1 * b_mbps ** ep.m2
            checks.append((ce.transcode_cycles_per_bit(b_mbps, ep), ck))
            t_tr = ck * e1 * bits / f_k
            checks.append((ce.transcode_time(ck * e1 * bits, f_k), t_tr))
            checks.append((ce.transcode_energy(f_k, t_tr, ep),
                           ep.s1 * f_k ** ep.y1 * t_tr))
            d_prime = e1 * bits * b_mbps / tp.original_bitrate_mbps
            checks.append((ce.transcoded_bits(e1, bits, b_mbps, tp.original_bitrate_mbps),
                           d_prime))
            checks.append((ce.uav_compute_delay(d_prime, cyc, f_k),
                           d_prime * cyc / f_k))
            checks.append((ce.uav_compute_energy(f_k, d_prime, cyc, kappa),
                           kappa * f_k ** 2 * d_prime * cyc))
            checks.append((ce.idle_compute_delay(e2, bits, cyc, f_j), e2 * bits * cyc / f_j))
            checks.append((ce.idle_compute_energy(e2, bits, cyc, f_j, kappa),
                           kappa * f_j ** 2 * e2 * bits * cyc))
            # propulsion power at speed v (printed induced-term form)
            par = 0.5 * ep.d_c * ep.rho * ep.rotor_solidity * ep.rotor_area * v ** 3
            bla = ep.p_blade * (1 + 3 * v ** 2 / ep.utip ** 2)
            ind = ep.p_induced * math.sqrt(
                math.sqrt(1 + v ** 4 / (4 * ep.v_f ** 2)) - v ** 2 / (2 * ep.v_f ** 2))
            checks.append((ce.flight_power(v, ep), par + bla + ind))
            # utilities and revenue
            e_a, e_b, e_c = rng.uniform(0.0, 100.0, size=3)
            price = rng.uniform(0.1, 2.0)
            beta_k = 1.0 / (1.0 - min(e1, p.econ.eps1_cap))
            checks.append((econ.uav_inconvenience(e1, p.econ), beta_k))
            checks.append((econ.uav_utility(f_k, price, e_a, e_b, e_c, beta_k, p.econ),
                           f_k / 1e9 * price
                           - beta_k * p.econ.energy_price * (e_a + e_b + e_c)))
            checks.append((econ.idle_utility(f_j, price, e_a, p.econ),
                           f_j / 1e9 * price - p.econ.energy_price * e_a))
            checks.append((econ.busy_own_utility(f_b, e_a, e_b, e_c, 0.5, p.econ),
                           0.5 * f_b / 1e9
                           - p.econ.energy_price * (e_a - e_b - e_c)))
            checks.append((econ.busy_purchase_utility(f_k, price, 20.0),
                           (20.0 - price) * f_k / 1e9))
            w1, w2 = rng.uniform(0.1, 0.4, size=2)
            w3 = 1.0 - w1 - w2
            checks.append((econ.system_revenue(e_a, e_b, e_c, w1, w2, w3),
                           w1 * e_a + w2 * e_b + w3 * e_c))

            worst = max(worst, max(_rel(got, want) for got, want in checks))

        _report("formula oracles match independent re-implementations",
                worst < 1e-9, f"max rel err {worst:.2e}")


# ---------------------------------------------------------------------------
# 2. Decoded actions always satisfy the feasible set

class TestDecodingFeasibility:
    def test_random_actions_decode_feasibly(self):
        cfg = SimConfig(world=WorldConfig(n_busy=4, n_idle=2, n_uav=2,
                                          n_slots=10))
        rng = np.random.default_rng(7)
        n = 100_000
        raws = rng.uniform(-1.0, 1.0, size=(n, action_length(2)))
        max_simplex = 0.0
        violations = 0
        for raw in raws:
            a = decode(raw, cfg)
            max_simplex = max(
                max_simplex,
                abs(a.eps1 + a.eps2 + a.eps3 - 1.0),
                abs(a.w1 + a.w2 + a.w3 - 1.0))
            ok = (0 <= a.eps1 <= 1 and 0 <= a.eps2 <= 1 and 0 <= a.eps3 <= 1
                  and 0 <= a.w1 <= 1 and 0 <= a.w2 <= 1 and 0 <= a.w3 <= 1
                  and 0 <= a.f_busy <= cfg.caps.f_busy_max
                  and 0 <= a.f_idle <= cfg.caps.f_idle_max
                  and 0 <= a.f_uav <= cfg.caps.f_uav_max
                  and cfg.econ.p_uav_min <= a.p_uav <= cfg.econ.p_uav_max
                  and cfg.econ.p_idle_min <= a.p_idle <= cfg.econ.p_idle_max
                  and all(np.linalg.norm(v) <= cfg.world.v_max * (1 + 1e-12)
                          for v in a.velocities)
                  and a.bitrate_mbps in cfg.task.bitrate_ladder)
            violations += not ok
        _report("decoded actions satisfy simplex and box constraints",
                max_simplex < 1e-9 and violations == 0,
                f"simplex err {max_simplex:.2e}, violations {violations}")


# ---------------------------------------------------------------------------
# 3. Per-slot reward identity

class TestRewardIdentity:
    def test_reward_equals_revenue_minus_penalty(self):
        cfg = SimConfig(world=WorldConfig(n_busy=4, n_idle=2, n_uav=2,
                                          n_slots=10))
        rng = np.random.default_rng(3)
        bad = 0
        for ep in range(100):
            env = OffloadEnv(cfg, ep)
            for e in rollout(env, lambda _: rng.uniform(-1.0, 1.0, size=env.action_dim)):
                if (e.reward != e.q - e.penalty
                        or e.penalty != e.f1 + e.f2 + e.f3 + e.f4):
                    bad += 1
        _report("reward == revenue - penalties, bitwise, over 100 episodes",
                bad == 0, f"{bad} mismatching slots")


# ---------------------------------------------------------------------------
# 4. Brute-force single-slot oracle on a minimal instance

def _monolithic_reward(sim: SimConfig, env: OffloadEnv, raw: np.ndarray) -> float:
    """Straight-line evaluation of one slot on an I=J=K=1 world with
    deterministic fading, written independently of env.step."""
    w, cp, ep, ec, tp = sim.world, sim.caps, sim.energy, sim.econ, sim.task
    busy = env.world.busy_pos[0]
    idle = env.world.idle_pos[0]
    uav = env.world.uav_pos[0].copy()
    bits = float(env._bits[0])
    cyc = float(env._cycles)

    def softmax3(x):
        z = np.exp(x - np.max(x))
        return z / z.sum()

    def aff(r, lo, hi):
        return lo + (r + 1.0) * 0.5 * (hi - lo)

    s = softmax3(raw[0:3])
    e1, e2, e3 = float(s[0]), float(s[1]), float(s[2])
    f_b = aff(raw[3], 0.0, cp.f_busy_max)
    f_j = aff(raw[4], 0.0, cp.f_idle_max)
    f_k = aff(raw[5], 0.0, cp.f_uav_max)
    p_k = aff(raw[6], ec.p_uav_min, ec.p_uav_max)
    p_j = aff(raw[7], ec.p_idle_min, ec.p_idle_max)
    wgt = softmax3(raw[8:11])
    vel_raw = raw[11:14] * w.v_max
    speed_cmd = float(np.linalg.norm(vel_raw))
    vel = vel_raw * (w.v_max / speed_cmd) if speed_cmd > w.v_max else vel_raw
    idx = min(int((raw[14] + 1.0) * 0.5 * len(tp.bitrate_ladder)),
              len(tp.bitrate_ladder) - 1)
    b_mbps = tp.bitrate_ladder[idx]

    d_uav = float(np.linalg.norm(busy - uav))
    d_d2d = max(float(np.linalg.norm(busy - idle)), 1.0)
    r_uav = sim.chan_uav.bandwidth * math.log2(
        1.0 + cp.tx_power * sim.chan_uav.beta0 * d_uav ** (-sim.chan_uav.chi)
        / sim.chan_uav.noise_power)
    r_d2d = sim.chan_d2d.bandwidth * math.log2(
        1.0 + cp.tx_power * sim.chan_d2d.beta0 * d_d2d ** (-sim.chan_d2d.chi)
        / sim.chan_d2d.noise_power)

    e_loc = ep.kappa * f_b ** 2 * e3 * bits * cyc
    t_up = e1 * bits / r_uav
    e_up = cp.tx_power * t_up
    ck = ep.m1 * b_mbps ** ep.m2
    t_tr = ck * e1 * bits / f_k if f_k > 0 else math.inf
    e_tr = ep.s1 * f_k ** ep.y1 * t_tr if f_k > 0 else 0.0
    d_prime = e1 * bits * b_mbps / tp.original_bitrate_mbps
    # the UAV processes the transcoded bits at the transcode cycle density
    e_uc = ep.kappa * f_k ** 2 * d_prime * ck
    t_d2d = e2 * bits / r_d2d
    e_d2d = cp.tx_power * t_d2d
    e_idle = ep.kappa * f_j ** 2 * e2 * bits * cyc
    e_fly = ce.flight_power(float(np.linalg.norm(vel)), ep) * w.slot_seconds

    beta_k = 1.0 / (1.0 - min(e1, ec.eps1_cap))
    u_uav = f_k / 1e9 * p_k - beta_k * ec.energy_price * (e_tr + e_fly + e_uc)
    u_idle = f_j / 1e9 * p_j - ec.beta_idle * ec.energy_price * e_idle
    mean_cap = (cp.f_busy_max + cp.f_uav_max + cp.f_idle_max) / 3.0
    inc_busy = cp.f_busy_max / mean_cap
    inc_uav = cp.f_uav_max / cp.f_busy_max
    inc_idle = cp.f_idle_max / cp.f_busy_max
    bracket = (e_loc - e_up - e_d2d if ec.paper_sign_convention
               else e_loc + e_up + e_d2d)
    u_busy = (inc_busy * f_b / 1e9 - ec.beta_busy * ec.energy_price * bracket
              + (inc_idle - p_j) * f_j / 1e9
              + (inc_uav - p_k) * f_k / 1e9)
    q = wgt[0] * u_uav + wgt[1] * u_idle + wgt[2] * u_busy

    f3 = sim.penalty.f3 if speed_cmd > w.v_max * (1 + 1e-12) else 0.0
    f2 = sim.penalty.f2 if e_fly + e_tr + e_uc > w.battery_j else 0.0
    # midpoint-rule advance from rest, then box clamp, then terminal
    # displacement penalty (single-slot episode)
    pos = uav + 0.5 * vel * w.slot_seconds
    pos[0] = min(max(pos[0], 0.0), w.area_side)
    pos[1] = min(max(pos[1], 0.0), w.area_side)
    pos[2] = min(max(pos[2], w.h_min), w.h_max)
    f4 = sim.penalty.f4 * float(np.linalg.norm(pos - uav)) / w.area_side
    return q - (f2 + f3 + f4)


class TestBruteForceOracle:
    def test_single_slot_reward_grid(self):
        sim = SimConfig(world=WorldConfig(n_busy=1, n_idle=1, n_uav=1,
                                          n_slots=1),
                        deterministic_fading=True)
        rng = np.random.default_rng(11)
        base = rng.uniform(-0.9, 0.9, size=action_length(1))
        grid = np.linspace(-1.0, 1.0, 10)
        worst = 0.0
        for dim in range(action_length(1)):
            for val in grid:
                raw = base.copy()
                raw[dim] = val
                env = OffloadEnv(sim, 42)
                _, r_env, _, _ = env.step(raw)
                env2 = OffloadEnv(sim, 42)
                r_ref = _monolithic_reward(sim, env2, raw)
                worst = max(worst, _rel(r_env, r_ref))
        _report("single-slot rewards match the monolithic oracle on a "
                "10-point grid per action dimension", worst < 1e-9,
                f"max rel err {worst:.2e}")


# ---------------------------------------------------------------------------
# 5. Analytic gradients vs central finite differences

class TestGradientCheck:
    def test_backprop_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        h = 1e-5
        worst = 0.0
        for trial in range(20):
            sizes = [int(rng.integers(2, 5)) for _ in range(3)]
            act = "tanh" if trial % 2 else "identity"
            net = Mlp(sizes, act, rng)
            batch = int(rng.integers(1, 4))
            x = rng.standard_normal((batch, sizes[0]))
            coef = rng.standard_normal((batch, sizes[-1]))

            y, cache = net.forward_cache(x)
            net.backward(cache, coef)
            analytic = net.grad

            flat = net.flat.copy()
            fd = np.empty_like(flat)
            for i in range(flat.size):
                bumped = flat.copy()
                bumped[i] += h
                net.flat[...] = bumped
                up = float(np.sum(net.forward(x) * coef))
                bumped[i] -= 2 * h
                net.flat[...] = bumped
                dn = float(np.sum(net.forward(x) * coef))
                fd[i] = (up - dn) / (2 * h)
            net.flat[...] = flat
            err = np.abs(analytic - fd) / np.maximum(
                np.abs(analytic) + np.abs(fd), 1e-6)
            worst = max(worst, float(err.max()))
        _report("analytic gradients match central finite differences",
                worst < 1e-4, f"max rel err {worst:.2e}")


# ---------------------------------------------------------------------------
# 6. Core TD3 mechanics

class TestTd3Mechanics:
    def test_mechanics(self):
        ok = True
        detail = []

        # pairwise min in the TD target, strict on unequal critic values
        r = np.array([1.0]); d = np.array([0.0])
        lo = td_target(r, np.array([2.0]), np.array([5.0]), d, 0.5)
        hi = td_target(r, np.array([5.0]), np.array([2.0]), d, 0.5)
        if not (lo[0] == hi[0] == 1.0 + 0.5 * 2.0):
            ok = False; detail.append("td_target min")

        # smoothing noise bounded by the clip radius: the smoothed action
        # must lie in [clip(a-c), clip(a+c)] around the target action, even
        # with a noise sigma far above the clip
        cfg = Td3Config(target_noise_sigma=5.0, target_noise_clip=0.3,
                        hidden=(8,), episodes=1)
        agent = Td3Agent(4, 3, cfg, np.random.default_rng(0))
        s = np.random.default_rng(1).standard_normal((256, 4))
        raw_target = agent.actor_target.forward(s)
        smoothed = agent.smoothed_target_action(s)
        lo_b = np.clip(raw_target - 0.3, -1.0, 1.0)
        hi_b = np.clip(raw_target + 0.3, -1.0, 1.0)
        if not np.all((smoothed >= lo_b - 1e-12) & (smoothed <= hi_b + 1e-12)):
            ok = False; detail.append("smoothing noise exceeds clip")

        # exact soft-update contraction at tau = 0.05
        rng = np.random.default_rng(2)
        src = Mlp([3, 4, 2], "identity", rng)
        tgt = Mlp([3, 4, 2], "identity", rng)
        for w in src.weights + src.biases:
            w[...] = 0.0
        before = tgt.flat.copy()
        soft_update(tgt, src, 0.05)
        if not np.array_equal(tgt.flat, 0.95 * before):
            ok = False; detail.append("soft-update factor != 0.95")

        # delayed actor updates: one actor step per policy_delay critic steps
        from conftest import BanditEnv
        tcfg = Td3Config(episodes=20, warmup_steps=4, batch_size=4,
                         buffer_capacity=100, hidden=(8,), policy_delay=2)
        from uavmec.td3 import td3_train as _t
        _, trained = _t(lambda s: BanditEnv(s), tcfg, 0)
        if trained.actor_update_count != trained.critic_update_count // 2:
            ok = False; detail.append("policy-delay cadence")

        _report("TD3 mechanics: min target, bounded smoothing, exact soft "
                "update, delayed actor", ok, "; ".join(detail))


# ---------------------------------------------------------------------------
# 7. Learning improves returns and TD3 matches or beats DDPG

LEARNING_SIM = SimConfig(world=WorldConfig(n_busy=6, n_idle=3, n_uav=2,
                                           n_slots=20))
LEARNING_TD3 = Td3Config(episodes=100, warmup_steps=300, batch_size=64,
                         hidden=(64, 64), actor_lr=5e-4, critic_lr=1e-3,
                         exploration_noise_sigma=0.2, buffer_capacity=20_000,
                         reward_scale=1e-3)


class TestLearningSanity:
    def test_td3_improves_and_matches_or_beats_ddpg(self):
        seeds = range(5)
        first, final, ddpg_final = [], [], []
        for seed in seeds:
            log_t, _ = td3_train(lambda s: OffloadEnv(LEARNING_SIM, s),
                                 LEARNING_TD3, seed)
            log_d, _ = ddpg_train(lambda s: OffloadEnv(LEARNING_SIM, s),
                                  LEARNING_TD3, seed)
            first.append(np.mean(log_t.episode_returns[:10]))
            final.append(np.mean(log_t.episode_returns[-10:]))
            ddpg_final.append(np.mean(log_d.episode_returns[-10:]))
        _, p = scipy.stats.ttest_rel(final, first, alternative="greater")
        wins = sum(f >= d for f, d in zip(final, ddpg_final))
        ok = p < 0.05 and wins >= 4
        _report("TD3 improves significantly and matches/beats DDPG per seed",
                ok, f"paired p={p:.4f}, td3>=ddpg in {wins}/5 seeds")


# ---------------------------------------------------------------------------
# 8. Revenue trends under the RL-free greedy policy

TREND_BASE = SimConfig(world=WorldConfig(n_busy=4, n_idle=2, n_uav=2,
                                         n_slots=10))
TREND_AXES = {"n_uav": [1, 2, 3], "n_idle": [1, 2, 4], "n_busy": [4, 8, 12],
              "f_k_max": [10e9, 20e9, 30e9]}


class TestRevenueTrends:
    def test_greedy_returns_grow_with_scenario_size(self):
        failures = []
        detail = []
        for axis, values in TREND_AXES.items():
            means, stds = [], []
            for v in values:
                sim = apply_axis(TREND_BASE, axis, v)
                rets = [greedy_episode(sim, s)[0] for s in range(10)]
                means.append(float(np.mean(rets)))
                stds.append(float(np.std(rets)))
            viol = [(i, means[i] - means[i + 1])
                    for i in range(len(means) - 1) if means[i + 1] < means[i]]
            tolerable = (len(viol) == 0
                         or (len(viol) == 1
                             and viol[0][1] <= max(stds[viol[0][0]],
                                                   stds[viol[0][0] + 1])))
            if not tolerable:
                failures.append(axis)
            detail.append(f"{axis}: " + " -> ".join(f"{m:.0f}" for m in means))
        _report("greedy revenue is non-decreasing along every scenario axis",
                not failures, "; ".join(detail))


# ---------------------------------------------------------------------------
# 9. Trajectory sanity of a learned UAV trajectory
#
# TD3 learns only the UAV velocities; the rest of the action is held at raw
# 0.0, so a third of each task rides the UAV link in every slot. The check is
# whether TD3 learns a trajectory from the position reward, which reaches
# the policy one slot late, through the bootstrapped critic. A policy
# trained on the whole action is not a fair subject: it drives the split to
# the decoder floor (eps1 = softmax(-1, 1, 1)[0] = 0.063) and f_busy to 0.
# There, a full-speed slot toward the users raises the next slot's scaled
# reward by a median of 0.005, while exploration noise on the whole action
# spreads it with a std of about 0.7. At the held midpoint the gain is 0.025
# and noise on the velocities alone spreads the reward by about 0.08.

def _approach_scenario() -> SimConfig:
    # Physical sign convention (offload energy is a cost) with a low-SNR
    # UAV channel and an inflated busy-side energy weight, so the reward
    # favors short UD-to-UAV links, but only while the UAV link carries
    # traffic: offloading only adds cost here, and local processing at
    # f_busy -> 0 costs nothing.
    chan = ChannelParams(noise_power=1e-10, bandwidth=1e6)
    return SimConfig(
        world=WorldConfig(n_busy=4, n_idle=2, n_uav=2, n_slots=20),
        chan_uav=chan,
        econ=EconParams(beta_busy=1e4, paper_sign_convention=False),
        penalty=PenaltyConfig(f4=0.0),
        deterministic_fading=True,
    )


APPROACH_TD3 = Td3Config(episodes=150, warmup_steps=300, batch_size=64,
                         hidden=(64, 64), actor_lr=1e-3, critic_lr=1e-3,
                         exploration_noise_sigma=0.3, gamma=0.9,
                         buffer_capacity=20_000, reward_scale=1e-2)


class _VelocityOnlyEnv:
    """OffloadEnv whose agent sets only the UAV velocity block
    ``[11:11+3K]``; every other raw entry is held at 0.0, the decoder
    midpoint, so a third of each task goes to each route."""

    def __init__(self, sim: SimConfig, seed: int = 0):
        self.env = OffloadEnv(sim, seed)
        self.state_dim = self.env.state_dim
        self.action_dim = 3 * sim.world.n_uav

    def reset(self, seed=None):
        return self.env.reset(seed)

    def state(self):
        return self.env.state()

    @property
    def done(self):
        return self.env.done

    def step(self, a):
        raw = np.zeros(self.env.action_dim)
        raw[11:11 + self.action_dim] = a
        return self.env.step(raw)


def _nearest_busy_mean(env: OffloadEnv) -> float:
    up = env.world.uav_positions()
    d = np.linalg.norm(up[:, None, :] - env.world.busy_pos[None, :, :], axis=2)
    return float(np.mean(d.min(axis=1)))


class TestTrajectorySanity:
    def test_trained_policy_stays_in_bounds_and_approaches_users(self):
        sim = _approach_scenario()
        w = sim.world
        missed = {"in-bounds": [], "zero-F1": [], "approach": []}
        n_seeds = 10
        for seed in range(n_seeds):
            _, agent = td3_train(lambda s: _VelocityOnlyEnv(sim, s),
                                 APPROACH_TD3, seed)
            env = _VelocityOnlyEnv(sim, seed + 100)
            s = env.env.state()
            done = False
            dists, f1s, bounds_ok = [], [], True
            while not done:
                dists.append(_nearest_busy_mean(env.env))
                s, _, entry, done = env.step(agent.act(s))
                f1s.append(entry.f1)
                for x, y, z, _e in entry.uav_rows:
                    if not (0 <= x <= w.area_side and 0 <= y <= w.area_side
                            and w.h_min <= z <= w.h_max):
                        bounds_ok = False
            q = w.n_slots // 4
            for name, hit in (("in-bounds", bounds_ok),
                              ("zero-F1", sum(f1s) == 0),
                              ("approach", float(np.mean(dists[-q:]))
                               < float(np.mean(dists[:q])))):
                if not hit:
                    missed[name].append(seed)
        in_bounds, zero_f1, approach = (n_seeds - len(m)
                                        for m in missed.values())
        ok = in_bounds == n_seeds and zero_f1 >= 8 and approach >= 7
        _report("trained policy keeps UAVs in bounds, avoids proximity "
                "penalties, and approaches users",
                ok, ", ".join(f"{name} {n_seeds - len(m)}/10"
                              + (f" (missed by seeds {m})" if m else "")
                              for name, m in missed.items()))


# ---------------------------------------------------------------------------
# 10. Byte-identical reproducibility from the resolved config snapshot

class TestReproducibility:
    def test_rerun_from_snapshot_is_byte_identical(self, tmp_path, monkeypatch):
        monkeypatch.setenv("UAVMEC_OUTPUT_ROOT", str(tmp_path))
        cfg = ExperimentConfig(
            sim=SimConfig(world=WorldConfig(n_busy=3, n_idle=2, n_uav=2,
                                            n_slots=5)),
            td3=Td3Config(episodes=3, warmup_steps=5, batch_size=8,
                          buffer_capacity=500, hidden=(16, 16)),
            algorithms=("td3", "greedy"),
            seeds=(0, 1),
        )
        art1 = run(cfg, name="first")
        art2 = run(load_experiment(art1.config_snapshot), name="second")
        same = True
        for name in ("convergence_csv", "episodes_csv"):
            with open(getattr(art1, name), "rb") as f1, \
                    open(getattr(art2, name), "rb") as f2:
                same = same and f1.read() == f2.read()
        _report("re-run from the resolved config snapshot is byte-identical",
                same)
