import math

import numpy as np
import pytest

from uavmec.config import SimConfig, WorldConfig
from uavmec.env import OffloadEnv
from uavmec.world import (NO_PAIR_DISTANCE, advance_uav, associate,
                          pairwise_min_distance, spawn_world)


def cfg(**kw) -> WorldConfig:
    return WorldConfig(**kw)


class TestSpawn:
    def test_deterministic_under_seed(self):
        a = spawn_world(cfg(), 7)
        b = spawn_world(cfg(), 7)
        assert np.array_equal(a.busy_pos, b.busy_pos)
        assert np.array_equal(a.idle_pos, b.idle_pos)
        for pa, pb in zip(a.uav_pos, b.uav_pos):
            assert np.array_equal(pa, pb)

    def test_positions_within_area(self):
        w = spawn_world(cfg(area_side=200.0), 3)
        assert np.all(w.busy_pos[:, :2] >= 0) and np.all(w.busy_pos[:, :2] <= 200)
        assert np.all(w.busy_pos[:, 2] == 0)
        for pos in w.uav_pos:
            assert 0 <= pos[0] <= 200 and 0 <= pos[1] <= 200
            assert 100 <= pos[2] <= 200

    def test_battery_initialized(self):
        # The battery is the env's ledger; the state reads it as energy/battery.
        env = OffloadEnv(SimConfig(world=cfg(n_uav=5, battery_j=20_000.0)), 0)
        energy = env.state()[-4 * 5:].reshape(5, 4)[:, 3] * 20_000.0
        assert all(e == 20_000.0 for e in energy)

    def test_velocities_start_zero(self):
        w = spawn_world(cfg(), 0)
        assert all(np.all(vel == 0) for vel in w.uav_vel)


class TestAdvance:
    def test_hover_is_idempotent(self):
        c = cfg()
        pos = np.array([50.0, 50.0, 150.0])
        pos2, _ = advance_uav(pos, np.zeros(3), np.zeros(3), 1.0, c)
        assert np.array_equal(pos2, pos)

    def test_speed_clamped_to_vmax(self):
        c = cfg(v_max=25.0)
        pos = np.array([50.0, 50.0, 150.0])
        _, vel2 = advance_uav(pos, np.zeros(3), np.array([40.0, 0.0, 0.0]), 1.0, c)
        assert np.linalg.norm(vel2) == pytest.approx(25.0)

    def test_midpoint_displacement(self):
        # from rest, commanded (2,0,0) over dt=1: a = 2, displacement = 0.5*a = 1
        c = cfg()
        pos = np.array([50.0, 50.0, 150.0])
        pos2, _ = advance_uav(pos, np.zeros(3), np.array([2.0, 0.0, 0.0]), 1.0, c)
        assert pos2[0] == pytest.approx(51.0)

    def test_altitude_and_box_clamped(self):
        c = cfg(area_side=200.0, h_min=100.0, h_max=200.0, v_max=25.0)
        pos, vel = np.array([1.0, 1.0, 101.0]), np.zeros(3)
        for _ in range(30):
            pos, vel = advance_uav(pos, vel, np.array([-20.0, -20.0, -20.0]), 1.0, c)
            assert 0 <= pos[0] <= 200 and 0 <= pos[1] <= 200
            assert 100 <= pos[2] <= 200
            assert np.linalg.norm(vel) <= 25.0 + 1e-12


def _uavs(*rows) -> np.ndarray:
    """(K, 3) UAV positions."""
    return np.array(rows, dtype=float).reshape(-1, 3)


class TestPairwiseDistance:
    def test_axis_aligned(self):
        d = pairwise_min_distance(_uavs((0, 0, 100), (0, 0, 103)))
        assert d == pytest.approx(3.0)

    def test_single_uav_sentinel(self):
        assert pairwise_min_distance(_uavs((0, 0, 100))) == NO_PAIR_DISTANCE
        assert math.isinf(NO_PAIR_DISTANCE)

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            pairwise_min_distance(_uavs())

    def test_matches_brute_force(self):
        rng = np.random.default_rng(11)
        uavs = _uavs(*(rng.uniform(0, 200, 3) for _ in range(6)))
        expected = min(
            np.linalg.norm(uavs[a] - uavs[b])
            for a in range(6) for b in range(a + 1, 6)
        )
        assert pairwise_min_distance(uavs) == pytest.approx(expected)


class TestAssociate:
    def test_single_uav_takes_all(self):
        busy = np.array([[0.0, 0.0, 0.0], [100.0, 100.0, 0.0]])
        assert associate(busy, _uavs((50, 50, 150))).tolist() == [0, 0]

    def test_nearest_wins(self):
        busy = np.array([[0.0, 0.0, 0.0]])
        uavs = _uavs((10, 0, 100), (150, 150, 100))
        assert associate(busy, uavs).tolist() == [0]

    def test_tie_breaks_to_lower_index(self):
        busy = np.array([[50.0, 50.0, 0.0]])
        uavs = _uavs((0, 50, 100), (100, 50, 100))
        assert associate(busy, uavs).tolist() == [0]

    def test_at_most_one_uav_per_busy(self):
        w = spawn_world(cfg(), 5)
        # one association index per busy UD by construction
        assert len(w.assoc) == len(w.busy_pos)
        assert all(0 <= k < len(w.uav_pos) for k in w.assoc)


def _associate_by_norm(busy_pos, uav_pos):
    """The association as a norm over the (I, K, 3) differences."""
    diff = uav_pos - busy_pos[:, None, :]
    return np.argmin(np.sqrt(np.add.reduce(diff ** 2, axis=2)), axis=1)


class TestAssociateEqualsNorm:
    @pytest.mark.parametrize("seed", range(6))
    def test_seeded_worlds(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(20):
            n_busy, n_uav = rng.integers(1, 301), rng.integers(1, 41)
            busy = np.zeros((n_busy, 3))
            busy[:, :2] = rng.uniform(0.0, 1000.0, (n_busy, 2))
            uavs = rng.uniform((0.0, 0.0, 100.0), (1000.0, 1000.0, 200.0), (n_uav, 3))
            assert associate(busy, uavs).tolist() == _associate_by_norm(busy, uavs).tolist()

    def test_exact_ties_go_to_the_lowest_index(self):
        # Mirror images through each busy UD: the UAV at k and at its image
        # are equally far, bit for bit, so each UD has a tie to break.
        rng = np.random.default_rng(7)
        busy = np.zeros((50, 3))
        busy[:, :2] = rng.integers(100, 900, (50, 2))
        for i, b in enumerate(busy):
            near = rng.integers(-40, 41, 3).astype(float)
            near[2] = 150.0
            far = np.array([400.0, -400.0, 180.0])
            uavs = np.array([b + far, b + near, b + near * (-1.0, 1.0, 1.0),
                             b + near * (1.0, -1.0, 1.0), b + near])
            want = _associate_by_norm(b[None], uavs).tolist()
            assert want == [1]
            assert associate(b[None], uavs).tolist() == want
        # Every UD at once, against a UAV set that ties for all of them.
        uavs = np.array([[500.0, 500.0, 150.0], [500.0, 500.0, 150.0],
                         [0.0, 0.0, 150.0]])
        assert associate(busy, uavs).tolist() == _associate_by_norm(busy, uavs).tolist()
        assert set(associate(busy, uavs).tolist()) <= {0, 2}
