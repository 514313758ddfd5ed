import math

import numpy as np
import pytest

from uavmec import compute_energy as ce
from uavmec.config import EnergyParams, TaskParams

P = EnergyParams()


class TestLocal:
    def test_zero_fraction(self):
        assert ce.local_delay(0, 1e6, 1000, 1e9) == 0.0
        assert ce.local_energy(0, 1e6, 1000, 1e9, 1e-27) == 0.0

    def test_one_second_case(self):
        assert ce.local_delay(1.0, 1.5e6, 1000, 1.5e9) == pytest.approx(1.0)

    def test_delay_inverse_in_f(self):
        assert ce.local_delay(1.0, 2e6, 900, 1e9) == pytest.approx(
            2 * ce.local_delay(1.0, 2e6, 900, 2e9))

    def test_energy_value(self):
        # kappa * f^2 * (eps3 * D * C) with eps3*D*C = 1.5e9
        e = ce.local_energy(1.0, 1.5e6, 1000, 1.5e9, 1e-27)
        assert e == pytest.approx(1e-27 * (1.5e9) ** 2 * 1.5e9, rel=1e-12)
        assert e == pytest.approx(3.375, rel=1e-9)

    def test_energy_quadratic_in_f(self):
        assert ce.local_energy(1.0, 1e6, 1000, 2e9, 1e-27) == pytest.approx(
            4 * ce.local_energy(1.0, 1e6, 1000, 1e9, 1e-27))

    def test_energy_delay_ratio_is_kappa_f_cubed(self):
        f, kappa = 1.1e9, 1e-27
        ratio = (ce.local_energy(1.0, 2.2e6, 1234, f, kappa)
                 / ce.local_delay(1.0, 2.2e6, 1234, f))
        assert ratio == pytest.approx(kappa * f ** 3, rel=1e-12)


class TestFlight:
    def test_hover_power(self):
        assert ce.flight_power(0.0, P) == pytest.approx(59.03 + 79.07, abs=1e-9)

    def test_hand_evaluation_at_v1(self):
        v = 1.0
        parasite = 0.5 * 0.6 * 1.225 * 0.05 * 0.5030 * v ** 3
        blade = 59.03 * (1 + 3 * v ** 2 / 120 ** 2)
        induced = 79.07 * math.sqrt(
            math.sqrt(1 + v ** 4 / (4 * 3.6 ** 2)) - v ** 2 / (2 * 3.6 ** 2))
        assert ce.flight_power(v, P) == pytest.approx(parasite + blade + induced,
                                                      rel=1e-12)

    def test_blade_term_quadruples_at_tip_speed(self):
        # at v = Utip the blade-profile factor is 1 + 3 = 4
        lean = EnergyParams(d_c=1e-12, p_induced=1e-12)
        assert ce.flight_power(120.0, lean) == pytest.approx(4 * 59.03, rel=1e-6)

    def test_bowl_shape_minimum_interior(self):
        grid = np.linspace(0.0, 30.0, 61)
        powers = [ce.flight_power(v, P) for v in grid]
        i = int(np.argmin(powers))
        assert 0 < i < len(grid) - 1
        assert all(p > 0 for p in powers)

    def test_flight_energy(self):
        assert ce.flight_energy(0.0, 1.0, P) == pytest.approx(138.10, abs=1e-9)
        assert ce.flight_energy(5.0, 0.0, P) == 0.0
        assert ce.flight_energy(5.0, 2.0, P) == pytest.approx(
            2 * ce.flight_energy(5.0, 1.0, P))


class TestOffload:
    def test_uplink_delay(self):
        assert ce.uplink_delay_uav(0, 2e6, 1e7) == 0.0
        assert ce.uplink_delay_uav(0.5, 2e6, 1e7) == pytest.approx(0.1)
        assert ce.uplink_delay_uav(0.5, 2e6, 2e7) == pytest.approx(0.05)

    def test_uplink_energy(self):
        assert ce.uplink_energy(0.5, 0.1) == pytest.approx(0.05)
        assert ce.uplink_energy(0.5, 0.0) == 0.0
        assert ce.uplink_energy(1.0, 0.2) == pytest.approx(2 * ce.uplink_energy(0.5, 0.2))


class TestTranscode:
    def test_cycles_per_bit_values(self):
        assert ce.transcode_cycles_per_bit(2.3, P) == pytest.approx(
            1.54 * 2.3 ** 0.08, rel=1e-12)
        assert ce.transcode_cycles_per_bit(2.3, P) == pytest.approx(1.646, abs=2e-3)
        assert ce.transcode_cycles_per_bit(0.4, P) == pytest.approx(1.431, abs=2e-3)

    def test_cycles_monotone_in_bitrate(self):
        ladder = TaskParams().bitrate_ladder
        vals = [ce.transcode_cycles_per_bit(b, P) for b in ladder]
        assert vals == sorted(vals)

    def test_time_and_energy(self):
        assert ce.transcode_time(3e9, 30e9) == pytest.approx(0.1)
        assert ce.transcode_time(0.0, 30e9) == 0.0
        assert ce.transcode_time(3e9, 15e9) == pytest.approx(2 * ce.transcode_time(3e9, 30e9))
        assert ce.transcode_energy(30e9, 0.1, P) == pytest.approx(2700.0, rel=1e-9)
        assert ce.transcode_energy(30e9, 0.0, P) == 0.0

    def test_zero_frequency_energy_is_zero_even_with_infinite_time(self):
        # f == 0 makes the job take forever but burns no compute energy;
        # naive f**3 * t would give 0 * inf = nan.
        t = ce.transcode_time(3e9, 0.0)
        assert math.isinf(t)
        assert ce.transcode_energy(0.0, t, P) == 0.0

    def test_transcoded_bits(self):
        assert ce.transcoded_bits(0.5, 4e6, 1.5, 2.75) == pytest.approx(
            2e6 * 1.5 / 2.75, rel=1e-12)
        ladder = TaskParams().bitrate_ladder
        sizes = [ce.transcoded_bits(0.5, 4e6, b, 2.75) for b in ladder]
        assert sizes == sorted(sizes)
        assert all(sz <= 0.5 * 4e6 for sz in sizes)


class TestUavCompute:
    def test_zero_bits(self):
        assert ce.uav_compute_delay(0.0, 1.6, 1e10) == 0.0
        assert ce.uav_compute_energy(1e10, 0.0, 1.6, 1e-27) == 0.0

    def test_delay_value(self):
        assert ce.uav_compute_delay(1e6, 1.646, 1e10) == pytest.approx(1.646e-4)

    def test_energy_delay_ratio(self):
        f, kappa = 2e10, 1e-27
        ratio = (ce.uav_compute_energy(f, 5e5, 1.5, kappa)
                 / ce.uav_compute_delay(5e5, 1.5, f))
        assert ratio == pytest.approx(kappa * f ** 3, rel=1e-12)


class TestIdleRoute:
    def test_zero_fraction(self):
        assert ce.d2d_delay(0, 1e6, 1e7) == 0.0
        assert ce.idle_compute_delay(0, 1e6, 1000, 1e9) == 0.0
        assert ce.idle_compute_energy(0, 1e6, 1000, 1e9, 1e-27) == 0.0

    def test_idle_energy_mirrors_local(self):
        assert ce.idle_compute_energy(1.0, 1.5e6, 1000, 1.5e9, 1e-27) == pytest.approx(
            ce.local_energy(1.0, 1.5e6, 1000, 1.5e9, 1e-27))
        assert ce.idle_compute_energy(1.0, 1.5e6, 1000, 1.5e9, 1e-27) == pytest.approx(
            3.375)

    def test_d2d_delay_value(self):
        assert ce.d2d_delay(0.5, 2e6, 1e7) == pytest.approx(0.1)


class TestRowGuards:
    """Given (B, 1) columns, a guard acts row by row: each row equals the
    scalar call with that row's values, including rows the guard zeroes."""

    BITS = np.array([1.5e6, 2.5e6, 3.5e6])
    CYC = 1100.0
    # Rows of (eps1, eps2, eps3, f). Rows 0 and 1 pair an empty share with
    # zero compute, where the unguarded ratio would be inf rather than 0.
    ROWS = [(0.5, 0.5, 0.0, 0.0), (0.25, 0.0, 0.75, 0.0), (0.0, 0.5, 0.5, 2e9),
            (0.2, 0.3, 0.5, 3e9)]

    def _assert_rows(self, formula):
        """formula(eps1, eps2, eps3, f) on the (B, 1) columns of ROWS, row by
        row against its call on that row's scalars."""
        batched = formula(*(np.array(x)[:, None] for x in zip(*self.ROWS)))
        assert batched.shape == (len(self.ROWS), len(self.BITS))
        for b, row in enumerate(self.ROWS):
            want = np.broadcast_to(formula(*row), self.BITS.shape)
            assert batched[b].tobytes() == np.asarray(want, dtype=float).tobytes()

    def test_delays(self):
        rate = np.array([2e7, 3e7, 4e7])
        d, c = self.BITS, self.CYC
        self._assert_rows(lambda e1, e2, e3, f: ce.local_delay(e3, d, c, f))
        self._assert_rows(lambda e1, e2, e3, f: ce.uplink_delay_uav(e1, d, rate))
        self._assert_rows(lambda e1, e2, e3, f: ce.d2d_delay(e2, d, rate))
        self._assert_rows(lambda e1, e2, e3, f: ce.idle_compute_delay(e2, d, c, f))

    def test_transcode_energy_at_zero_frequency(self):
        d = self.BITS
        self._assert_rows(lambda e1, e2, e3, f: ce.transcode_energy(
            f, ce.transcode_time(e1 * d, f), P))

    def test_array_work_at_zero_scalar_speed(self):
        # One action at f_busy = 0 (greedy's -1 grid point): the per-UD
        # work is an array and the speed one float. A UD without work takes
        # no time; the others never finish. The result has the work's shape.
        work = np.array([0.0, 2e9, 0.0, 3e9])
        t = ce.transcode_time(work, 0.0)
        assert t.shape == work.shape
        assert t.tolist() == [ce.transcode_time(x, 0.0) for x in work.tolist()]
        assert t.tolist() == [0.0, math.inf, 0.0, math.inf]
        bits = np.array([0.0, 1.5e6])
        assert ce.local_delay(0.5, bits, self.CYC, 0.0).tolist() == [0.0, math.inf]

    def test_transcode_energy_has_the_shape_of_time(self):
        t = ce.transcode_time(np.array([3e9, 0.0, 1e9]), 0.0)
        e = ce.transcode_energy(0.0, t, P)
        assert e.shape == t.shape
        assert e.tolist() == [0.0, 0.0, 0.0]
