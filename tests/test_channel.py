import numpy as np
import pytest

from uavmec.channel import link_distance, los_gain_sq, rate, sample_gain_sq
from uavmec.config import ChannelParams


def params(**kw) -> ChannelParams:
    return ChannelParams(**kw)


class TestLinkDistance:
    def test_identical_points(self):
        assert link_distance((1, 2, 3), (1, 2, 3)) == 0.0

    def test_vertical(self):
        assert link_distance((0, 0, 0), (0, 0, 100)) == pytest.approx(100.0)

    def test_3_4_5(self):
        assert link_distance((3, 4, 0), (0, 0, 0)) == pytest.approx(5.0)


class TestGain:
    def test_los_limit_is_pure_path_loss(self):
        p = params(beta0=1e-5, chi=2.2)
        assert los_gain_sq(p, 100.0) == pytest.approx(1e-5 * 100 ** -2.2, rel=1e-12)

    def test_empirical_mean_matches_path_loss(self):
        # E|h|^2 = beta0 * d^-chi: LoS and scatter components are unit power.
        p = params(beta0=1e-5, chi=2.2, rician_k=10.0)
        rng = np.random.default_rng(42)
        samples = [sample_gain_sq(p, 80.0, rng) for _ in range(100_000)]
        expected = 1e-5 * 80.0 ** -2.2
        assert np.mean(samples) == pytest.approx(expected, rel=0.02)

    def test_rayleigh_mean(self):
        p = params(beta0=1e-5, chi=3.0, rician_k=0.0)
        rng = np.random.default_rng(7)
        samples = [sample_gain_sq(p, 40.0, rng) for _ in range(100_000)]
        assert np.mean(samples) == pytest.approx(1e-5 * 40.0 ** -3, rel=0.02)

    def test_distance_power_law(self):
        p = params(beta0=1e-3, chi=2.0)
        assert los_gain_sq(p, 20.0) == pytest.approx(los_gain_sq(p, 10.0) / 4.0)

    def test_nonnegative_for_any_draw(self):
        p = params(rician_k=1.5)
        rng = np.random.default_rng(0)
        assert all(sample_gain_sq(p, 50.0, rng) >= 0 for _ in range(1000))


class TestRate:
    def test_zero_power(self):
        assert rate(10e6, 0.0, 1.0, 1e-13) == 0.0

    def test_unit_snr(self):
        # snr = 1 -> log2(2) = 1 bit/s/Hz
        assert rate(10e6, 1.0, 1e-13, 1e-13) == pytest.approx(10e6)

    def test_snr_three(self):
        assert rate(1.0, 3.0, 1e-13, 1e-13) == pytest.approx(2.0)

    def test_monotone_in_power_and_gain(self):
        r0 = rate(1e6, 0.1, 1e-10, 1e-13)
        assert rate(1e6, 0.2, 1e-10, 1e-13) > r0
        assert rate(1e6, 0.1, 2e-10, 1e-13) > r0
