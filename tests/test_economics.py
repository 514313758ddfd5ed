import pytest

from uavmec import economics as econ
from uavmec.config import ComputeCaps, EconParams


E = EconParams()
CAPS = ComputeCaps()  # 1.5 / 1.5 / 30 GHz


class TestIncentives:
    def test_table_values(self):
        inc = econ.incentive_factors(CAPS)
        assert inc.u_uav == pytest.approx(30 / 1.5)      # = 20
        assert inc.u_idle == pytest.approx(1.0)
        assert inc.u_busy == pytest.approx(1.5 / 11.0)   # 1.5 / mean(1.5,30,1.5)


class TestInconvenience:
    def test_identity_at_zero(self):
        assert econ.uav_inconvenience(0.0, E) == 1.0

    def test_strictly_increasing(self):
        vals = [econ.uav_inconvenience(x, E) for x in (0.0, 0.3, 0.6, 0.9)]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        assert all(v >= 1.0 for v in vals)

    def test_capped(self):
        cap = econ.uav_inconvenience(1.0, E)
        assert cap == pytest.approx(1.0 / (1.0 - E.eps1_cap))
        assert cap == pytest.approx(20.0)


class TestUavUtility:
    def test_pure_revenue(self):
        assert econ.uav_utility(5e9, 1.0, 0, 0, 0, 1.0, E) == pytest.approx(5.0)

    def test_beta_one_at_no_offload(self):
        u = econ.uav_utility(30e9, 1.0, 100.0, 200.0, 50.0, 1.0, E)
        assert u == pytest.approx(30.0 - E.energy_price * 350.0)

    def test_arithmetic_case(self):
        # cost term = beta * energy_price * sum(E) = 2 * 0.01 * 1000 = 20
        u = econ.uav_utility(30e9, 1.0, 400.0, 500.0, 100.0, 2.0, E)
        assert u == pytest.approx(10.0)

    def test_decreasing_in_beta(self):
        lo = econ.uav_utility(10e9, 1.0, 50, 50, 50, 1.0, E)
        hi = econ.uav_utility(10e9, 1.0, 50, 50, 50, 3.0, E)
        assert hi < lo


class TestIdleUtility:
    def test_pure_revenue(self):
        assert econ.idle_utility(1.5e9, 0.5, 0.0, E) == pytest.approx(0.75)

    def test_breakeven(self):
        e_cost = 0.75 / (E.beta_idle * E.energy_price)
        assert econ.idle_utility(1.5e9, 0.5, e_cost, E) == pytest.approx(0.0)

    def test_numeric_case(self):
        # 1.5 GHz at price 1 minus 0.01 * 3.375 J
        assert econ.idle_utility(1.5e9, 1.0, 3.375, E) == pytest.approx(1.46625)


class TestBusyUtility:
    def test_zero_everything(self):
        assert econ.busy_own_utility(0.0, 0, 0, 0, 0.1364, E) == 0.0

    def test_printed_signs_reward_offload_energy(self):
        base = econ.busy_own_utility(1e9, 10.0, 0.0, 0.0, 0.1364, E)
        with_off = econ.busy_own_utility(1e9, 10.0, 5.0, 5.0, 0.1364, E)
        assert with_off > base

    def test_physical_signs_penalize_offload_energy(self):
        phys = EconParams(paper_sign_convention=False)
        base = econ.busy_own_utility(1e9, 10.0, 0.0, 0.0, 0.1364, phys)
        with_off = econ.busy_own_utility(1e9, 10.0, 5.0, 5.0, 0.1364, phys)
        assert with_off < base

    def test_purchase_surplus(self):
        # (u - p) * f_ghz with u_uav = 20
        assert econ.busy_purchase_utility(30e9, 2.0, 20.0) == pytest.approx(540.0)
        assert econ.busy_purchase_utility(1.5e9, 1.0, 1.0) == pytest.approx(0.0)

    def test_nonnegative_with_zero_prices_and_energies(self):
        inc = econ.incentive_factors(CAPS)
        total = (econ.busy_own_utility(1.5e9, 0, 0, 0, inc.u_busy, E)
                 + econ.busy_purchase_utility(1.5e9, 0.0, inc.u_idle)
                 + econ.busy_purchase_utility(30e9, 0.0, inc.u_uav))
        assert total >= 0


class TestSystemRevenue:
    def test_single_weight(self):
        assert econ.system_revenue(7.0, -3.0, 5.0, 1, 0, 0) == 7.0

    def test_equal_weights(self):
        w = (1 / 3, 1 / 3, 1 / 3)
        assert econ.system_revenue(3.0, 3.0, 3.0, *w) == pytest.approx(3.0)

    def test_weighted_mix(self):
        assert econ.system_revenue(10.0, -5.0, 5.0, 0.5, 0.3, 0.2) == pytest.approx(4.5)

    def test_permutation_invariance(self):
        a = econ.system_revenue(1.0, 2.0, 3.0, 0.2, 0.3, 0.5)
        b = econ.system_revenue(3.0, 2.0, 1.0, 0.5, 0.3, 0.2)
        assert a == pytest.approx(b)
