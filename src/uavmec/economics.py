"""Pricing, incentive/inconvenience factors, party utilities, and the
weighted system revenue.

Compute levels enter the revenue terms in GHz, and energy terms are joules
converted to currency through econ.energy_price. Even so, pricing dwarfs
energy: under greedy at the paper default (20/10/5, seed 0) a slot's 764 J
(689 J of it flight) cost 7.6 at energy_price 0.01, against a revenue of
2,265, about 300 times more.

Every function takes plain values. The utilities are plain arithmetic, so
their energy arguments may also be arrays (one element per UAV, idle UD or
busy UD), giving one utility each, and the per-action arguments (eps1,
compute levels, prices, weights w1-w3) may be one value per action of a
batch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import ComputeCaps, EconParams

GHZ = 1e9


@dataclass
class IncentiveFactors:
    u_busy: float   # busy UD self-processing incentive
    u_uav: float    # per-GHz value of UAV compute to busy UDs
    u_idle: float   # per-GHz value of idle compute to busy UDs


def incentive_factors(caps: ComputeCaps) -> IncentiveFactors:
    mean_cap = (caps.f_busy_max + caps.f_uav_max + caps.f_idle_max) / 3.0
    return IncentiveFactors(
        u_busy=caps.f_busy_max / mean_cap,
        u_uav=caps.f_uav_max / caps.f_busy_max,
        u_idle=caps.f_idle_max / caps.f_busy_max,
    )


def uav_inconvenience(eps1: float, econ: EconParams) -> float:
    """beta_k = 1 / (1 - eps1), with eps1 capped to keep the factor bounded."""
    return 1.0 / (1.0 - np.minimum(eps1, econ.eps1_cap))


def uav_utility(f_uav: float, p_uav: float, e_transcode: float, e_fly: float,
                e_compute: float, beta_uav: float, econ: EconParams) -> float:
    """Single-UAV slot utility: resource revenue minus inflated energy costs."""
    cost = beta_uav * econ.energy_price * (e_transcode + e_fly + e_compute)
    return f_uav / GHZ * p_uav - cost


def idle_utility(f_idle: float, p_idle: float, e_compute: float,
                 econ: EconParams) -> float:
    return f_idle / GHZ * p_idle - econ.beta_idle * econ.energy_price * e_compute


def busy_own_utility(f_busy: float, e_local: float, e_off_uav: float,
                     e_off_d2d: float, u_busy: float, econ: EconParams) -> float:
    """One busy UD's own term: incentive on local compute minus energy costs.

    Under the printed sign convention the offload energies are subtracted
    inside the cost bracket (so they raise utility); the alternative treats
    all three energies as costs.
    """
    if econ.paper_sign_convention:
        bracket = e_local - e_off_uav - e_off_d2d
    else:
        bracket = e_local + e_off_uav + e_off_d2d
    return u_busy * f_busy / GHZ - econ.beta_busy * econ.energy_price * bracket


def busy_purchase_utility(f_provider: float, price: float, u_factor: float) -> float:
    """Busy-side surplus from one provider: incentive value minus payment."""
    return (u_factor - price) * f_provider / GHZ


def system_revenue(u_uav: float, u_idle: float, u_busy: float,
                   w1: float, w2: float, w3: float) -> float:
    """Weighted sum of the party utilities: w1 UAVs, w2 idle UDs, w3 busy UDs."""
    return w1 * u_uav + w2 * u_idle + w3 * u_busy
