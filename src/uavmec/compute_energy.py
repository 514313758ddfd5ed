"""Delay and energy formulas for local, offloaded, and UAV-side processing,
plus the rotary-wing propulsion model.

Every formula takes plain values: the split fractions (eps1 to the
associated UAV, eps2 to the D2D idle partner, eps3 local), task bits and
cycles per bit, compute levels, link rates and bitrates. Per-UD quantities
(task bits, link rates, compute shares, transcoded bits) and UAV speeds may
be arrays, one element per UD or UAV; a formula then returns an array of the
same shape. The split fractions, the busy and UAV compute levels and the
transcode bitrate are scalars for one action, and for a batch of B actions
where every row shares them; where they vary over the rows they are (B, 1)
columns, which broadcast against the per-UD axis into one (B, I) row per
action. A formula returns the broadcast shape of its array arguments,
whatever its guards decide: no work takes no time, even at zero compute,
and zero UAV compute burns no transcode energy.
"""

from __future__ import annotations

import math

import numpy as np

from . import libm
from .config import EnergyParams, TaskParams


def _time(work, speed):
    """The time work takes at speed, elementwise: 0.0 without work, work /
    speed where speed > 0, else inf. count_nonzero tests the mask: on a slot's
    few elements it is several times cheaper than .all()."""
    if not libm.is_array(speed):
        if speed > 0:
            return work / speed
        if not libm.is_array(work):
            return 0.0 if work == 0.0 else math.inf
        return np.where(work == 0.0, 0.0, math.inf)
    ok = speed > 0
    if np.count_nonzero(ok) == ok.size:
        return work / speed
    return np.where(work == 0.0, 0.0,
                    np.where(ok, work / np.where(ok, speed, 1.0), math.inf))


def local_delay(eps3, bits, cycles_per_bit: float, f_local: float):
    return _time(eps3 * bits * cycles_per_bit, f_local)


def local_energy(eps3, bits, cycles_per_bit: float, f_local: float, kappa: float):
    return kappa * libm.power(f_local, 2) * eps3 * bits * cycles_per_bit


def flight_power(v, p: EnergyParams):
    """Propulsion power at horizontal speed v (W): parasite + blade + induced.

    The induced term is the printed one,
    P_induced * sqrt(sqrt(1 + v^4 / (4 v_f^2)) - v^2 / (2 v_f^2)),
    with 4*v_f^2 where the classical rotary-wing model has 4*v_f^4.
    """
    sqrt = np.sqrt if libm.is_array(v) else math.sqrt
    v2 = libm.power(v, 2)
    parasite = 0.5 * p.d_c * p.rho * p.rotor_solidity * p.rotor_area * libm.power(v, 3)
    blade = p.p_blade * (1.0 + 3.0 * v2 / p.utip ** 2)
    induced_inner = (sqrt(1.0 + libm.power(v, 4) / (4.0 * p.v_f ** 2))
                     - v2 / (2.0 * p.v_f ** 2))
    induced = p.p_induced * sqrt(np.maximum(induced_inner, 0.0))
    return parasite + blade + induced


def flight_energy(v, dt: float, p: EnergyParams):
    return flight_power(v, p) * dt


def uplink_delay_uav(eps1, bits, rate_to_assoc_uav):
    return _time(eps1 * bits, rate_to_assoc_uav)


def uplink_energy(tx_power: float, delay):
    return tx_power * delay


def transcode_cycles_per_bit(bitrate_mbps: float, p: EnergyParams) -> float:
    """Cycles per bit for transcoding to the target bitrate: m1 * b^m2 (b in Mbps)."""
    return p.m1 * libm.power(bitrate_mbps, p.m2)


def transcode_time(cycles_total, f_uav: float):
    return _time(cycles_total, f_uav)


def transcode_energy(f_uav: float, time_s, p: EnergyParams):
    # Zero frequency does no work even though the job would never finish
    # (time_s is inf there); the mask avoids 0 * inf.
    idle = f_uav <= 0.0
    if np.count_nonzero(idle):
        time_s = np.where(idle, 0.0, time_s)
    return p.s1 * libm.power(f_uav, p.y1) * time_s


def transcoded_bits(eps1, bits, bitrate_mbps, original_bitrate_mbps: float):
    """Post-transcode size of the UAV share, scaled by the bitrate ratio."""
    return eps1 * bits * (bitrate_mbps / original_bitrate_mbps)


def uav_compute_delay(d_prime, ck: float, f_uav: float):
    return _time(d_prime * ck, f_uav)


def uav_compute_energy(f_uav: float, d_prime, ck: float, kappa: float):
    return kappa * libm.power(f_uav, 2) * d_prime * ck


def d2d_delay(eps2, bits, rate_d2d):
    return _time(eps2 * bits, rate_d2d)


def idle_compute_delay(eps2, bits, cycles_per_bit: float, f_idle):
    return _time(eps2 * bits * cycles_per_bit, f_idle)


def idle_compute_energy(eps2, bits, cycles_per_bit: float, f_idle, kappa: float,
                        index=None):
    """Idle-UD compute energy of the D2D share. With index, f_idle holds
    only the distinct compute shares (last axis) and index picks each UD's:
    the square runs once per distinct share."""
    f_sq = libm.power(f_idle, 2)
    if index is not None:
        f_sq = f_sq[..., index]
    return kappa * f_sq * eps2 * bits * cycles_per_bit


def ladder_level(task: TaskParams, index):
    """The ladder bitrate (Mbps) at index, an int or an array of them."""
    ladder = task.bitrate_ladder
    return np.asarray(ladder)[index] if libm.is_array(index) else ladder[index]
