"""Entity placement, UAV kinematics, and busy-UD to UAV association."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import WorldConfig

NO_PAIR_DISTANCE = math.inf


@dataclass
class WorldState:
    busy_pos: np.ndarray       # (I, 3), z = 0
    idle_pos: np.ndarray       # (J, 3), z = 0
    uav_pos: np.ndarray        # (K, 3) meters
    uav_vel: np.ndarray        # (K, 3) m/s
    assoc: np.ndarray          # (I,) int: busy i -> UAV index

    def uav_positions(self) -> np.ndarray:
        """The (K, 3) UAV positions: the uav_pos array itself, not a copy."""
        return self.uav_pos


def spawn_world(cfg: WorldConfig, seed: int) -> WorldState:
    """Place UDs and UAVs uniformly at random; deterministic under seed."""
    rng = np.random.default_rng(seed)
    busy = np.zeros((cfg.n_busy, 3))
    busy[:, :2] = rng.uniform(0.0, cfg.area_side, size=(cfg.n_busy, 2))
    idle = np.zeros((cfg.n_idle, 3))
    idle[:, :2] = rng.uniform(0.0, cfg.area_side, size=(cfg.n_idle, 2))
    uav_pos = rng.uniform((0.0, 0.0, cfg.h_min),
                          (cfg.area_side, cfg.area_side, cfg.h_max),
                          size=(cfg.n_uav, 3))
    return WorldState(busy_pos=busy, idle_pos=idle, uav_pos=uav_pos,
                      uav_vel=np.zeros((cfg.n_uav, 3)),
                      assoc=associate(busy, uav_pos))


def clamp_velocity(commanded: np.ndarray, v_max: float) -> np.ndarray:
    """Scale each commanded velocity (a (3,) vector or (K, 3) rows) down so
    its magnitude is at most v_max."""
    commanded = np.asarray(commanded, dtype=float)
    speed = np.sqrt(np.vecdot(commanded, commanded))
    over = speed > v_max
    if not over.any():
        return commanded.copy()
    scale = np.divide(v_max, speed, out=np.ones_like(speed), where=over)
    return commanded * scale[..., None]


def move(pos: np.ndarray, vel: np.ndarray, v_new: np.ndarray, dt: float,
         bounds: WorldConfig) -> np.ndarray:
    """Positions after one slot at already clamped velocities v_new: integrate
    p + v*dt + 0.5*a*dt^2, then clamp to the flight box. Takes (3,) or (K, 3).

    Acceleration is derived from the velocity change, a = (v_new - v_old) / dt,
    so the position update reduces to the midpoint rule.
    """
    accel = (v_new - vel) / dt
    pos = pos + vel * dt + 0.5 * accel * dt * dt
    lo = (0.0, 0.0, bounds.h_min)
    hi = (bounds.area_side, bounds.area_side, bounds.h_max)
    return np.minimum(np.maximum(pos, lo), hi)


def advance_uav(pos: np.ndarray, vel: np.ndarray, commanded_vel: np.ndarray,
                dt: float, bounds: WorldConfig) -> tuple[np.ndarray, np.ndarray]:
    """One kinematic step, (3,) or (K, 3): clamp speed, then :func:`move`.
    Returns the new (pos, vel)."""
    v_new = clamp_velocity(commanded_vel, bounds.v_max)
    return move(pos, vel, v_new, dt, bounds), v_new


def pairwise_min_distance(uav_pos: np.ndarray) -> float:
    """Minimum pairwise 3D distance of (K, 3) positions; NO_PAIR_DISTANCE
    for a single UAV."""
    diff = uav_pos[:, None, :] - uav_pos[None, :, :]
    d = np.sqrt(np.vecdot(diff, diff))
    np.fill_diagonal(d, NO_PAIR_DISTANCE)
    return float(d.min())


def associate(busy_pos: np.ndarray, uav_pos: np.ndarray) -> np.ndarray:
    """Map each busy UD to its nearest UAV (3D distance, ties -> lowest index).
    Any positions may stand in for uav_pos: the env pairs each busy UD with
    its nearest idle UD this way."""
    # One contiguous (I, K) plane per coordinate, summed x, then y, then z:
    # the bits of norm(axis=2) over the (I, K, 3) differences, without its
    # strided length-3 reduction.
    diff = uav_pos.T.copy()[:, None, :] - np.atleast_2d(busy_pos).T.copy()[:, :, None]
    diff *= diff
    d = diff[0]
    d += diff[1]
    d += diff[2]
    return np.argmin(np.sqrt(d, out=d), axis=1)  # argmin breaks ties at lowest index
