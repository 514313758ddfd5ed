"""Entity placement, UAV kinematics, and busy-UD to UAV association."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .config import WorldConfig

NO_PAIR_DISTANCE = math.inf


@dataclass
class UavState:
    pos: np.ndarray            # (3,) meters
    vel: np.ndarray            # (3,) m/s
    remaining_energy: float    # joules
    uid: int


@dataclass
class WorldState:
    cfg: WorldConfig
    busy_pos: np.ndarray       # (I, 3), z = 0
    idle_pos: np.ndarray       # (J, 3), z = 0
    uavs: list[UavState]
    assoc: list[int] = field(default_factory=list)   # busy i -> UAV index

    def uav_positions(self) -> np.ndarray:
        return np.array([u.pos for u in self.uavs])


def spawn_world(cfg: WorldConfig) -> WorldState:
    """Place UDs and UAVs uniformly at random; deterministic under cfg.rng_seed."""
    cfg.validate()
    rng = np.random.default_rng(cfg.rng_seed)
    busy = np.zeros((cfg.n_busy, 3))
    busy[:, :2] = rng.uniform(0.0, cfg.area_side, size=(cfg.n_busy, 2))
    idle = np.zeros((max(cfg.n_idle, 0), 3))
    if cfg.n_idle > 0:
        idle[:, :2] = rng.uniform(0.0, cfg.area_side, size=(cfg.n_idle, 2))
    uavs = []
    for k in range(cfg.n_uav):
        xy = rng.uniform(0.0, cfg.area_side, size=2)
        z = rng.uniform(cfg.h_min, cfg.h_max)
        uavs.append(UavState(
            pos=np.array([xy[0], xy[1], z]),
            vel=np.zeros(3),
            remaining_energy=cfg.battery_j,
            uid=k,
        ))
    world = WorldState(cfg=cfg, busy_pos=busy, idle_pos=idle, uavs=uavs)
    world.assoc = associate(busy, uavs)
    return world


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
    if dt <= 0:
        raise ValueError("dt must be positive")
    accel = (v_new - vel) / dt
    pos = pos + vel * dt + 0.5 * accel * dt * dt
    lo = (0.0, 0.0, bounds.h_min)
    hi = (bounds.area_side, bounds.area_side, bounds.h_max)
    return np.minimum(np.maximum(pos, lo), hi)


def advance_uav(u: UavState, commanded_vel: np.ndarray, dt: float,
                bounds: WorldConfig) -> UavState:
    """One kinematic step of one UAV: clamp speed, then :func:`move`."""
    v_new = clamp_velocity(commanded_vel, bounds.v_max)
    return replace(u, pos=move(u.pos, u.vel, v_new, dt, bounds), vel=v_new)


def pairwise_min_distance(uavs: list[UavState]) -> float:
    """Minimum pairwise 3D distance; NO_PAIR_DISTANCE for a single UAV."""
    if not uavs:
        raise ValueError("empty UAV list")
    pos = np.array([u.pos for u in uavs])
    diff = pos[:, None, :] - pos[None, :, :]
    d = np.sqrt(np.vecdot(diff, diff))
    np.fill_diagonal(d, NO_PAIR_DISTANCE)
    return float(d.min())


def associate(busy_pos: np.ndarray, uavs: list[UavState]) -> list[int]:
    """Map each busy UD to its nearest UAV (3D distance, ties -> lowest index)."""
    if not uavs:
        raise ValueError("need at least one UAV to associate")
    uav_pos = np.array([u.pos for u in uavs])
    d = np.linalg.norm(uav_pos - np.atleast_2d(busy_pos)[:, None, :], axis=2)
    return np.argmin(d, axis=1).tolist()  # argmin breaks ties at lowest index
