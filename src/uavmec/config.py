"""Configuration dataclasses and JSON (de)serialization.

All defaults follow the simulation scenario: a 200x200 m area, 20 busy UDs,
5 UAVs flying between 100 and 200 m at up to 25 m/s over 50 one-second slots.
Every field can be overridden from a JSON config file; unknown or ill-typed
fields raise :class:`ConfigError` naming the offending field.
"""

from __future__ import annotations

import dataclasses
import json
import typing
from dataclasses import dataclass, field
from typing import Any


class ConfigError(ValueError):
    """Raised for unknown, missing, or ill-typed configuration fields."""


@dataclass
class WorldConfig:
    area_side: float = 200.0
    n_busy: int = 20
    n_idle: int = 10
    n_uav: int = 5
    h_min: float = 100.0
    h_max: float = 200.0
    v_max: float = 25.0
    d_min: float = 3.0
    slot_seconds: float = 1.0
    n_slots: int = 50
    battery_j: float = 20_000.0

    def validate(self) -> None:
        if self.area_side <= 0 or self.n_uav < 1 or self.n_busy < 1:
            raise ConfigError("world: area_side, n_uav, n_busy must be positive")
        if not self.h_min < self.h_max:
            raise ConfigError("world.h_min must be below world.h_max")
        if self.d_min <= 0 or self.v_max <= 0 or self.slot_seconds <= 0:
            raise ConfigError("world: d_min, v_max, slot_seconds must be positive")
        _require_positive("world", self, "n_idle", "n_slots")
        if not self.battery_j > 0:
            raise ConfigError(f"world.battery_j must be positive, got {self.battery_j!r}")


@dataclass
class ChannelParams:
    """Per-link-class fading/rate parameters.

    ``rician_k`` is the linear ratio of line-of-sight to scattered power;
    0 degenerates to Rayleigh fading.
    """

    beta0: float = 1e-5
    chi: float = 2.2
    rician_k: float = 10.0
    noise_power: float = 1e-13
    bandwidth: float = 15e6

    def validate(self) -> None:
        if self.beta0 <= 0 or self.noise_power <= 0 or self.bandwidth <= 0:
            raise ConfigError("channel: beta0, noise_power, bandwidth must be positive")
        if self.chi < 2 or self.rician_k < 0:
            raise ConfigError("channel: chi must be >= 2 and rician_k >= 0")


def d2d_channel_defaults() -> ChannelParams:
    # D2D links are non-LoS dominated: Rayleigh fading, steeper path loss.
    return ChannelParams(beta0=1e-5, chi=3.0, rician_k=0.0, noise_power=1e-13, bandwidth=10e6)


def uav_channel_defaults() -> ChannelParams:
    return ChannelParams(beta0=1e-5, chi=2.2, rician_k=10.0, noise_power=1e-13, bandwidth=15e6)


@dataclass
class EnergyParams:
    kappa: float = 1e-27
    s1: float = 1e-27
    y1: float = 3.0
    m1: float = 1.54
    m2: float = 0.08
    p_blade: float = 59.03
    p_induced: float = 79.07
    utip: float = 120.0
    v_f: float = 3.6
    rho: float = 1.225
    d_c: float = 0.6
    rotor_area: float = 0.5030
    rotor_solidity: float = 0.05
    # The printed propulsion model divides v^4 by 4*v_f^2; the classical
    # rotary-wing model uses 4*v_f^4. Default keeps the printed form.
    classical_induced_term: bool = False

    def validate(self) -> None:
        for name in ("kappa", "s1", "y1", "m1", "m2", "p_blade", "p_induced",
                     "utip", "v_f", "rho", "d_c", "rotor_area", "rotor_solidity"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"energy.{name} must be positive")


@dataclass
class EconParams:
    p_uav_min: float = 0.1
    p_uav_max: float = 2.0
    p_idle_min: float = 0.1
    p_idle_max: float = 2.0
    beta_busy: float = 1.0
    beta_idle: float = 1.0
    eps1_cap: float = 0.95
    # Joules are converted to currency at this rate before entering utilities.
    energy_price: float = 0.01
    # When true, the busy-UD utility subtracts (E_local - E_off_uav - E_off_d2d)
    # as printed; when false, all three energies are costs.
    paper_sign_convention: bool = True

    def validate(self) -> None:
        if not (0 < self.p_uav_min <= self.p_uav_max):
            raise ConfigError("econ: require 0 < p_uav_min <= p_uav_max")
        if not (0 < self.p_idle_min <= self.p_idle_max):
            raise ConfigError("econ: require 0 < p_idle_min <= p_idle_max")
        if not (0 < self.eps1_cap < 1):
            raise ConfigError("econ.eps1_cap must lie in (0, 1)")


@dataclass
class TaskParams:
    d_min_bits: float = 1.5e6
    d_max_bits: float = 3.5e6
    cycles_per_bit_min: float = 700.0
    cycles_per_bit_max: float = 1500.0
    original_bitrate_mbps: float = 2.75
    bitrate_ladder: tuple[float, ...] = (0.4, 0.8, 1.5, 2.0, 2.3)

    def validate(self) -> None:
        if not (0 < self.d_min_bits <= self.d_max_bits):
            raise ConfigError("task: require 0 < d_min_bits <= d_max_bits")
        # A reversed range made reset's uniform draw raise; a nonpositive
        # rung made step's bitrate logarithm complex.
        if not (0 < self.cycles_per_bit_min <= self.cycles_per_bit_max):
            raise ConfigError(
                "task.cycles_per_bit_min must lie in (0, cycles_per_bit_max = "
                f"{self.cycles_per_bit_max!r}], got {self.cycles_per_bit_min!r}")
        if not self.bitrate_ladder:
            raise ConfigError("task.bitrate_ladder must not be empty")
        if not all(b > 0 for b in self.bitrate_ladder):
            raise ConfigError("task.bitrate_ladder entries must be positive, "
                              f"got {tuple(self.bitrate_ladder)!r}")
        if any(b >= self.original_bitrate_mbps for b in self.bitrate_ladder):
            raise ConfigError("task.bitrate_ladder must stay below the original bitrate")


@dataclass
class ComputeCaps:
    f_busy_max: float = 1.5e9
    f_idle_max: float = 1.5e9
    f_uav_max: float = 30e9
    tx_power: float = 0.5

    def validate(self) -> None:
        if min(self.f_busy_max, self.f_idle_max, self.f_uav_max) <= 0:
            raise ConfigError("caps: all compute caps must be positive")
        # At zero power every rate is 0, every uplink delay inf, and every
        # uplink energy 0 * inf = nan.
        if not self.tx_power > 0:
            raise ConfigError("caps.tx_power must be positive")


@dataclass
class PenaltyConfig:
    f1: float = 50.0   # UAV pair closer than d_min
    f2: float = 50.0   # cumulative UAV energy beyond battery
    f3: float = 50.0   # commanded speed beyond v_max (pre-clamp)
    f4: float = 20.0   # terminal return-to-start shortfall, scaled by displacement

    def validate(self) -> None:
        if min(self.f1, self.f2, self.f3, self.f4) < 0:
            raise ConfigError("penalty values must be nonnegative")


@dataclass
class SimConfig:
    world: WorldConfig = field(default_factory=WorldConfig)
    chan_d2d: ChannelParams = field(default_factory=d2d_channel_defaults)
    chan_uav: ChannelParams = field(default_factory=uav_channel_defaults)
    energy: EnergyParams = field(default_factory=EnergyParams)
    econ: EconParams = field(default_factory=EconParams)
    task: TaskParams = field(default_factory=TaskParams)
    caps: ComputeCaps = field(default_factory=ComputeCaps)
    penalty: PenaltyConfig = field(default_factory=PenaltyConfig)
    # Replace fading draws with the deterministic line-of-sight prefactor.
    deterministic_fading: bool = False

    def validate(self) -> None:
        for part in (self.world, self.chan_d2d, self.chan_uav, self.energy,
                     self.econ, self.task, self.caps, self.penalty):
            part.validate()


def _require_positive(section: str, cfg, *names: str) -> None:
    for name in names:
        if getattr(cfg, name) < 1:
            raise ConfigError(f"{section}.{name} must be at least 1, "
                              f"got {getattr(cfg, name)!r}")


def _require_positive_widths(section: str, hidden) -> None:
    if any(width < 1 for width in hidden):
        raise ConfigError(f"{section}.hidden widths must be at least 1, "
                          f"got {tuple(hidden)!r}")


@dataclass
class Td3Config:
    gamma: float = 0.98
    actor_lr: float = 0.005
    critic_lr: float = 0.005
    tau: float = 0.05
    policy_delay: int = 2
    target_noise_sigma: float = 0.2
    target_noise_clip: float = 0.5
    exploration_noise_sigma: float = 0.1
    batch_size: int = 256
    buffer_capacity: int = 100_000
    episodes: int = 200
    warmup_steps: int = 1000
    hidden: tuple[int, ...] = (256, 256)
    optimizer: str = "adam"
    reward_scale: float = 1.0

    def validate(self) -> None:
        if not (0 < self.gamma < 1):
            raise ConfigError("td3.gamma must lie in (0, 1)")
        if not (0 < self.tau <= 1):
            raise ConfigError("td3.tau must lie in (0, 1]")
        if self.actor_lr <= 0 or self.critic_lr <= 0:
            raise ConfigError("td3 learning rates must be positive")
        if self.target_noise_clip <= 0:
            raise ConfigError("td3.target_noise_clip must be positive")
        for name in ("exploration_noise_sigma", "target_noise_sigma", "warmup_steps"):
            if getattr(self, name) < 0:
                raise ConfigError(f"td3.{name} must be nonnegative, "
                                  f"got {getattr(self, name)!r}")
        if self.optimizer not in ("adam", "sgd"):
            raise ConfigError("td3.optimizer must be 'adam' or 'sgd'")
        _require_positive("td3", self, "policy_delay", "batch_size",
                          "buffer_capacity", "episodes")
        if self.buffer_capacity < self.batch_size:
            raise ConfigError("td3.buffer_capacity must be at least "
                              "td3.batch_size, or no update ever runs")
        _require_positive_widths("td3", self.hidden)


@dataclass
class PpoConfig:
    gamma: float = 0.98
    gae_lambda: float = 0.95
    clip_ratio: float = 0.2
    lr: float = 3e-4
    epochs: int = 10
    minibatch_size: int = 64
    rollout_episodes: int = 4
    episodes: int = 200
    hidden: tuple[int, ...] = (256, 256)
    init_log_std: float = -0.5
    reward_scale: float = 1.0

    def validate(self) -> None:
        if not (0 < self.gamma < 1) or not (0 <= self.gae_lambda <= 1):
            raise ConfigError("ppo: gamma in (0,1) and gae_lambda in [0,1] required")
        if self.clip_ratio <= 0 or self.lr <= 0:
            raise ConfigError("ppo: clip_ratio and lr must be positive")
        _require_positive("ppo", self, "epochs", "minibatch_size",
                          "rollout_episodes", "episodes")
        _require_positive_widths("ppo", self.hidden)


# Sweep axis -> the (SimConfig section, field) it sets.
SWEEP_AXES = {"n_uav": ("world", "n_uav"), "n_idle": ("world", "n_idle"),
              "n_busy": ("world", "n_busy"), "f_k_max": ("caps", "f_uav_max")}


def apply_axis(sim: SimConfig, axis: str, value) -> SimConfig:
    """A copy of sim with the field behind a sweep axis set to value; sim
    itself is untouched."""
    if axis not in SWEEP_AXES:
        raise ConfigError(f"unknown sweep axis '{axis}'")
    section, name = SWEEP_AXES[axis]
    part = dataclasses.replace(getattr(sim, section), **{name: value})
    return dataclasses.replace(sim, **{section: part})


@dataclass
class ExperimentConfig:
    sim: SimConfig = field(default_factory=SimConfig)
    td3: Td3Config = field(default_factory=Td3Config)
    ppo: PpoConfig = field(default_factory=PpoConfig)
    algorithms: tuple[str, ...] = ("td3", "ddpg", "ppo")
    seeds: tuple[int, ...] = (0, 1, 2)
    output_dir: str = "runs"
    sweep_axes: dict[str, list] = field(default_factory=lambda: {
        "n_uav": [1, 2, 3],
        "n_idle": [1, 2, 4],
        "n_busy": [4, 8, 12],
        "f_k_max": [10e9, 20e9, 30e9],
    })
    config_version: int = 1

    def validate(self) -> None:
        self.sim.validate()
        self.td3.validate()
        self.ppo.validate()
        if not self.algorithms:
            raise ConfigError("algorithms must be a non-empty list")
        known = {"td3", "ddpg", "ppo", "greedy"}
        for a in self.algorithms:
            if a not in known:
                raise ConfigError(f"algorithms: unknown algorithm '{a}'")
        if not self.seeds:
            raise ConfigError("seeds must be a non-empty list")
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigError("seeds must be distinct")
        for axis, values in self.sweep_axes.items():
            if axis not in SWEEP_AXES:
                raise ConfigError(f"sweep_axes: unknown axis '{axis}'")
            if not values:
                raise ConfigError(f"sweep_axes.{axis} must be non-empty")
            section, name = SWEEP_AXES[axis]
            hint = typing.get_type_hints(type(getattr(self.sim, section)))[name]
            for i, value in enumerate(values):
                where = f"sweep_axes.{axis}[{i}]"
                _typed(value, hint, where)
                try:
                    apply_axis(self.sim, axis, value).validate()
                except ConfigError as exc:
                    raise ConfigError(f"{where}: {exc}") from exc


# JSON types each annotated leaf type accepts; bool is never an int here.
_LEAF_TYPES = {bool: (bool,), int: (int,), float: (int, float), str: (str,),
               list: (list,)}


def _typed(value: Any, hint, where: str):
    """value as the annotated type hint; ConfigError naming where if its JSON
    type does not fit."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is tuple:
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{where}: expected a list, got {value!r}")
        return tuple(_typed(v, args[0], f"{where}[{i}]") for i, v in enumerate(value))
    if origin is dict:
        if not isinstance(value, dict):
            raise ConfigError(f"{where}: expected an object, got {value!r}")
        return {k: _typed(v, args[1], f"{where}.{k}") for k, v in value.items()}
    if (not isinstance(value, _LEAF_TYPES[hint])
            or (isinstance(value, bool) and hint is not bool)):
        raise ConfigError(f"{where}: expected {hint.__name__}, "
                          f"got {type(value).__name__} {value!r}")
    return value


def _from_dict(cls, data: Any, path: str):
    if not isinstance(data, dict):
        raise ConfigError(f"{path or cls.__name__}: expected an object")
    hints = typing.get_type_hints(cls)
    kwargs = {}
    for key, value in data.items():
        where = f"{path}.{key}" if path else key
        if key not in hints:
            raise ConfigError(f"unknown field '{where}'")
        if dataclasses.is_dataclass(hints[key]):
            kwargs[key] = _from_dict(hints[key], value, where)
        else:
            kwargs[key] = _typed(value, hints[key], where)
    try:
        return cls(**kwargs)
    except TypeError as exc:  # pragma: no cover - defensive
        raise ConfigError(f"{path or cls.__name__}: {exc}") from exc


def experiment_from_dict(data: dict) -> ExperimentConfig:
    cfg = _from_dict(ExperimentConfig, data, "")
    cfg.validate()
    return cfg


def load_experiment(path: str) -> ExperimentConfig:
    """Load and validate an experiment config from a JSON file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"unparseable config {path}: {exc}") from exc
    return experiment_from_dict(data)


def to_dict(obj) -> Any:
    if dataclasses.is_dataclass(obj):
        return {f.name: to_dict(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, (list, tuple)):
        return [to_dict(v) for v in obj]
    if isinstance(obj, dict):
        return {k: to_dict(v) for k, v in obj.items()}
    return obj


def save_experiment(cfg: ExperimentConfig, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(to_dict(cfg), fh, indent=2, sort_keys=True)
        fh.write("\n")
