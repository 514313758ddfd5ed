"""Configuration dataclasses and JSON (de)serialization.

All defaults follow the simulation scenario: a 200x200 m area, 20 busy UDs,
5 UAVs flying between 100 and 200 m at up to 25 m/s over 50 one-second slots.
Every field can be overridden from a JSON config file.

Each field states its domain once, in its annotation: its type and, for most
numbers, a :class:`Domain` such as :data:`Positive` or :data:`Count`. Every
float must also be finite. One walker, :func:`_typed`, checks all of this at
every depth, both for a JSON object being loaded and in ``validate()``; only
the rules that span fields are code, in each section's ``_rules``. Unknown,
ill-typed or out-of-domain fields raise :class:`ConfigError` naming the
dotted path and the value.
"""

import dataclasses
import functools
import json
import sys
import typing
from dataclasses import dataclass, field
from typing import Annotated, Any, Callable, ClassVar, NamedTuple


class ConfigError(ValueError):
    """Raised for unknown, missing, ill-typed or out-of-domain configuration fields."""


class Domain:
    """The values of a field's type that it accepts: those where ok holds."""

    # Unhashable, so that typing does not cache the Annotated hints that
    # carry a Domain: that cache lives as long as the process, and a cached
    # ok would keep this module's globals alive after a re-import.
    __hash__ = None

    def __init__(self, text: str, ok: Callable[[Any], bool]):
        self.text, self.ok = text, ok


_POSITIVE = Domain("must be positive", lambda v: v > 0)
_NONNEGATIVE = Domain("must be nonnegative", lambda v: v >= 0)
_NON_EMPTY = Domain("must be a non-empty list", lambda v: len(v) > 0)
_DISTINCT = Domain("must be distinct", lambda v: len(set(v)) == len(v))

Positive = Annotated[float, _POSITIVE]
NonNegative = Annotated[float, _NONNEGATIVE]
# Far above any machine-sized world: a larger count would otherwise fail
# deep in numpy, naming no field.
Count = Annotated[int, _POSITIVE, Domain("must be at most 10**9", lambda v: v <= 10**9)]
Fraction = Annotated[float, Domain("must lie in (0, 1)", lambda v: 0 < v < 1)]


class _Section:
    """A config dataclass. ``validate()`` checks every field against its
    annotation, at every depth, then each section's cross-field rules."""

    # Where the section sits in an ExperimentConfig, so that the errors of
    # a validate() called on the section alone name the same paths.
    home: ClassVar[str] = ""

    def validate(self) -> None:
        _typed(self, _spec(type(self)), self.home)

    def _rules(self, at: str) -> None:
        """Rules that span fields, checked after every field; at is this
        section's dotted path."""


def _ordered(section: _Section, at: str, low: str, high: str) -> None:
    lo, hi = getattr(section, low), getattr(section, high)
    if not lo <= hi:
        raise ConfigError(f"{at}.{low} must not exceed {at}.{high}, got {lo!r} > {hi!r}")


@dataclass
class WorldConfig(_Section):
    home = "sim.world"
    area_side: Positive = 200.0
    n_busy: Count = 20
    n_idle: Count = 10   # the D2D route needs an idle UD
    n_uav: Count = 5
    h_min: Positive = 100.0
    h_max: float = 200.0
    v_max: Positive = 25.0
    d_min: Positive = 3.0
    slot_seconds: Positive = 1.0
    n_slots: Count = 50
    battery_j: Positive = 20_000.0

    def _rules(self, at: str) -> None:
        if not self.h_min < self.h_max:
            raise ConfigError(f"{at}.h_min must be below {at}.h_max, "
                              f"got {self.h_min!r} >= {self.h_max!r}")


@dataclass
class ChannelParams(_Section):
    """Per-link-class fading/rate parameters.

    ``rician_k`` is the linear ratio of line-of-sight to scattered power;
    0 degenerates to Rayleigh fading.
    """

    beta0: Positive = 1e-5
    chi: Annotated[float, Domain("must be at least 2", lambda v: v >= 2)] = 2.2
    rician_k: NonNegative = 10.0
    noise_power: Positive = 1e-13
    bandwidth: Positive = 15e6


def d2d_channel_defaults() -> ChannelParams:
    # D2D links are non-LoS dominated: Rayleigh fading, steeper path loss.
    return ChannelParams(beta0=1e-5, chi=3.0, rician_k=0.0, noise_power=1e-13, bandwidth=10e6)


@dataclass
class EnergyParams(_Section):
    home = "sim.energy"
    kappa: Positive = 1e-27
    s1: Positive = 1e-27
    y1: Positive = 3.0
    m1: Positive = 1.54
    m2: Positive = 0.08
    p_blade: Positive = 59.03
    p_induced: Positive = 79.07
    utip: Positive = 120.0
    v_f: Positive = 3.6
    rho: Positive = 1.225
    d_c: Positive = 0.6
    rotor_area: Positive = 0.5030
    rotor_solidity: Positive = 0.05


@dataclass
class EconParams(_Section):
    home = "sim.econ"
    p_uav_min: Positive = 0.1
    p_uav_max: Positive = 2.0
    p_idle_min: Positive = 0.1
    p_idle_max: Positive = 2.0
    beta_busy: NonNegative = 1.0
    beta_idle: NonNegative = 1.0
    eps1_cap: Fraction = 0.95
    # Joules are converted to currency at this rate before entering utilities.
    energy_price: NonNegative = 0.01
    # When true, the busy-UD utility subtracts (E_local - E_off_uav - E_off_d2d)
    # as printed; when false, all three energies are costs.
    paper_sign_convention: bool = True

    def _rules(self, at: str) -> None:
        _ordered(self, at, "p_uav_min", "p_uav_max")
        _ordered(self, at, "p_idle_min", "p_idle_max")


@dataclass
class TaskParams(_Section):
    home = "sim.task"
    d_min_bits: Positive = 1.5e6
    d_max_bits: Positive = 3.5e6
    cycles_per_bit_min: Positive = 700.0
    cycles_per_bit_max: Positive = 1500.0
    original_bitrate_mbps: float = 2.75
    # A nonpositive rung would make step's bitrate logarithm complex.
    bitrate_ladder: Annotated[tuple[Positive, ...], _NON_EMPTY] = (0.4, 0.8, 1.5, 2.0, 2.3)

    def _rules(self, at: str) -> None:
        # A reversed range would make reset's uniform draw raise.
        _ordered(self, at, "d_min_bits", "d_max_bits")
        _ordered(self, at, "cycles_per_bit_min", "cycles_per_bit_max")
        if any(b >= self.original_bitrate_mbps for b in self.bitrate_ladder):
            raise ConfigError(
                f"{at}.bitrate_ladder must stay below the original bitrate "
                f"{self.original_bitrate_mbps!r}, got {tuple(self.bitrate_ladder)!r}")


@dataclass
class ComputeCaps(_Section):
    home = "sim.caps"
    f_busy_max: Positive = 1.5e9
    f_idle_max: Positive = 1.5e9
    f_uav_max: Positive = 30e9
    # At zero power every rate is 0, every uplink delay inf, and every
    # uplink energy 0 * inf = nan.
    tx_power: Positive = 0.5


@dataclass
class PenaltyConfig(_Section):
    home = "sim.penalty"
    f1: NonNegative = 50.0   # UAV pair closer than d_min
    f2: NonNegative = 50.0   # cumulative UAV energy beyond battery
    f3: NonNegative = 50.0   # commanded speed beyond v_max (pre-clamp)
    f4: NonNegative = 20.0   # terminal return-to-start shortfall, scaled by displacement


@dataclass
class SimConfig(_Section):
    home = "sim"
    world: WorldConfig = field(default_factory=WorldConfig)
    chan_d2d: ChannelParams = field(default_factory=d2d_channel_defaults)
    chan_uav: ChannelParams = field(default_factory=ChannelParams)
    energy: EnergyParams = field(default_factory=EnergyParams)
    econ: EconParams = field(default_factory=EconParams)
    task: TaskParams = field(default_factory=TaskParams)
    caps: ComputeCaps = field(default_factory=ComputeCaps)
    penalty: PenaltyConfig = field(default_factory=PenaltyConfig)
    # Replace fading draws with the deterministic line-of-sight prefactor.
    deterministic_fading: bool = False


@dataclass
class Td3Config(_Section):
    home = "td3"
    gamma: Fraction = 0.98
    actor_lr: Positive = 0.005
    critic_lr: Positive = 0.005
    tau: Annotated[float, Domain("must lie in (0, 1]", lambda v: 0 < v <= 1)] = 0.05
    policy_delay: Count = 2
    target_noise_sigma: NonNegative = 0.2
    target_noise_clip: Positive = 0.5
    exploration_noise_sigma: NonNegative = 0.1
    batch_size: Count = 256
    buffer_capacity: Count = 100_000
    episodes: Count = 200
    warmup_steps: Annotated[int, _NONNEGATIVE] = 1000
    hidden: tuple[Count, ...] = (256, 256)
    # At 0 the agent trains on zero reward; below 0 it minimises revenue.
    reward_scale: Positive = 1.0

    def _rules(self, at: str) -> None:
        if self.buffer_capacity < self.batch_size:
            raise ConfigError(f"{at}.buffer_capacity must be at least {at}.batch_size, "
                              f"or no update ever runs, got {self.buffer_capacity!r} "
                              f"< {self.batch_size!r}")


@dataclass
class PpoConfig(_Section):
    home = "ppo"
    gamma: Fraction = 0.98
    gae_lambda: Annotated[float, Domain("must lie in [0, 1]", lambda v: 0 <= v <= 1)] = 0.95
    clip_ratio: Positive = 0.2
    lr: Positive = 3e-4
    epochs: Count = 10
    minibatch_size: Count = 64
    rollout_episodes: Count = 4
    episodes: Count = 200
    hidden: tuple[Count, ...] = (256, 256)
    init_log_std: float = -0.5
    reward_scale: Positive = 1.0


ALGORITHMS = ("td3", "ddpg", "ppo", "greedy")
Algorithm = Annotated[str, Domain(f"must be one of {', '.join(ALGORITHMS)}",
                                  lambda v: v in ALGORITHMS)]

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
class ExperimentConfig(_Section):
    sim: SimConfig = field(default_factory=SimConfig)
    td3: Td3Config = field(default_factory=Td3Config)
    ppo: PpoConfig = field(default_factory=PpoConfig)
    algorithms: Annotated[tuple[Algorithm, ...], _NON_EMPTY] = ("td3", "ddpg", "ppo")
    seeds: Annotated[tuple[Annotated[int, _NONNEGATIVE], ...], _NON_EMPTY,
                     _DISTINCT] = (0, 1, 2)
    output_dir: str = "runs"
    sweep_axes: dict[str, Annotated[list, _NON_EMPTY]] = field(default_factory=lambda: {
        "n_uav": [1, 2, 3],
        "n_idle": [1, 2, 4],
        "n_busy": [4, 8, 12],
        "f_k_max": [10e9, 20e9, 30e9],
    })
    # The snapshot format; only the current version loads.
    config_version: Annotated[int, Domain("must be 1", lambda v: v == 1)] = 1

    def _rules(self, at: str) -> None:
        for axis, values in self.sweep_axes.items():
            if axis not in SWEEP_AXES:
                raise ConfigError(f"sweep_axes: unknown axis '{axis}'")
            for i, value in enumerate(values):
                try:
                    apply_axis(self.sim, axis, value).validate()
                except ConfigError as exc:
                    raise ConfigError(f"sweep_axes.{axis}[{i}]: {exc}") from exc
            # Checked on valid values only: a repeat would run its cells twice.
            if not _DISTINCT.ok(values):
                raise ConfigError(f"sweep_axes.{axis} {_DISTINCT.text}, got {values!r}")


# JSON types each annotated leaf type accepts; bool is never an int here.
_LEAF_TYPES = {bool: (bool,), int: (int,), float: (int, float), str: (str,),
               list: (list,)}


class _Spec(NamedTuple):
    """A type hint taken apart once, for the walker."""
    kind: Any          # a config dataclass, tuple, dict, or a _LEAF_TYPES key
    args: tuple        # the _Spec of each type argument but the tuple's "..."
    domains: tuple     # the Domains of an Annotated hint


def _spec(hint) -> _Spec:
    domains = ()
    if typing.get_origin(hint) is Annotated:
        hint, *domains = typing.get_args(hint)
    args = tuple(_spec(a) for a in typing.get_args(hint) if a is not Ellipsis)
    return _Spec(typing.get_origin(hint) or hint, args, tuple(domains))


@functools.cache
def _fields(cls) -> dict[str, _Spec]:
    """Each field of a config dataclass with the _Spec of its annotation."""
    return {f.name: _spec(f.type) for f in dataclasses.fields(cls)}


def _typed(value: Any, spec: _Spec, where: str):
    """value as the annotated type, checked at every depth: its JSON type,
    that a float is finite, and each Domain of the annotation. A dict for a
    config section builds the section, an instance is checked field by
    field, and either way the section's cross-field rules run last.
    ConfigError naming where if anything does not fit."""
    kind = spec.kind
    if kind in _LEAF_TYPES:
        if (not isinstance(value, _LEAF_TYPES[kind])
                or (type(value) is bool and kind is not bool)):
            raise ConfigError(f"{where}: expected {kind.__name__}, "
                              f"got {type(value).__name__} {value!r}")
        # Compared with the largest float, not by math.isfinite, so that an
        # int too large for a float is rejected too, not an OverflowError.
        if kind is float and not -sys.float_info.max <= value <= sys.float_info.max:
            raise ConfigError(f"{where} must be finite, got {value!r}")
    elif kind is tuple:
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{where}: expected a list, got {value!r}")
        value = tuple(_typed(v, spec.args[0], f"{where}[{i}]") for i, v in enumerate(value))
    elif kind is dict:
        if not isinstance(value, dict):
            raise ConfigError(f"{where}: expected an object, got {value!r}")
        value = {k: _typed(v, spec.args[1], f"{where}.{k}") for k, v in value.items()}
    else:  # a config section
        fields, prefix = _fields(kind), f"{where}." if where else ""
        if isinstance(value, dict):
            for key in value:
                if key not in fields:
                    raise ConfigError(f"unknown field '{prefix}{key}'")
            value = kind(**{k: _typed(v, fields[k], prefix + k) for k, v in value.items()})
        elif isinstance(value, kind):
            for name, field_spec in fields.items():
                _typed(getattr(value, name), field_spec, prefix + name)
        else:
            raise ConfigError(f"{where or kind.__name__}: expected an object, got {value!r}")
        value._rules(where)
    for domain in spec.domains:
        if not domain.ok(value):
            raise ConfigError(f"{where} {domain.text}, got {value!r}")
    return value


def experiment_from_dict(data: dict) -> ExperimentConfig:
    """The ExperimentConfig a (partial) JSON object describes, checked as
    ``validate()`` checks it; unset fields keep their defaults."""
    return _typed(data, _spec(ExperimentConfig), "")


def load_experiment(path: str) -> ExperimentConfig:
    """Load and validate an experiment config from a JSON file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"unparseable config {path}: {exc}") from exc
    return experiment_from_dict(data)


def save_experiment(cfg: ExperimentConfig, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(dataclasses.asdict(cfg), fh, indent=2, sort_keys=True)
        fh.write("\n")
