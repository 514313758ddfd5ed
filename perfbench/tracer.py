"""Span tracing of uavmec from outside: wraps public callables where they are
looked up, records one span per call, and derives per-layer self times.

Nothing in ``src/`` is edited. :func:`traced` replaces each target callable
with a wrapper in every ``uavmec`` module namespace that binds it (so names
imported with ``from .world import advance_uav`` are covered too) and on the
class that defines a method, then puts every original back on exit.

A span is (name, start, end, parent). Spans are kept in flat in-memory
arrays and written out by :meth:`Tracer.save` when the benchmark ends.
A span's self time is its duration minus the durations of its direct
children.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from array import array

import numpy as np

# Public functions traced as "<module>.<function>" spans; the module-level
# metrics (channel.calls, world.s, ...) sum over them.
MODULE_FUNCTIONS = {
    "channel": ("link_distance", "los_gain_sq", "sample_gain_sq", "rate"),
    "compute_energy": (
        "local_delay", "local_energy", "flight_power", "flight_energy",
        "uplink_delay_uav", "uplink_energy", "transcode_cycles_per_bit",
        "transcode_time", "transcode_energy", "transcoded_bits",
        "uav_compute_delay", "uav_compute_energy", "d2d_delay",
        "idle_compute_delay", "idle_compute_energy", "ladder_level"),
    "economics": (
        "incentive_factors", "uav_inconvenience", "uav_utility",
        "idle_utility", "busy_own_utility", "busy_purchase_utility",
        "system_revenue"),
    "world": ("spawn_world", "clamp_velocity", "advance_uav",
              "pairwise_min_distance", "associate"),
}

# Span name -> targets, given as "module:function" or "module:Class.method".
# Several targets may share a span name when one is a thin front for the
# other (act_noisy calls act); nested spans of the same name add their self
# times.
NAMED_TARGETS = {
    "world.uav_positions": ("world:WorldState.uav_positions",),
    "env.decode": ("env:decode",),
    "env.step": ("env:OffloadEnv.step",),
    "env.state": ("env:OffloadEnv.state",),
    "env.reset": ("env:OffloadEnv.reset",),
    "env.clone": ("env:OffloadEnv.clone",),
    "env.peek_reward": ("env:OffloadEnv.peek_reward",),
    "nets.forward": ("nets:Mlp.forward_cache",),
    "nets.backward": ("nets:Mlp.backward",),
    "nets.optim": ("nets:Adam.step", "nets:Sgd.step"),
    "nets.soft_update": ("nets:soft_update",),
    "nets.all_finite": ("nets:all_finite",),
    "replay.push": ("replay:ReplayBuffer.push",),
    "replay.sample": ("replay:ReplayBuffer.sample",),
    "td3.train": ("td3:td3_train",),
    "td3.act": ("td3:Td3Agent.act", "td3:Td3Agent.act_noisy"),
    "td3.td_targets": ("td3:Td3Agent.td_targets",
                       "td3:Td3Agent.smoothed_target_action"),
    "td3.critic_update": ("td3:Td3Agent.critic_update",),
    "td3.actor_update": ("td3:Td3Agent.actor_update",),
    "td3.sync_targets": ("td3:Td3Agent.sync_targets",),
    "td3.check_finite": ("td3:Td3Agent.check_finite",),
    "ppo.train": ("ppo:ppo_train",),
    "ppo.sample_action": ("ppo:PpoAgent.sample_action",),
    "ppo.value": ("ppo:PpoAgent.value",),
    "ppo.gae": ("ppo:gae",),
    "ppo.update": ("ppo:PpoAgent.update",),
    "baseline.episode": ("baseline:greedy_episode",),
    "baseline.greedy_action": ("baseline:greedy_action",),
}


def all_targets() -> dict[str, tuple[str, ...]]:
    out = {f"{mod}.{fn}": (f"{mod}:{fn}",)
           for mod, fns in MODULE_FUNCTIONS.items() for fn in fns}
    out.update(NAMED_TARGETS)
    return out


def _mlp_flops(net, rows: int, per_weight: int) -> int:
    """per_weight flops for every weight of the dense layers, for every row."""
    weights = sum(a * b for a, b in zip(net.sizes[:-1], net.sizes[1:]))
    return per_weight * rows * weights


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.current = -1
        # nets.flops is computed from layer sizes and batch rows, not measured.
        self.flops = 0
        # (greedy_action span, peek_reward result) in call order.
        self.peeks: list[tuple[int, float]] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around a block of the benchmark's own code."""
        idx = len(self.name)
        self.name.append(self.name_id(name))
        self.parent.append(self.current)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self.current = idx
        try:
            yield idx
        finally:
            self.end[idx] = time.perf_counter()
            self.current = self.parent[idx]

    def wrap(self, name: str, fn):
        nid = self.name_id(name)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced_call(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(tracer.current)
            ends.append(0.0)
            tracer.current = idx
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                tracer.current = parents[idx]

        return traced_call

    def wrap_forward(self, fn):
        inner = self.wrap("nets.forward", fn)

        def forward_cache(net, x, *args, **kwargs):
            self.flops += _mlp_flops(net, np.atleast_2d(x).shape[0], 2)
            return inner(net, x, *args, **kwargs)

        return functools.wraps(fn)(forward_cache)

    def wrap_backward(self, fn):
        inner = self.wrap("nets.backward", fn)

        def backward(net, activations, grad_out, *args, **kwargs):
            # Weight gradients plus input gradients: two products per layer.
            self.flops += _mlp_flops(net, np.atleast_2d(grad_out).shape[0], 4)
            return inner(net, activations, grad_out, *args, **kwargs)

        return functools.wraps(fn)(backward)

    def wrap_peek(self, fn):
        inner = self.wrap("env.peek_reward", fn)

        def peek_reward(env, *args, **kwargs):
            r = inner(env, *args, **kwargs)
            self.peeks.append((self.current, float(r)))
            return r

        return functools.wraps(fn)(peek_reward)

    def wrapper_for(self, name: str, fn):
        if name == "nets.forward":
            return self.wrap_forward(fn)
        if name == "nets.backward":
            return self.wrap_backward(fn)
        if name == "env.peek_reward":
            return self.wrap_peek(fn)
        return self.wrap(name, fn)

    # ------------------------------------------------------------ analysis
    def arrays(self):
        n = len(self.name)
        name = np.frombuffer(self.name, dtype=np.int32, count=n).copy()
        parent = np.frombuffer(self.parent, dtype=np.int32, count=n).copy()
        start = np.frombuffer(self.start, dtype=np.float64, count=n).copy()
        end = np.frombuffer(self.end, dtype=np.float64, count=n).copy()
        return name, parent, start, end

    def per_name(self) -> dict[str, dict[str, float]]:
        """calls and self seconds for every span name that occurred."""
        name, parent, start, end = self.arrays()
        if name.size == 0:
            return {}
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=name.size)
        self_s = dur - child
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        secs = np.bincount(name, weights=self_s, minlength=k)
        return {self.names[i]: {"calls": int(calls[i]), "self_s": float(secs[i])}
                for i in range(k) if calls[i] > 0}

    def greedy_probe_stats(self) -> tuple[int, int]:
        """(candidate probes, improving probes) from the peek_reward sequence.

        The first peek inside each greedy_action call scores the starting
        action; every later peek is a candidate that improves when it beats
        the best reward seen so far in that call.
        """
        probes = improving = 0
        best: dict[int, float] = {}
        for owner, r in self.peeks:
            if owner not in best:
                best[owner] = r
                continue
            probes += 1
            if r > best[owner]:
                improving += 1
                best[owner] = r
        return probes, improving

    def save(self, path: str) -> None:
        name, parent, start, end = self.arrays()
        t0 = start.min() if start.size else 0.0
        np.savez_compressed(path, names=np.array(self.names), name=name,
                            parent=parent, start=start - t0, end=end - t0)


def _resolve(target: str):
    mod_name, _, attr = target.partition(":")
    module = sys.modules[f"uavmec.{mod_name}"]
    owner, _, method = attr.rpartition(".")
    if owner:
        cls = getattr(module, owner)
        return cls, method, cls.__dict__[method]
    return module, attr, getattr(module, attr)


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Patch every target for the duration of the block, then restore."""
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == "uavmec" or n.startswith("uavmec."))]
    undo: list[tuple[object, str, object]] = []
    try:
        for name, targets in all_targets().items():
            for target in targets:
                owner, attr, original = _resolve(target)
                wrapper = tracer.wrapper_for(name, original)
                if isinstance(owner, type):
                    undo.append((owner, attr, original))
                    setattr(owner, attr, wrapper)
                    continue
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            undo.append((module, key, original))
                            setattr(module, key, wrapper)
        yield tracer
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)
