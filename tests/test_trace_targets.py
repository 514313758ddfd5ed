"""Every callable the benchmark's tracer wraps still exists in ``uavmec``.

``perfbench/tracer.py`` names its targets as ``module:function`` or
``module:Class.method`` strings and raises on one that does not resolve, so
a traced benchmark run (``--trace 1``) would fail on a renamed or deleted
callable. This test loads the tracer read-only and resolves every target.
"""

import importlib
import importlib.util
import os
import sys

TRACER = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracer.py")


def _load_tracer():
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    # Loading must leave the benchmark directory as it is: no __pycache__.
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


def test_every_trace_target_resolves():
    tracer = _load_tracer()
    targets = [t for group in tracer.all_targets().values() for t in group]
    assert targets
    missing = []
    for target in targets:
        importlib.import_module("uavmec." + target.partition(":")[0])
        try:
            _, _, fn = tracer._resolve(target)
        except (AttributeError, KeyError):
            missing.append(target)
            continue
        assert callable(fn), target
    assert missing == []
