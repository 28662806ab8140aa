"""The benchmark's tracer wraps minorbit functions by name from outside.

`perfbench/tracing.py` reads every target as `owner.__dict__[member]`, so a
target moved to a base class, a helper or another name breaks the benchmark.
This test resolves each target the same way without installing the tracer.
"""

import importlib
import importlib.util

from conftest import REPO_ROOT


def _load_tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", REPO_ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracing_target_resolves():
    tracing = _load_tracing()
    missing = []
    for layer, names in tracing.TARGETS.items():
        mod = importlib.import_module(f"minorbit.{layer}")
        for attr in names:
            owner_name, _, member = attr.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            if owner is None or not callable(vars(owner).get(member)):
                missing.append(f"{layer}.{attr}")
    assert not missing, missing


def test_every_traced_metric_names_a_target():
    # a metric over an unwrapped name would silently read 0
    tracing = _load_tracing()
    wrapped = {f"{layer}.{attr}" for layer, names in tracing.TARGETS.items()
               for attr in names}
    named = [name for group in tracing.GROUP_TIMES.values() for name in group]
    named += list(tracing.CALL_COUNTS.values()) + list(tracing.CONSTANTS)
    assert set(named) <= wrapped, sorted(set(named) - wrapped)
