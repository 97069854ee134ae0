"""The benchmark's tracer patches library names in place and puts them back.

``bench/tracer.py`` looks up every name it wraps in the namespace of the
module or class that its callers read it from. A change that drops or moves
one of those names breaks every traced benchmark run with a KeyError; this
test makes that a test failure instead.
"""

import importlib
import importlib.util
from pathlib import Path
from types import SimpleNamespace

MODULES = ("cli", "cumulant", "lattice", "montecarlo", "ruin", "severity")
TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("collrisk_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _namespaces(lib):
    """Every module namespace and every collrisk class namespace in ``lib``."""
    spaces = {}
    for name in MODULES:
        module = getattr(lib, name)
        spaces[name] = module
        for attr, value in vars(module).items():
            if isinstance(value, type) and value.__module__.startswith("collrisk"):
                spaces[f"{value.__module__}.{value.__qualname__}"] = value
    return spaces


def _snapshot(spaces):
    return {key: dict(vars(space)) for key, space in spaces.items()}


def test_tracer_installs_and_restores_every_patched_name():
    lib = SimpleNamespace(**{m: importlib.import_module(f"collrisk.{m}") for m in MODULES})
    spaces = _namespaces(lib)
    before = _snapshot(spaces)
    tracer = _load_tracer().Tracer()
    try:
        tracer.install(lib)  # a KeyError here names a patched name the library lost
        assert lib.ruin.panjer is not before["ruin"]["panjer"]
    finally:
        tracer.uninstall()
    after = _snapshot(spaces)
    for key, names in before.items():
        assert after[key].keys() == names.keys(), key
        changed = [attr for attr, value in names.items() if after[key][attr] is not value]
        assert changed == [], key
