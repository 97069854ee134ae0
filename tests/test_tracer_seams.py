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

import pytest

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


def test_main_builds_the_parser_through_the_traced_name():
    lib = SimpleNamespace(**{m: importlib.import_module(f"collrisk.{m}") for m in MODULES})
    lib.cli.build_parser.cache_clear()
    tracer = _load_tracer().Tracer()
    spans = []
    try:
        tracer.install(lib)
        for _ in range(2):
            with pytest.raises(SystemExit):
                lib.cli.main(["ruin"])  # an argparse error: nothing but the parser runs
            spans.append(tracer.calls["cli.parse"])
    finally:
        tracer.uninstall()
    assert spans == [1, 2]  # one cli.parse span per call
    info = lib.cli.build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 1)  # built on the first call only


def test_traced_simulate_fills_the_monte_carlo_counters():
    # runs the tracer's work counters on the result fields they read
    lib = SimpleNamespace(**{m: importlib.import_module(f"collrisk.{m}") for m in MODULES})
    model = lib.cumulant.CompoundModel(1.0, lib.severity.Exponential(1.0))
    plan = lib.montecarlo.SimulationPlan(
        system=lib.ruin.RiskSystem(model, 1.25, 0.0), horizon=20.0, n_paths=500, seed=3,
        chunk_paths=200, ruin_levels=(1.0,), collect_ruin_times=1.0)
    tracer = _load_tracer().Tracer()
    try:
        tracer.install(lib)
        lib.montecarlo.simulate(plan)
    finally:
        tracer.uninstall()
    counts = tracer.counts
    assert counts["mc_events"] > 0 and counts["mc_ruined"] > 0
    assert (counts["mc_chunks"], counts["mc_paths"]) == (3, 500)
    assert counts["sample_draws"] == counts["mc_events"]  # one draw per claim event


def test_traced_analytic_bundle_solves_each_root_once():
    # one bundle of the analytic calls on one model: the tilt at x, the
    # adjustment coefficient and the finite-time bound's entropy level at t;
    # its level at the time scale is read from the adjustment coefficient.
    # Exponential claims give every root in closed form; Gamma claims give
    # the tilts, and Newton finds the adjustment coefficient.
    lib = SimpleNamespace(**{m: importlib.import_module(f"collrisk.{m}") for m in MODULES})
    for severity, newton in ((lib.severity.Exponential(1.0), 0), (lib.severity.Gamma(0.8), 1)):
        model = lib.cumulant.CompoundModel(1.0, severity)
        system = lib.ruin.RiskSystem(model, 1.25, 0.0)
        x = 1.2 * model.mean_rate
        tracer = _load_tracer().Tracer()
        try:
            tracer.install(lib)
            lib.cumulant.entropy(model, x)
            lib.cumulant.chernoff_bound(model, 10.0, x)
            lib.cumulant.esscher_tail(model, 10.0, x)
            tbar = lib.ruin.lundberg(system).time_scale
            lib.ruin.finite_time_bound(system, 20.0, 0.5 * tbar)
            lib.ruin.ruin_time_clt(system, 20.0, 0.0)
        finally:
            tracer.uninstall()
        assert len(model._roots) == 3  # two tilts and the adjustment coefficient
        assert tracer.calls["rootfind.newton"] == newton
        assert (tracer.counts["newton_evals"] > 0) == (newton > 0)  # the wrapped f and f' ran
        assert tracer.calls["cumulant.entropy"] == 4  # every call is traced; hits skip the solve


def test_traced_lattice_entry_runs_the_one_esscher_body():
    # the benchmark calls esscher_tail_lattice for point-mass and lattice claims
    lib = SimpleNamespace(**{m: importlib.import_module(f"collrisk.{m}") for m in MODULES})
    models = [lib.cumulant.CompoundModel(1.0, lib.severity.PointMass(1.0)),
              lib.cumulant.CompoundModel(2.0, lib.severity.Lattice(0.5, (0.25, 0.25, 0.5)))]
    untraced = [lib.cumulant.esscher_tail_lattice(m, 10.0, 1.5 * m.mean_rate) for m in models]
    tracer = _load_tracer().Tracer()
    try:
        tracer.install(lib)
        traced = [lib.cumulant.esscher_tail_lattice(m, 10.0, 1.5 * m.mean_rate) for m in models]
    finally:
        tracer.uninstall()
    assert traced == untraced
    # two spans per call, the entry's and the body's inside it
    spans = [s for s in tracer.spans if s[0] == "cumulant.esscher"]
    entries = [s[3] for s in spans if s[4] is None]
    assert len(entries) == 2 and sorted(s[4] for s in spans if s[4] is not None) == entries
    assert tracer.calls["cumulant.esscher"] == 4
    assert tracer.self_s["cumulant.esscher"] > 0.0
