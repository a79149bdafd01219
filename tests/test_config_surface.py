"""The configuration surface: which settings exist, and how a battery
spells them.

A config field exists only when a caller outside the tests sets it; a
setting nobody varies is a module constant next to the code that reads
it.  :func:`test_every_field_has_a_caller` checks the first half by name
(``TEST_ONLY`` lists the exceptions, each with its reason).  Each
setting has one way in: no environment variable or CLI flag shadows an
argument or a config field.  ``FIELDS``, ``ENV_NAMES`` and
``SERVE_FLAGS`` pin the sets, so a new knob is a deliberate edit here.
A battery file spells every setting by field name, and a name no class
declares fails before any job runs.
"""

import ast
import dataclasses
import json
import pathlib
import re

import pytest

import repro
from repro.mg.gmg import GMGConfig
from repro.mg.sa import SAConfig
from repro.resilience.health import HealthConfig
from repro.serve.jobs import JobSpec
from repro.serve.scheduler import ServeConfig
from repro.serve.worker import build_simulation
from repro.sim.timeloop import SimulationConfig
from repro.stokes.solve import StokesConfig

#: fields each class declares itself (StokesConfig inherits GMGConfig's)
FIELDS = {
    GMGConfig: ["operator", "mg_levels", "galerkin", "smoother_degree",
                "coarse_solver", "gamma"],
    StokesConfig: ["outer", "rtol", "maxiter", "restart", "scheme",
                   "project_pressure_nullspace", "workers", "velocity_pc"],
    SimulationConfig: ["stokes", "newton_rtol", "max_newton", "picard_only",
                       "linear_rtol", "cfl", "free_surface",
                       "thermal_kappa", "resilient", "health"],
    HealthConfig: ["eta_bounds", "rho_bounds", "T_bounds", "max_divergence"],
    SAConfig: ["max_coarse", "drop_tol", "coarse_solver",
               "smoother_factory"],
    ServeConfig: ["max_jobs", "total_workers", "isolation", "step_timeout",
                  "startup_timeout", "max_retries", "checkpoint_every",
                  "store_dir", "python"],
}

#: fields only the tests set, and why each still earns its place
TEST_ONLY = {
    "project_pressure_nullspace": "the verification suite's enclosed-flow "
                                  "solves reach rtol 1e-12 only with the "
                                  "constant pressure projected out",
    "T_bounds": "a health gate: a safety check that is off by default",
    "max_divergence": "a health gate: a safety check that is off by "
                      "default",
}

#: where a caller may set a field: the package, the benchmarks (the
#: end-to-end workloads included) and the examples
ROOT = pathlib.Path(__file__).resolve().parents[1]
CALLER_DIRS = ("src", "benchmarks", "examples")

#: environment variables ``src/`` reads: CI legs and paths, nothing that
#: an argument already takes
ENV_NAMES = ["REPRO_CKERNEL_CACHE", "REPRO_FLIGHT_DIR", "REPRO_NO_CKERNEL",
             "REPRO_WORKERS"]

#: ``python -m repro.serve`` options; every other setting is a field of
#: the battery file's ``serve`` section
SERVE_FLAGS = ["--help", "--json", "--require-done", "--store"]

SINKER = {"shape": [4, 4, 4], "n_spheres": 1, "radius": 0.2,
          "delta_eta": 10.0, "points_per_dim": 2}


def declared(cls) -> list[str]:
    inherited = {f.name for base in cls.__mro__[1:]
                 if dataclasses.is_dataclass(base)
                 for f in dataclasses.fields(base)}
    return [f.name for f in dataclasses.fields(cls)
            if f.name not in inherited]


@pytest.mark.parametrize("cls", list(FIELDS), ids=lambda c: c.__name__)
def test_declared_fields_are_pinned(cls):
    assert declared(cls) == FIELDS[cls]


def test_each_multigrid_setting_is_declared_once():
    assert sum(len(names) for names in FIELDS.values()) == 41
    assert issubclass(StokesConfig, GMGConfig)
    gmg = [f.name for f in dataclasses.fields(GMGConfig)]
    assert [f.name for f in dataclasses.fields(StokesConfig)][:6] == gmg


def _json_keys(doc) -> set[str]:
    if isinstance(doc, dict):
        return set(doc).union(*map(_json_keys, doc.values()))
    if isinstance(doc, list):
        return set().union(*map(_json_keys, doc))
    return set()


def spelled_names() -> set[str]:
    """Every call keyword and string dict key in the callers' Python
    files, and every key of the example battery files."""
    names = set()
    for top in CALLER_DIRS:
        for path in (ROOT / top).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.keyword) and node.arg:
                    names.add(node.arg)
                elif isinstance(node, ast.Dict):
                    names.update(key.value for key in node.keys
                                 if isinstance(key, ast.Constant)
                                 and isinstance(key.value, str))
    for path in (ROOT / "examples").glob("*.json"):
        names |= _json_keys(json.loads(path.read_text()))
    return names


def test_every_field_has_a_caller():
    """Necessary, not sufficient: a name another class (or a plain
    function's keyword) spells also counts here."""
    fields = {name for names in FIELDS.values() for name in names}
    assert set(TEST_ONLY) <= fields
    assert sorted(fields - spelled_names()) == sorted(TEST_ONLY)


def test_environment_variables_are_pinned():
    src = pathlib.Path(repro.__file__).parent
    names = {name for path in src.rglob("*.py")
             for name in re.findall(r"REPRO_[A-Z_]+", path.read_text())}
    assert sorted(names) == ENV_NAMES


def test_serve_cli_flags_are_pinned(capsys):
    from repro.serve.__main__ import main

    with pytest.raises(SystemExit):
        main(["--help"])
    text = capsys.readouterr().out
    assert re.search(r"usage: .* battery\b", text, re.S)
    assert sorted(set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", text))) \
        == SERVE_FLAGS


def test_simulation_config_round_trips_through_a_battery():
    config = SimulationConfig(
        stokes=StokesConfig(mg_levels=2, coarse_solver="lu", rtol=1e-6),
        linear_rtol=1e-5, resilient=True,
        health=HealthConfig(eta_bounds=(1e-3, 1e3), max_divergence=1.0),
    )
    wire = json.loads(json.dumps(dataclasses.asdict(config)))
    spec = JobSpec(name="rt", scenario_config=SINKER, sim_config=wire)
    sim = build_simulation(spec)
    assert sim.config == config
    assert sim.config.health.eta_bounds == (1e-3, 1e3)


def test_battery_health_dict_runs_the_gates():
    spec = JobSpec(name="h", scenario_config=SINKER, sim_config={
        "stokes": {"mg_levels": 2, "coarse_solver": "lu"},
        "health": {"eta_bounds": [1e-3, 1e3]}})
    sim = build_simulation(spec)
    assert isinstance(sim.config.health, HealthConfig)
    stats = sim.step(0.05)
    assert stats["health"]["divergence"] > 0.0
    assert sim.health.stats["mesh_gates"] >= 1


@pytest.mark.parametrize("cls, name, bad, allowed", [
    (GMGConfig, "operator", "tensor_cuda", "tensor_compiled"),
    (GMGConfig, "coarse_solver", "magic", "asm-cg"),
    (StokesConfig, "operator", "tensor_cuda", "tensor_compiled"),
    (StokesConfig, "coarse_solver", "magic", "bjacobi-lu"),
    (StokesConfig, "outer", "cg", "fgmres"),
    (StokesConfig, "scheme", "uzawa", "scr"),
    (StokesConfig, "velocity_pc", "ilu", "jacobi"),
])
def test_unknown_choice_fails_at_construction(cls, name, bad, allowed):
    with pytest.raises(ValueError, match=f"unknown {name} '{bad}'") as exc:
        cls(**{name: bad})
    assert allowed in str(exc.value)


def test_battery_with_unknown_outer_fails_before_setup():
    spec = JobSpec(name="bad", scenario_config=SINKER,
                   sim_config={"stokes": {"outer": "cg"}})
    with pytest.raises(ValueError, match="unknown outer 'cg'"):
        build_simulation(spec)



def run_cli(tmp_path, capsys, battery: dict) -> tuple[int, str]:
    from repro.serve.__main__ import main

    path = tmp_path / "battery.json"
    path.write_text(json.dumps(battery))
    store = tmp_path / "store"
    code = main([str(path), "--store", str(store)])
    assert not store.exists()   # nothing ran, nothing was stored
    return code, capsys.readouterr().err


def test_battery_with_unknown_serve_key_exits_before_running(
        tmp_path, capsys):
    code, err = run_cli(tmp_path, capsys, {
        "serve": {"max_job": 2, "isolation": "inline"},
        "jobs": [{"name": "a", "scenario_config": SINKER, "nsteps": 1}]})
    assert code == 2
    assert "unknown serve fields ['max_job']" in err
    assert "max_jobs" in err   # the allowed set


def test_battery_with_unknown_job_config_key_names_the_job(
        tmp_path, capsys):
    code, err = run_cli(tmp_path, capsys, {
        "serve": {"isolation": "inline"},
        "jobs": [{"name": "ok", "scenario_config": SINKER, "nsteps": 1},
                 {"name": "typo", "scenario_config": SINKER, "nsteps": 1,
                  "sim_config": {"min_point": 2}}]})
    assert code == 2
    assert "job 'typo'" in err
    assert "unknown sim_config fields ['min_point']" in err
