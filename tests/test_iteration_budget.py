"""Iteration budget of the smoke workload: a hard gate on solver work.

Iteration and V-cycle counts are the one noise-free performance number:
an algorithmic regression (a weaker smoother, a dropped coarse level, a
worse linearization) shows up here on any host, however fast.  The
workload is a 4^3 2-sphere sinker solve and two coupled free-surface
sinker steps.  Each count is read twice, from the returned objects and
from the ``repro.obs`` traces (``ksp``/``snes``/``mg`` records and the
``step`` stream), and must not exceed its budget.

Measured budgets (identical compiled, with ``REPRO_NO_CKERNEL=1`` and at
``REPRO_WORKERS=2`` and 3; with ``mg_levels=2`` the coarse LU factors the
Galerkin level):

* solve: 28 outer Krylov iterations, 28 V-cycles;
* steps: 1 + 1 Newton iterations, 41 + 38 Krylov iterations, 79 V-cycles.
"""

import numpy as np
import pytest

from repro import SimulationConfig, obs
from repro.sim.sinker import SinkerConfig, make_sinker, sinker_stokes_problem
from repro.stokes.solve import StokesConfig, solve_stokes

SOLVE_KRYLOV = 28
SOLVE_VCYCLES = 28
STEP_NEWTON = (1, 1)
STEP_KRYLOV = (41, 38)
STEPS_VCYCLES = 79


@pytest.fixture(autouse=True)
def profiled():
    obs.disable()
    obs.reset()
    obs.enable()
    yield
    obs.disable()
    obs.reset()


def small_config():
    return StokesConfig(mg_levels=2, coarse_solver="lu", rtol=1e-5)


def counters() -> dict:
    """Krylov and Newton iterations and V-cycles, counted in the traces."""
    traces = obs.REGISTRY.traces
    return {
        "ksp_iterations": sum(r["iteration"] > 0 for r in traces["ksp"]),
        "snes_iterations": sum(r["iteration"] > 0 for r in traces["snes"]),
        "mg_cycles": sum(r["level"] == 0 and r["phase"] == "presmooth"
                         for r in traces["mg"]),
    }


def test_sinker_solve_within_budget():
    pb = sinker_stokes_problem(
        SinkerConfig(shape=(4, 4, 4), n_spheres=2, radius=0.15,
                     delta_eta=100.0)
    )
    sol = solve_stokes(pb, small_config())
    c = counters()
    assert sol.converged and np.isfinite(sol.u).all()
    assert sol.iterations == c["ksp_iterations"]
    assert sol.iterations <= SOLVE_KRYLOV
    assert c["mg_cycles"] <= SOLVE_VCYCLES


def test_coupled_steps_within_budget():
    sim = make_sinker(
        SinkerConfig(shape=(4, 4, 4)),
        SimulationConfig(stokes=small_config(), free_surface=True),
    )
    stats = sim.run(2)
    c = counters()
    steps = obs.REGISTRY.traces["step"]
    assert all(s["newton_converged"] for s in stats)
    newton = [s["newton_iterations"] for s in stats]
    krylov = [s["krylov_iterations"] for s in stats]
    assert newton == [r["newton_iterations"] for r in steps]
    assert krylov == [r["krylov_iterations"] for r in steps]
    assert sum(newton) == c["snes_iterations"]
    assert sum(krylov) == c["ksp_iterations"]
    for got, budget in zip(newton, STEP_NEWTON):
        assert got <= budget
    for got, budget in zip(krylov, STEP_KRYLOV):
        assert got <= budget
    assert c["mg_cycles"] <= STEPS_VCYCLES
