"""The ``repro.obs`` observability layer: registry semantics, disabled
fast path, report/JSON export, convergence traces, and the end-to-end
instrumentation of the solver stack."""

import json
import math
import time

import numpy as np
import pytest

from repro import obs
from repro.diagnostics.monitors import FieldSplitMonitor
from repro.fem.mesh import StructuredMesh
from repro.matfree import make_operator
from repro.sim.sinker import SinkerConfig, sinker_stokes_problem
from repro.solvers import cg, gcr
from repro.solvers.result import SolveResult
from repro.stokes.solve import StokesConfig, solve_stokes


@pytest.fixture(autouse=True)
def clean_registry():
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


def small_problem():
    return sinker_stokes_problem(
        SinkerConfig(shape=(4, 4, 4), n_spheres=2, radius=0.15, delta_eta=100.0)
    )


def small_config(**kw):
    return StokesConfig(mg_levels=2, coarse_solver="lu", rtol=1e-5, **kw)


# --------------------------------------------------------------------- #
# registry core
# --------------------------------------------------------------------- #
class TestRegistry:
    def test_timed_accumulates_count_time_flops(self):
        obs.enable()
        for _ in range(3):
            with obs.timed("Work", flops=100, nbytes=50):
                time.sleep(0.001)
        (rec,) = obs.REGISTRY.events.values()
        assert rec.name == "Work"
        assert rec.count == 3
        assert rec.seconds >= 0.003
        assert rec.flops == 300 and rec.bytes == 150
        assert rec.gflops_per_s == pytest.approx(300 / rec.seconds / 1e9)

    def test_self_time_excludes_nested_events(self):
        obs.enable()
        with obs.timed("outer"):
            with obs.timed("inner"):
                time.sleep(0.02)
        outer = obs.REGISTRY.events[("", "outer")]
        inner = obs.REGISTRY.events[("", "inner")]
        assert inner.seconds >= 0.02
        assert outer.seconds >= inner.seconds
        assert outer.self_seconds <= outer.seconds - 0.9 * inner.seconds
        # inclusive time of the inner event is its own self time (leaf)
        assert inner.self_seconds == pytest.approx(inner.seconds)

    def test_stage_paths_nest_and_label_events(self):
        obs.enable()
        with obs.stage("A"):
            with obs.stage("B"):
                with obs.timed("ev"):
                    pass
            with obs.timed("ev"):
                pass
        assert set(obs.REGISTRY.stages) == {"A", "A/B"}
        # same event name, two stage paths -> two separate records
        assert ("A/B", "ev") in obs.REGISTRY.events
        assert ("A", "ev") in obs.REGISTRY.events
        assert obs.REGISTRY.stages["A"].count == 1
        assert obs.REGISTRY.stages["A"].seconds >= obs.REGISTRY.stages["A/B"].seconds

    def test_disabled_records_nothing(self):
        assert not obs.enabled()
        with obs.timed("ev", flops=10):
            pass
        with obs.stage("S"):
            pass
        obs.log_flops(5)
        obs.trace_ksp("cg", 0, 1.0)
        assert obs.REGISTRY.events == {}
        assert obs.REGISTRY.stages == {}
        assert obs.REGISTRY.traces["ksp"] == []

    def test_disabled_returns_shared_null_timer(self):
        a = obs.timed("x")
        b = obs.stage("y")
        assert a is b  # one preallocated no-op object, zero per-call garbage

    def test_instrument_decorator(self):
        calls = []

        @obs.instrument("Decorated", flops=7)
        def fn(v):
            calls.append(v)
            return v + 1

        assert fn(1) == 2  # disabled: straight through
        assert obs.REGISTRY.events == {}
        obs.enable()
        assert fn(2) == 3
        rec = obs.REGISTRY.events[("", "Decorated")]
        assert rec.count == 1 and rec.flops == 7
        assert fn.__wrapped__(3) == 4  # uninstrumented baseline stays reachable
        assert rec.count == 1

    def test_log_flops_adds_to_innermost_event(self):
        obs.enable()
        with obs.timed("ev"):
            obs.log_flops(123)
            obs.log_bytes(456)
        rec = obs.REGISTRY.events[("", "ev")]
        assert rec.flops == 123 and rec.bytes == 456

    def test_reset_drops_everything(self):
        obs.enable()
        with obs.stage("S"):
            with obs.timed("ev"):
                pass
        obs.trace_snes(0, 1.0)
        obs.reset()
        assert obs.REGISTRY.events == {}
        assert obs.REGISTRY.stages == {}
        assert obs.REGISTRY.traces["snes"] == []

    def test_memory_high_water_per_stage(self):
        obs.enable(memory=True)
        with obs.stage("Outer"):
            with obs.stage("Inner"):
                blob = np.ones(2_000_000)  # ~16 MB high-water
                del blob
        inner = obs.REGISTRY.stages["Outer/Inner"]
        outer = obs.REGISTRY.stages["Outer"]
        assert inner.mem_peak_bytes > 10_000_000
        # the child's peak propagates to the parent stage
        assert outer.mem_peak_bytes >= inner.mem_peak_bytes


# --------------------------------------------------------------------- #
# convergence traces + JSON schema
# --------------------------------------------------------------------- #
class TestTraces:
    def test_ksp_trace_numbers_solves(self):
        obs.enable()
        for rnorms in ([1.0, 0.5, 0.1], [2.0, 0.2]):
            for it, rn in enumerate(rnorms):
                obs.trace_ksp("gcr", it, rn)
        ksp = obs.REGISTRY.traces["ksp"]
        assert [r["solve"] for r in ksp] == [1, 1, 1, 2, 2]
        assert ksp[0] == {"solver": "gcr", "solve": 1, "iteration": 0, "rnorm": 1.0}

    def test_snes_trace_fields(self):
        obs.enable()
        obs.trace_snes(0, 10.0)
        obs.trace_snes(1, 1.0, step_length=0.5, linear_iterations=7)
        s0, s1 = obs.REGISTRY.traces["snes"]
        assert s0["lambda"] is None and s0["linear_iterations"] is None
        assert s1 == {"solve": 1, "iteration": 1, "fnorm": 1.0,
                      "lambda": 0.5, "linear_iterations": 7}

    def test_mg_trace_counts_cycles(self):
        obs.enable()
        for _ in range(2):
            obs.trace_mg(0, "presmooth", 1.0, rnorm_in=2.0)
            obs.trace_mg(1, "presmooth", 0.5)
        mg = obs.REGISTRY.traces["mg"]
        assert [r["cycle"] for r in mg] == [1, 1, 2, 2]

    def test_snapshot_validates_and_roundtrips(self, tmp_path):
        obs.enable()
        with obs.stage("S"):
            with obs.timed("ev", flops=10, nbytes=20):
                pass
        obs.trace_ksp("cg", 0, 1.0)
        obs.attach_monitor("m", {"total": [1.0]})
        path = tmp_path / "trace.json"
        doc = obs.write_json(path, meta={"case": "unit"})
        assert doc["schema"] == obs.SCHEMA
        on_disk = json.loads(path.read_text())
        assert obs.validate(on_disk) == on_disk
        assert on_disk["meta"]["case"] == "unit"
        assert on_disk["monitors"]["m"]["total"] == [1.0]
        (ev,) = on_disk["events"]
        assert ev["stage"] == "S" and ev["flops"] == 10

    def test_validate_rejects_bad_documents(self):
        with pytest.raises(ValueError, match="schema"):
            obs.validate({"schema": "bogus/9"})
        doc = obs.snapshot()
        doc["events"] = [{"name": "x"}]
        with pytest.raises(ValueError, match="missing field"):
            obs.validate(doc)
        doc = obs.snapshot()
        doc["traces"]["ksp"] = [{"solver": "cg", "solve": 1,
                                 "iteration": "zero", "rnorm": 1.0}]
        with pytest.raises(ValueError, match="iteration"):
            obs.validate(doc)

    def test_attach_monitor_works_while_disabled(self):
        obs.attach_monitor("late", {"k": [1]})
        assert obs.snapshot()["monitors"]["late"] == {"k": [1]}


# --------------------------------------------------------------------- #
# report
# --------------------------------------------------------------------- #
class TestLogView:
    def test_table_contents(self):
        obs.enable()
        with obs.stage("Solve"):
            with obs.timed("MatMult", flops=10**7, nbytes=10**6):
                time.sleep(0.002)
        text = obs.log_view(stream=False)
        assert "Stage: Solve" in text
        assert "MatMult" in text
        for col in ("Count", "Time(s)", "Self(s)", "Flops", "GF/s", "%roof"):
            assert col in text

    def test_min_seconds_filters(self):
        obs.enable()
        with obs.timed("fast"):
            pass
        text = obs.log_view(stream=False, min_seconds=10.0)
        assert "fast" not in text

    def test_roofline_fraction(self):
        from repro.perf.machine import LAPTOP

        # a bandwidth-bound event streaming at exactly the machine rate
        # sits on the roofline; taking twice as long achieves half of it
        bw = LAPTOP.stream_gbytes_per_node * 1e9
        flops, nbytes = int(bw * 0.1), int(bw)
        assert obs.roofline_fraction(flops, nbytes, 1.0, LAPTOP) == pytest.approx(1.0)
        assert obs.roofline_fraction(flops, nbytes, 2.0, LAPTOP) == pytest.approx(0.5)
        assert obs.roofline_fraction(0, 100, 1.0, LAPTOP) is None


# --------------------------------------------------------------------- #
# satellite fixes: SolveResult / monitors
# --------------------------------------------------------------------- #
class TestSolveResult:
    def test_repr_with_empty_residuals(self):
        res = SolveResult(np.zeros(3), False, 0, residuals=[])
        text = repr(res)  # used to raise IndexError
        assert "nan" in text

    def test_to_dict(self):
        res = SolveResult(np.zeros(3), True, 2, residuals=[4.0, 1.0, 0.25])
        d = res.to_dict()
        assert d == {"converged": True, "iterations": 2,
                     "reason": "CONVERGED_RTOL",
                     "residuals": [4.0, 1.0, 0.25],
                     "initial_residual": 4.0, "final_residual": 0.25}
        json.dumps(d)

    def test_to_dict_empty_residuals(self):
        d = SolveResult(np.zeros(3), False, 0, residuals=[]).to_dict()
        assert math.isnan(d["initial_residual"])
        assert math.isnan(d["final_residual"])


class TestMonitors:
    def test_fieldsplit_monitor_none_residual_records_nan(self):
        mesh = StructuredMesh((2, 2, 2), order=2)
        mon = FieldSplitMonitor(mesh)
        mon(0, None, 3.0)  # GMRES-style recurrence: no residual vector
        assert mon.total == [3.0]
        assert math.isnan(mon.momentum[0])
        assert math.isnan(mon.vertical_momentum[0])
        assert math.isnan(mon.pressure[0])
        r = np.ones(3 * mesh.nnodes + 4 * mesh.nel)
        mon(1, r, float(np.linalg.norm(r)))
        assert mon.momentum[1] == pytest.approx(np.sqrt(3 * mesh.nnodes))

    def test_fieldsplit_monitor_attach(self):
        mesh = StructuredMesh((2, 2, 2), order=2)
        mon = FieldSplitMonitor(mesh)
        mon(0, None, 1.0)
        mon.attach("fs")
        exported = obs.snapshot()["monitors"]["fs"]
        assert exported["total"] == [1.0]


# --------------------------------------------------------------------- #
# end-to-end instrumentation of the solver stack
# --------------------------------------------------------------------- #
class TestEndToEnd:
    def test_sinker_solve_covers_all_layers(self):
        obs.enable()
        sol = solve_stokes(small_problem(), small_config())
        assert sol.converged
        names = {e.name for e in obs.REGISTRY.events.values()}
        stages = set(obs.REGISTRY.stages)
        assert len(names) >= 10
        for prefix in ("MatMult", "MGSmooth", "MGRestrict", "MGCoarseSolve",
                       "KSPSolve", "PCApply", "PCSetUp", "Assemble"):
            assert any(n.startswith(prefix) for n in names), (prefix, names)
        assert "StokesSetup" in stages and "StokesSolve" in stages
        # Krylov + MG traces were appended alongside the events
        ksp = obs.REGISTRY.traces["ksp"]
        assert ksp and ksp[0]["iteration"] == 0
        rnorms = [r["rnorm"] for r in ksp]
        assert rnorms[-1] < rnorms[0]
        mg = obs.REGISTRY.traces["mg"]
        assert mg and {r["phase"] for r in mg} == {"presmooth"}
        assert max(r["cycle"] for r in mg) > 1
        # the whole thing exports as a valid document
        obs.validate(obs.snapshot(meta={"case": "sinker"}))
        # achieved rates come out physical: > 0, below machine peak
        from repro.perf.machine import LAPTOP

        mm = next(e for e in obs.REGISTRY.events.values()
                  if e.name.startswith("MatMult") and e.flops > 0)
        assert 0.0 < mm.gflops_per_s < LAPTOP.peak_gflops_per_node

    def test_mg_postsmooth_traces_are_opt_in(self):
        obs.enable(mg_post_residuals=True)
        solve_stokes(small_problem(), small_config())
        phases = {r["phase"] for r in obs.REGISTRY.traces["mg"]}
        assert phases == {"presmooth", "postsmooth"}
        assert all(r["rnorm"] > 0 for r in obs.REGISTRY.traces["mg"])
        # the zero-initial-guess cycle also records the entry norm
        assert any(r["rnorm_in"] is not None for r in obs.REGISTRY.traces["mg"]
                   if r["phase"] == "presmooth")

    def test_simulation_step_stages(self):
        from repro import SimulationConfig
        from repro.sim.sinker import make_sinker

        obs.enable()
        sim = make_sinker(
            SinkerConfig(shape=(4, 4, 4)),
            SimulationConfig(stokes=small_config()),
        )
        sim.run(1)
        stages = set(obs.REGISTRY.stages)
        assert "TimeStep" in stages
        assert "TimeStep/StokesNonlinear" in stages
        assert "TimeStep/MPMAdvect" in stages
        names = {e.name for e in obs.REGISTRY.events.values()}
        assert "SNESSolve" in names
        assert any(n.startswith("MPM") for n in names)
        snes = obs.REGISTRY.traces["snes"]
        assert snes and snes[0]["iteration"] == 0
        assert any(r["linear_iterations"] for r in snes)


# --------------------------------------------------------------------- #
# the disabled fast path must be free
# --------------------------------------------------------------------- #
def test_disabled_overhead():
    """Disabled instrumentation stays under 2% of the work it wraps.

    Comparing whole instrumented-vs-raw operator applies drowns a
    nanosecond branch in milliseconds of machine jitter, so this measures
    the two quantities separately: the *total* per-call cost of the
    disabled instrument wrapper (timed against an empty function, so the
    wrapper's attribute test, call indirection, and argument forwarding
    are all charged to it) must be under 2% of the cheapest real operator
    apply it would wrap.  The margin is ~100x in practice."""
    pb = small_problem()
    op = make_operator("tensor", pb.mesh, pb.eta_q)
    rng = np.random.default_rng(0)
    u = rng.standard_normal(3 * pb.mesh.nnodes)
    assert not obs.enabled()

    def apply_once():
        t0 = time.perf_counter()
        op(u)
        return time.perf_counter() - t0

    for _ in range(3):
        apply_once()  # warm up
    t_apply = min(apply_once() for _ in range(20))

    @obs.instrument("noop")
    def wrapped():
        pass

    n = 20000

    def loop():
        t0 = time.perf_counter()
        for _ in range(n):
            wrapped()
        return time.perf_counter() - t0

    loop()  # warm up
    per_call = min(loop() for _ in range(5)) / n
    assert per_call < 0.02 * t_apply, (
        f"disabled wrapper costs {per_call * 1e9:.0f} ns/call vs "
        f"{0.02 * t_apply * 1e9:.0f} ns budget (2% of one apply)"
    )
