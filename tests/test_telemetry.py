"""Run telemetry: the step stream and the series derived from it, run
manifest, flight recorder, machine resolution, and the document schema."""

import json
import os
import pathlib
from io import StringIO

import numpy as np
import pytest

from repro import SimulationConfig, obs
from repro.fem import GaussQuadrature, StructuredMesh
from repro.matfree import make_operator
from repro.obs import flight, metrics
from repro.perf import LAPTOP, MACHINES, MachineModel, resolve_machine
from repro.stokes.solve import StokesConfig

QUAD = GaussQuadrature.hex(3)


@pytest.fixture(autouse=True)
def clean_obs(monkeypatch):
    monkeypatch.delenv("REPRO_FLIGHT_DIR", raising=False)
    obs.disable()
    obs.reset()
    flight.disarm()
    yield
    obs.disable()
    obs.reset()
    flight.disarm()


# --------------------------------------------------------------------- #
# the step stream and the series derived from it
# --------------------------------------------------------------------- #
class TestInstruments:
    def test_disabled_appenders_are_noops(self):
        obs.trace_step({"krylov_iterations": 5}, step=1, time=0.1)
        assert obs.REGISTRY.traces["step"] == []
        assert metrics.export()["series"] == []
        assert metrics.export()["last_step"] is None

    def test_counter_is_cumulative(self):
        obs.enable()
        obs.trace_step({"krylov_iterations": 4}, step=1, time=0.1)
        obs.trace_step({"krylov_iterations": 2}, step=2, time=0.2)
        (s,) = [s for s in metrics.export()["series"]
                if s["name"] == "krylov_iterations"]
        assert s["kind"] == "counter"
        assert s["steps"] == [1, 2]
        assert s["values"] == [4.0, 6.0]
        assert metrics.export()["last_step"] == 2

    def test_gauge_is_last_write_wins(self):
        obs.enable()
        obs.trace_step({"dt": 0.1, "health": {"divergence": 1e-9}},
                       step=1, time=0.1, comm={"messages": 3})
        obs.trace_step({"dt": 0.05, "health": {"divergence": 2e-9}},
                       step=2, time=0.15, comm={"messages": 5})
        series = {s["name"]: s for s in metrics.export()["series"]}
        # each step's own value, nested dicts flattened with dots
        assert series["dt"]["kind"] == "gauge"
        assert series["dt"]["values"] == [0.1, 0.05]
        assert series["health.divergence"]["values"] == [1e-9, 2e-9]
        assert series["comm.messages"]["values"] == [3.0, 5.0]
        assert series["time"]["values"] == [0.1, 0.15]
        assert "step" not in series

    def test_step_record_is_a_jsonable_copy(self):
        obs.enable()
        stats = {"dt": np.float64(0.1), "newton_converged": np.bool_(True),
                 "fallback_events": [{"next": "asmb"}]}
        obs.trace_step(stats, step=np.int64(1), time=0.1)
        stats["fallback_events"].append({"next": "amg"})
        (rec,) = obs.REGISTRY.traces["step"]
        assert rec == {"step": 1, "time": 0.1, "dt": 0.1,
                       "newton_converged": True,
                       "fallback_events": [{"next": "asmb"}]}
        assert type(rec["step"]) is int
        # bools and lists carry no series
        assert {s["name"] for s in metrics.export()["series"]} == \
            {"dt", "time"}

    def test_reset_clears_instruments(self):
        obs.enable()
        obs.trace_step({"krylov_iterations": 1}, step=1, time=0.1)
        obs.reset()
        assert obs.REGISTRY.traces["step"] == []
        assert metrics.export()["series"] == []


# --------------------------------------------------------------------- #
# run manifest + machine resolution
# --------------------------------------------------------------------- #
class TestManifest:
    def test_defaults(self):
        man = metrics.build_manifest()
        assert man["schema"] == metrics.MANIFEST_SCHEMA
        assert man["machine_model"] == "laptop"
        assert man["machine"]["name"] == "laptop"
        assert "numpy" in man["packages"]
        assert man["config_hash"] is None and man["seed"] is None

    def test_overrides_survive_disabled_profiling(self):
        assert not obs.enabled()
        metrics.set_manifest(config_hash="abc", seed=42, custom="x")
        man = metrics.build_manifest()
        assert man["config_hash"] == "abc"
        assert man["seed"] == 42
        assert man["custom"] == "x"

    def test_machine_model_override(self):
        metrics.set_manifest(machine_model="edison")
        assert metrics.build_manifest()["machine_model"] == "edison"

    def test_repro_env_is_captured(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "2")
        assert metrics.build_manifest()["env"]["REPRO_WORKERS"] == "2"

    def test_records_the_tensor_kernel_actually_used(self, monkeypatch):
        from repro.matfree import _ckernel

        _ckernel._reset_for_tests()
        try:
            # nothing asked for the kernel yet: the manifest does not compile
            assert metrics.build_manifest()["tensor_kernel"] is None
            monkeypatch.setenv(_ckernel.ENV_DISABLE, "1")
            _ckernel.load()
            used = metrics.build_manifest()["tensor_kernel"]
            assert _ckernel.ENV_DISABLE in used["fallback_reason"]
            monkeypatch.delenv(_ckernel.ENV_DISABLE)
            _ckernel._reset_for_tests()
            if _ckernel.available():
                used = metrics.build_manifest()["tensor_kernel"]
                assert used == {"isa": _ckernel.isa()}
        finally:
            _ckernel._reset_for_tests()

    def test_config_hash_is_stable_and_discriminates(self):
        a = metrics.config_hash(StokesConfig(mg_levels=2))
        b = metrics.config_hash(StokesConfig(mg_levels=2))
        c = metrics.config_hash(StokesConfig(mg_levels=3))
        assert a == b != c
        assert len(a) == 16

    def test_config_hash_handles_nested_config(self):
        h = metrics.config_hash(SimulationConfig(stokes=StokesConfig()))
        assert isinstance(h, str) and len(h) == 16


class TestMachineResolution:
    def test_default_is_laptop(self):
        assert resolve_machine(None) is LAPTOP

    def test_case_insensitive_and_passthrough(self):
        assert resolve_machine("EDISON").name == "edison"
        m = MACHINES["edison"]
        assert resolve_machine(m) is m

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown machine"):
            resolve_machine("cray-1")

    def test_log_view_records_machine_in_manifest(self):
        obs.enable()
        with obs.timed("ev"):
            pass
        obs.log_view(stream=StringIO(), machine="edison")
        assert metrics.build_manifest()["machine_model"] == "edison"

    def test_as_dict_round_trips_json(self):
        d = LAPTOP.as_dict()
        assert json.loads(json.dumps(d)) == d
        assert isinstance(resolve_machine(None), MachineModel)


# --------------------------------------------------------------------- #
# flight recorder
# --------------------------------------------------------------------- #
class TestFlightRecorder:
    def test_disarmed_is_noop(self):
        obs.enable()
        obs.trace_step({}, step=0, time=0.0)
        assert flight.trigger("manual") is None
        assert flight.armed() is None

    def test_dump_carries_the_step_stream(self, tmp_path):
        obs.enable()
        rec = flight.arm(directory=tmp_path)
        for i in range(5):
            obs.trace_step({}, step=i, time=0.1 * i)
        with open(rec.dump("manual")) as fh:
            doc = json.load(fh)
        assert [s["step"] for s in doc["traces"]["step"]] == [0, 1, 2, 3, 4]

    def test_trigger_dumps_validated_document(self, tmp_path):
        obs.enable()
        rec = flight.arm(directory=tmp_path)
        obs.trace_step({"dt": 0.1}, step=0, time=0.0)
        path = flight.trigger("rollback", step=0, reason="diverged")
        assert path in rec.dumps
        assert os.path.basename(path) == "FLIGHT_rollback_001.json"
        with open(path) as fh:
            doc = obs.validate(json.load(fh))
        assert doc["meta"]["trigger"] == {"kind": "rollback", "step": 0,
                                          "reason": "diverged"}
        assert doc["traces"]["step"][0]["dt"] == 0.1
        (dt,) = [s for s in doc["metrics"]["series"] if s["name"] == "dt"]
        assert dt["values"] == [0.1]
        assert doc["manifest"]["machine_model"] == "laptop"

    def test_dump_indices_increment(self, tmp_path):
        rec = flight.arm(directory=tmp_path)
        p1 = flight.trigger("manual")
        p2 = flight.trigger("breakdown")
        assert p1.endswith("FLIGHT_manual_001.json")
        assert p2.endswith("FLIGHT_breakdown_002.json")
        assert rec.dumps == [p1, p2]

    def test_numpy_records_are_jsonable(self, tmp_path):
        obs.enable()
        flight.arm(directory=tmp_path)
        obs.trace_step({"fnorm": np.float64(1e-9), "ok": np.bool_(True),
                        "res": np.arange(3)}, step=0, time=0.0)
        path = flight.trigger("manual")
        with open(path) as fh:
            step = json.load(fh)["traces"]["step"][0]
        assert step == {"step": 0, "time": 0.0, "fnorm": 1e-9, "ok": True,
                        "res": [0, 1, 2]}

    def test_reset_clears_buffer_but_stays_armed(self, tmp_path):
        obs.enable()
        rec = flight.arm(directory=tmp_path)
        obs.trace_step({}, step=0, time=0.0)
        obs.reset()
        assert flight.armed() is rec
        with open(rec.dump("manual")) as fh:
            assert json.load(fh)["traces"]["step"] == []


# --------------------------------------------------------------------- #
# document schema: metrics + manifest ride in repro.obs/1
# --------------------------------------------------------------------- #
class TestDocumentSchema:
    def test_snapshot_carries_metrics_and_manifest(self):
        obs.enable()
        obs.trace_step({"krylov_iterations": 3}, step=1, time=0.1)
        doc = obs.validate(obs.snapshot())
        assert doc["traces"]["step"][0]["krylov_iterations"] == 3
        names = [s["name"] for s in doc["metrics"]["series"]]
        assert names == ["krylov_iterations", "time"]
        assert doc["manifest"]["schema"] == metrics.MANIFEST_SCHEMA

    @pytest.mark.parametrize("key", ["metrics", "manifest"])
    def test_document_without_metrics_or_manifest_rejected(self, key):
        doc = obs.snapshot()
        doc.pop(key)
        with pytest.raises(ValueError, match=f"missing top-level key '{key}'"):
            obs.validate(doc)

    def test_malformed_series_rejected(self):
        doc = obs.snapshot()
        doc["metrics"]["series"] = [{"name": "x", "kind": "gauge",
                                     "steps": [0, 1], "values": [1.0]}]
        with pytest.raises(ValueError, match="steps/values"):
            obs.validate(doc)

    def test_malformed_step_record_rejected(self):
        obs.enable()
        obs.trace_step({}, step=1, time=0.1)
        doc = obs.snapshot()
        doc["traces"]["step"][0]["step"] = "1"
        with pytest.raises(ValueError, match="'step'"):
            obs.validate(doc)

    def test_write_json_accepts_pathlike(self, tmp_path):
        obs.enable()
        with obs.timed("ev"):
            pass
        path = tmp_path / "trace.json"         # a pathlib.Path, not a str
        assert isinstance(path, pathlib.Path)
        obs.write_json(path, meta={"case": "pathlike"})
        with open(path) as fh:
            doc = obs.validate(json.load(fh))
        assert doc["meta"]["case"] == "pathlike"
        assert doc["manifest"]["machine_model"] == "laptop"


# --------------------------------------------------------------------- #
# telemetry under parallelism (bit-identical export round-trip with
# REPRO_WORKERS=2 on both backends, executor tasks in the event table)
# --------------------------------------------------------------------- #
class TestTelemetryUnderParallelism:
    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_export_round_trips_with_executor_stats(self, tmp_path,
                                                    monkeypatch, backend):
        from tests.conftest import dispatch_engine

        monkeypatch.setenv("REPRO_WORKERS", "2")
        rng = np.random.default_rng(3)
        mesh = StructuredMesh((3, 3, 4), order=2)
        eta = np.exp(rng.normal(scale=0.5, size=(mesh.nel, QUAD.npoints)))
        obs.enable()
        # workers from env; the assembled SpMV dispatches on every host
        with dispatch_engine(backend):
            op = make_operator("asmb", mesh, eta, quad=QUAD)
            with obs.stage("TimeStep"):
                y = op.apply(rng.standard_normal(3 * mesh.nnodes))
            assert np.isfinite(y).all()
            obs.trace_step({"seconds": 0.0}, step=0, time=0.0)
            doc = obs.validate(obs.snapshot())

        # every task booked once, in the event table of the document
        busy = [e for e in doc["events"]
                if e["name"] == "ParExecTask:_apply_rows"]
        assert busy and busy[0]["count"] >= 2 and busy[0]["seconds"] > 0.0
        assert doc["manifest"]["env"]["REPRO_WORKERS"] == "2"

        # export -> serialize -> parse -> serialize is bit-identical
        first = json.dumps(doc, sort_keys=True)
        second = json.dumps(json.loads(first), sort_keys=True)
        assert first == second

        # and the on-disk document equals the in-memory snapshot
        path = tmp_path / f"par_{backend}.json"
        obs.write_json(path)
        with open(path) as fh:
            loaded = obs.validate(json.load(fh))
        for key in ("metrics", "events", "stages", "traces"):
            assert json.dumps(loaded[key], sort_keys=True) == \
                json.dumps(json.loads(json.dumps(doc[key])), sort_keys=True)
