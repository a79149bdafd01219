"""Timeline tracing: span capture, per-worker merge, Chrome trace export,
critical-path/utilization/imbalance analysis, report surfacing."""

import json
import re

import numpy as np
import pytest

from repro import SimulationConfig, obs
from repro.obs import timeline as tl
from repro.stokes.solve import StokesConfig
from tests.conftest import dispatch_engine


@pytest.fixture(autouse=True)
def clean_obs(monkeypatch):
    monkeypatch.delenv("REPRO_WORKERS", raising=False)
    obs.disable()
    obs.reset()
    tl.disarm()
    yield
    obs.disable()
    obs.reset()
    tl.disarm()


def span(name="E", cat="event", stage="", t0=0.0, t1=1.0, rank=-1,
         pid=1, tid=1, flops=0, nbytes=0, dispatch=-1):
    return {"name": name, "cat": cat, "stage": stage, "t0": t0, "t1": t1,
            "rank": rank, "pid": pid, "tid": tid, "flops": flops,
            "bytes": nbytes, "dispatch": dispatch}


# --------------------------------------------------------------------- #
# ring buffer + arming semantics
# --------------------------------------------------------------------- #
class TestRingBuffer:
    def test_capacity_bounds_each_rank(self):
        t = tl.Timeline(capacity=4)
        for i in range(6):
            t._push(0, ("e", "event", "", float(i), float(i) + 0.5,
                        0, 1, 1, 0, 0, -1))
        assert len(t.buffers[0]) == 4
        assert t.dropped[0] == 2
        assert t.recorded == 6
        # oldest spans evicted: the survivors are the last four
        assert [s[3] for s in t.buffers[0]] == [2.0, 3.0, 4.0, 5.0]

    def test_rings_are_per_rank(self):
        t = tl.Timeline(capacity=2)
        for rank in (0, 1):
            for i in range(3):
                t._push(rank, ("e", "task", "", float(i), float(i) + 1,
                               rank, 1, 1, 0, 0, 0))
        assert len(t.buffers[0]) == 2 and len(t.buffers[1]) == 2
        assert t.dropped == {0: 1, 1: 1}

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            tl.Timeline(capacity=0)

    def test_clear_resets_but_stays_armed(self):
        t = tl.arm(capacity=8)
        assert t.sink("T", "task", "", 0.0, 1.0, rank=0, dispatch=None) == 0
        assert t.sink("T", "task", "", 0.0, 1.0, rank=0, dispatch=None) == 1
        obs.reset()  # the registry reset hook clears the armed timeline
        assert tl.armed() is t
        assert t.recorded == 0 and t.buffers == {}
        # dispatch ids restart with the cleared timeline
        assert t.sink("T", "task", "", 0.0, 1.0, rank=0, dispatch=None) == 0


# --------------------------------------------------------------------- #
# registry sink: timed/stage context managers emit spans while armed
# --------------------------------------------------------------------- #
class TestSpanCapture:
    def test_event_and_stage_spans(self):
        t = tl.arm()
        obs.enable()
        with obs.stage("TimeStep"):
            with obs.timed("MatMult", flops=100, nbytes=800):
                pass
        spans = t.spans()
        names = {(s["name"], s["cat"]) for s in spans}
        assert names == {("MatMult", "event"), ("TimeStep", "stage")}
        ev = next(s for s in spans if s["cat"] == "event")
        st = next(s for s in spans if s["cat"] == "stage")
        assert ev["stage"] == "TimeStep" and st["stage"] == "TimeStep"
        assert ev["flops"] == 100 and ev["bytes"] == 800
        assert ev["rank"] == tl.MAIN_RANK
        # the event nests inside its stage on the time axis
        assert st["t0"] <= ev["t0"] <= ev["t1"] <= st["t1"]

    def test_disarmed_captures_nothing(self):
        obs.enable()
        with obs.timed("MatMult"):
            pass
        assert tl.armed() is None
        t = tl.arm()
        assert t.recorded == 0

    def test_profiling_disabled_captures_nothing(self):
        t = tl.arm()
        with obs.timed("MatMult"):  # no-op: obs disabled
            pass
        assert t.recorded == 0

    def test_record_span_books_event_and_span_once(self):
        t = tl.arm()
        obs.enable()
        with obs.stage("TimeStep"):
            d = obs.record_span("ParExecTask:k", t.origin + 1.0,
                                t.origin + 1.5, cat="task", rank=3,
                                dispatch=None)
            assert obs.record_span("ParExecTask:k", t.origin + 1.0,
                                   t.origin + 1.25, cat="task", rank=4,
                                   dispatch=d) == d
        ev = obs.REGISTRY.events[("TimeStep", "ParExecTask:k")]
        assert ev.count == 2
        assert ev.seconds == pytest.approx(0.75)
        assert ev.self_seconds == pytest.approx(0.75)
        tasks = sorted((s for s in t.spans() if s["cat"] == "task"),
                       key=lambda s: s["rank"])
        assert [(s["rank"], s["dispatch"]) for s in tasks] == [(3, d), (4, d)]
        assert tasks[0]["t0"] == pytest.approx(1.0)
        assert tasks[0]["stage"] == "TimeStep"

    def test_record_span_disarmed_or_disabled(self):
        assert obs.record_span("E", 0.0, 1.0, dispatch=None) == -1
        assert obs.REGISTRY.events == {}     # profiling off: nothing
        obs.enable()
        assert obs.record_span("E", 0.0, 1.0, dispatch=None) == -1
        assert obs.REGISTRY.events[("", "E")].seconds == 1.0


# --------------------------------------------------------------------- #
# export document + chrome trace + validation + CLI
# --------------------------------------------------------------------- #
class TestExport:
    def _armed_run(self):
        t = tl.arm()
        obs.enable()
        with obs.stage("TimeStep"):
            with obs.timed("MatMult", flops=10):
                pass
        return t

    def test_export_section_validates(self):
        t = self._armed_run()
        sec = t.export()
        assert tl.validate_timeline(sec) is sec
        assert sec["schema"] == tl.TIMELINE_SCHEMA
        assert sec["recorded"] == 2 and sec["dropped"] == 0
        assert [s["t0"] for s in sec["spans"]] == sorted(
            s["t0"] for s in sec["spans"])

    def test_snapshot_carries_section_only_while_armed(self):
        self._armed_run()
        doc = obs.validate(obs.snapshot())
        assert doc["timeline"]["spans"]
        tl.disarm()
        assert "timeline" not in obs.snapshot()

    def test_validate_rejects_bad_sections(self):
        sec = self._armed_run().export()
        bad = dict(sec, schema="repro.obs.timeline/999")
        with pytest.raises(ValueError, match="schema"):
            tl.validate_timeline(bad)
        bad = dict(sec, spans=[span(t0=2.0, t1=1.0)])
        with pytest.raises(ValueError, match="t1 < t0"):
            tl.validate_timeline(bad)
        bad = dict(sec, spans=[{"name": "x"}])
        with pytest.raises(ValueError, match="missing field"):
            tl.validate_timeline(bad)
        bad = dict(sec)
        del bad["analysis"]
        with pytest.raises(ValueError, match="analysis"):
            tl.validate_timeline(bad)

    def test_chrome_trace_structure(self):
        spans = [
            span("Main", "stage", "S", 0.0, 10.0, rank=-1, tid=11),
            span("ParExecTask:apply", "task", "", 2.0, 6.0, rank=0,
                 tid=22, dispatch=0),
            span("ParExecTask:apply", "task", "", 2.0, 4.0, rank=1,
                 tid=33, dispatch=0),
            span("Kernel", "event", "S", 2.5, 3.0, rank=1, tid=33,
                 flops=50, dispatch=0),
        ]
        sec = {"schema": tl.TIMELINE_SCHEMA, "clock": "perf_counter",
               "capacity": 16, "recorded": 4, "dropped": 0,
               "spans": spans, "analysis": tl.analyze(spans)}
        doc = tl.validate_chrome_trace(tl.chrome_trace(sec))
        evs = doc["traceEvents"]
        meta = [e for e in evs if e["ph"] == "M"]
        xs = [e for e in evs if e["ph"] == "X"]
        # one process_name per rank, ranks mapped to distinct pids
        assert {m["args"]["name"] for m in meta} == {
            "main", "worker 0", "worker 1"}
        assert {e["pid"] for e in xs} == {0, 1, 2}
        for e in xs:
            assert e["ts"] >= 0 and e["dur"] >= 0
        kernel = next(e for e in xs if e["name"] == "Kernel")
        assert kernel["args"]["flops"] == 50
        assert kernel["args"]["dispatch"] == 0
        assert doc["displayTimeUnit"] == "ms"

    def test_validate_chrome_trace_rejects_garbage(self):
        with pytest.raises(ValueError):
            tl.validate_chrome_trace({"events": []})
        with pytest.raises(ValueError):
            tl.validate_chrome_trace(
                {"traceEvents": [{"ph": "Q", "name": "x", "pid": 0,
                                  "tid": 0}]})
        with pytest.raises(ValueError):
            tl.validate_chrome_trace(
                {"traceEvents": [{"ph": "X", "name": "x", "pid": 0,
                                  "tid": 0, "ts": -1, "dur": 0}]})

    def test_write_chrome_trace_requires_armed_or_section(self, tmp_path):
        with pytest.raises(RuntimeError, match="not armed"):
            tl.write_chrome_trace(tmp_path / "t.json")
        self._armed_run()
        out = tmp_path / "t.json"
        doc = tl.write_chrome_trace(out)
        with open(out) as fh:
            assert json.load(fh) == doc


# --------------------------------------------------------------------- #
# analysis math on a hand-built timeline
# --------------------------------------------------------------------- #
class TestAnalysis:
    def hand_built(self):
        return [
            span("TimeStep", "stage", "TimeStep", 0.0, 10.0, rank=-1),
            span("ParExecTask:a", "task", "", 2.0, 6.0, rank=0, dispatch=0),
            span("ParExecTask:a", "task", "", 2.0, 4.0, rank=1, dispatch=0),
            span("ParExecTask:a", "task", "", 7.0, 8.0, rank=0, dispatch=1),
            span("ParExecTask:a", "task", "", 7.0, 9.5, rank=1, dispatch=1),
        ]

    def test_critical_path_and_utilization(self):
        an = tl.analyze(self.hand_built())
        assert an["wall_seconds"] == pytest.approx(10.0)
        cp = an["critical_path"]
        # workers active over [2,6] u [7,9.5] = 6.5 s parallel
        assert cp["parallel_seconds"] == pytest.approx(6.5)
        assert cp["serial_seconds"] == pytest.approx(3.5)
        assert cp["serial_fraction"] == pytest.approx(0.35)
        workers = {w["rank"]: w for w in an["workers"]}
        assert workers[0]["busy_seconds"] == pytest.approx(5.0)
        assert workers[0]["utilization"] == pytest.approx(0.5)
        assert workers[1]["busy_seconds"] == pytest.approx(4.5)
        assert workers[-1]["busy_seconds"] == pytest.approx(10.0)

    def test_dispatch_imbalance_and_stragglers(self):
        disp = tl.analyze(self.hand_built())["dispatches"]
        assert disp["count"] == 2
        # d0: durs (4,2) -> 4/3; d1: durs (1,2.5) -> 2.5/1.75
        assert disp["mean_imbalance"] == pytest.approx(
            (4 / 3 + 2.5 / 1.75) / 2)
        assert disp["max_imbalance"] == pytest.approx(2.5 / 1.75)
        assert disp["stragglers"] == {"0": 1, "1": 1}

    def test_per_step_split(self):
        (step,) = tl.analyze(self.hand_built())["steps"]
        assert step["seconds"] == pytest.approx(10.0)
        assert step["parallel_seconds"] == pytest.approx(6.5)
        assert step["serial_fraction"] == pytest.approx(0.35)

    def test_overlapping_spans_do_not_double_count(self):
        spans = [
            span("A", "event", "", 0.0, 4.0, rank=0),
            span("B", "event", "", 2.0, 6.0, rank=0),  # overlaps A
        ]
        an = tl.analyze(spans)
        (w,) = an["workers"]
        assert w["busy_seconds"] == pytest.approx(6.0)  # union, not sum
        assert an["critical_path"]["parallel_seconds"] == pytest.approx(6.0)

    def test_empty_timeline(self):
        an = tl.analyze([])
        assert an["wall_seconds"] == 0.0
        assert an["critical_path"]["serial_fraction"] == 1.0
        assert an["workers"] == [] and an["steps"] == []

    def test_queue_waits_are_not_busy_time(self):
        spans = self.hand_built() + [
            span("ParExecQueueWait", "wait", "", 1.0, 2.0, rank=0,
                 dispatch=0),
        ]
        an = tl.analyze(spans)
        workers = {w["rank"]: w for w in an["workers"]}
        assert workers[0]["busy_seconds"] == pytest.approx(5.0)
        assert an["critical_path"]["parallel_seconds"] == pytest.approx(6.5)

    def test_record_span_dispatches_reduce_in_analyze(self):
        t = tl.arm()
        obs.enable()
        o = t.origin
        for durs in ([1.0, 3.0], [2.0, 2.0]):   # imbalance 1.5, then 1.0
            d = None
            for rank, dur in enumerate(durs):
                d = obs.record_span("ParExecTask:a", o, o + dur, cat="task",
                                    rank=rank, dispatch=d)
        disp = t.export()["analysis"]["dispatches"]
        assert disp["count"] == 2
        assert disp["max_imbalance"] == pytest.approx(1.5)
        assert disp["mean_imbalance"] == pytest.approx(1.25)
        assert disp["stragglers"] == {"1": 1, "0": 1}
        ev = obs.REGISTRY.events[("", "ParExecTask:a")]
        assert ev.count == 4 and ev.seconds == pytest.approx(8.0)


# --------------------------------------------------------------------- #
# executor integration: merged per-worker spans, threads and rank
# processes (``process``: ProcommEngine)
# --------------------------------------------------------------------- #
class _DoubleState:
    def apply(self, u, s, e, out, stash):
        out[s:e] = 2.0 * u[s:e]


@pytest.mark.parametrize("backend", ["thread", "process"])
class TestExecutorSpans:
    def test_task_spans_carry_distinct_ranks(self, backend):
        t = tl.arm()
        obs.enable()
        u = np.arange(8, dtype=float)
        with dispatch_engine(backend, 2) as ex:
            r = ex.dispatch(_DoubleState(), "apply", [(0, 4), (4, 8)], u, 8)
        assert np.array_equal(r, 2.0 * u)
        sec = tl.validate_timeline(t.export())
        tasks = [s for s in sec["spans"] if s["cat"] == "task"]
        assert sorted(s["rank"] for s in tasks) == [0, 1]
        assert all(s["name"] == "ParExecTask:apply" for s in tasks)
        assert all(s["dispatch"] == 0 for s in tasks)
        an = sec["analysis"]
        assert an["dispatches"]["count"] == 1
        assert an["dispatches"]["max_imbalance"] >= 1.0
        assert {w["rank"] for w in an["workers"]} >= {0, 1}
        # the same two tasks, once, in the event table
        assert obs.REGISTRY.events[("", "ParExecTask:apply")].count == 2
        doc = tl.validate_chrome_trace(tl.chrome_trace(sec))
        pids = {e["pid"] for e in doc["traceEvents"] if e.get("cat") == "task"}
        assert pids == {1, 2}  # distinct worker ranks -> distinct tracks

    def test_env_workers_two(self, backend, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "2")
        t = tl.arm()
        obs.enable()
        with dispatch_engine(backend) as ex:
            assert ex.workers == 2
            ex.dispatch(_DoubleState(), "apply", [(0, 4), (4, 8)],
                        np.arange(8, dtype=float), 8)
        ranks = {s["rank"] for s in t.spans() if s["cat"] == "task"}
        assert ranks == {0, 1}

    def test_disarmed_dispatch_unchanged(self, backend):
        obs.enable()
        u = np.arange(8, dtype=float)
        with dispatch_engine(backend, 2) as ex:
            r = ex.dispatch(_DoubleState(), "apply", [(0, 4), (4, 8)], u, 8)
        assert np.array_equal(r, 2.0 * u)
        assert tl.armed() is None


# --------------------------------------------------------------------- #
# simulation-level: bit-identical results + merged timeline, 2 workers
# --------------------------------------------------------------------- #
def _run_sinker(backend=None, arm_timeline=False):
    """Two sinker steps, serial (``backend=None``) or on a 2-task engine;
    the assembled fine level dispatches with or without a C toolchain."""
    from contextlib import ExitStack

    from repro.sim.sinker import SinkerConfig, make_sinker

    obs.reset()
    obs.enable()
    if arm_timeline:
        tl.arm()
    with ExitStack() as stack:
        if backend is not None:
            stack.enter_context(dispatch_engine(backend, 2))
        sim = make_sinker(
            SinkerConfig(shape=(4, 4, 4)),
            SimulationConfig(
                stokes=StokesConfig(operator="asmb", mg_levels=2,
                                    coarse_solver="lu", workers=1),
            ),
        )
        sim.run(2)
    doc = obs.validate(obs.snapshot())
    u, p = sim.u.copy(), sim.p.copy()
    tl.disarm()
    obs.disable()
    return u, p, doc


@pytest.mark.parametrize("backend", ["thread", "process"])
def test_sinker_two_workers_bit_identical_with_timeline(backend):
    # owner-writes: any worker count reproduces the serial run bitwise
    u1, p1, _ = _run_sinker()
    u2, p2, doc = _run_sinker(backend=backend, arm_timeline=True)
    assert np.array_equal(u1, u2)
    assert np.array_equal(p1, p2)
    sec = doc["timeline"]
    tl.validate_timeline(sec)
    task_ranks = {s["rank"] for s in sec["spans"] if s["cat"] == "task"}
    assert task_ranks == {0, 1}, "spans must carry distinct worker ranks"
    an = sec["analysis"]
    assert an["dispatches"]["count"] > 0
    assert an["dispatches"]["max_imbalance"] >= 1.0
    assert {w["rank"] for w in an["workers"]} >= {0, 1}
    assert an["critical_path"]["parallel_seconds"] > 0
    assert an["steps"], "TimeStep stage spans must be analyzed per step"
    doc2 = tl.validate_chrome_trace(tl.chrome_trace(sec))
    pids = {e["pid"] for e in doc2["traceEvents"] if e.get("cat") == "task"}
    assert pids == {1, 2}


def test_dispatch_ids_are_unique_across_engines():
    # two engines dispatching in one armed run: every dispatch gets its
    # own id, so analyze() sees each one and its imbalance
    from repro.parallel import ParallelExecutor

    t = tl.arm()
    obs.enable()
    u = np.arange(8, dtype=float)
    engines = [ParallelExecutor(2), ParallelExecutor(2)]
    try:
        for _ in range(3):
            for ex in engines:
                ex.dispatch(_DoubleState(), "apply", [(0, 4), (4, 8)], u, 8)
    finally:
        for ex in engines:
            ex.shutdown()
    total = sum(ex.stats.dispatches for ex in engines)
    disp = tl.analyze(t.spans())["dispatches"]
    assert disp["count"] == total == 6
    # by hand, without dispatch ids: the k-th task span on each rank's
    # ring belongs to the k-th dispatch
    tasks = [[sp for sp in t.buffers[rank] if sp[1] == "task"]
             for rank in (0, 1)]
    imbs = []
    for a, b in zip(*tasks):
        durs = [a[4] - a[3], b[4] - b[3]]
        imbs.append(max(durs) / (sum(durs) / 2))
    assert len(imbs) == total
    assert disp["max_imbalance"] == pytest.approx(max(imbs), rel=1e-12)


def test_log_view_export_and_cli_agree(tmp_path):
    # one reduction: the -log_view tail prints the written export's
    # dispatch count, imbalance and per-rank busy time
    from repro.sim.sinker import SinkerConfig, make_sinker

    obs.enable()
    tl.arm()
    with dispatch_engine("thread", 2) as ex:
        sim = make_sinker(
            SinkerConfig(shape=(4, 4, 4)),
            SimulationConfig(stokes=StokesConfig(
                operator="asmb", mg_levels=2, coarse_solver="lu")),
        )
        sim.run(2)
    report = obs.log_view(stream=False)
    path = tmp_path / "run.json"
    obs.write_json(path)
    with open(path) as fh:
        an = json.load(fh)["timeline"]["analysis"]
    assert an["dispatches"]["count"] == ex.stats.dispatches > 0
    disp = an["dispatches"]
    expected = [f"{disp['count']} dispatches: imbalance max "
                f"{disp['max_imbalance']:.2f}"]
    for wk in an["workers"]:
        label = "main" if wk["rank"] < 0 else f"worker {wk['rank']}"
        expected.append(f"  {label:<9} {wk['spans']:>6} spans, "
                        f"busy {wk['busy_seconds']:.4f} s")
    assert {w["rank"] for w in an["workers"]} >= {-1, 0, 1}
    for line in expected:
        assert line in report, line


# --------------------------------------------------------------------- #
# report tail
# --------------------------------------------------------------------- #
class TestSurfacing:
    def _two_task_dispatch(self, t, durs):
        d = None
        for rank, dur in enumerate(durs):
            d = obs.record_span("ParExecTask:apply", t.origin,
                                t.origin + dur, cat="task", rank=rank,
                                dispatch=d)

    def test_report_tail_lists_workers(self):
        t = tl.arm()
        obs.enable()
        with obs.timed("E"):
            pass
        self._two_task_dispatch(t, [0.4, 0.2])
        text = obs.log_view(stream=False)
        assert "timeline: 3 spans buffered" in text
        assert "1 dispatches: imbalance max 1.33" in text
        assert "top straggler rank 0" in text
        assert re.search(r"worker 0 +1 spans, busy 0\.4000 s", text)
        assert re.search(r"worker 1 +1 spans, busy 0\.2000 s", text)
        # the task event itself sits in the table above the tail
        assert obs.REGISTRY.events[("", "ParExecTask:apply")].count == 2

    def test_report_has_no_tail_when_disarmed(self):
        obs.enable()
        with obs.timed("E"):
            pass
        assert "timeline:" not in obs.log_view(stream=False)
