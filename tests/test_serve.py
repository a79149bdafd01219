"""Ensemble service: job model, scheduler policy, and recovery contracts.

The adversarial tests at the bottom drive real subprocess batteries with
injected hangs, crashes, and corrupted checkpoints, and assert the two
contracts everything else rests on:

* accounting -- every submitted job reaches a terminal state, none lost,
  none double-counted;
* determinism -- a killed-and-resumed (or corrupted-and-restarted) job
  finishes with a state digest bit-identical to an uninterrupted run, so
  cache hits can stand in for recomputation.
"""

import glob
import json
import os
import re
import selectors
import signal
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from repro import obs
from repro.obs import flight, metrics
from repro.resilience.reasons import BreakdownError, ConvergedReason
from repro.serve import (
    REASON_HANG,
    REASON_QUARANTINED,
    JobRecord,
    JobSpec,
    JobState,
    ResultStore,
    Scheduler,
    ServeConfig,
    backoff_delay,
    run_battery,
    state_digest,
)
from repro.serve import scheduler as scheduler_mod
from repro.serve import zygote as zygote_mod
from repro.serve.jobs import PHASES, TERMINAL_STATES
from repro.sim import checkpoint, timeloop


@pytest.fixture(autouse=True)
def clean_obs():
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()
    flight.disarm()


# tiny sinker every battery test shares: ~0.4 s/step, 2 mg levels
SC = {"shape": [4, 4, 4], "n_spheres": 1}
SIM = {"picard_only": True, "stokes": {"mg_levels": 2, "rtol": 1e-4}}


def serve_policy(monkeypatch, **constants):
    """Set the scheduler's policy constants (``BACKOFF_BASE``, ...) for
    one test."""
    for name, value in constants.items():
        monkeypatch.setattr(scheduler_mod, name, value)


def sinker_spec(name, seed, nsteps=3, faults=None, **kw):
    return JobSpec(name=name, scenario="sinker", scenario_config=SC,
                   sim_config=SIM, nsteps=nsteps, seed=seed,
                   faults=faults or {}, **kw)


# --------------------------------------------------------------------- #
# job model
# --------------------------------------------------------------------- #
class TestJobIdentity:
    def test_identity_is_physics_only(self):
        base = sinker_spec("a", seed=1)
        hinted = sinker_spec(
            "b", seed=1, priority=5, group="g", workers=8, use_cache=False,
            faults={"hang": {"after_step": 1}},
        )
        assert base.config_hash() == hinted.config_hash()

    @pytest.mark.parametrize("change", [
        {"seed": 2}, {"nsteps": 4}, {"dt": 0.5},
        {"scenario": "rifting"},
        {"scenario_config": {"shape": [4, 4, 5]}},
        {"sim_config": {"picard_only": False}},
    ])
    def test_physics_changes_change_the_hash(self, change):
        base = sinker_spec("a", seed=1)
        kw = dict(name="a", scenario="sinker", scenario_config=SC,
                  sim_config=SIM, nsteps=3, seed=1)
        kw.update(change)
        assert JobSpec(**kw).config_hash() != base.config_hash()

    def test_name_does_not_change_the_hash(self):
        assert (sinker_spec("x", seed=1).config_hash()
                == sinker_spec("y", seed=1).config_hash())

    def test_wire_round_trip(self):
        spec = sinker_spec("a", seed=3, faults={"crash_after_steps": 2},
                           priority=2, group="g")
        back = JobSpec.from_wire(json.loads(json.dumps(spec.to_wire())))
        assert back == spec

    def test_wire_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown"):
            JobSpec.from_wire({"name": "a", "bogus": 1})

    def test_inline_callable_cannot_serialize(self):
        with pytest.raises(ValueError, match="inline"):
            JobSpec(name="a", fn=lambda: 1).to_wire()

    def test_inline_callable_cache_policy(self):
        assert not JobSpec(name="a", fn=lambda: 1).cache_allowed
        assert JobSpec(name="a", fn=lambda: 1, cache_key="k").cache_allowed


class TestStateMachine:
    def test_happy_path(self):
        rec = JobRecord(spec=sinker_spec("a", seed=1))
        for state in (JobState.RUNNING, JobState.RETRYING,
                      JobState.RUNNING, JobState.DONE):
            rec.transition(state)
        assert rec.terminal

    @pytest.mark.parametrize("path,bad", [
        ((), JobState.RETRYING),                      # QUEUED -/-> RETRYING
        ((JobState.RUNNING, JobState.DONE), JobState.RUNNING),
        ((JobState.RUNNING, JobState.FAILED), JobState.RETRYING),
        ((JobState.RUNNING,), JobState.QUEUED),
    ])
    def test_illegal_transitions_raise(self, path, bad):
        rec = JobRecord(spec=sinker_spec("a", seed=1))
        for state in path:
            rec.transition(state)
        with pytest.raises(ValueError, match="illegal transition"):
            rec.transition(bad)

    def test_terminal_states_are_sinks(self):
        for terminal in TERMINAL_STATES:
            for target in JobState:
                rec = JobRecord(spec=sinker_spec("a", seed=1))
                rec.state = terminal
                with pytest.raises(ValueError):
                    rec.transition(target)


class TestBackoff:
    def test_deterministic(self):
        assert backoff_delay("h", 2) == backoff_delay("h", 2)

    def test_grows_then_caps(self):
        base = [backoff_delay("h", a, base=0.1, factor=2.0, cap=0.8)
                for a in range(1, 8)]
        # jitter is at most +100%, so the capped tail stays within 2x cap
        assert all(d <= 1.6 for d in base)
        # un-jittered growth: strip jitter by dividing pairs of attempts
        assert backoff_delay("h", 1) < 2 * backoff_delay("h", 4)

    def test_jitter_decorrelates_hashes(self):
        ds = {backoff_delay(f"h{i}", 1) for i in range(16)}
        assert len(ds) > 1


# --------------------------------------------------------------------- #
# results store
# --------------------------------------------------------------------- #
class TestResultStore:
    def test_round_trip(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put("abc", {"digest": "d", "steps": 3})
        doc = store.get("abc")
        assert doc["digest"] == "d" and doc["schema"]

    def test_corrupt_result_is_a_miss_and_removed(self, tmp_path):
        store = ResultStore(tmp_path)
        path = store.result_path("abc")
        with open(path, "w") as fh:
            fh.write('{"truncated": ')
        assert store.get("abc") is None
        assert not os.path.exists(path)

    def test_wrong_schema_is_a_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        with open(store.result_path("abc"), "w") as fh:
            json.dump({"schema": "something/else"}, fh)
        assert store.get("abc") is None

    def test_lookups_write_nothing(self, tmp_path):
        store = ResultStore(tmp_path)
        assert store.get("abc") is None
        assert not store.has_checkpoint("abc")
        store.clear_checkpoint("abc")
        assert os.listdir(tmp_path) == []     # a miss leaves no <hash>/ dir

    def test_checkpoint_lifecycle(self, tmp_path):
        store = ResultStore(tmp_path)
        assert not store.has_checkpoint("abc")
        with open(store.checkpoint_path("abc"), "wb") as fh:
            fh.write(b"x")
        assert store.has_checkpoint("abc")
        store.clear_checkpoint("abc")
        assert not store.has_checkpoint("abc")


# --------------------------------------------------------------------- #
# scheduler policy (no subprocesses)
# --------------------------------------------------------------------- #
class TestInlinePolicy:
    def test_runs_in_submit_order_and_collects_values(self):
        order = []

        def mk(i):
            def fn():
                order.append(i)
                return i * i
            return fn

        report = run_battery(
            [JobSpec(name=f"j{i}", fn=mk(i), use_cache=False,
                     priority=10 - i) for i in range(4)],
            ServeConfig(isolation="inline"),
        )
        assert order == [0, 1, 2, 3]   # submit order, priority ignored
        assert report.values() == {f"j{i}": i * i for i in range(4)}
        assert report.all_done and report.all_terminal

    def test_retry_budget_exhaustion_keeps_breakdown_reason(
            self, monkeypatch):
        serve_policy(monkeypatch, QUARANTINE_AFTER=5, BACKOFF_BASE=0.0,
                     BACKOFF_MAX=0.0)
        calls = []

        def fail():
            calls.append(1)
            raise BreakdownError("diverged",
                                 reason=ConvergedReason.DIVERGED_NAN)

        report = run_battery(
            [JobSpec(name="bad", fn=fail, use_cache=False)],
            ServeConfig(isolation="inline", max_retries=1),
        )
        rec = report.record("bad")
        assert rec.state is JobState.FAILED
        assert rec.reason == "DIVERGED_NAN"
        assert len(calls) == 2            # initial attempt + one retry
        assert isinstance(rec.exception, BreakdownError)
        assert report.all_terminal and not report.all_done

    def test_circuit_breaker_quarantines_config_and_twins(self, monkeypatch):
        serve_policy(monkeypatch, QUARANTINE_AFTER=2, BACKOFF_BASE=0.0,
                     BACKOFF_MAX=0.0)

        def fail():
            raise RuntimeError("boom")

        specs = [JobSpec(name="bad1", fn=fail, cache_key="same"),
                 JobSpec(name="bad2", fn=fail, cache_key="same"),
                 JobSpec(name="ok", fn=lambda: 42, use_cache=False)]
        report = run_battery(
            specs,
            ServeConfig(isolation="inline", max_retries=5),
        )
        bad1, bad2 = report.record("bad1"), report.record("bad2")
        # breaker opened after 2 consecutive failures of the same config:
        # bad1 quarantined mid-retry, its twin quarantined without running
        assert bad1.state is JobState.QUARANTINED
        assert bad1.reason == REASON_QUARANTINED
        assert bad2.state is JobState.QUARANTINED
        assert len(bad2.attempts) == 0
        assert report.record("ok").value == 42
        assert report.all_terminal

    def test_failure_counts_are_per_config_not_global(self, monkeypatch):
        serve_policy(monkeypatch, QUARANTINE_AFTER=2)
        seen = []

        def fail(tag):
            def fn():
                seen.append(tag)
                raise RuntimeError(tag)
            return fn

        report = run_battery(
            [JobSpec(name="a", fn=fail("a"), cache_key="ka"),
             JobSpec(name="b", fn=fail("b"), cache_key="kb")],
            ServeConfig(isolation="inline", max_retries=0),
        )
        # one failure each: neither config reaches the breaker threshold
        assert report.record("a").state is JobState.FAILED
        assert report.record("b").state is JobState.FAILED

    def test_inline_cache_hit_for_keyed_callables(self, tmp_path):
        calls = []

        def fn():
            calls.append(1)
            return {"x": 7}

        cfg = ServeConfig(isolation="inline", store_dir=str(tmp_path))
        run_battery([JobSpec(name="one", fn=fn, cache_key="k")], cfg)
        rep2 = run_battery([JobSpec(name="two", fn=fn, cache_key="k")], cfg)
        assert len(calls) == 1
        assert rep2.record("two").cache_hit

    def test_inline_faulted_scenario_is_rejected(self):
        with pytest.raises(ValueError, match="isolation"):
            run_battery([sinker_spec("a", seed=1,
                                     faults={"crash_after_steps": 1})],
                        ServeConfig(isolation="inline"))


class TestWorkerGrants:
    def test_shrinks_under_pressure_floor_one(self):
        sched = Scheduler(ServeConfig(total_workers=4))
        a = sched.submit(sinker_spec("a", seed=1, workers=3))
        a.transition(JobState.RUNNING)
        a.granted_workers = 3
        b = sched.submit(sinker_spec("b", seed=2, workers=4))
        assert sched._grant_workers(b) == 1      # 4 - 3 = 1 free
        c = sched.submit(sinker_spec("c", seed=3, workers=4))
        b.transition(JobState.RUNNING)
        b.granted_workers = 1
        assert sched._grant_workers(c) == 1      # floor: never reject

    def test_grant_respects_request_when_free(self):
        sched = Scheduler(ServeConfig(total_workers=8))
        rec = sched.submit(sinker_spec("a", seed=1, workers=3))
        assert sched._grant_workers(rec) == 3

    def test_default_request_reads_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "5")
        sched = Scheduler(ServeConfig(total_workers=16))
        rec = sched.submit(sinker_spec("a", seed=1))
        assert sched._grant_workers(rec) == 5


class TestJobFile:
    """The job file's ``serve`` section is a job's one source of runtime
    options, its grant of workers and ranks included."""

    @staticmethod
    def write_job(tmp_path, spec, **serve):
        opts = {"store_dir": str(tmp_path), "checkpoint_every": 0,
                "workers": 1, "ranks": 1, **serve}
        path = tmp_path / "job.json"
        path.write_text(json.dumps({"spec": spec.to_wire(), "serve": opts}))
        return str(path)

    @pytest.mark.parametrize("request_kw, grant", [
        ({"workers": 2}, {"workers": 2, "ranks": 1}),
        ({"workers": 1, "ranks": 3}, {"workers": 3, "ranks": 3}),
    ])
    def test_scheduler_writes_the_grant(self, tmp_path, monkeypatch,
                                        request_kw, grant):
        def no_zygote(python):
            raise OSError("no zygote in this test")

        monkeypatch.setattr(zygote_mod, "start", no_zygote)
        sched = Scheduler(battery_config(tmp_path, total_workers=4))
        rec = sched.submit(sinker_spec("g", seed=1, **request_kw))
        sched._launch(rec)
        job = os.path.join(sched.store.job_dir(rec.config_hash), "job.json")
        with open(job) as fh:
            serve = json.load(fh)["serve"]
        assert serve == {"store_dir": sched.store.root,
                         "checkpoint_every": 1, **grant}

    def test_zygote_request_is_the_job_file_alone(self, tmp_path):
        import socket

        ours, theirs = socket.socketpair(socket.AF_UNIX,
                                         socket.SOCK_SEQPACKET)
        with ours, theirs:
            pipe_r = zygote_mod.submit(ours, "job.json",
                                       str(tmp_path / "attempt.log"))
            message, fds, _, _ = socket.recv_fds(theirs, 1 << 16, 2)
            for fd in (pipe_r, *fds):
                os.close(fd)
        assert json.loads(message) == {"job": "job.json"}

    def test_grant_beats_the_jobs_own_workers(self, tmp_path, capsys,
                                              monkeypatch):
        from repro.parallel import executor
        from repro.serve import worker

        monkeypatch.setattr(executor, "_POOLS", {})
        spec = JobSpec(name="own", scenario="sinker", scenario_config=SC,
                       sim_config={**SIM, "stokes": {**SIM["stokes"],
                                                     "workers": 2}},
                       nsteps=1, seed=61)
        assert worker.run_job(self.write_job(tmp_path, spec)) == 0
        # granted one worker, the job runs serial: its StokesConfig asked
        # for 2, but no pool of that width was ever built
        assert executor._POOLS == {}
        events = [json.loads(line)
                  for line in capsys.readouterr().out.splitlines()]
        started = next(e for e in events if e["event"] == "started")
        assert started["workers"] == 1
        # exports and flight dumps record the grant the job ran under
        manifest = metrics.build_manifest()
        assert (manifest["workers"], manifest["ranks"]) == (1, 1)

    @pytest.mark.parametrize("edit, word", [
        (lambda serve: serve.update(resume=True), "unknown ['resume']"),
        (lambda serve: serve.pop("ranks"), "missing ['ranks']"),
    ])
    def test_serve_section_is_exactly_what_the_scheduler_writes(
            self, tmp_path, edit, word):
        from repro.serve import worker

        path = self.write_job(tmp_path, sinker_spec("x", seed=1, nsteps=1))
        with open(path) as fh:
            doc = json.load(fh)
        edit(doc["serve"])
        with open(path, "w") as fh:
            json.dump(doc, fh)
        with pytest.raises(ValueError, match=re.escape(word)):
            worker.run_job(path)


class TestEligibility:
    def test_priority_then_fair_share_then_submit_order(self):
        sched = Scheduler(ServeConfig())
        lo = sched.submit(sinker_spec("lo", seed=1, priority=0, group="g1"))
        hi = sched.submit(sinker_spec("hi", seed=2, priority=9, group="g1"))
        other = sched.submit(sinker_spec("other", seed=3, priority=0,
                                         group="g2"))
        # one g1 job already running: fair share prefers g2 among equals
        runner = sched.submit(sinker_spec("runner", seed=4, group="g1"))
        runner.transition(JobState.RUNNING)
        names = [r.spec.name for r in sched._eligible()]
        assert names == ["hi", "other", "lo"]

    def test_backoff_delays_eligibility(self):
        sched = Scheduler(ServeConfig())
        rec = sched.submit(sinker_spec("a", seed=1))
        rec.transition(JobState.RUNNING)
        rec.attempt_index = 1
        rec.transition(JobState.RETRYING)
        rec.not_before = time.monotonic() + 60.0
        assert sched._eligible() == []
        rec.not_before = time.monotonic() - 1.0
        assert [r.spec.name for r in sched._eligible()] == ["a"]

    def test_twin_waits_for_leader(self):
        sched = Scheduler(ServeConfig())
        leader = sched.submit(sinker_spec("leader", seed=1))
        twin = sched.submit(sinker_spec("twin", seed=1))
        assert [r.spec.name for r in sched._eligible()] == ["leader"]
        leader.transition(JobState.RUNNING)
        assert sched._eligible() == []
        # leader settles: the twin becomes the config's new leader
        leader.transition(JobState.DONE)
        assert [r.spec.name for r in sched._eligible()] == ["twin"]


# --------------------------------------------------------------------- #
# timeloop heartbeats and checkpoint round-trip (serve's substrate)
# --------------------------------------------------------------------- #
class TestHeartbeatsAndCheckpoint:
    def test_step_listener_fires_per_committed_step(self):
        from repro.serve.worker import build_simulation

        obs.enable()
        beats = []
        listener = timeloop.add_step_listener(beats.append)
        try:
            sim = build_simulation(sinker_spec("a", seed=1, nsteps=2))
            sim.step()
            sim.step()
        finally:
            timeloop.remove_step_listener(listener)
        assert [b["step"] for b in beats] == [1, 2]
        assert all(b["seconds"] > 0 and b["dt"] > 0 for b in beats)

    def test_step_listener_fires_with_obs_disabled(self):
        # the heartbeat does not depend on the profiler
        from repro.serve.worker import build_simulation

        assert not obs.enabled()
        beats = []
        listener = timeloop.add_step_listener(beats.append)
        try:
            sim = build_simulation(sinker_spec("a", seed=1, nsteps=2))
            sim.run(2)
        finally:
            timeloop.remove_step_listener(listener)
        assert [b["step"] for b in beats] == [1, 2]
        assert not obs.registry.REGISTRY.events

    def test_remove_listener_is_idempotent(self):
        fn = lambda beat: None   # noqa: E731
        timeloop.remove_step_listener(fn)   # absent: no-op
        timeloop.add_step_listener(fn)
        timeloop.remove_step_listener(fn)
        timeloop.remove_step_listener(fn)

    def test_checkpoint_round_trips_rollback_engine_state(self, tmp_path):
        from repro.serve.worker import build_simulation

        sim = build_simulation(sinker_spec("a", seed=1))
        sim.step()
        sim._dt_scale = 0.25
        sim._clean_steps = 2
        path = str(tmp_path / "cp.npz")
        checkpoint.save_checkpoint(path, sim)
        other = build_simulation(sinker_spec("a", seed=1))
        checkpoint.load_checkpoint(path, other)
        assert other._dt_scale == 0.25
        assert other._clean_steps == 2
        assert state_digest(other) == state_digest(sim)


# --------------------------------------------------------------------- #
# flight-recorder dump naming (shared-directory collisions)
# --------------------------------------------------------------------- #
class TestFlightDumpNames:
    def _arm(self, tmp_path):
        obs.enable()
        return flight.arm(directory=tmp_path)

    def test_legacy_name_without_config_hash(self, tmp_path):
        rec = self._arm(tmp_path)
        obs.trace_step({}, step=1, time=0.1)
        path = rec.dump("manual")
        assert os.path.basename(path) == "FLIGHT_manual_001.json"

    def test_config_hash_prefixes_the_dump_name(self, tmp_path):
        rec = self._arm(tmp_path)
        metrics.set_manifest(config_hash="deadbeefcafe0123")
        obs.trace_step({}, step=1, time=0.1)
        path = rec.dump("rollback")
        assert os.path.basename(path) == \
            "FLIGHT_deadbeefcafe_rollback_001.json"

    def test_two_jobs_sharing_a_directory_do_not_collide(self, tmp_path):
        # job 1 dumps, then a different run identity dumps into the same
        # directory: distinct filenames, nothing overwritten
        rec1 = self._arm(tmp_path)
        metrics.set_manifest(config_hash="aaaaaaaaaaaaaaaa")
        p1 = rec1.dump("rollback")
        obs.reset()
        obs.enable()
        rec2 = flight.arm(directory=tmp_path)
        metrics.set_manifest(config_hash="bbbbbbbbbbbbbbbb")
        p2 = rec2.dump("rollback")
        assert p1 != p2 and os.path.exists(p1) and os.path.exists(p2)

    def test_existing_dump_is_never_clobbered(self, tmp_path):
        rec = self._arm(tmp_path)
        taken = tmp_path / "FLIGHT_manual_001.json"
        taken.write_text("precious")
        path = rec.dump("manual")
        assert os.path.basename(path) == "FLIGHT_manual_002.json"
        assert taken.read_text() == "precious"


# --------------------------------------------------------------------- #
# adversarial subprocess batteries (the acceptance scenario)
# --------------------------------------------------------------------- #
def battery_config(store, **kw):
    base = dict(max_jobs=2, step_timeout=5.0, startup_timeout=60.0,
                checkpoint_every=1, total_workers=2, store_dir=str(store))
    base.update(kw)
    return ServeConfig(**base)


@pytest.fixture(scope="module")
def fault_battery(tmp_path_factory):
    """One shared battery: clean + hang + crash + corrupt + twin."""
    store = tmp_path_factory.mktemp("serve-store")
    specs = [
        sinker_spec("clean", seed=11),
        sinker_spec("hangs", seed=12,
                    faults={"hang": {"after_step": 2, "seconds": 600}}),
        sinker_spec("crashes", seed=13, faults={"crash_after_steps": 2}),
        sinker_spec("twin-of-hangs", seed=12),
        sinker_spec("corrupt", seed=14,
                    faults={"crash_after_steps": {"steps": 2},
                            "corrupt_checkpoint": {}}),
    ]
    report = run_battery(specs, battery_config(store))
    return report, store


class TestFaultBattery:
    def test_accounting_every_job_terminal_none_lost(self, fault_battery):
        report, _ = fault_battery
        assert report.all_terminal
        assert len(report.records) == 5
        assert report.counts["done"] == 5

    def test_watchdog_kills_and_requeues_the_hang(self, fault_battery):
        report, _ = fault_battery
        rec = report.record("hangs")
        outcomes = [a["outcome"] for a in rec.attempts]
        assert outcomes == ["hang", "done"]
        assert rec.attempts[0]["reason"] == REASON_HANG
        # the hang fired after step 2's heartbeat: the watchdog saw a
        # live worker first, then silence
        assert rec.attempts[0]["beats"] >= 1
        assert rec.state is JobState.DONE and rec.reason is None

    def test_killed_job_resumed_from_checkpoint(self, fault_battery):
        report, _ = fault_battery
        assert report.record("hangs").resumed_from >= 1
        assert report.record("crashes").resumed_from >= 1

    def test_crash_is_classified_as_crash(self, fault_battery):
        report, _ = fault_battery
        rec = report.record("crashes")
        assert [a["outcome"] for a in rec.attempts] == ["crash", "done"]

    def test_resumed_runs_are_bit_identical(self, fault_battery, tmp_path):
        report, _ = fault_battery
        # independent uninterrupted runs of the same physics, fresh store
        clean = run_battery(
            [sinker_spec("ref12", seed=12), sinker_spec("ref13", seed=13),
             sinker_spec("ref14", seed=14)],
            battery_config(tmp_path / "ref-store"),
        )
        assert (report.record("hangs").result["digest"]
                == clean.record("ref12").result["digest"])
        assert (report.record("crashes").result["digest"]
                == clean.record("ref13").result["digest"])
        assert (report.record("corrupt").result["digest"]
                == clean.record("ref14").result["digest"])

    def test_corrupt_checkpoint_forces_validated_fresh_start(
            self, fault_battery):
        report, _ = fault_battery
        rec = report.record("corrupt")
        # resume found the truncated archive, rejected it, started fresh
        assert rec.checkpoint_corrupt
        assert rec.resumed_from == 0
        assert rec.state is JobState.DONE

    def test_twin_waits_then_hits_cache_bit_exact(self, fault_battery):
        report, _ = fault_battery
        twin = report.record("twin-of-hangs")
        assert twin.cache_hit and twin.state is JobState.DONE
        assert len(twin.attempts) == 0    # never ran
        assert (twin.result["digest"]
                == report.record("hangs").result["digest"])

    def test_second_battery_is_served_from_cache(self, fault_battery):
        report, store = fault_battery
        t0 = time.monotonic()
        again = run_battery([sinker_spec("clean-again", seed=11)],
                            battery_config(store))
        rec = again.record("clean-again")
        assert rec.cache_hit
        assert rec.result["digest"] == report.record("clean").result["digest"]
        assert time.monotonic() - t0 < 1.0   # no subprocess, no solve

    def test_done_jobs_dropped_their_checkpoints(self, fault_battery):
        report, store = fault_battery
        store = ResultStore(str(store))
        for rec in report.records:
            assert not store.has_checkpoint(rec.config_hash)


# --------------------------------------------------------------------- #
# the event loop and the zygote: new failure modes, timing by contract
# --------------------------------------------------------------------- #
def _stat_fields(pid):
    """Fields of /proc/<pid>/stat after the command name (state, ppid,
    ...), or None once the process is gone."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()
    except OSError:
        return None


def _process_state(pid):
    """One-letter state (``Z`` = dead, unreaped), None if gone."""
    fields = _stat_fields(pid)
    return fields and fields[0]


def _children():
    """Pids whose parent is this process."""
    pids = (int(name) for name in os.listdir("/proc") if name.isdigit())
    return {pid for pid in pids
            if (_stat_fields(pid) or [None, -1])[1] == str(os.getpid())}


class RecordingSelector(selectors.DefaultSelector):
    """Every ``select``: (timeout asked, seconds blocked, events returned)."""

    calls: list = []

    def select(self, timeout=None):
        t0 = time.monotonic()
        events = super().select(timeout)
        self.calls.append((timeout, time.monotonic() - t0, len(events)))
        return events


@pytest.fixture
def recorded_selects(monkeypatch):
    monkeypatch.setattr(RecordingSelector, "calls", [])
    monkeypatch.setattr(scheduler_mod.selectors, "DefaultSelector",
                        RecordingSelector)
    return RecordingSelector.calls


class TestEventLoopAndZygote:
    def test_zygote_killed_mid_battery_restarts_once(
            self, fault_battery, tmp_path, monkeypatch):
        reference, _ = fault_battery
        store = tmp_path / "store"
        started, killed = [], []
        real_start = zygote_mod.start

        def counting_start(python):
            started.append(real_start(python))
            return started[-1]

        class KillingSelector(selectors.DefaultSelector):
            # SIGKILL the zygote, once, from inside the loop, as soon as
            # a job is provably mid-run (its first checkpoint is on disk)
            def select(self, timeout=None):
                events = super().select(timeout)
                if not killed and glob.glob(str(store / "*/checkpoint.npz")):
                    killed.append(started[0][0].pid)
                    os.kill(killed[0], signal.SIGKILL)
                return events

        monkeypatch.setattr(zygote_mod, "start", counting_start)
        monkeypatch.setattr(scheduler_mod.selectors, "DefaultSelector",
                            KillingSelector)
        serve_policy(monkeypatch, BACKOFF_BASE=0.01, BACKOFF_MAX=0.05)
        report = run_battery(
            [sinker_spec("a", seed=11), sinker_spec("b", seed=12),
             sinker_spec("c", seed=13), sinker_spec("b-twin", seed=12)],
            battery_config(store))
        assert killed and len(started) == 2          # restarted exactly once
        assert report.counts["done"] == 4
        outcomes = [a["outcome"] for rec in report.records
                    for a in rec.attempts]
        # whatever was in flight died with the zygote and reads as a crash
        assert 1 <= outcomes.count("crash") <= 2
        assert set(outcomes) == {"crash", "done"}
        for name, ref in (("a", "clean"), ("b", "hangs"), ("c", "crashes"),
                          ("b-twin", "hangs")):
            assert (report.record(name).result["digest"]
                    == reference.record(ref).result["digest"])
        pids = [proc.pid for proc, _ in started] + [
            a["pid"] for rec in report.records for a in rec.attempts]
        assert all(_process_state(pid) in (None, "Z") for pid in pids)

    def test_unstartable_python_fails_through_the_retry_budget(
            self, tmp_path, recorded_selects, monkeypatch):
        serve_policy(monkeypatch, QUARANTINE_AFTER=9, BACKOFF_BASE=0.3)
        t0 = time.monotonic()
        report = run_battery(
            [sinker_spec("a", seed=1)],
            battery_config(tmp_path, python="/nonexistent", max_retries=1))
        rec = report.record("a")
        assert rec.state is JobState.FAILED
        assert rec.reason == "JOB_SPAWN_FAILED"
        assert [a["outcome"] for a in rec.attempts] == ["spawn_failed"] * 2
        # nothing was running, so the loop slept once, until ``not_before``
        # (backoff 0.3 s x jitter in [1, 2)), not in poll-sized slices
        assert 1 <= len(recorded_selects) <= 3
        assert 0.25 < max(timeout for timeout, _, _ in recorded_selects) < 0.61
        assert time.monotonic() - t0 < 5.0

    def test_watchdog_fires_at_the_deadline(self, tmp_path, recorded_selects,
                                            monkeypatch):
        serve_policy(monkeypatch, BACKOFF_BASE=0.0)
        report = run_battery(
            [sinker_spec("hangs", seed=12,
                         faults={"hang": {"after_step": 1, "seconds": 600}})],
            battery_config(tmp_path, step_timeout=1.0))
        rec = report.record("hangs")
        assert [a["outcome"] for a in rec.attempts] == ["hang", "done"]
        # exactly one select ran into its timeout: the watchdog's, asked
        # for the whole remaining step_timeout and left within 50 ms of it
        (timeout, blocked, _), = [c for c in recorded_selects if c[2] == 0]
        assert 0.5 < timeout <= 1.0
        assert blocked - timeout < 0.05

    def test_run_leaves_no_thread_and_no_child(self, tmp_path):
        threads, children = threading.active_count(), _children()
        report = run_battery([sinker_spec("a", seed=11, nsteps=1)],
                             battery_config(tmp_path))
        assert report.all_done
        assert threading.active_count() == threads
        assert _children() == children
        assert _process_state(report.record("a").attempts[0]["pid"]) is None

    def test_warm_battery_starts_no_process(self, fault_battery, monkeypatch):
        reference, store = fault_battery

        def refuse(*args, **kwargs):
            raise AssertionError("a warm battery must not start a process")

        monkeypatch.setattr(subprocess, "Popen", refuse)
        monkeypatch.setattr(os, "fork", refuse)
        specs = [sinker_spec(f"again{seed}", seed=seed)
                 for seed in (11, 12, 13, 14, 12, 11)]
        report = run_battery(specs, battery_config(store))
        assert all(rec.cache_hit for rec in report.records)
        assert report.wall_seconds < 0.02
        assert (report.record("again14").result["digest"]
                == reference.record("corrupt").result["digest"])

    def test_ranked_job_and_graceful_flush_under_the_zygote(
            self, fault_battery, tmp_path, monkeypatch):
        reference, _ = fault_battery
        serve_policy(monkeypatch, TERM_GRACE=10.0)
        report = run_battery(
            [sinker_spec("ranked", seed=11, ranks=2),
             sinker_spec("flush", seed=12,
                         faults={"hang": {"after_step": 2, "seconds": 600}})],
            battery_config(tmp_path, step_timeout=5.0, checkpoint_every=0))
        ranked = report.record("ranked")
        assert ranked.state is JobState.DONE
        assert ranked.granted_workers == 2 and ranked.result["ranks"] == 2
        flush = report.record("flush")
        first = flush.attempts[0]
        assert first["outcome"] == "hang" and first["graceful"] is True
        # checkpoint_every=0: the SIGTERM flush is the only checkpoint, so
        # resuming from step 1 proves the grace period still works
        assert first["flushed_step"] == 1 and flush.resumed_from == 1
        assert (flush.result["digest"]
                == reference.record("hangs").result["digest"])

    def test_report_says_where_a_cold_job_went(self, fault_battery):
        report, _ = fault_battery
        done = report.record("clean").attempts[-1]
        assert set(done["phases"]) == set(PHASES)
        assert done["phases"]["steps"] > 0
        assert (done["phases"]["fork_to_started"]
                >= done["phases"]["build"] + done["phases"]["resume_load"])
        assert "phases" not in report.record("clean").result  # not stored
        split = report.phases_p50()
        assert split["runs"] == 4 and list(split)[1:] == list(PHASES)
        assert report.as_dict()["phases_p50"] == split
        assert "p50 seconds per run" in report.summary()
        assert report.record("twin-of-hangs").attempts == []


class TestRetryExhaustionAndQuarantine:
    def test_persistent_solver_breakdown_fails_with_reason(
            self, tmp_path, monkeypatch):
        serve_policy(monkeypatch, QUARANTINE_AFTER=5, BACKOFF_BASE=0.01,
                     BACKOFF_MAX=0.05)
        # poison fires on every attempt (once=False): the retry budget
        # burns down and the job fails with the solver's own reason code
        spec = sinker_spec(
            "poisoned", seed=21, nsteps=2,
            faults={"poison_viscosity": {"mode": "nan", "once": False}},
        )
        report = run_battery(
            [spec],
            battery_config(tmp_path / "store", max_retries=1),
        )
        rec = report.record("poisoned")
        assert rec.state is JobState.FAILED
        assert len(rec.attempts) == 2       # budget: 1 + 1 retry
        assert rec.reason and "JOB" not in rec.reason  # a solver reason
        assert report.all_terminal

    def test_repeat_offender_config_is_quarantined(self, tmp_path,
                                                   monkeypatch):
        serve_policy(monkeypatch, QUARANTINE_AFTER=2, BACKOFF_BASE=0.01,
                     BACKOFF_MAX=0.05)
        spec = sinker_spec(
            "offender", seed=22, nsteps=2,
            faults={"poison_viscosity": {"mode": "nan", "once": False}},
        )
        twin = sinker_spec(
            "offender-twin", seed=22, nsteps=2,
            faults={"poison_viscosity": {"mode": "nan", "once": False}},
        )
        report = run_battery(
            [spec, twin],
            battery_config(tmp_path / "store", max_retries=5),
        )
        rec = report.record("offender")
        assert rec.state is JobState.QUARANTINED
        assert rec.reason == REASON_QUARANTINED
        assert len(rec.attempts) == 2       # breaker opened, budget unspent
        # the queued twin never launched: breaker already open for the hash
        twin_rec = report.record("offender-twin")
        assert twin_rec.state is JobState.QUARANTINED
        assert len(twin_rec.attempts) == 0


class TestAcceptanceBattery:
    def test_twenty_jobs_with_faults_all_terminal(self, tmp_path):
        """The issue's acceptance scenario, shrunk to CI scale."""
        specs = []
        for i in range(16):
            specs.append(sinker_spec(f"job{i:02d}", seed=30 + i % 8,
                                     nsteps=2, group=f"g{i % 3}",
                                     priority=i % 2))
        specs.append(sinker_spec(
            "job-hang", seed=40, nsteps=2,
            faults={"hang": {"after_step": 1, "seconds": 600}}))
        specs.append(sinker_spec(
            "job-crash", seed=41, nsteps=2,
            faults={"crash_after_steps": 1}))
        specs.append(sinker_spec(
            "job-corrupt", seed=42, nsteps=3,
            faults={"crash_after_steps": {"steps": 2},
                    "corrupt_checkpoint": {}}))
        specs.append(sinker_spec("job-twin", seed=40, nsteps=2))
        assert len(specs) == 20

        # a wide step timeout: with 4 concurrent workers on a loaded CI
        # box a healthy step can take seconds, and a watchdog false
        # positive here burns retry budget toward quarantine.  Only the
        # injected 600 s hang should trip it.
        report = run_battery(
            specs, battery_config(tmp_path / "store", max_jobs=4,
                                  step_timeout=10.0))
        # accounting: all 20 terminal, each exactly once, none lost
        assert report.all_terminal
        assert len(report.records) == 20
        names = [r.spec.name for r in report.records]
        assert len(set(names)) == 20
        assert report.counts["done"] == 20

        # identical seeds are computed once and cache-shared
        by_seed = {}
        for rec in report.records:
            by_seed.setdefault(
                (rec.spec.seed, rec.spec.nsteps), set()
            ).add(rec.result["digest"])
        assert all(len(d) == 1 for d in by_seed.values())
        ran = [r for r in report.records if not r.cache_hit]
        hits = [r for r in report.records if r.cache_hit]
        assert len(hits) >= 8      # 16 jobs share 8 seeds + the twin

        # recovery: faulted jobs recovered and match their clean twins
        assert report.record("job-hang").attempts[0]["outcome"] == "hang"
        assert report.record("job-crash").attempts[0]["outcome"] == "crash"
        assert report.record("job-corrupt").checkpoint_corrupt
        twin = report.record("job-twin")
        assert (twin.result["digest"]
                == report.record("job-hang").result["digest"])


# --------------------------------------------------------------------- #
# CLI
# --------------------------------------------------------------------- #
class TestCLI:
    def test_battery_file_end_to_end(self, tmp_path, capsys):
        from repro.serve.__main__ import main

        battery = {
            "serve": {"max_jobs": 2, "checkpoint_every": 1,
                      "store_dir": str(tmp_path / "store"),
                      "step_timeout": 30.0},
            "jobs": [
                {"name": "a", "scenario": "sinker",
                 "scenario_config": SC, "sim_config": SIM,
                 "nsteps": 2, "seed": 51},
                {"name": "a-twin", "scenario": "sinker",
                 "scenario_config": SC, "sim_config": SIM,
                 "nsteps": 2, "seed": 51},
            ],
        }
        path = tmp_path / "battery.json"
        path.write_text(json.dumps(battery))
        out_json = tmp_path / "report.json"
        rc = main([str(path), "--require-done", "--json", str(out_json)])
        assert rc == 0
        doc = json.loads(out_json.read_text())
        assert doc["all_terminal"] and doc["counts"]["done"] == 2
        states = {j["name"]: j for j in doc["jobs"]}
        assert states["a-twin"]["cache_hit"]
        assert "a-twin" in capsys.readouterr().out

    def test_store_flag_overrides_file(self, tmp_path):
        from repro.serve.__main__ import main

        path = tmp_path / "battery.json"
        path.write_text(json.dumps({
            "serve": {"max_jobs": 1, "max_retries": 0,
                      "store_dir": str(tmp_path / "file-store")},
            "jobs": [{"name": "a", "scenario": "sinker",
                      "scenario_config": SC, "sim_config": SIM,
                      "nsteps": 1, "seed": 52}],
        }))
        out_json = tmp_path / "report.json"
        rc = main([str(path), "--store", str(tmp_path / "s"),
                   "--json", str(out_json)])
        assert rc == 0
        job = json.loads(out_json.read_text())["jobs"][0]
        store = ResultStore(str(tmp_path / "s"))
        assert store.get(job["config_hash"]) is not None
        assert not (tmp_path / "file-store").exists()

    def test_flags_shadowing_the_serve_section_are_gone(self, tmp_path):
        from repro.serve.__main__ import main

        path = tmp_path / "battery.json"
        path.write_text(json.dumps({"jobs": []}))
        # the battery file's ``serve`` section sets max_jobs
        with pytest.raises(SystemExit) as exc:
            main([str(path), "--max-jobs", "1"])
        assert exc.value.code == 2

    def test_malformed_battery_is_an_error(self, tmp_path):
        from repro.serve.__main__ import main

        path = tmp_path / "battery.json"
        path.write_text(json.dumps({"not-jobs": []}))
        assert main([str(path)]) == 2
