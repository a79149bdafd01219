#!/usr/bin/env python3
"""Smoke-check the cost of the ``repro.obs`` observability layer.

Solves the small sinker Stokes problem with profiling disabled and
enabled, back to back in pairs whose order alternates (so monotone
machine drift cannot charge one side).  Scheduling noise on shared CI
machines is one-sided -- interference only ever *adds* time -- so the
overhead estimate is the smallest of three robust estimators across
``--rounds`` pairs (ratio of minima, median pair ratio, ratio of sums):
a genuine instrumentation regression inflates all three, while a single
polluted solve inflates at most two.  Fails above ``--max-overhead``.  The disabled path is separately bounded by
``tests/test_obs.py::test_disabled_overhead``; this script guards the
enabled path end to end, where per-event timer costs could silently grow.

``--mode sim`` guards the full telemetry layer instead: the timed work is
a short coupled time-loop run, and the enabled side records the ``step``
trace stream with an armed flight recorder, and derives the per-step
metric series from it -- the "telemetry-enabled overhead on the clean
path" bound.

Run:  python benchmarks/check_obs_overhead.py [--mode solve|sim]
"""

from __future__ import annotations

import argparse
import functools
import sys
import tempfile
import time

from repro import obs
from repro.sim.sinker import SinkerConfig, sinker_stokes_problem
from repro.stokes.solve import StokesConfig, solve_stokes


def solve_once(enabled: bool) -> float:
    obs.reset()
    if enabled:
        obs.enable()
    pb = sinker_stokes_problem(
        SinkerConfig(shape=(4, 4, 4), n_spheres=2, radius=0.15, delta_eta=100.0)
    )
    t0 = time.perf_counter()
    sol = solve_stokes(pb, StokesConfig(mg_levels=2, coarse_solver="lu"))
    elapsed = time.perf_counter() - t0
    obs.disable()
    assert sol.converged, "smoke problem must converge"
    return elapsed


def sim_once(enabled: bool, timeline: bool = False) -> float:
    """Two coupled time steps, with the whole telemetry layer on one side:
    profiling, the step stream, an armed flight recorder and the derived
    metric series -- plus armed timeline span capture when ``timeline``
    is set."""
    from repro import SimulationConfig
    from repro.sim.sinker import make_sinker

    obs.reset()
    if enabled:
        obs.enable()
        obs.flight.arm(directory=tempfile.gettempdir())
        if timeline:
            obs.timeline.arm(capacity=4096)
    sim = make_sinker(
        SinkerConfig(shape=(4, 4, 4)),
        SimulationConfig(stokes=StokesConfig(mg_levels=2, coarse_solver="lu")),
    )
    t0 = time.perf_counter()
    stats = sim.run(2)
    elapsed = time.perf_counter() - t0
    if enabled:
        assert len(obs.REGISTRY.traces["step"]) == 2, "expected 2 step records"
        assert obs.metrics.export()["series"], "derived no metric series"
        if timeline:
            assert obs.timeline.armed().recorded > 0, \
                "timeline armed but recorded no spans"
            obs.timeline.disarm()
    obs.flight.disarm()
    obs.disable()
    assert all(s["newton_converged"] for s in stats)
    return elapsed


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--rounds", type=int, default=8,
                    help="number of disabled/enabled solve pairs (keep even "
                         "so the alternating order stays balanced)")
    ap.add_argument("--max-overhead", type=float, default=0.05,
                    help="maximum tolerated fractional slowdown (default 5%%)")
    ap.add_argument("--mode", choices=("solve", "sim"), default="solve",
                    help="'solve': one Stokes solve, profiling only; "
                         "'sim': a short time-loop run with the full "
                         "telemetry layer (step stream + flight recorder) on "
                         "the enabled side (default %(default)s)")
    ap.add_argument("--timeline", action="store_true",
                    help="(sim mode) also arm repro.obs.timeline span "
                         "capture on the enabled side -- the spans-armed "
                         "clean-path overhead bound")
    args = ap.parse_args(argv)

    if args.timeline and args.mode != "sim":
        ap.error("--timeline requires --mode sim")
    if args.mode == "solve":
        run_once = solve_once
    else:
        run_once = functools.partial(sim_once, timeline=args.timeline)
    run_once(False)  # warm up imports, caches, BLAS threads
    run_once(True)
    off, on = [], []
    for i in range(args.rounds):
        if i % 2 == 0:
            off.append(run_once(False))
            on.append(run_once(True))
        else:
            on.append(run_once(True))
            off.append(run_once(False))
        print(f"pair {i}: disabled {off[-1]:.3f} s, enabled {on[-1]:.3f} s, "
              f"ratio {on[-1] / off[-1]:.3f}")
    pair_ratios = sorted(t_on / t_off for t_on, t_off in zip(on, off))
    estimates = {
        "min": min(on) / min(off),
        "median pair": pair_ratios[len(pair_ratios) // 2],
        "sum": sum(on) / sum(off),
    }
    kind, ratio = min(estimates.items(), key=lambda kv: kv[1])
    overhead = ratio - 1.0
    print("estimates: " + ", ".join(f"{k} {v - 1:+.2%}" for k, v in estimates.items()))
    mode = args.mode + ("+timeline" if args.timeline else "")
    print(f"observability overhead (mode {mode}, {args.rounds} pairs, "
          f"{kind} estimator): "
          f"{100 * overhead:+.2f}% (limit {100 * args.max_overhead:.0f}%)")
    if overhead > args.max_overhead:
        print("FAIL: enabled-instrumentation overhead above limit")
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
