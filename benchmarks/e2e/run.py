#!/usr/bin/env python3
"""End-to-end benchmark of the whole repro stack: one command, every metric.

Two ways to call it, both from the repository root:

``python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1``
    one run of one workload; the last line of stdout is the JSON object
    ``{"correct", "attempted", "failed", "metrics"}`` with every
    ``end_to_end`` metric of ``BENCHMARK.json`` (``--trace 0``) or every
    ``per_layer`` metric (``--trace 1``).

``python3 benchmarks/e2e/run.py [--seed N] [--seconds S] [--traced] [--quick]
[--out FILE] [--repeat R --check]``
    every workload in turn, untraced (and traced with ``--traced``); prints
    each metric by name with unit, sample count and regression bound, and
    writes the full result with its manifest to ``--out``.

This process never imports ``repro``: each workload runs in its own child
(``workloads.py``) with the environment pinned, so peaks of memory do not
leak between workloads and ``setup_s`` includes the imports.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

from layers import EXACT

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(ROOT, ".bench_build", "e2e")
#: a child must end well inside the driver's 180 s limit
CHILD_TIMEOUT = 170.0
#: set-up is repeated in throwaway children; the median is reported
SETUP_REPEATS = 2
#: workloads that run two compute processes at once (jobs, ranks)
TWO_PROCESS = {"serve_cold", "serve_warm", "dist_sinker"}


class HarnessError(RuntimeError):
    """The benchmark itself could not run (not a failed operation)."""


def load_contract() -> dict:
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as err:
        raise HarnessError(f"cannot read {path}: {err}") from err


def pinned_env(workload: str) -> dict:
    """The environment every child sees.

    ``REPRO_*`` is cleared so no ambient knob changes the program; BLAS
    runs one thread per process (two BLAS threads make the 16^3 solve
    slower and noisier here, and two ranks with two BLAS threads each
    oversubscribe two cores: 8.6 s per distributed step against 1.9 s);
    ``OMP_NUM_THREADS`` is capped so processes x threads <= nproc; temp
    files, the compiled-kernel cache and bytecode stay in the checkout.
    """
    nproc = os.cpu_count() or 1
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    procs = 2 if workload in TWO_PROCESS else 1
    env.update(
        PYTHONPATH=os.path.join(ROOT, "src"),
        PYTHONHASHSEED="0",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        OMP_NUM_THREADS=str(max(1, nproc // procs)),
        REPRO_CKERNEL_CACHE=os.path.join(BUILD, "ckernel"),
        TMPDIR=os.path.join(BUILD, "tmp"),
    )
    return env


def run_child(argv: list[str], env: dict, timeout: float) -> dict:
    """Run a python child in its own process group; parse its last line."""
    proc = subprocess.Popen(
        [sys.executable, *argv], env=env, cwd=ROOT, stdout=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        stdout, _ = proc.communicate(timeout=timeout)
    except BaseException:
        # timeout or interrupt: stop the child and whatever it started
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except OSError:
            pass
        proc.wait()
        raise
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise HarnessError(f"child {argv} exited {proc.returncode}")
    try:
        return json.loads(lines[-1])
    except ValueError as err:
        raise HarnessError(f"child {argv} printed no result: {err}") from err


_PREPARE = r"""
import json, sys, time
import numpy, scipy
import repro, repro.serve, repro.parallel.distributed, repro.sim.rifting
from repro.matfree import _ckernel
t0 = time.perf_counter()
lib = _ckernel.load()
print(json.dumps({"compile_s": time.perf_counter() - t0,
                  "compiled": lib is not None,
                  "fallback_reason": _ckernel.unavailable_reason(),
                  "numpy": numpy.__version__, "scipy": scipy.__version__}))
"""


def prepare() -> dict:
    """The build step: compile the C kernel into the benchmark's own cache
    (cold, so the time is ``matfree.ckernel_compile_s``) and let Python
    write its bytecode, once per checkout.  Without a C compiler the
    program falls back to NumPy; that is reported, not an error."""
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        raise HarnessError(f"no program to measure: {ROOT}/src/repro missing")
    marker = os.path.join(BUILD, "prepare.json")
    if os.path.exists(marker):
        with open(marker) as fh:
            return json.load(fh)
    os.makedirs(os.path.join(BUILD, "tmp"), exist_ok=True)
    info = run_child(["-c", _PREPARE], pinned_env("prepare"), CHILD_TIMEOUT)
    with open(marker, "w") as fh:
        json.dump(info, fh)
    return info


def manifest(seed: int, prep: dict) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        sha = "unknown"
    return {
        "git_sha": sha, "nproc": os.cpu_count(), "cpu": cpu,
        "python": platform.python_version(), "numpy": prep["numpy"],
        "scipy": prep["scipy"], "compiled_kernel": prep["compiled"],
        "fallback_reason": prep["fallback_reason"], "seed": seed,
        "blas_threads": 1,
    }


def measure(workload: str, seed: int, seconds: float, trace: bool,
            quick: bool, prep: dict, trace_out: str | None = None) -> dict:
    """One run of one workload: its child's result plus ``metrics``."""
    env = pinned_env(workload)
    base = [os.path.join(HERE, "workloads.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds)]
    if quick:
        base.append("--quick")
    setups = []
    if not trace:
        for _ in range(SETUP_REPEATS):
            child = run_child(
                base + ["--mode", "setup", "--t0", repr(time.time())],
                env, CHILD_TIMEOUT)
            setups.append(child["setup_s"])
    argv = base + ["--trace", str(int(trace)),
                   "--compile-s", repr(prep["compile_s"])]
    if trace_out:
        argv += ["--trace-out", trace_out]
    result = run_child(argv + ["--t0", repr(time.time())], env, CHILD_TIMEOUT)
    setups.append(result["setup_s"])
    result["setup_samples"] = setups
    result["failed"] = len({index for index, _ in result["failures"]})
    if trace:
        result["metrics"] = result.pop("per_layer")
    else:
        result["metrics"] = {
            "setup_s": statistics.median(setups),
            "op_s": result["op_s"],
            "peak_rss_mb": result["rss_kb"] / 1024.0,
        }
    return result


def contract_line(result: dict, specs: list[dict]) -> str:
    """The last line the driver reads."""
    metrics = {
        spec["name"]: {"value": result["metrics"][spec["name"]],
                       "unit": spec["unit"]}
        for spec in specs
    }
    return json.dumps({
        "correct": result["failed"] == 0,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    })


def tail_percentile(samples: list[float]):
    """The highest percentile with at least ten samples beyond it, as
    ``(percent, value)``; ``None`` with fewer than twenty samples."""
    n = len(samples)
    if n < 20:
        return None
    ordered = sorted(samples)
    return 100.0 * (n - 10) / n, ordered[n - 11]


def print_result(result: dict, specs: list[dict], stream=sys.stdout) -> None:
    w = result["workload"]
    samples = {"setup_s": len(result["setup_samples"]),
               "op_s": len(result["op_times"])}
    for spec in specs:
        name = spec["name"]
        note = (f" n={samples.get(name, 1)} bound={spec['bound']:.0%}"
                if "bound" in spec else "")
        print(f"{w:<12} {name:<28} {result['metrics'][name]:>14.6g} "
              f"{spec['unit']:<6}{note}", file=stream)
    times = result["op_times"]
    if len(times) > 1:
        line = f"{w:<12} op times: median {statistics.median(times):.4g} s"
        tail = tail_percentile(times)
        if tail:
            line += f", p{tail[0]:.0f} {tail[1]:.4g} s"
        print(line + f" (n={len(times)})", file=stream)
    print(f"{w:<12} attempted={result['attempted']} failed={result['failed']}"
          f" size={result['size']} info={result.get('info')}", file=stream)
    for index, reason in result["failures"]:
        print(f"{w:<12} FAILED op {index}: {reason}", file=stream)


# ---------------------------------------------------------------------- #
# whole-suite mode
# ---------------------------------------------------------------------- #
def run_suite(contract: dict, args, prep: dict) -> dict:
    out_dir = os.path.dirname(os.path.abspath(args.out)) if args.out else None
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
    suite = {"manifest": manifest(args.seed, prep), "seconds": args.seconds,
             "quick": args.quick, "end_to_end": {}, "per_layer": {},
             "failed_frac": {}}
    for spec in contract["workloads"]:
        w = spec["name"]
        if args.only and w not in args.only:
            continue
        print(f"# {w}: {spec['why']}")
        plain = measure(w, args.seed, args.seconds, False, args.quick, prep)
        print_result(plain, contract["end_to_end"])
        suite["end_to_end"][w] = plain["metrics"]
        suite["failed_frac"][w] = plain["failed"] / plain["attempted"]
        if args.traced:
            trace_out = (os.path.join(out_dir, f"TRACE_{w}.json")
                         if out_dir else None)
            traced = measure(w, args.seed, args.seconds, True, args.quick,
                             prep, trace_out)
            print_result(traced, contract["per_layer"])
            suite["per_layer"][w] = traced["metrics"]
            suite["failed_frac"][w] = max(
                suite["failed_frac"][w], traced["failed"] / traced["attempted"])
            if traced["metrics"]["obs.trace_overhead_frac"] >= 0.15:
                print(f"{w:<12} tracing overhead >= 15 %: the per-layer "
                      "shares of this run are unreliable")
    return suite


def check_repeats(contract: dict, suites: list[dict]) -> int:
    """Compare two runs of the same code: every end-to-end pair within its
    bound, every count made by the program identical."""
    a, b = suites[0], suites[1]
    bad = 0
    print(f"{'workload':<12} {'metric':<26} {'run 1':>12} {'run 2':>12} "
          f"{'diff':>8} {'bound':>6}")
    for w in a["end_to_end"]:
        for spec in contract["end_to_end"]:
            name = spec["name"]
            x, y = a["end_to_end"][w][name], b["end_to_end"][w][name]
            diff = abs(x - y) / min(x, y)
            verdict = "ok" if diff <= spec["bound"] else "unresolved"
            bad += verdict != "ok"
            print(f"{w:<12} {name:<26} {x:>12.5g} {y:>12.5g} {diff:>8.1%} "
                  f"{spec['bound']:>6.0%} {verdict}")
        for name in sorted(EXACT):
            if w not in a["per_layer"]:
                continue
            x, y = a["per_layer"][w][name], b["per_layer"][w][name]
            if x != y:
                bad += 1
                print(f"{w:<12} {name:<26} {x:>12.6g} {y:>12.6g} "
                      "count differs")
        if a["failed_frac"][w] or b["failed_frac"][w]:
            bad += 1
            print(f"{w:<12} failed operations")
    print("repeat check:", "PASS" if not bad else f"FAIL ({bad})")
    return 1 if bad else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", help="run only this workload (driver mode)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=None)
    ap.add_argument("--traced", action="store_true",
                    help="suite mode: add the traced pass")
    ap.add_argument("--quick", action="store_true",
                    help="small meshes, < 60 s for the whole suite")
    ap.add_argument("--only", action="append",
                    help="suite mode: restrict to these workloads")
    ap.add_argument("--out", default=None)
    ap.add_argument("--repeat", type=int, default=1)
    ap.add_argument("--check", action="store_true")
    args = ap.parse_args(argv)

    try:
        contract = load_contract()
        if args.seconds is None:
            args.seconds = float(contract["run_seconds"])
        prep = prepare()
        names = [w["name"] for w in contract["workloads"]]
        if args.workload is not None:
            if args.workload not in names:
                raise HarnessError(f"unknown workload {args.workload!r}; "
                                   f"expected one of {names}")
            trace = bool(args.trace)
            result = measure(args.workload, args.seed, args.seconds, trace,
                             args.quick, prep)
            specs = contract["per_layer" if trace else "end_to_end"]
            print_result(result, specs)
            print(contract_line(result, specs))
            return 0
        if args.check:
            args.traced = True
            args.repeat = max(2, args.repeat)
        suites = [run_suite(contract, args, prep) for _ in range(args.repeat)]
        if args.out:
            with open(args.out, "w") as fh:
                json.dump(suites[0] if len(suites) == 1 else suites, fh,
                          indent=1)
        return check_repeats(contract, suites) if args.check else 0
    except HarnessError as err:
        print(f"benchmark harness error: {err}", file=sys.stderr)
        return 2
    except subprocess.TimeoutExpired as err:
        print(f"benchmark harness error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
