#!/usr/bin/env python3
"""Check the real multi-process communicator against the virtual oracle.

Runs the rank-decomposed sinker three ways and asserts one contract --
the final ``state_digest`` is identical everywhere:

1. **oracle** -- :class:`~repro.parallel.distributed.VirtualRankEngine`
   over a :class:`~repro.parallel.comm.VirtualComm` (single process);
2. **procomm** -- :class:`~repro.parallel.distributed.ProcommEngine`
   over ``--ranks`` real forked worker processes;
3. **kill leg** (``--kill``) -- same as 2, but rank ``--kill-rank`` is
   killed mid-solve by an injected transport fault; the driver must
   detect the death (:class:`~repro.parallel.procomm.RankFailure`),
   respawn the cohort, resume from the last per-step cohort checkpoint,
   and still land on the oracle's digest.

Exits nonzero on any digest mismatch, missed recovery, comm-stats
divergence between oracle and clean procomm, or a cohort respawn that is
not a recovery (the clean leg must report ``comm.respawns == 0``, the
kill leg ``respawns == recoveries``).  Prints one JSON document so CI
logs carry the full evidence.

Run:  python benchmarks/check_procomm.py --ranks 2 --kill
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

from repro.parallel.distributed import run_sinker_distributed


def _leg(name: str, **kwargs) -> dict:
    out = run_sinker_distributed(**kwargs)
    return {
        "leg": name,
        "digest": out["digest"],
        "steps": out["steps"],
        "ranks": out["ranks"],
        "recoveries": out["recoveries"],
        "events": out["events"],
        "seconds": round(out["wall_seconds"], 3),
        "comm": out["comm"],
        "engine": {k: out["engine"][k]
                   for k in ("dispatches", "tasks", "bytes_in", "bytes_out")},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--ranks", type=int, default=2,
                    help="real worker processes (default 2)")
    ap.add_argument("--nsteps", type=int, default=2)
    ap.add_argument("--kill", action="store_true",
                    help="add a leg with rank --kill-rank killed mid-solve")
    ap.add_argument("--kill-rank", type=int, default=1)
    ap.add_argument("--kill-after-step", type=int, default=1,
                    help="arm the kill after this step's checkpoint is "
                         "written (default 1), so recovery must resume "
                         "from the checkpoint, not rebuild from scratch")
    args = ap.parse_args(argv)

    legs = [
        _leg("oracle", ranks=args.ranks, nsteps=args.nsteps, oracle=True),
        _leg("procomm", ranks=args.ranks, nsteps=args.nsteps),
    ]
    if args.kill:
        with tempfile.TemporaryDirectory(prefix="repro-killleg-") as tmp:
            legs.append(_leg(
                "procomm+kill",
                ranks=args.ranks, nsteps=args.nsteps,
                faults=[{
                    "rank": args.kill_rank, "kind": "kill",
                    "at": 1, "after_step": args.kill_after_step,
                    "sentinel": os.path.join(tmp, "kill.fired"),
                }],
            ))

    oracle = legs[0]
    failures = []
    for leg in legs[1:]:
        if leg["digest"] != oracle["digest"]:
            failures.append(f"{leg['leg']}: digest {leg['digest']} != "
                            f"oracle {oracle['digest']}")
    # the clean run's communication accounting must mirror the oracle's
    # (same messages, bytes, reductions): the virtual comm is the model
    # the perf layer trusts, so a silent divergence is a real bug
    clean = legs[1]
    for key in ("messages", "bytes", "reductions"):
        if clean["comm"][key] != oracle["comm"][key]:
            failures.append(f"procomm comm.{key} {clean['comm'][key]} != "
                            f"oracle {oracle['comm'][key]}")
    # ranks fork once: only recover() respawns the cohort
    if clean["comm"]["respawns"] != 0:
        failures.append(f"clean procomm leg respawned the cohort "
                        f"{clean['comm']['respawns']} times")
    if args.kill:
        kill = legs[2]
        if kill["recoveries"] < 1:
            failures.append("kill leg recorded no recovery -- the fault "
                            "did not fire or the death went undetected")
        if kill["comm"]["respawns"] != kill["recoveries"]:
            failures.append(f"kill leg respawned {kill['comm']['respawns']} "
                            f"times for {kill['recoveries']} recoveries")

    print(json.dumps({"legs": legs, "failures": failures}, indent=2,
                     sort_keys=True))
    if failures:
        print(f"FAIL: {len(failures)} contract violation(s)", file=sys.stderr)
        return 1
    print("OK: all digests bit-identical to the oracle", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
