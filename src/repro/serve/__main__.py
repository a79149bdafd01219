"""CLI of the ensemble service: ``python -m repro.serve battery.json``.

The battery file is plain JSON::

    {
      "serve": {"max_jobs": 2, "step_timeout": 30.0, "store_dir": "store"},
      "jobs": [
        {"name": "sinker-hi", "scenario": "sinker",
         "scenario_config": {"shape": [4, 4, 4]}, "nsteps": 3, "seed": 0},
        ...
      ]
    }

``serve`` takes any :class:`~repro.serve.scheduler.ServeConfig` field;
``jobs`` entries are :class:`~repro.serve.jobs.JobSpec` wire dicts.
The file's ``serve`` section is the one place to set them; ``--store``
alone overrides it, so one battery file can fill several stores.

Exit status: 2, before any job runs, for an unknown key or choice in the
file; 0 when every job reached a terminal state (the scheduler's
accounting contract) -- or, with ``--require-done``, only when every job
is DONE.  Any lost, stuck, or unaccounted job is a non-zero exit.
"""

from __future__ import annotations

import argparse
import json
import sys

from .jobs import JobSpec, config_from
from .scheduler import ServeConfig, run_battery
from .worker import job_configs


def _parse_args(argv):
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Run a battery of supervised simulation jobs.",
    )
    parser.add_argument("battery", help="battery JSON file")
    parser.add_argument("--store", help="results store directory "
                        "(default: the battery file's setting, else a "
                        "temporary directory)")
    parser.add_argument("--require-done", action="store_true",
                        help="exit non-zero unless every job is DONE "
                        "(default requires only terminal states)")
    parser.add_argument("--json", dest="json_out",
                        help="write the battery report to this file "
                        "('-' for stdout)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(sys.argv[1:] if argv is None else argv)
    with open(args.battery) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or "jobs" not in doc:
        sys.stderr.write("battery file must be an object with a "
                         "'jobs' array\n")
        return 2

    serve = dict(doc.get("serve", {}))
    if args.store is not None:
        serve["store_dir"] = args.store
    try:
        config = config_from(ServeConfig, serve, "serve")
        specs = [JobSpec.from_wire(job) for job in doc["jobs"]]
        for spec in specs:
            try:
                job_configs(spec)
            except ValueError as err:
                raise ValueError(f"job {spec.name!r}: {err}") from None
    except ValueError as err:
        sys.stderr.write(f"error: {err}\n")
        return 2
    report = run_battery(specs, config)

    print(report.summary())
    if args.json_out:
        payload = json.dumps(report.as_dict(), indent=1, sort_keys=True)
        if args.json_out == "-":
            print(payload)
        else:
            with open(args.json_out, "w") as fh:
                fh.write(payload + "\n")

    if not report.all_terminal:
        sys.stderr.write("error: jobs left in non-terminal states\n")
        return 1
    if args.require_done and not report.all_done:
        sys.stderr.write("error: --require-done and not all jobs DONE\n")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
