"""Shared helpers for the reproduction benchmarks.

Every bench prints the rows it regenerates (run with ``-s`` to see them
live) and stores them in ``benchmark.extra_info`` so the saved JSON carries
the full table.  Solve-level benches use ``benchmark.pedantic(rounds=1)``:
the quantities of interest are iteration counts and one-shot wall times,
not microbenchmark statistics.
"""

import os
from pathlib import Path

import numpy as np
import pytest

from repro import obs
from repro.fem import DirichletBC, boundary_nodes, component_dofs


@pytest.fixture(autouse=True, scope="module")
def obs_trace(request):
    """Profile each bench module through ``repro.obs``.

    Every ``bench_*`` module runs with the observability layer enabled and,
    at teardown, writes its stage/event/trace document as
    ``BENCH_<module>.json`` (schema ``repro.obs/1``) next to the benchmarks
    -- or under ``$REPRO_BENCH_JSON_DIR`` when set.  A module that arms
    :mod:`repro.obs.timeline` itself gets a ``timeline`` section as well.
    """
    obs.reset()
    obs.enable()
    yield
    obs.disable()
    mod = request.module.__name__
    # the run manifest (config hash, machine model, package versions,
    # seed, $REPRO_* env) rides in every snapshot(), so each BENCH_*.json
    # is self-describing; stamp the producing module into it as well
    obs.metrics.set_manifest(bench_module=mod)
    outdir = Path(os.environ.get("REPRO_BENCH_JSON_DIR", Path(__file__).parent))
    outdir.mkdir(parents=True, exist_ok=True)
    path = outdir / f"BENCH_{mod.removeprefix('bench_')}.json"
    obs.write_json(path, meta={"module": mod})
    obs.reset()


def free_slip_bc(mesh) -> DirichletBC:
    bc = DirichletBC(3 * mesh.nnodes)
    for face, comp in (
        ("xmin", 0), ("xmax", 0), ("ymin", 1), ("ymax", 1), ("zmin", 2),
    ):
        bc.add(component_dofs(boundary_nodes(mesh, face), comp), 0.0)
    return bc.finalize()


def print_table(title: str, headers: list[str], rows: list[list]) -> None:
    widths = [
        max(len(str(h)), max((len(str(r[i])) for r in rows), default=0))
        for i, h in enumerate(headers)
    ]
    line = "  ".join(str(h).ljust(w) for h, w in zip(headers, widths))
    print(f"\n== {title} ==")
    print(line)
    print("-" * len(line))
    for r in rows:
        print("  ".join(str(c).ljust(w) for c, w in zip(r, widths)))


def fmt(x, nd=3):
    if isinstance(x, float):
        return f"{x:.{nd}g}"
    return x


def once(benchmark, fn):
    """Run ``fn`` exactly once under the benchmark fixture.

    Lets analysis/printing tests participate in ``--benchmark-only`` runs
    (which skip tests without the fixture) while timing the real work.
    """
    return benchmark.pedantic(fn, rounds=1, iterations=1)
