"""Shared fixtures for the test suite."""

import contextlib

import numpy as np
import pytest

from repro.fem import StructuredMesh, GaussQuadrature, DirichletBC
from repro.fem.bc import boundary_nodes, component_dofs
from repro.parallel import (
    ParallelExecutor,
    ProcessComm,
    ProcommEngine,
    VirtualRankEngine,
    resolve_workers,
    use_executor,
)


@contextlib.contextmanager
def dispatch_engine(kind: str, workers: int | None = None):
    """A dispatch engine with ``workers`` tasks (``None``: ``$REPRO_WORKERS``),
    armed for the block: every operator built inside runs on it.

    ``thread``: a shared-memory pool; ``process``: real rank processes
    (:class:`ProcommEngine`); ``inline``: the rank oracle run in-process.
    """
    workers = resolve_workers(workers)
    if kind == "inline":
        engine = VirtualRankEngine(size=workers)
        close = engine.shutdown
    elif kind == "thread":
        engine = ParallelExecutor(workers)
        close = engine.shutdown
    else:
        comm = ProcessComm(workers)
        engine, close = ProcommEngine(comm), comm.close
    try:
        with use_executor(engine):
            yield engine
    finally:
        close()


@pytest.fixture
def quad():
    return GaussQuadrature.hex(3)


@pytest.fixture
def small_mesh():
    """A small anisotropic Q2 box mesh."""
    return StructuredMesh((3, 2, 4), order=2, extent=(1.0, 0.7, 1.3))


@pytest.fixture
def deformed_mesh():
    """A deformed Q2 mesh exercising non-axis-aligned geometry."""
    mesh = StructuredMesh((3, 2, 4), order=2, extent=(1.0, 0.7, 1.3))
    mesh.deform(lambda c: c + 0.03 * np.sin(2 * np.pi * c[:, [1, 2, 0]]))
    return mesh


@pytest.fixture
def cube_mesh():
    """A coarsenable cube mesh for multigrid tests."""
    return StructuredMesh((4, 4, 4), order=2)


def no_slip_bc(mesh) -> DirichletBC:
    """All velocity components pinned on every face."""
    bc = DirichletBC(3 * mesh.nnodes)
    for face in ("xmin", "xmax", "ymin", "ymax", "zmin", "zmax"):
        nodes = boundary_nodes(mesh, face)
        for c in range(3):
            bc.add(component_dofs(nodes, c), 0.0)
    return bc.finalize()


def free_slip_bc(mesh) -> DirichletBC:
    """Zero normal velocity on walls and bottom; free top surface."""
    bc = DirichletBC(3 * mesh.nnodes)
    for face, comp in (
        ("xmin", 0), ("xmax", 0), ("ymin", 1), ("ymax", 1), ("zmin", 2),
    ):
        bc.add(component_dofs(boundary_nodes(mesh, face), comp), 0.0)
    return bc.finalize()


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
