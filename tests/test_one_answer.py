"""One answer, however many workers.

Under the owner-writes contract (:mod:`repro.parallel.executor`) every
kernel that dispatches reproduces the serial result bit for bit, for any
worker count and on any engine: the thread pool, the in-process rank
oracle, and real rank processes.  Every case here is ``np.array_equal``
to ``workers=1``: one compiled apply, one compiled Newton apply, the
coupled Stokes apply (Picard and Newton) with its divergence, one
diagonal, one assembled matrix, an operator updated through
``set_viscosity``, the state digest of a 4^3 three-step sinker run, and
that of a two-step (6, 4, 2) rifting run (plasticity and the Newton
operator, the temperature and projection point tables, the ALE remesh).
"""

import numpy as np
import pytest

from repro.fem import GaussQuadrature, StructuredMesh
from repro.matfree import NewtonTensorOperator, make_operator
from repro.parallel import use_executor
from repro.serve.jobs import JobSpec
from repro.serve.store import state_digest
from repro.serve.worker import build_simulation
from tests.conftest import dispatch_engine

QUAD = GaussQuadrature.hex(3)
SUBSTRATES = ["inline", "thread", "procomm"]
WORKERS = [1, 2, 3]

pytestmark = [pytest.mark.parametrize("workers", WORKERS),
              pytest.mark.parametrize("substrate", SUBSTRATES)]


@pytest.fixture(scope="module")
def problem():
    """Deformed (5, 3, 7) mesh: 15-element layers, odd element count."""
    rng = np.random.default_rng(21)
    mesh = StructuredMesh((5, 3, 7), order=2, extent=(1.0, 0.8, 1.2))
    mesh.deform(lambda c: c + 0.02 * np.sin(2 * np.pi * c[:, [1, 2, 0]]))
    eta = np.exp(rng.normal(scale=0.5, size=(mesh.nel, QUAD.npoints)))
    u = rng.standard_normal(3 * mesh.nnodes)
    return mesh, eta, u


def serial(kind, problem):
    mesh, eta, _ = problem
    with use_executor(None):
        return make_operator(kind, mesh, eta, quad=QUAD)


def on_engine(kind, problem):
    """Built inside ``dispatch_engine``: runs on that engine."""
    mesh, eta, _ = problem
    return make_operator(kind, mesh, eta, quad=QUAD)


def test_apply(problem, substrate, workers):
    u = problem[2]
    with dispatch_engine(substrate, workers):
        y = on_engine("tensor_compiled", problem).apply(u)
    assert np.array_equal(y, serial("tensor_compiled", problem).apply(u))


def test_newton_apply(problem, substrate, workers):
    """The compiled Newton linearization dispatches like the Picard
    kernel: owner-writes spans on the engine it was built on."""
    mesh, eta, u = problem
    rng = np.random.default_rng(22)
    Du = rng.standard_normal((mesh.nel, QUAD.npoints, 3, 3))
    Du = 0.5 * (Du + Du.transpose(0, 1, 3, 2))
    deta = rng.normal(scale=0.3, size=eta.shape)
    with use_executor(None):
        ref = NewtonTensorOperator(mesh, eta, Du, deta, quad=QUAD)
    with dispatch_engine(substrate, workers):
        op = NewtonTensorOperator(mesh, eta, Du, deta, quad=QUAD)
        y = op.apply(u)
    assert np.array_equal(y, ref.apply(u))


@pytest.mark.parametrize("newton", [False, True])
def test_coupled_apply(problem, substrate, workers, newton):
    """The coupled Stokes apply, its divergence and its gradient -- one
    kernel pass each on a compiled viscous block, Picard or Newton --
    dispatch under the same contract."""
    from repro.stokes import StokesOperator, StokesProblem
    from tests.conftest import free_slip_bc

    mesh, eta, u = problem
    rng = np.random.default_rng(23)
    x = np.concatenate([u, rng.standard_normal(4 * mesh.nel)])
    Du = rng.standard_normal((mesh.nel, QUAD.npoints, 3, 3))
    Du = 0.5 * (Du + Du.transpose(0, 1, 3, 2))
    deta = rng.normal(scale=0.3, size=eta.shape)
    pb = StokesProblem(mesh, eta, np.ones_like(eta), bc_builder=free_slip_bc)

    def build():
        op = StokesOperator(pb)
        if newton:
            op = op.with_velocity_operator(
                NewtonTensorOperator(mesh, eta, Du, deta, quad=QUAD))
        return op

    def applies(op):
        return (op.apply(x), op.divergence(u), op.gradient(x[op.nu:]),
                op.rhs())

    with use_executor(None):
        ref = applies(build())
    with dispatch_engine(substrate, workers):
        got = applies(build())
    for y, y_ref in zip(got, ref):
        assert np.array_equal(y, y_ref)


def test_diagonal(problem, substrate, workers):
    with dispatch_engine(substrate, workers):
        d = on_engine("tensor_compiled", problem).diagonal()
    assert np.array_equal(d, serial("tensor_compiled", problem).diagonal())


def test_assembled_matrix(problem, substrate, workers):
    u = problem[2]
    ref = serial("asmb", problem)
    with dispatch_engine(substrate, workers):
        op = on_engine("asmb", problem)
        y = op.apply(u)
    for attr in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(op.matrix, attr),
                              getattr(ref.matrix, attr))
    assert np.array_equal(y, ref.matrix @ u)


@pytest.mark.parametrize("kind", ["asmb", "tensor_compiled"])
def test_set_viscosity(problem, substrate, workers, kind):
    """A viscosity update reaches every engine (rank processes are sent
    the new version, no re-fork): the updated operator is the fresh one's
    floats."""
    mesh, eta, u = problem
    with use_executor(None):
        ref = make_operator(kind, mesh, 1.7 * eta, quad=QUAD)
    with dispatch_engine(substrate, workers):
        op = on_engine(kind, problem)
        op.apply(u)
        op.set_viscosity(1.7 * eta)
        y = op.apply(u)
    assert np.array_equal(y, ref.apply(u))
    assert np.array_equal(op.diagonal(), ref.diagonal())


def sinker_digest(workers=1):
    """The serve fault battery's 4^3 sinker (seed 12), three steps."""
    spec = JobSpec(
        name="one-answer", scenario="sinker",
        scenario_config={"shape": [4, 4, 4], "n_spheres": 1},
        sim_config={"picard_only": True,
                    "stokes": {"mg_levels": 2, "rtol": 1e-4,
                               "workers": workers}},
        nsteps=3, seed=12)
    sim = build_simulation(spec)
    for _ in range(spec.nsteps):
        sim.step(spec.dt)
    return state_digest(sim)


@pytest.fixture(scope="module")
def serial_digest():
    return sinker_digest(workers=1)


def test_sinker_digest(serial_digest, substrate, workers):
    if substrate == "thread":
        # the production path: each step arms the process's pool
        digest = sinker_digest(workers)
    else:
        with dispatch_engine(substrate, workers):
            digest = sinker_digest()
    assert digest == serial_digest


def rift_digest(workers=1):
    """Two coupled rifting steps: free surface, energy, plastic yielding."""
    spec = JobSpec(
        name="one-answer-rift", scenario="rifting",
        scenario_config={"shape": [6, 4, 2]},
        sim_config={"free_surface": True, "thermal_kappa": 0.01,
                    "cfl": 0.25, "max_newton": 2,
                    "stokes": {"mg_levels": 2, "smoother_degree": 3,
                               "coarse_solver": "lu", "rtol": 1e-4,
                               "maxiter": 300, "workers": workers}},
        nsteps=2, seed=7)
    sim = build_simulation(spec)
    for _ in range(spec.nsteps):
        sim.step()
    return state_digest(sim)


@pytest.fixture(scope="module")
def serial_rift_digest():
    return rift_digest(workers=1)


def test_rift_digest(serial_rift_digest, substrate, workers):
    if substrate == "thread":
        digest = rift_digest(workers)
    else:
        with dispatch_engine(substrate, workers):
            digest = rift_digest()
    assert digest == serial_rift_digest
