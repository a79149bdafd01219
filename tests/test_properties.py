"""Property-based tests (hypothesis) on the core invariants.

These pin structural properties that must hold for *any* admissible input:
partition of unity, convexity of the MPM projection, roundtrips of the
inverse isoparametric map, symmetry/definiteness of operators, BC
idempotence, strength-graph symmetry, and rheology positivity.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.fem import StructuredMesh, GaussQuadrature, DirichletBC
from repro.fem.basis import q1_basis, q2_basis
from repro.fem.geometry import invert_3x3
from repro.matfree import make_operator
from repro.mpm.location import invert_map

QUAD = GaussQuadrature.hex(3)

settings.register_profile(
    "repro", deadline=None, max_examples=25,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("repro")

unit_points = hnp.arrays(
    np.float64, st.tuples(st.integers(1, 8), st.just(3)),
    elements=st.floats(-1.0, 1.0, allow_nan=False),
)


class TestBasisProperties:
    @given(pts=unit_points)
    def test_q2_partition_of_unity(self, pts):
        N = q2_basis().eval(pts)
        assert np.allclose(N.sum(axis=1), 1.0, atol=1e-10)
        dN = q2_basis().grad(pts)
        assert np.allclose(dN.sum(axis=1), 0.0, atol=1e-9)

    @given(pts=unit_points)
    def test_q1_values_bounded(self, pts):
        """Trilinear basis values are in [0, 1] inside the element."""
        N = q1_basis().eval(pts)
        assert N.min() >= -1e-12
        assert N.max() <= 1.0 + 1e-12


class TestGeometryProperties:
    @given(
        A=hnp.arrays(np.float64, (4, 3, 3),
                     elements=st.floats(-2.0, 2.0, allow_nan=False))
    )
    def test_invert_3x3_roundtrip(self, A):
        # strictly diagonally dominant (diagonal >= 5 > 4 >= off-diagonal
        # row sum), hence well conditioned; + 4 I let [[2,0,0],[-2,2,-2],
        # [-2,-2,2]] through, which is singular
        A = A + 7.0 * np.eye(3)
        Ainv, det = invert_3x3(A)
        assert np.allclose(det, np.linalg.det(A), rtol=1e-9, atol=1e-9)
        eye = np.einsum("nij,njk->nik", A, Ainv)
        assert np.allclose(eye, np.eye(3), atol=1e-8)

    @given(
        amp=st.floats(0.0, 0.05),
        xi=hnp.arrays(np.float64, (6, 3),
                      elements=st.floats(-0.9, 0.9, allow_nan=False)),
    )
    def test_inverse_map_roundtrip(self, amp, xi):
        mesh = StructuredMesh((2, 2, 2), order=2)
        if amp > 0:
            mesh.deform(lambda c: c + amp * np.sin(2 * np.pi * c[:, [1, 2, 0]]))
        els = np.arange(6) % mesh.nel
        N = mesh.basis.eval(xi)
        x = np.einsum("pa,pac->pc", N, mesh.coords[mesh.connectivity[els]])
        xi_back = invert_map(mesh, els, x)
        assert np.abs(xi_back - xi).max() < 1e-8


class TestProjectionProperties:
    @given(
        vals=hnp.arrays(np.float64, (64,),
                        elements=st.floats(-10.0, 10.0, allow_nan=False)),
        seed=st.integers(0, 1000),
    )
    def test_projection_within_bounds(self, vals, seed):
        """The local L2 reconstruction (Eq. 12) is a convex combination."""
        from repro.mpm import seed_points, project_to_quadrature

        mesh = StructuredMesh((2, 2, 2), order=2)
        pts = seed_points(mesh, 2, jitter=0.3, rng=np.random.default_rng(seed))
        fq = project_to_quadrature(mesh, pts.el, pts.xi, vals, QUAD)
        assert fq.min() >= vals.min() - 1e-9
        assert fq.max() <= vals.max() + 1e-9


class TestOperatorProperties:
    @given(
        logeta=st.floats(-4.0, 4.0),
        seed=st.integers(0, 100),
    )
    def test_operator_psd_and_symmetric(self, logeta, seed):
        rng = np.random.default_rng(seed)
        mesh = StructuredMesh((2, 2, 2), order=2)
        eta = np.full((mesh.nel, 27), 10.0**logeta)
        op = make_operator("tensor", mesh, eta)
        u = rng.standard_normal(3 * mesh.nnodes)
        v = rng.standard_normal(3 * mesh.nnodes)
        Au = op(u)
        assert u @ Au >= -1e-8 * np.abs(u @ Au)  # PSD
        assert Au @ v == pytest.approx(op(v) @ u, rel=1e-8, abs=1e-10)

    @given(seed=st.integers(0, 100))
    def test_all_kernels_agree_random_viscosity(self, seed):
        rng = np.random.default_rng(seed)
        mesh = StructuredMesh((2, 2, 2), order=2)
        eta = np.exp(rng.uniform(-3, 3, size=(mesh.nel, 27)))
        u = rng.standard_normal(3 * mesh.nnodes)
        ys = [make_operator(k, mesh, eta)(u)
              for k in ("asmb", "mf", "tensor", "tensor_c")]
        scale = np.abs(ys[0]).max()
        for y in ys[1:]:
            assert np.abs(y - ys[0]).max() < 1e-10 * scale


class TestBCProperties:
    @given(
        seed=st.integers(0, 1000),
        value=st.floats(-5.0, 5.0, allow_nan=False),
    )
    def test_wrap_apply_idempotent_on_bc_rows(self, seed, value):
        rng = np.random.default_rng(seed)
        n = 30
        bc = DirichletBC(n)
        dofs = rng.choice(n, size=5, replace=False)
        bc.add(dofs, value).finalize()
        wrapped = bc.wrap_apply(lambda v: 2.0 * v)
        u = rng.standard_normal(n)
        y = wrapped(u)
        assert np.allclose(y[bc.dofs], u[bc.dofs])


class TestRheologyProperties:
    @given(
        eps=st.floats(1e-12, 1e3),
        pressure=st.floats(-10.0, 100.0),
        strain=st.floats(0.0, 10.0),
    )
    def test_composite_always_positive_and_bounded(self, eps, pressure, strain):
        from repro.rheology import CompositeRheology, DruckerPrager
        from repro.rheology.laws import PowerLawViscosity

        comp = CompositeRheology(
            PowerLawViscosity(10.0, n=3.0),
            DruckerPrager(1.0, 30.0, cohesion_weak=0.2, softening_strain=0.5,
                          tension_cutoff=0.01),
            eta_min=1e-3, eta_max=1e3,
        )
        eta, deta, _ = comp.evaluate(
            np.array([eps]), np.array([pressure]), None, np.array([strain])
        )
        assert 1e-3 <= eta[0] <= 1e3
        assert np.isfinite(deta[0])

    @given(p1=st.floats(0.0, 50.0), p2=st.floats(0.0, 50.0))
    def test_drucker_prager_monotone_in_pressure(self, p1, p2):
        from repro.rheology import DruckerPrager

        dp = DruckerPrager(1.0, 30.0)
        lo, hi = min(p1, p2), max(p1, p2)
        assert dp.strength(lo) <= dp.strength(hi) + 1e-12


class TestStrengthGraphProperties:
    @given(seed=st.integers(0, 200), theta=st.floats(0.001, 0.5))
    def test_symmetric_boolean(self, seed, theta):
        import scipy.sparse as sp
        from repro.mg.sa import block_strength_graph

        rng = np.random.default_rng(seed)
        n = 12
        A = rng.standard_normal((3 * n, 3 * n))
        A = sp.csr_matrix(A @ A.T + 3 * n * np.eye(3 * n))
        S = block_strength_graph(A, 3, theta)
        assert (S != S.T).nnz == 0
        assert np.all(S.diagonal() == 0)


class TestKrylovProperties:
    @given(seed=st.integers(0, 300))
    def test_gcr_reaches_tolerance(self, seed):
        import scipy.sparse as sp
        from repro.solvers import gcr

        rng = np.random.default_rng(seed)
        n = 25
        Q = rng.standard_normal((n, n))
        A = sp.csr_matrix(Q @ Q.T + n * np.eye(n))
        b = rng.standard_normal(n)
        res = gcr(lambda v: A @ v, b, rtol=1e-8, maxiter=200)
        assert res.converged
        assert np.linalg.norm(b - A @ res.x) <= 1.01e-8 * np.linalg.norm(b) + 1e-12
