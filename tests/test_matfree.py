"""Matrix-free operators: equivalence across implementations (Table I)."""

import numpy as np
import pytest

from repro import obs
from repro.fem import StructuredMesh, GaussQuadrature
from repro.matfree import make_operator, OPERATOR_TYPES, NewtonTensorOperator
from repro.matfree import _ckernel

KINDS = sorted(OPERATOR_TYPES)


@pytest.fixture(scope="module")
def setup():
    rng = np.random.default_rng(0)
    mesh = StructuredMesh((3, 2, 4), order=2, extent=(1.0, 0.7, 1.3))
    mesh.deform(lambda c: c + 0.03 * np.sin(2 * np.pi * c[:, [1, 2, 0]]))
    quad = GaussQuadrature.hex(3)
    eta = np.exp(rng.normal(size=(mesh.nel, quad.npoints)))
    u = rng.standard_normal(3 * mesh.nnodes)
    ops = {k: make_operator(k, mesh, eta) for k in KINDS}
    return mesh, quad, eta, u, ops


class TestEquivalence:
    @pytest.mark.parametrize("kind", [k for k in KINDS if k != "asmb"])
    def test_matches_assembled(self, setup, kind):
        _, _, _, u, ops = setup
        ref = ops["asmb"](u)
        y = ops[kind](u)
        assert np.abs(y - ref).max() < 1e-11 * np.abs(ref).max()

    @pytest.mark.parametrize("kind", KINDS)
    def test_linearity(self, setup, kind):
        mesh, _, _, u, ops = setup
        rng = np.random.default_rng(1)
        v = rng.standard_normal(u.size)
        lhs = ops[kind](2.0 * u - 3.0 * v)
        rhs = 2.0 * ops[kind](u) - 3.0 * ops[kind](v)
        assert np.allclose(lhs, rhs, atol=1e-10)

    @pytest.mark.parametrize("kind", KINDS)
    def test_symmetry(self, setup, kind):
        _, _, _, u, ops = setup
        rng = np.random.default_rng(2)
        v = rng.standard_normal(u.size)
        assert ops[kind](u) @ v == pytest.approx(ops[kind](v) @ u, rel=1e-10)

    @pytest.mark.parametrize("kind", KINDS)
    def test_rigid_body_nullspace(self, setup, kind):
        mesh, _, _, _, ops = setup
        from repro.mg.sa import rigid_body_modes

        B = rigid_body_modes(mesh.coords)
        for j in range(6):
            y = ops[kind](B[:, j])
            assert np.abs(y).max() < 1e-9

    @pytest.mark.parametrize("kind", [k for k in KINDS if k != "asmb"])
    def test_diagonal_matches_assembled(self, setup, kind):
        _, _, _, _, ops = setup
        assert np.allclose(ops[kind].diagonal(), ops["asmb"].diagonal(),
                           rtol=1e-11)


class TestChunking:
    def test_chunked_apply_identical(self):
        rng = np.random.default_rng(3)
        mesh = StructuredMesh((3, 3, 3), order=2)
        quad = GaussQuadrature.hex(3)
        eta = np.exp(rng.normal(size=(mesh.nel, quad.npoints)))
        u = rng.standard_normal(3 * mesh.nnodes)
        y1 = make_operator("tensor", mesh, eta, chunk=5)(u)
        y2 = make_operator("tensor", mesh, eta, chunk=10**6)(u)
        assert np.allclose(y1, y2, atol=1e-12)


class TestValidation:
    def test_bad_eta_shape(self):
        mesh = StructuredMesh((2, 2, 2), order=2)
        with pytest.raises(ValueError):
            make_operator("tensor", mesh, np.ones((3, 3)))

    def test_unknown_kind(self):
        mesh = StructuredMesh((2, 2, 2), order=2)
        with pytest.raises(ValueError):
            make_operator("wat", mesh, np.ones((mesh.nel, 27)))

    def test_tensor_requires_q2(self):
        mesh = StructuredMesh((2, 2, 2), order=1)
        with pytest.raises(ValueError):
            make_operator("tensor", mesh, np.ones((mesh.nel, 27)))

    @pytest.mark.parametrize("kind", KINDS)
    def test_nonfinite_eta_fails_fast_at_construction(self, kind):
        """A NaN-poisoned viscosity used to flow into cached coefficients
        and only trip guards deep in the Krylov loop (PR-4 taxonomy)."""
        from repro.resilience.reasons import BreakdownError, ConvergedReason

        mesh = StructuredMesh((2, 2, 2), order=2)
        eta = np.ones((mesh.nel, 27))
        eta[3, 5] = np.nan
        with pytest.raises(BreakdownError) as exc:
            make_operator(kind, mesh, eta)
        assert exc.value.reason is ConvergedReason.DIVERGED_NAN

    @pytest.mark.parametrize("kind", KINDS)
    def test_negative_eta_rejected(self, kind):
        from repro.resilience.reasons import BreakdownError, ConvergedReason

        mesh = StructuredMesh((2, 2, 2), order=2)
        eta = np.ones((mesh.nel, 27))
        eta[0, 0] = -1e-3
        with pytest.raises(BreakdownError) as exc:
            make_operator(kind, mesh, eta)
        assert exc.value.reason is ConvergedReason.DIVERGED_BREAKDOWN

    def test_zero_eta_allowed(self):
        # rank-restricted operators mask elements by zeroing viscosity
        mesh = StructuredMesh((2, 2, 2), order=2)
        eta = np.ones((mesh.nel, 27))
        eta[0] = 0.0
        op = make_operator("tensor_c", mesh, eta)
        assert np.isfinite(op(np.ones(3 * mesh.nnodes))).all()

    def test_set_viscosity_validates(self):
        from repro.resilience.reasons import BreakdownError

        mesh = StructuredMesh((2, 2, 2), order=2)
        op = make_operator("tensor", mesh, np.ones((mesh.nel, 27)))
        with pytest.raises(ValueError):
            op.set_viscosity(np.ones((3, 3)))
        with pytest.raises(BreakdownError):
            op.set_viscosity(np.full((mesh.nel, 27), np.inf))


class TestCoefficientUpdate:
    def test_tensor_c_rebuilds_after_mesh_move(self):
        """TensorC caches geometry; moving the mesh must invalidate it."""
        rng = np.random.default_rng(4)
        mesh = StructuredMesh((2, 2, 2), order=2)
        eta = np.ones((mesh.nel, 27))
        u = rng.standard_normal(3 * mesh.nnodes)
        op_c = make_operator("tensor_c", mesh, eta)
        op_t = make_operator("tensor", mesh, eta)
        assert np.allclose(op_c(u), op_t(u))
        mesh.deform(lambda c: c * 1.3)
        assert np.allclose(op_c(u), op_t(u), atol=1e-12)

    @pytest.mark.parametrize("kind", ["tensor_c", "tensor_compiled"])
    def test_rebuilds_after_inplace_eta_mutation(self, kind):
        """Cached coefficients once kept the old viscosity after an
        in-place update and silently applied the stale operator.  The
        in-place write now raises at the call site; the update goes
        through ``set_viscosity``, which rebuilds."""
        rng = np.random.default_rng(6)
        mesh = StructuredMesh((2, 2, 2), order=2)
        eta = np.exp(rng.normal(size=(mesh.nel, 27)))
        u = rng.standard_normal(3 * mesh.nnodes)
        op = make_operator(kind, mesh, eta)
        y_old = op(u)
        with pytest.raises(ValueError):
            op.eta_q *= 2.0
        op.set_viscosity(eta * 2.0)
        y_new = op(u)
        assert not np.allclose(y_new, y_old)
        assert np.array_equal(y_new, make_operator(kind, mesh, eta * 2.0)(u))
        ref = make_operator("tensor", mesh, eta * 2.0)(u)
        assert np.allclose(y_new, ref, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("kind", ["tensor_c", "tensor_compiled"])
    def test_set_viscosity(self, kind):
        rng = np.random.default_rng(7)
        mesh = StructuredMesh((2, 2, 2), order=2)
        eta = np.exp(rng.normal(size=(mesh.nel, 27)))
        u = rng.standard_normal(3 * mesh.nnodes)
        op = make_operator(kind, mesh, eta)
        op(u)
        v0 = op.version
        op.set_viscosity(eta * 0.5)
        assert op.version == v0 + 1
        ref = make_operator("tensor", mesh, eta * 0.5)(u)
        assert np.allclose(op(u), ref, rtol=1e-12, atol=1e-12)


def assert_same_operator(op, fresh, u):
    """``op`` is ``fresh`` bit for bit: diagonal, apply, assembled matrix."""
    assert np.array_equal(op.diagonal(), fresh.diagonal())
    assert np.array_equal(op.apply(u), fresh.apply(u))
    if op.name == "asmb":
        for attr in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(op.matrix, attr),
                                  getattr(fresh.matrix, attr))


class TestUpdatedEqualsFresh:
    """An operator whose input changed through its one writer is the
    operator freshly built on the new input, bit for bit."""

    @pytest.mark.parametrize("kind", KINDS)
    def test_set_viscosity(self, setup, kind):
        mesh, _, eta, u, _ = setup
        op = make_operator(kind, mesh, eta)
        op.apply(u)
        op.set_viscosity(eta * 1.7)
        assert_same_operator(op, make_operator(kind, mesh, eta * 1.7), u)

    @pytest.mark.parametrize("kind", KINDS)
    def test_mesh_deform(self, kind):
        rng = np.random.default_rng(8)
        mesh = StructuredMesh((3, 2, 4), order=2, extent=(1.0, 0.7, 1.3))
        eta = np.exp(rng.normal(size=(mesh.nel, 27)))
        u = rng.standard_normal(3 * mesh.nnodes)
        op = make_operator(kind, mesh, eta)
        op.apply(u)
        mesh.deform(lambda c: c + 0.03 * np.sin(2 * np.pi * c[:, [1, 2, 0]]))
        assert_same_operator(op, make_operator(kind, mesh, eta), u)


class TestOwnership:
    """Each input has one writer; a write that bypasses it raises."""

    @pytest.mark.parametrize("kind", KINDS)
    def test_inplace_eta_write_raises(self, setup, kind):
        _, _, eta, _, ops = setup
        op = ops[kind]
        with pytest.raises(ValueError):
            op.eta_q *= 2.0
        with pytest.raises(ValueError):
            op.eta_q[0, 0] = 1.0
        with pytest.raises(AttributeError):
            op.eta_q = eta
        assert np.array_equal(op.eta_q, eta)

    def test_inplace_coords_write_raises(self):
        mesh = StructuredMesh((2, 2, 2), order=2)
        with pytest.raises(ValueError):
            mesh.coords[0] = 0.0
        with pytest.raises(AttributeError):
            mesh.coords = np.zeros((mesh.nnodes, 3))
        assert mesh.coords_version == 0
        assert np.array_equal(mesh.coords,
                              StructuredMesh((2, 2, 2), order=2).coords)

    def test_newton_inputs_are_read_only(self):
        rng = np.random.default_rng(9)
        mesh = StructuredMesh((2, 2, 2), order=2)
        eta = np.exp(rng.normal(size=(mesh.nel, 27)))
        op = NewtonTensorOperator(mesh, eta, np.ones((mesh.nel, 27, 3, 3)),
                                  np.zeros_like(eta))
        with pytest.raises(ValueError):
            op.Du_q[0, 0] = 0.0
        with pytest.raises(ValueError):
            op.eta_prime_q *= 2.0

    @pytest.mark.parametrize("kind", KINDS)
    def test_caller_keeps_its_array(self, kind):
        rng = np.random.default_rng(10)
        mesh = StructuredMesh((2, 2, 2), order=2)
        eta = np.exp(rng.normal(size=(mesh.nel, 27)))
        u = rng.standard_normal(3 * mesh.nnodes)
        op = make_operator(kind, mesh, eta)
        y = op.apply(u)
        eta_before = eta.copy()
        eta *= 3.0  # the caller's own array: writable, no longer the operator's
        assert np.array_equal(op.eta_q, eta_before)
        assert np.array_equal(op.apply(u), y)


class TestNewtonOperator:
    def test_reduces_to_picard_for_zero_eta_prime(self):
        rng = np.random.default_rng(5)
        mesh = StructuredMesh((2, 2, 2), order=2)
        quad = GaussQuadrature.hex(3)
        eta = np.exp(rng.normal(size=(mesh.nel, quad.npoints)))
        u = rng.standard_normal(3 * mesh.nnodes)
        Du = rng.standard_normal((mesh.nel, quad.npoints, 3, 3))
        Du = 0.5 * (Du + Du.transpose(0, 1, 3, 2))
        newton = NewtonTensorOperator(mesh, eta, Du, np.zeros_like(eta))
        picard = make_operator("tensor", mesh, eta)
        assert np.allclose(newton(u), picard(u), atol=1e-12)

    def test_matches_finite_difference_jacobian(self):
        """The Newton operator is the derivative of the residual of the
        power-law operator: J(u) w = d/de [ A(u + e w) (u + e w) ]."""
        from repro.rheology.laws import PowerLawViscosity
        from repro.sim.fields import strain_rate_at_quadrature, strain_invariant_at_quadrature

        rng = np.random.default_rng(6)
        mesh = StructuredMesh((2, 2, 2), order=2)
        quad = GaussQuadrature.hex(3)
        law = PowerLawViscosity(eta0=2.0, n=3.0)
        u = rng.standard_normal(3 * mesh.nnodes)
        w = rng.standard_normal(3 * mesh.nnodes)

        def residual(v):
            eps = strain_invariant_at_quadrature(mesh, v, quad)
            eta, _ = law(eps)
            return make_operator("tensor", mesh, eta, quad=quad)(v)

        eps = strain_invariant_at_quadrature(mesh, u, quad)
        eta, deta = law(eps)
        Du = strain_rate_at_quadrature(mesh, u, quad)
        J = NewtonTensorOperator(mesh, eta, Du, deta, quad=quad)
        assert J.compiled is _ckernel.available()
        h = 1e-6
        fd = (residual(u + h * w) - residual(u - h * w)) / (2 * h)
        jw = J(w)
        assert np.abs(jw - fd).max() < 1e-4 * np.abs(fd).max()


class TestApplyCounters:
    """Apply accounting is the ``MatMult_<kind>`` event a solve reports:
    calling the operator is timed and counted, ``apply`` is not."""

    @pytest.fixture(autouse=True)
    def obs_enabled(self):
        obs.disable()
        obs.reset()
        obs.enable()
        yield
        obs.disable()
        obs.reset()

    @staticmethod
    def assert_two_calls_counted(op, counts_row):
        from repro.perf.counts import OPERATOR_COUNTS

        u = np.ones(op.ndof)
        op(u)
        op(u)
        op.apply(u)
        rec = obs.REGISTRY.events[("", "MatMult_" + op.name)]
        assert rec.count == 2
        assert rec.flops == 2 * op.mesh.nel * OPERATOR_COUNTS[counts_row].flops

    def test_counts_calls_and_flops(self):
        mesh = StructuredMesh((2, 2, 2), order=2)
        op = make_operator("tensor", mesh, np.ones((mesh.nel, 27)))
        self.assert_two_calls_counted(op, "tensor")

    def test_newton_counts_its_own_row(self):
        mesh = StructuredMesh((2, 2, 2), order=2)
        eta = np.ones((mesh.nel, 27))
        op = NewtonTensorOperator(mesh, eta, np.zeros((mesh.nel, 27, 3, 3)),
                                  np.zeros_like(eta))
        self.assert_two_calls_counted(op, "newton")


class TestStressForm:
    def test_matches_analytic_on_linear_field(self):
        """For u = (y, 0, 0) on the unit cube with eta=1, the operator's
        action against itself gives int 2 eta D:D = 2 * (1/2)^2 * 2 = 1."""
        mesh = StructuredMesh((3, 3, 3), order=2)
        eta = np.ones((mesh.nel, 27))
        op = make_operator("tensor", mesh, eta)
        u = np.zeros(3 * mesh.nnodes)
        u[0::3] = mesh.coords[:, 1]  # u_x = y, pure shear
        # D = [[0, 1/2, 0], [1/2, 0, 0], [0,0,0]]; 2 D:D = 1 per unit volume
        assert u @ op(u) == pytest.approx(1.0, rel=1e-12)
