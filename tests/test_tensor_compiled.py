"""Compiled sum-factorized tensor kernel: determinism, accuracy, fallback.

The kernel's contract (``repro.matfree._ckernel``): an element's floats are
the same in any SIMD lane, on any ISA variant, under any span cut, and the
scatter runs in element order.  Every claim that follows from it is
``rtol=0`` (bitwise).  Against the NumPy einsum path the arithmetic is
associated differently, so those claims carry the few-ulp bound
``<= 1e-13 max|y|`` instead.
"""

import numpy as np
import pytest

from repro.fem import StructuredMesh, GaussQuadrature
from repro.matfree import NewtonTensorOperator, make_operator
from repro.matfree import _ckernel
from repro.matfree.tensor_c import (
    PACKED_VALUES, build_packed_coefficients, unpack_sym,
)
from repro.matfree.tensor_compiled import NEWTON_VALUES, owner_writes_plan
from repro.parallel.executor import (
    partition_range, replay_stashes, use_executor,
)
from tests.conftest import dispatch_engine

QUAD = GaussQuadrature.hex(3)
#: ``process`` is the rank-process engine (ProcommEngine)
BACKENDS = ["thread", "process"]
#: meshes whose element count is not a multiple of the 8-lane batch
ODD_SHAPES = [(3, 3, 3), (5, 3, 2)]

needs_kernel = pytest.mark.skipif(
    not _ckernel.available(),
    reason=f"no compiled kernel: {_ckernel.unavailable_reason()}",
)


def small_setup(shape=(3, 3, 4), seed=11):
    """Deformed mesh, variable viscosity, random input."""
    rng = np.random.default_rng(seed)
    mesh = StructuredMesh(shape, order=2, extent=(1.0, 0.8, 1.2))
    mesh.deform(lambda c: c + 0.02 * np.sin(2 * np.pi * c[:, [1, 2, 0]]))
    eta = np.exp(rng.normal(scale=0.5, size=(mesh.nel, QUAD.npoints)))
    u = rng.standard_normal(3 * mesh.nnodes)
    return mesh, eta, u


def compiled_op(shape=(3, 3, 4), **kwargs):
    mesh, eta, u = small_setup(shape)
    return make_operator("tensor_compiled", mesh, eta, quad=QUAD, **kwargs), u


def newton_inputs(mesh, seed=12):
    """A symmetric strain rate and an ``eta'`` of both signs."""
    rng = np.random.default_rng(seed)
    Du = rng.standard_normal((mesh.nel, QUAD.npoints, 3, 3))
    deta = rng.normal(scale=0.3, size=(mesh.nel, QUAD.npoints))
    assert deta.min() < 0 < deta.max()
    return 0.5 * (Du + Du.transpose(0, 1, 3, 2)), deta


def newton_op(shape=(5, 3, 2), **kwargs):
    mesh, eta, u = small_setup(shape)
    Du, deta = newton_inputs(mesh)
    return NewtonTensorOperator(mesh, eta, Du, deta, quad=QUAD, **kwargs), u


#: the operator method that runs a ``tc_<kind>_<isa>`` variant with the
#: owner-writes arguments ``(fn, x, s, e, out, lo, stash)``
RUNNERS = {"apply": "_run_kernel", "newton": "_run_kernel",
           "coupled": "_run_coupled", "coupled_newton": "_run_coupled"}


def kernel_case(kind, shape):
    """``(op, x, run)``: the operator whose ``tc_<kind>_<isa>`` variants
    ``run(fn, x, s, e, out=None, lo=0, stash=None)`` calls, with its
    pressure stream packed, and an input (``[u ; p]`` for a coupled
    kernel)."""
    newton, pressure = _ckernel.KERNELS[kind]
    op, x = newton_op(shape) if newton else compiled_op(shape)
    if pressure:
        op._pack_pressure()
    if pressure == 1:
        p = np.random.default_rng(13).standard_normal(op.npress)
        x = np.concatenate([x, p])
    if pressure == 2:  # writes each element's rows once, stashes nothing
        def run(fn, x, s, e, out=None, lo=0, stash=None):
            return op._run_divergence(fn, x, s, e, out)
        return op, x, run
    return op, x, getattr(op, RUNNERS[kind])


@pytest.fixture
def no_toolchain(monkeypatch):
    """Force the NumPy fallback for operators built inside the test."""
    monkeypatch.setenv(_ckernel.ENV_DISABLE, "1")
    _ckernel._reset_for_tests()
    yield
    _ckernel._reset_for_tests()


class TestPackedStorage:
    def test_packed_values_is_16(self):
        # 6 (symmetric S) + 9 (K) + 1 (w eta): the ~5x cut vs dense 81
        assert PACKED_VALUES == 16
        assert 81 / PACKED_VALUES > 4.0

    def test_pack_roundtrip_matches_dense_rank4(self):
        """The packed apply must contract exactly like the dense tensor
        C_cdef = w eta (delta_ce M_df + K_de K_fc), M = K K^T."""
        rng = np.random.default_rng(0)
        Jinv = rng.standard_normal((5, 27, 3, 3))
        weta = np.abs(rng.standard_normal((5, 27))) + 0.1
        g = rng.standard_normal((5, 27, 3, 3))
        packed = build_packed_coefficients(Jinv, weta)
        assert packed.shape == (5, 27, PACKED_VALUES)
        S = unpack_sym(packed)
        K = packed[..., 6:15].reshape(5, 27, 3, 3)
        w = packed[..., 15]
        t_packed = np.einsum("nqce,nqed->nqcd", g, S)
        t_packed += w[..., None, None] * np.einsum(
            "nqde,nqef,nqfc->nqdc", K, g, K
        ).transpose(0, 1, 3, 2)
        M = np.einsum("nqde,nqfe->nqdf", Jinv, Jinv)
        C = weta[..., None, None, None, None] * (
            np.einsum("ce,nqdf->nqcdef", np.eye(3), M)
            + np.einsum("nqde,nqfc->nqcdef", Jinv, Jinv)
        )
        t_dense = np.einsum("nqcdef,nqef->nqcd", C, g)
        assert np.allclose(t_packed, t_dense, rtol=1e-13, atol=1e-13)
        # major symmetry C_cdef = C_efcd: the operator stays symmetric
        assert np.allclose(C, C.transpose(0, 1, 4, 5, 2, 3))

    @needs_kernel
    @pytest.mark.parametrize("shape", ODD_SHAPES)
    @pytest.mark.parametrize("chunk", [5, 4096])
    def test_interleaved_layout_is_the_only_copy(self, shape, chunk):
        """``_C[b, q, k, l]`` is value k of point q of element 8 b + l;
        lanes past nel are zero; no element-major copy is kept."""
        mesh, eta, _ = small_setup(shape)
        op = make_operator("tensor_compiled", mesh, eta, quad=QUAD,
                           chunk=chunk)
        ref = make_operator("tensor_c", mesh, eta, quad=QUAD)
        nb = -(-mesh.nel // _ckernel.LANES)
        assert op._C.shape == (nb, 27, PACKED_VALUES, _ckernel.LANES)
        by_element = op._C.transpose(0, 3, 1, 2).reshape(-1, 27, PACKED_VALUES)
        assert np.array_equal(by_element[:mesh.nel], ref._C)
        assert not by_element[mesh.nel:].any()
        big = [v for v in vars(op).values()
               if isinstance(v, np.ndarray) and v.size >= ref._C.size]
        assert len(big) == 1 and big[0] is op._C


@needs_kernel
class TestBitwiseContract:
    """rtol=0: ISA variant, lane position, span cuts, executors."""

    @pytest.mark.parametrize("shape", ODD_SHAPES + [(3, 3, 4)])
    def test_every_isa_variant_gives_the_same_floats(self, shape):
        for kind in _ckernel.KERNELS:
            op, x, run = kernel_case(kind, shape)
            variants = _ckernel.variants(kind)
            assert list(variants)[0] == "base"
            assert list(variants)[-1] == op.isa
            nel = op.mesh.nel
            spans = [(0, nel), (1, nel - 2), (3, 12), (7, 9)]
            for s, e in spans:
                ys = [run(fn, x, s, e) for fn in variants.values()]
                assert np.abs(ys[0]).max() > 0
                for y in ys[1:]:
                    assert np.array_equal(ys[0], y), (kind, s, e)

    @pytest.mark.parametrize("shape", ODD_SHAPES)
    def test_arbitrary_span_cuts_match_ordered_element_sum(self, shape):
        """A span partial is the in-order sum of its elements' one-element
        partials -- each of which was computed in whatever lane and
        part-batch its global index dictates -- so cutting a batch changes
        nothing."""
        op, u = compiled_op(shape)
        nel = op.mesh.nel
        single = [op._run_kernel(op._kernel, u, el, el + 1)
                  for el in range(nel)]
        rng = np.random.default_rng(2)
        cuts = sorted(rng.choice(np.arange(1, nel), size=5, replace=False))
        for s, e in zip([0, *cuts], [*cuts, nel]):
            expect = np.zeros(op.ndof)
            for el in range(s, e):
                expect += single[el]
            assert np.array_equal(op._run_kernel(op._kernel, u, s, e), expect)

    @pytest.mark.parametrize("cut", ["mid-layer", "more-spans-than-layers",
                                     "one-element-per-span"])
    def test_owner_writes_equals_one_span_serial(self, cut):
        """Owner-writes over any cut -- tasks run in reverse order, stashes
        replayed in span order -- is the one-span serial apply, bitwise,
        on every ISA variant of every kernel (the divergence writes each
        element's rows once and stashes nothing)."""
        for kind in _ckernel.KERNELS:
            # 15 elements/layer, 7 layers
            op, x, run = kernel_case(kind, (5, 3, 7))
            nel = op.mesh.nel
            spans = {
                "mid-layer": list(zip([0, 7, 22, 50, 80],
                                      [7, 22, 50, 80, nel])),
                "more-spans-than-layers": partition_range(nel, 10),
                "one-element-per-span": [(el, el + 1) for el in range(nel)],
            }[cut]
            lo, stashes = owner_writes_plan(op._conn64, spans)
            assert sum(map(len, stashes)) > 0
            if kind == "divergence":
                stashes = [idx[:0] for idx in stashes]
            for name, fn in _ckernel.variants(kind).items():
                serial = run(fn, x, 0, nel)
                out = np.zeros_like(serial)
                vals = [np.empty(len(idx)) for idx in stashes]
                for (s, e), stash in reversed(list(zip(spans, vals))):
                    run(fn, x, s, e, out, lo[s], stash)
                assert np.array_equal(replay_stashes(out, stashes, vals),
                                      serial), (kind, name)

    def test_element_floats_do_not_depend_on_the_lane(self):
        """The same coefficients and the same local input at every lane
        offset of the batch (a 1 x 1 x 11 column) yield the same 81 local
        values."""
        n = 11
        mesh = StructuredMesh((1, 1, n), order=2)
        op = make_operator("tensor_compiled", mesh, np.ones((n, 27)),
                           quad=QUAD)
        # element 0's coefficients in every lane of every batch
        op._C[:] = op._C[:1, :, :, :1]
        local = np.random.default_rng(4).standard_normal((27, 3))
        conn = mesh.connectivity
        outs = []
        for el in range(n):
            u = np.zeros((mesh.nnodes, 3))
            u[conn[el]] = local
            y = op._run_kernel(op._kernel, u.ravel(), el, el + 1)
            y = y.reshape(-1, 3)
            outs.append(y[conn[el]])
        assert np.abs(outs[0]).max() > 0
        for out in outs[1:]:
            assert np.array_equal(outs[0], out)

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("workers", [2, 3])
    @pytest.mark.parametrize("shape", ODD_SHAPES)
    def test_parallel_matches_serial_exactly(self, backend, workers, shape):
        with use_executor(None):
            serial, u = compiled_op(shape)
        with dispatch_engine(backend, workers):
            op, _ = compiled_op(shape)
            assert np.array_equal(op.apply(u), serial.apply(u))

    def test_chunk_size_does_not_change_compiled_result(self):
        # chunk only shapes the coefficient build and the NumPy fallback
        op1, u = compiled_op(chunk=4)
        op2, _ = compiled_op()
        assert np.array_equal(op1.apply(u), op2.apply(u))

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_mid_run_eta_update_parallel(self, backend):
        """Viscosity update between applies: an in-place write raises, and
        after ``set_viscosity`` the interleaved coefficients rebuild and
        workers see them."""
        mesh, eta, u = small_setup((5, 3, 2))
        with use_executor(None):
            ref = make_operator("tensor_compiled", mesh, eta * 3.0,
                                quad=QUAD).apply(u)
        with dispatch_engine(backend, 2):
            op = make_operator("tensor_compiled", mesh, eta, quad=QUAD)
            y_before = op.apply(u)
            with pytest.raises(ValueError):
                op.eta_q *= 3.0
            op.set_viscosity(eta * 3.0)
            y_par = op.apply(u)
        assert not np.array_equal(y_par, y_before)
        assert np.array_equal(y_par, ref)


class TestAccuracy:
    """Few-ulp agreement with the einsum backends; operator properties."""

    @pytest.mark.parametrize("shape", ODD_SHAPES + [(3, 3, 4)])
    def test_matches_einsum_backends(self, shape):
        mesh, eta, u = small_setup(shape)
        y_t = make_operator("tensor", mesh, eta, quad=QUAD)(u)
        y_c = make_operator("tensor_c", mesh, eta, quad=QUAD)(u)
        y_x = make_operator("tensor_compiled", mesh, eta, quad=QUAD)(u)
        scale = np.abs(y_c).max()
        assert np.abs(y_x - y_c).max() <= 1e-13 * scale
        assert np.abs(y_x - y_t).max() <= 1e-13 * scale

    @needs_kernel
    def test_matches_no_toolchain_fallback(self, request):
        mesh, eta, u = small_setup((5, 3, 2))
        y_x = make_operator("tensor_compiled", mesh, eta, quad=QUAD)(u)
        request.getfixturevalue("no_toolchain")
        fallback = make_operator("tensor_compiled", mesh, eta, quad=QUAD)
        assert not fallback.compiled
        y_f = fallback(u)
        assert np.abs(y_x - y_f).max() <= 1e-13 * np.abs(y_f).max()

    def test_mesh_deform_rebuilds(self):
        mesh, eta, u = small_setup()
        op = make_operator("tensor_compiled", mesh, eta, quad=QUAD)
        op.apply(u)
        mesh.deform(lambda c: c * 1.2)
        ref = make_operator("tensor", mesh, eta, quad=QUAD).apply(u)
        assert np.allclose(op.apply(u), ref, rtol=1e-12, atol=1e-12)

    def test_nullspace_and_symmetry(self):
        from repro.mg.sa import rigid_body_modes

        mesh, eta, u = small_setup((5, 3, 2))
        op = make_operator("tensor_compiled", mesh, eta, quad=QUAD)
        v = np.random.default_rng(3).standard_normal(u.size)
        assert op(u) @ v == pytest.approx(op(v) @ u, rel=1e-10)
        B = rigid_body_modes(mesh.coords)
        for j in range(6):
            assert np.abs(op(B[:, j])).max() < 1e-9


class TestNewtonKernel:
    """``tc_newton_<isa>``: the Picard kernel plus the rank-one term, under
    the same bitwise contract, against the einsum oracle."""

    @pytest.mark.parametrize("shape", ODD_SHAPES)
    def test_matches_einsum_oracle(self, shape):
        op, u = newton_op(shape)
        y = op.apply(u)
        ref = op._apply_einsum(u)
        assert np.abs(y - ref).max() <= 1e-13 * np.abs(ref).max()

    def test_rank_one_term_is_the_newton_term(self):
        """The packed ``a (M:g) M`` is the einsum flux's ``2 eta' (Du:Dw)
        Du`` pulled back with ``K^T``: compare the two directly."""
        from repro.matfree.tensor_compiled import newton_coefficients

        rng = np.random.default_rng(1)
        K = rng.standard_normal((4, 27, 3, 3))
        wdet = np.abs(rng.standard_normal((4, 27))) + 0.1
        Du, deta = newton_inputs(StructuredMesh((2, 2, 1), order=2))
        g = rng.standard_normal((4, 27, 3, 3))
        packed = newton_coefficients(K, wdet, Du, deta)
        assert packed.shape == (4, 27, NEWTON_VALUES)
        a, M = packed[..., 0], packed[..., 1:].reshape(4, 27, 3, 3)
        t = (a * np.einsum("nqcd,nqcd->nq", M, g))[..., None, None] * M
        Dw = 0.5 * (np.einsum("nqcd,nqde->nqce", g, K)
                    + np.einsum("nqcd,nqde->nqec", g, K))
        tau = (2.0 * deta * wdet * np.einsum("nqcd,nqcd->nq", Du, Dw)
               )[..., None, None] * Du
        ref = np.einsum("nqce,nqde->nqcd", tau, K)
        assert np.allclose(t, ref, rtol=1e-13, atol=1e-13)

    @needs_kernel
    def test_zero_eta_prime_is_the_picard_kernel_bitwise(self):
        mesh, eta, u = small_setup((5, 3, 2))
        Du, deta = newton_inputs(mesh)
        newton = NewtonTensorOperator(mesh, eta, Du, np.zeros_like(deta),
                                      quad=QUAD)
        picard = make_operator("tensor_compiled", mesh, eta, quad=QUAD)
        assert np.array_equal(newton.apply(u), picard.apply(u))

    @needs_kernel
    def test_layout_and_rebuild(self):
        """``_N[b, q, k, l]`` is value k of point q of element 8 b + l; a
        viscosity update repacks both streams like a fresh build."""
        op, u = newton_op()
        nel = op.mesh.nel
        assert op._N.shape == (-(-nel // _ckernel.LANES), 27, NEWTON_VALUES,
                               _ckernel.LANES)
        by_element = op._N.transpose(0, 3, 1, 2).reshape(-1, 27, NEWTON_VALUES)
        assert not by_element[nel:].any()
        assert np.array_equal(by_element[:nel, :, 0],
                              2.0 * op.eta_prime_q * op._geometry(0, nel)[1])
        fresh = NewtonTensorOperator(op.mesh, 2.0 * op.eta_q, op.Du_q,
                                     op.eta_prime_q, quad=QUAD)
        op.set_viscosity(2.0 * op.eta_q)
        assert np.array_equal(op.apply(u), fresh.apply(u))

    def test_fallback_is_the_einsum_oracle(self, no_toolchain):
        op, u = newton_op()
        assert not op.compiled and not hasattr(op, "_C")
        assert np.array_equal(op.apply(u), op._apply_einsum(u))


def stokes_case(bc_builder, newton=False, shape=(5, 3, 2)):
    """A compiled coupled operator on a deformed mesh (Newton: the
    linearization swapped in as the viscous block) and an input."""
    from repro.stokes import StokesOperator, StokesProblem

    mesh, eta, u = small_setup(shape)
    rho = np.random.default_rng(14).random(eta.shape)
    op = StokesOperator(StokesProblem(mesh, eta, rho,
                                      bc_builder=bc_builder))
    if newton:
        Du, deta = newton_inputs(mesh)
        op = op.with_velocity_operator(
            NewtonTensorOperator(mesh, eta, Du, deta, quad=QUAD))
    p = np.random.default_rng(15).standard_normal(4 * mesh.nel)
    return op, np.concatenate([u, p])


def assert_close(y, ref):
    """The few-ulp bound: ``<= 1e-13`` relative to ``max |ref|``."""
    assert np.abs(ref).max() > 0
    assert np.abs(y - ref).max() <= 1e-13 * np.abs(ref).max()


@needs_kernel
class TestCoupledKernels:
    """``tc_coupled[_newton]_<isa>``: ``(u, p) -> (A u + B^T p, B u)`` in
    one pass, and ``tc_divergence_<isa>``: ``u -> B u``, against the CSR
    ``B`` of :func:`~repro.fem.assembly.assemble_divergence`."""

    @pytest.mark.parametrize("newton", [False, True])
    @pytest.mark.parametrize("bc_name", ["free_slip", "no_slip"])
    def test_match_the_csr_formulas(self, bc_name, newton):
        """``apply``, ``divergence`` and ``gradient`` of the compiled
        operator are the ``B_int`` formulas of the non-compiled kinds,
        Dirichlet semantics included, to a few ulp."""
        import scipy.sparse as sp
        from repro.fem import assembly
        from tests.conftest import free_slip_bc, no_slip_bc

        bc_builder = {"free_slip": free_slip_bc, "no_slip": no_slip_bc}[bc_name]
        op, x = stokes_case(bc_builder, newton)
        assert op._fused and "B_int" not in vars(op)
        mesh, bc, nu = op.problem.mesh, op.bc, op.nu
        B = assembly.assemble_divergence(mesh, QUAD)
        B_int = (B @ sp.diags((~bc.mask).astype(float))).tocsr()
        u, p = x[:nu], x[nu:]
        gp = B_int.T @ p
        gp[bc.dofs] = 0.0
        yu = bc.wrap_apply(op.A_op.apply)(u) + gp
        y = op.apply(x)
        assert_close(y[:nu], yu)
        assert np.array_equal(y[bc.dofs], x[bc.dofs])  # identity rows
        assert_close(y[nu:], B_int @ u)
        assert_close(op.divergence(u), B_int @ u)
        assert_close(op.gradient(p), gp)
        assert np.array_equal(op.gradient(p)[bc.dofs], np.zeros(bc.dofs.size))
        # nothing assembled on the way
        assert "B_int" not in vars(op)

    def test_pressure_lift_matches_the_csr_lift(self):
        """Nonzero boundary values: the lift ``-B g`` built by the
        divergence kernel is the CSR one, and ``constraint`` is ``B u``."""
        from repro.fem import DirichletBC, assembly, boundary_nodes
        from repro.fem import component_dofs

        def lid_bc(mesh):
            bc = DirichletBC(3 * mesh.nnodes)
            for face in ("xmin", "xmax", "ymin", "ymax", "zmin"):
                nodes = boundary_nodes(mesh, face)
                for c in range(3):
                    bc.add(component_dofs(nodes, c), 0.0)
            top = boundary_nodes(mesh, "zmax")
            bc.add(component_dofs(top, 0), 1.0 + mesh.coords[top, 1])
            return bc.finalize()

        op, x = stokes_case(lid_bc)
        bc, nu = op.bc, op.nu
        B = assembly.assemble_divergence(op.problem.mesh, QUAD)
        g = np.zeros(nu)
        g[bc.dofs] = bc.values
        assert_close(op.rhs()[nu:], -(B @ g))
        u = x[:nu].copy()
        u[bc.dofs] = bc.values
        assert_close(op.constraint(u), B @ u)

    @pytest.mark.parametrize("kind", ["apply", "newton"])
    def test_one_pass_is_both_kernels_bitwise(self, kind):
        """With ``p = 0`` the coupled velocity rows are the viscous
        kernel's floats, and its pressure rows are always the divergence
        kernel's."""
        coupled = {"apply": "coupled", "newton": "coupled_newton"}[kind]
        op, x, run = kernel_case(coupled, ODD_SHAPES[1])
        nel, nu = op.mesh.nel, op.ndof
        x0 = x.copy()
        x0[nu:] = 0.0
        y0 = run(op._coupled_kernel, x0, 0, nel)
        assert np.array_equal(y0[:nu], op._run_kernel(op._kernel, x[:nu],
                                                      0, nel))
        y = run(op._coupled_kernel, x, 0, nel)
        div = op._run_divergence(op._divergence_kernel, x[:nu], 0, nel)
        assert np.array_equal(y[nu:], div) and np.array_equal(y0[nu:], div)

    @pytest.mark.parametrize("kind", ["coupled", "divergence"])
    def test_span_cuts_match_ordered_element_sum(self, kind):
        """As for the viscous kernel: a span's partial is the in-order sum
        of its elements' one-element partials, pressure rows included."""
        op, x, run = kernel_case(kind, ODD_SHAPES[0])
        fn = _ckernel.variants(kind)[op.isa]
        nel = op.mesh.nel
        single = [run(fn, x, el, el + 1) for el in range(nel)]
        for s, e in [(0, 5), (5, 13), (13, nel)]:
            expect = np.zeros_like(single[0])
            for el in range(s, e):
                expect += single[el]
            assert np.array_equal(run(fn, x, s, e), expect)

    def test_pressure_stream_layout_and_rebuild(self):
        """``_P`` is packed at the first coupled apply (a new rank-state
        version), holds ``w det psi_m`` lane-interleaved, and is repacked
        with ``_C``: after a mesh move the operator equals a fresh one."""
        from repro.fem.basis import P1DiscBasis
        from repro.matfree.tensor_compiled import PRESSURE_VALUES

        op, u = compiled_op((5, 3, 2))
        mesh, nel = op.mesh, op.mesh.nel
        assert op._P is None
        version = op._parallel_state_version
        d = op.apply_divergence(u)
        assert op._parallel_state_version == version + 1
        nb = -(-nel // _ckernel.LANES)
        assert op._P.shape == (nb, 27, PRESSURE_VALUES, _ckernel.LANES)
        by_element = op._P.transpose(0, 3, 1, 2).reshape(-1, 27,
                                                          PRESSURE_VALUES)
        assert not by_element[nel:].any()
        _, det, xq = mesh.geometry_at(QUAD)
        psi = P1DiscBasis.eval(xq, *mesh.element_centroids_and_extents())
        assert np.array_equal(by_element[:nel],
                              (det * QUAD.weights)[..., None] * psi)
        mesh.deform(lambda c: c * 1.1)
        moved = op.apply_divergence(u)
        assert not np.array_equal(moved, d)
        fresh = make_operator("tensor_compiled", mesh, op.eta_q, quad=QUAD)
        assert np.array_equal(moved, fresh.apply_divergence(u))


class TestFallback:
    def test_kill_switch_forces_numpy_path(self, no_toolchain):
        mesh, eta, u = small_setup()
        op = make_operator("tensor_compiled", mesh, eta, quad=QUAD)
        assert not op.compiled and op.isa is None
        assert _ckernel.ENV_DISABLE in op.fallback_reason
        assert _ckernel.variants() == {}
        # the fallback is the inherited packed path: identical floats
        ref = make_operator("tensor_c", mesh, eta, quad=QUAD)
        assert np.array_equal(op.apply(u), ref.apply(u))

    @pytest.mark.parametrize("raw", ["", "0", "1"])
    def test_kill_switch_is_exactly_one(self, monkeypatch, raw):
        monkeypatch.setenv(_ckernel.ENV_DISABLE, raw)
        _ckernel._reset_for_tests()
        try:
            disabled = f"disabled via ${_ckernel.ENV_DISABLE}"
            assert (_ckernel.unavailable_reason() == disabled) is (raw == "1")
        finally:
            _ckernel._reset_for_tests()

    @pytest.mark.parametrize("raw", ["yes", "true", "2"])
    def test_kill_switch_rejects_other_values(self, monkeypatch, raw):
        monkeypatch.setenv(_ckernel.ENV_DISABLE, raw)
        _ckernel._reset_for_tests()
        try:
            with pytest.raises(ValueError, match=r"\$REPRO_NO_CKERNEL"):
                _ckernel.load()
        finally:
            _ckernel._reset_for_tests()

    def test_compile_failure_degrades_gracefully(self, monkeypatch, tmp_path):
        monkeypatch.delenv(_ckernel.ENV_DISABLE, raising=False)
        monkeypatch.setenv(_ckernel.ENV_CACHE, str(tmp_path))
        monkeypatch.setattr(_ckernel, "_COMPILERS", ("definitely-not-a-cc",))
        _ckernel._reset_for_tests()
        try:
            assert not _ckernel.available()
            assert "compile failed" in _ckernel.unavailable_reason()
            mesh, eta, u = small_setup(shape=(2, 2, 2))
            op = make_operator("tensor_compiled", mesh, eta, quad=QUAD)
            assert not op.compiled
            assert np.isfinite(op.apply(u)).all()
        finally:
            _ckernel._reset_for_tests()


@needs_kernel
class TestCache:
    """The shared-object cache must never hand back a foreign object."""

    @staticmethod
    def first_compiler() -> str:
        import shutil

        return next(p for p in map(shutil.which, _ckernel._COMPILERS) if p)

    @pytest.fixture
    def fresh_cache(self, monkeypatch, tmp_path):
        monkeypatch.setenv(_ckernel.ENV_CACHE, str(tmp_path))
        _ckernel._reset_for_tests()
        yield tmp_path
        _ckernel._reset_for_tests()

    def test_unloadable_cached_file_is_rebuilt_once(self, fresh_cache):
        # plant a truncated object where the first found compiler's build
        # would be cached (never truncate a file this process has mapped)
        cc = self.first_compiler()
        so_path = fresh_cache / f"tensor_kernel-{_ckernel._source_key(cc)}.so"
        so_path.write_bytes(b"\x7fELF truncated")
        assert _ckernel.available(), _ckernel.unavailable_reason()
        assert so_path.stat().st_size > 1000
        assert _ckernel.status() == {"isa": _ckernel.isa()}

    def test_key_covers_machine_and_compiler(self, fresh_cache, monkeypatch):
        cc = self.first_compiler()
        key = _ckernel._source_key(cc)
        monkeypatch.setattr(_ckernel.platform, "machine", lambda: "riscv128")
        assert _ckernel._source_key(cc) != key
        monkeypatch.undo()
        other = fresh_cache / "other-cc"
        other.write_bytes(b"#!/bin/sh\n")
        assert _ckernel._source_key(str(other)) != key
        monkeypatch.setattr(_ckernel, "_CFLAGS", [*_ckernel._CFLAGS, "-g"])
        assert _ckernel._source_key(cc) != key

    def test_persistent_load_failure_falls_back(self, fresh_cache, monkeypatch):
        def refuse(path):
            raise OSError("wrong ELF class")

        monkeypatch.setattr(_ckernel.ctypes, "CDLL", refuse)
        assert not _ckernel.available()
        assert "load failed" in _ckernel.unavailable_reason()
        assert not list(fresh_cache.glob("*.so"))


class TestDefaults:
    def test_counts_registered(self):
        from repro.perf.counts import OPERATOR_COUNTS

        c = OPERATOR_COUNTS["tensor_compiled"]
        assert c.flops == 10773 < OPERATOR_COUNTS["tensor_c"].flops
        assert OPERATOR_COUNTS["newton"].flops == c.flops + 27 * 36

    def test_default_solve_runs_the_compiled_kernel(self):
        from repro.mg.gmg import GMGConfig
        from repro.sim.sinker import SinkerConfig, sinker_stokes_problem
        from repro.stokes import StokesConfig, StokesOperator, solve_stokes

        assert StokesConfig().operator == "tensor_compiled"
        assert GMGConfig().operator == "tensor_compiled"
        pb = sinker_stokes_problem(SinkerConfig(
            shape=(4, 4, 4), n_spheres=2, radius=0.15, delta_eta=100.0))
        assert StokesOperator(pb).A_op.name == "tensor_compiled"
        sol = solve_stokes(pb, StokesConfig(mg_levels=2, coarse_solver="lu"))
        assert sol.converged
        fine = sol.extra["operator"].A_op
        assert fine.name == "tensor_compiled"
        assert fine.compiled is _ckernel.available()
        pc_fine = sol.extra["preconditioner"].velocity_pc.levels[0]
        assert pc_fine.label == "gmg-fine[tensor_compiled]"

    def test_gmg_fine_level_cycle_contracts(self):
        from repro.fem import DirichletBC, boundary_nodes, component_dofs
        from repro.mg.gmg import GMGConfig, build_gmg

        rng = np.random.default_rng(5)
        meshes = StructuredMesh((4, 4, 4), order=2).hierarchy(2)[::-1]
        etas = [np.ones((m.nel, 27)) for m in meshes]

        def bc_builder(m):
            bc = DirichletBC(3 * m.nnodes)
            for face, comp in (("xmin", 0), ("xmax", 0), ("ymin", 1),
                               ("ymax", 1), ("zmin", 2)):
                bc.add(component_dofs(boundary_nodes(m, face), comp), 0.0)
            return bc.finalize()

        cfg = GMGConfig(mg_levels=2, coarse_solver="lu")
        mg, _ = build_gmg(meshes, etas, bc_builder, cfg)
        b = rng.standard_normal(3 * meshes[0].nnodes)
        b[mg.levels[0].bc_mask] = 0.0
        x = mg(b)
        r = b - mg.levels[0].apply(x)
        assert np.linalg.norm(r) < 0.5 * np.linalg.norm(b)
