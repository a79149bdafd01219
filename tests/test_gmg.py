"""Geometric multigrid: convergence, h-independence, configurations."""

import numpy as np
import pytest

from repro.fem import StructuredMesh, GaussQuadrature
from repro.matfree import make_operator
from repro.mg import build_gmg, GMGConfig
from repro.mg.coefficients import coefficient_hierarchy
from repro.solvers import cg

from tests.conftest import free_slip_bc, no_slip_bc

QUAD = GaussQuadrature.hex(3)


def smooth_eta(x):
    return np.exp(
        2 * np.exp(-8 * ((x[..., 0] - 0.5) ** 2 + (x[..., 1] - 0.5) ** 2
                         + (x[..., 2] - 0.5) ** 2))
    )


def solve_with_gmg(shape, levels=2, config=None, rtol=1e-8):
    mesh = StructuredMesh(shape, order=2)
    meshes = mesh.hierarchy(levels)[::-1]
    etas = []
    for m in meshes:
        _, _, xq = m.geometry_at(QUAD)
        etas.append(smooth_eta(xq))
    config = config or GMGConfig(mg_levels=levels, coarse_solver="lu")
    mg, stats = build_gmg(meshes, etas, no_slip_bc, config)
    bc = no_slip_bc(mesh)
    rng = np.random.default_rng(0)
    b = rng.standard_normal(3 * mesh.nnodes)
    b[bc.mask] = 0.0
    op = make_operator(config.operator, mesh, etas[0], quad=QUAD)
    A = bc.wrap_apply(op.apply)
    res = cg(A, b, M=mg, rtol=rtol, maxiter=100)
    return res, stats


class TestConvergence:
    def test_solves_variable_coefficient_elasticity(self):
        res, _ = solve_with_gmg((4, 4, 4))
        assert res.converged
        assert res.iterations < 30

    def test_h_independent_iterations(self):
        """Iteration counts must not grow (much) under refinement -- the
        multigrid property the whole paper rests on."""
        its = []
        for shape in ((4, 4, 4), (8, 8, 8)):
            res, _ = solve_with_gmg(shape, levels=2)
            assert res.converged
            its.append(res.iterations)
        assert its[1] <= its[0] + 3

    def test_three_levels(self):
        res, stats = solve_with_gmg((8, 8, 8), levels=3)
        assert res.converged
        assert len(stats.level_ndofs) == 3

    def test_single_level_fallback(self):
        res, _ = solve_with_gmg(
            (2, 2, 2), levels=1, config=GMGConfig(mg_levels=1, coarse_solver="lu")
        )
        assert res.converged and res.iterations <= 3


class TestOperatorChoices:
    @pytest.mark.parametrize("kind", ["asmb", "mf", "tensor", "tensor_c"])
    def test_all_fine_operators_give_same_iterations(self, kind):
        # galerkin=False so all four kinds build the *same* hierarchy
        # (an assembled fine level would otherwise enable Galerkin RAP)
        res, _ = solve_with_gmg(
            (4, 4, 4), config=GMGConfig(mg_levels=2, coarse_solver="lu",
                                        operator=kind, galerkin=False)
        )
        assert res.converged
        ref, _ = solve_with_gmg(
            (4, 4, 4), config=GMGConfig(mg_levels=2, coarse_solver="lu",
                                        galerkin=False)
        )
        # identical operator => identical Krylov trajectory (to roundoff)
        assert abs(res.iterations - ref.iterations) <= 1

    def test_galerkin_vs_rediscretized(self):
        """Both coarsening strategies converge; Galerkin never does worse
        on this smooth-coefficient problem than rediscretization by much."""
        its = {}
        for galerkin in (True, False):
            res, _ = solve_with_gmg(
                (8, 8, 8), levels=3,
                config=GMGConfig(mg_levels=3, coarse_solver="lu", galerkin=galerkin),
            )
            assert res.converged
            its[galerkin] = res.iterations
        assert abs(its[True] - its[False]) <= 5

    def test_assembled_fine_enables_full_galerkin(self):
        """GMG-ii configuration: assembled fine level, Galerkin everywhere
        (the default hierarchy with ``operator="asmb"``)."""
        res, _ = solve_with_gmg(
            (4, 4, 4), levels=2,
            config=GMGConfig(mg_levels=2, operator="asmb", galerkin=True,
                             coarse_solver="lu"),
        )
        assert res.converged


class TestCoarseSolvers:
    @pytest.mark.parametrize("coarse", ["lu", "bjacobi-lu", "sa", "asm-cg"])
    def test_converges_with_each_coarse_solver(self, coarse):
        cfg = GMGConfig(mg_levels=2, coarse_solver=coarse)
        res, _ = solve_with_gmg((4, 4, 4), config=cfg, rtol=1e-6)
        assert res.converged

    def test_unknown_coarse_solver(self):
        with pytest.raises(ValueError):
            solve_with_gmg((4, 4, 4),
                           config=GMGConfig(mg_levels=2, coarse_solver="magic"))


class TestSmootherDegree:
    def test_v33_converges_in_fewer_iterations_than_v22(self):
        its = {}
        for degree in (2, 3):
            res, _ = solve_with_gmg(
                (4, 4, 4),
                config=GMGConfig(mg_levels=2, coarse_solver="lu",
                                 smoother_degree=degree),
            )
            its[degree] = res.iterations
        assert its[3] <= its[2]


class TestSetupStats:
    def test_reports_level_sizes(self):
        _, stats = solve_with_gmg((8, 8, 8), levels=3)
        assert stats.level_ndofs[0] > stats.level_ndofs[1] > stats.level_ndofs[2]

    def test_mesh_count_validation(self):
        mesh = StructuredMesh((4, 4, 4), order=2)
        with pytest.raises(ValueError):
            build_gmg([mesh], [None], no_slip_bc, GMGConfig(mg_levels=3))


class TestCoefficientHierarchy:
    def test_constant_preserved(self):
        mesh = StructuredMesh((4, 4, 4), order=2)
        meshes = mesh.hierarchy(2)[::-1]
        eta = np.full((mesh.nel, QUAD.npoints), 3.5)
        levels = coefficient_hierarchy(meshes, eta, QUAD)
        for lv in levels:
            assert np.allclose(lv, 3.5)

    def test_positivity_preserved(self):
        rng = np.random.default_rng(1)
        mesh = StructuredMesh((4, 4, 4), order=2)
        meshes = mesh.hierarchy(3)[::-1]
        eta = np.exp(rng.normal(size=(mesh.nel, QUAD.npoints)))
        levels = coefficient_hierarchy(meshes, eta, QUAD)
        for lv in levels:
            assert lv.min() > 0

    def test_shapes_match_levels(self):
        mesh = StructuredMesh((8, 4, 4), order=2)
        meshes = mesh.hierarchy(3)[::-1]
        eta = np.ones((mesh.nel, QUAD.npoints))
        levels = coefficient_hierarchy(meshes, eta, QUAD)
        for m, lv in zip(meshes, levels):
            assert lv.shape == (m.nel, QUAD.npoints)


class TestMatrixFreeLevels:
    """Only the finest level applies through a kernel: every coarse level
    of the default hierarchy is a Galerkin matrix formed from the fine
    coefficient, the same for every fine kernel, so ``operator="asmb"``
    (Table IV's GMG-ii) is the oracle."""

    def hierarchy(self, kind, shape=(8, 8, 8)):
        mesh = StructuredMesh(shape, order=2)
        meshes = mesh.hierarchy(3)[::-1]
        _, _, xq = mesh.geometry_at(QUAD)
        mg, stats = build_gmg(
            meshes, [smooth_eta(xq)], no_slip_bc,
            GMGConfig(mg_levels=3, coarse_solver="lu", operator=kind),
        )
        return mesh, mg, stats

    def test_vcycle_matches_assembled_hierarchy(self):
        mesh, mg_mf, stats_mf = self.hierarchy("tensor_compiled")
        _, mg_as, _ = self.hierarchy("asmb")
        assert [lvl.label for lvl in mg_mf.levels] == [
            "gmg-fine[tensor_compiled]", "gmg-galerkin", "gmg-coarse[lu]",
        ]
        assert [lvl.label for lvl in mg_as.levels] == [
            "gmg-fine[asmb]", "gmg-galerkin", "gmg-coarse[lu]",
        ]
        # no level was rediscretized or assembled on its own mesh
        assert stats_mf.assemble_seconds == 0.0
        assert stats_mf.galerkin_seconds > 0.0
        for a, b in zip(mg_mf.levels[1:], mg_as.levels[1:]):
            assert_same_csr(a.matrix, b.matrix)
        b = np.random.default_rng(1).standard_normal(3 * mesh.nnodes)
        b[mg_mf.levels[0].bc_mask] = 0.0
        x_mf, x_as = mg_mf(b), mg_as(b)
        assert np.linalg.norm(x_mf - x_as) <= 1e-10 * np.linalg.norm(x_as)

    def test_level_applies_are_kernel_events(self):
        """-log_view stays truthful: with V(2,2) the fine level makes 4
        kernel applies per cycle, MatMult_<kernel> events carrying the
        analytic flop counts; level 1 smooths with its Galerkin matrix; no
        explicit-residual event; the cell-block build is one MGGalerkin
        event with its analytic flops."""
        from repro import obs
        from repro.mg.galerkin import galerkin_flops
        from repro.perf.counts import OPERATOR_COUNTS

        obs.reset()
        obs.enable()
        try:
            mesh, mg, _ = self.hierarchy("tensor_compiled", (4, 4, 4))
            built = {e.name: e for e in obs.REGISTRY.events.values()}
            obs.reset()
            b = np.ones(3 * mesh.nnodes)
            b[mg.levels[0].bc_mask] = 0.0
            mg(b)
            events = {e.name: e for e in obs.REGISTRY.events.values()}
        finally:
            obs.disable()
            obs.reset()
        mm = events["MatMult_tensor_compiled"]
        assert mm.count == 4
        assert mm.flops == 4 * mesh.nel * OPERATOR_COUNTS["tensor_compiled"].flops
        assert events["MGSmooth_level0"].count == 2
        assert events["MGSmooth_level1"].count == 2
        assert not any(name.startswith("MGResid") for name in events)
        assert "MGGalerkin" not in events
        assert built["MGGalerkin"].count == 1
        assert built["MGGalerkin"].flops == galerkin_flops(
            mesh.hierarchy(3)[::-1])

    def test_no_galerkin_skips_the_level_matrix(self, monkeypatch):
        """Without Galerkin coarsening nothing needs level 1's matrix."""
        from repro.fem import assembly

        mesh = StructuredMesh((8, 8, 8), order=2)
        meshes = mesh.hierarchy(3)[::-1]
        etas = [np.ones((m.nel, QUAD.npoints)) for m in meshes]
        assembled = []
        orig = assembly.assemble_viscous

        def counting(mesh, *args, **kwargs):
            assembled.append(mesh.nel)
            return orig(mesh, *args, **kwargs)

        monkeypatch.setattr(assembly, "assemble_viscous", counting)
        mg, _ = build_gmg(meshes, etas, no_slip_bc,
                          GMGConfig(mg_levels=3, coarse_solver="lu",
                                    galerkin=False))
        assert assembled == [meshes[2].nel]
        assert mg.levels[1].label == "gmg-mf[tensor_compiled]"

    def test_solve_iterations_match_assembled(self, monkeypatch):
        import repro.mg.gmg as gmg_mod
        import repro.stokes.operators as operators_mod
        from repro.fem import assembly
        from repro.mg import coefficients
        from repro.sim.sinker import SinkerConfig, sinker_stokes_problem
        from repro.stokes import StokesConfig, solve_stokes

        built = []

        def counting(kind, mesh, *args, **kwargs):
            built.append((kind, mesh.nel))
            return make_operator(kind, mesh, *args, **kwargs)

        def forbidden(*args, **kwargs):
            raise AssertionError("the default hierarchy rediscretized")

        monkeypatch.setattr(gmg_mod, "make_operator", counting)
        monkeypatch.setattr(operators_mod, "make_operator", counting)
        pb = sinker_stokes_problem(SinkerConfig(
            shape=(8, 8, 8), n_spheres=2, radius=0.15, delta_eta=100.0))
        with monkeypatch.context() as m:
            m.setattr(assembly, "assemble_viscous", forbidden)
            m.setattr(coefficients, "coefficient_hierarchy", forbidden)
            sol = solve_stokes(pb, StokesConfig())
        # one operator, the fine one: the coupled operator's viscous block
        # is the hierarchy's level 0, and no coarse level has a kernel
        assert built == [("tensor_compiled", 512)]
        oracle = solve_stokes(pb, StokesConfig(operator="asmb"))
        assert sol.converged and oracle.converged
        assert sol.iterations == oracle.iterations


def assert_same_csr(a, b):
    assert np.array_equal(a.indptr, b.indptr)
    assert np.array_equal(a.indices, b.indices)
    assert np.array_equal(a.data, b.data)


def rift_bc(mesh):
    from repro.sim.rifting import RiftingConfig, make_rift_bc_builder

    return make_rift_bc_builder(RiftingConfig())(mesh)


class TestGalerkinLevels:
    """The cell-block levels are ``Pᵀ A_bc P`` of the assembled fine
    matrix, whatever kernel applies the fine level."""

    @staticmethod
    def problem():
        mesh = StructuredMesh((4, 4, 4), order=2)
        mesh.deform(lambda c: c + 0.04 * np.sin(2 * np.pi * c[:, [1, 2, 0]]))
        _, _, xq = mesh.geometry_at(QUAD)
        # eta spans 10^4 across the box
        eta = 10.0 ** (4.0 * xq[..., 0] * (1.0 - xq[..., 2]) ** 2)
        return mesh, eta

    @pytest.mark.parametrize("bc_builder", [free_slip_bc, no_slip_bc, rift_bc])
    def test_levels_equal_rap_of_eliminated_fine_matrix(self, bc_builder):
        import scipy.sparse as sp

        from repro.fem import assembly
        from repro.mg.transfer import vector_prolongation

        mesh, eta = self.problem()
        assert np.ptp(np.log10(eta)) > 3.9
        meshes = mesh.hierarchy(3)[::-1]
        mg, _ = build_gmg(meshes, [eta], bc_builder,
                          GMGConfig(mg_levels=3, coarse_solver="lu"))
        A = assembly.assemble_viscous(mesh, eta, QUAD)
        A_bc, _ = bc_builder(mesh).eliminate(A, np.zeros(A.shape[0]))
        for k in (1, 2):
            P = vector_prolongation(meshes[k - 1], meshes[k])
            mask = bc_builder(meshes[k]).mask
            keep = sp.diags((~mask).astype(float))
            A_bc = (keep @ (P.T @ A_bc @ P) @ keep
                    + sp.diags(mask.astype(float))).tocsr()
            err = abs(mg.levels[k].matrix - A_bc).max()
            assert err <= 1e-13 * abs(A_bc).max()

    def test_partial_face_bc_is_not_nested(self):
        from repro.fem.bc import DirichletBC, boundary_nodes, component_dofs

        def partial(mesh):
            bc = DirichletBC(3 * mesh.nnodes)
            nnx, nny, _ = mesh.nodes_per_dim
            nodes = boundary_nodes(mesh, "xmin")
            # the lower half of the face, open at the middle: fine node
            # j = 3 lies between coarse nodes 1 (fixed) and 2 (free)
            nodes = nodes[(nodes // nnx) % nny < (nny - 1) // 2]
            return bc.add(component_dofs(nodes, 0), 0.0).finalize()

        mesh, eta = self.problem()
        with pytest.raises(ValueError, match="not nested"):
            build_gmg(mesh.hierarchy(2)[::-1], [eta], partial,
                      GMGConfig(mg_levels=2, coarse_solver="lu"))

    def test_every_kernel_builds_the_same_levels(self):
        mesh, eta = self.problem()
        meshes = mesh.hierarchy(3)[::-1]
        ref = None
        for kind in ("asmb", "mf", "tensor", "tensor_c", "tensor_compiled"):
            mg, _ = build_gmg(meshes, [eta], free_slip_bc,
                              GMGConfig(mg_levels=3, coarse_solver="lu",
                                        operator=kind))
            if ref is None:
                ref = mg
                continue
            for a, b in zip(mg.levels[1:], ref.levels[1:]):
                assert_same_csr(a.matrix, b.matrix)
