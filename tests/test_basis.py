"""Lagrange bases: interpolation, partition of unity, derivatives."""

import numpy as np
import pytest

from repro.fem.basis import (
    HexBasis,
    P1DiscBasis,
    lagrange_1d,
    q1_basis,
    q2_basis,
    tensor_line_matrices,
)
from repro.fem.quadrature import gauss_1d


class TestLagrange1D:
    def test_nodal_values(self):
        nodes = np.array([-1.0, 0.0, 1.0])
        v, _ = lagrange_1d(nodes, nodes)
        assert np.allclose(v, np.eye(3), atol=1e-14)

    def test_partition_of_unity(self, rng):
        nodes = np.array([-1.0, 0.0, 1.0])
        x = rng.uniform(-1, 1, size=20)
        v, d = lagrange_1d(nodes, x)
        assert np.allclose(v.sum(axis=1), 1.0)
        assert np.allclose(d.sum(axis=1), 0.0, atol=1e-13)

    def test_derivative_vs_finite_difference(self, rng):
        nodes = np.array([-1.0, 0.0, 1.0])
        x = rng.uniform(-0.9, 0.9, size=10)
        h = 1e-6
        _, d = lagrange_1d(nodes, x)
        vp, _ = lagrange_1d(nodes, x + h)
        vm, _ = lagrange_1d(nodes, x - h)
        assert np.allclose(d, (vp - vm) / (2 * h), atol=1e-8)

    def test_reproduces_quadratic(self, rng):
        nodes = np.array([-1.0, 0.0, 1.0])
        coeffs = np.array([2.0, -1.0, 0.5])  # values at nodes of p(x)=...
        f = lambda x: 3 * x**2 - x + 1
        x = rng.uniform(-1, 1, size=7)
        v, _ = lagrange_1d(nodes, x)
        assert np.allclose(v @ f(nodes), f(x))


@pytest.mark.parametrize("basis,nb", [(q1_basis(), 8), (q2_basis(), 27)])
class TestHexBases:
    def test_nbasis(self, basis, nb):
        assert basis.nbasis == nb

    def test_nodal_interpolation(self, basis, nb):
        N = basis.eval(basis.nodes)
        assert np.allclose(N, np.eye(nb), atol=1e-13)

    def test_partition_of_unity(self, basis, nb, rng):
        pts = rng.uniform(-1, 1, size=(15, 3))
        assert np.allclose(basis.eval(pts).sum(axis=1), 1.0)
        assert np.allclose(basis.grad(pts).sum(axis=1), 0.0, atol=1e-12)

    def test_gradient_vs_finite_difference(self, basis, nb, rng):
        pts = rng.uniform(-0.9, 0.9, size=(5, 3))
        dN = basis.grad(pts)
        h = 1e-6
        for d in range(3):
            e = np.zeros(3)
            e[d] = h
            fd = (basis.eval(pts + e) - basis.eval(pts - e)) / (2 * h)
            assert np.allclose(dN[:, :, d], fd, atol=1e-8)

    def test_reproduces_own_polynomials(self, basis, nb, rng):
        """Qk basis reproduces x^a y^b z^c with a,b,c <= k."""
        k = basis.order
        pts = rng.uniform(-1, 1, size=(10, 3))
        f = lambda p: (p[:, 0] ** k) * (p[:, 1] ** k) * (p[:, 2] ** k)
        nodal = f(basis.nodes)
        assert np.allclose(basis.eval(pts) @ nodal, f(pts), atol=1e-12)


class TestNodeOrdering:
    def test_q2_x_fastest(self):
        nodes = q2_basis().nodes
        # node 0 at (-1,-1,-1); node 1 steps x; node 3 steps y; node 9 steps z
        assert np.allclose(nodes[0], [-1, -1, -1])
        assert np.allclose(nodes[1], [0, -1, -1])
        assert np.allclose(nodes[3], [-1, 0, -1])
        assert np.allclose(nodes[9], [-1, -1, 0])
        assert np.allclose(nodes[26], [1, 1, 1])


class TestTensorLineMatrices:
    def test_shapes(self):
        B, D = tensor_line_matrices(3)
        assert B.shape == (3, 3) and D.shape == (3, 3)

    def test_consistent_with_full_basis(self):
        """Kron of the 1D matrices equals the 3D reference gradient."""
        B, D = tensor_line_matrices(3)
        basis = q2_basis()
        from repro.fem.quadrature import GaussQuadrature

        q = GaussQuadrature.hex(3)
        dN = basis.grad(q.points)  # (27, 27, 3)
        # d/dx factor: D (x-dir) with B in y, z; kron order z (x) y (x) x
        Dx = np.kron(B, np.kron(B, D))
        Dy = np.kron(B, np.kron(D, B))
        Dz = np.kron(D, np.kron(B, B))
        assert np.allclose(Dx, dN[:, :, 0], atol=1e-12)
        assert np.allclose(Dy, dN[:, :, 1], atol=1e-12)
        assert np.allclose(Dz, dN[:, :, 2], atol=1e-12)

    def test_b_rows_sum_to_one(self):
        B, D = tensor_line_matrices(3)
        assert np.allclose(B.sum(axis=1), 1.0)
        assert np.allclose(D.sum(axis=1), 0.0, atol=1e-13)


class TestP1DiscBasis:
    def test_eval_shape_and_values(self):
        x = np.zeros((2, 5, 3))
        x[..., 0] = 0.25
        centroid = np.zeros((2, 3))
        h = np.ones((2, 3))
        psi = P1DiscBasis.eval(x, centroid, h)
        assert psi.shape == (2, 5, 4)
        assert np.allclose(psi[..., 0], 1.0)
        assert np.allclose(psi[..., 1], 0.25)
        assert np.allclose(psi[..., 2:], 0.0)

    def test_scaling_by_extent(self):
        x = np.full((1, 1, 3), 0.5)
        psi = P1DiscBasis.eval(x, np.zeros((1, 3)), np.array([[2.0, 1.0, 0.5]]))
        assert np.allclose(psi[0, 0], [1.0, 0.25, 0.5, 1.0])


# --------------------------------------------------------------------- #
# the batched tables against the per-coordinate construction they replaced
# --------------------------------------------------------------------- #
def oracle_eval(basis, points):
    """Three 1D evaluations and a transposed tensor product."""
    vx, _ = lagrange_1d(basis.nodes_1d, points[:, 0])
    vy, _ = lagrange_1d(basis.nodes_1d, points[:, 1])
    vz, _ = lagrange_1d(basis.nodes_1d, points[:, 2])
    n = basis.nbasis_1d
    N = vx[:, :, None, None] * vy[:, None, :, None] * vz[:, None, None, :]
    return N.transpose(0, 3, 2, 1).reshape(points.shape[0], n**3)


def oracle_grad(basis, points):
    vx, dx = lagrange_1d(basis.nodes_1d, points[:, 0])
    vy, dy = lagrange_1d(basis.nodes_1d, points[:, 1])
    vz, dz = lagrange_1d(basis.nodes_1d, points[:, 2])
    n = basis.nbasis_1d
    npts = points.shape[0]
    out = np.empty((npts, n**3, 3))
    for d, (fx, fy, fz) in enumerate(
        [(dx, vy, vz), (vx, dy, vz), (vx, vy, dz)]
    ):
        G = fx[:, :, None, None] * fy[:, None, :, None] * fz[:, None, None, :]
        out[:, :, d] = G.transpose(0, 3, 2, 1).reshape(npts, n**3)
    return out


@pytest.mark.parametrize("basis", [q1_basis(), q2_basis()],
                         ids=["q1", "q2"])
class TestBatchedTables:
    @pytest.mark.parametrize("npts", [1, 27, 1728])
    def test_bitwise_equal_to_oracle(self, basis, npts, rng):
        """Inside and outside the reference cube (the Newton iterates of
        point location leave it), bit for bit."""
        pts = rng.uniform(-2.5, 2.5, size=(npts, 3))
        N, dN = basis.tables(pts)
        assert np.array_equal(N, oracle_eval(basis, pts))
        assert np.array_equal(dN, oracle_grad(basis, pts))
        assert N.flags.c_contiguous and dN.flags.c_contiguous
        assert np.array_equal(basis.eval(pts), N)
        assert np.array_equal(basis.grad(pts), dN)

    def test_batched_lagrange_equals_per_coordinate(self, basis, rng):
        pts = rng.uniform(-1.5, 1.5, size=(40, 3))
        v, d = lagrange_1d(basis.nodes_1d, pts)
        for c in range(3):
            vc, dc = lagrange_1d(basis.nodes_1d, pts[:, c])
            assert np.array_equal(v[:, c], vc)
            assert np.array_equal(d[:, c], dc)

    def test_quadrature_tables_shared_and_read_only(self, basis):
        from repro.fem.quadrature import GaussQuadrature

        q = GaussQuadrature.hex(3)
        N, dN = basis.at_quadrature(q)
        again = basis.at_quadrature(GaussQuadrature.hex(3))
        assert again[0] is N and again[1] is dN
        assert np.array_equal(N, oracle_eval(basis, q.points))
        assert np.array_equal(dN, oracle_grad(basis, q.points))
        with pytest.raises(ValueError):
            N[0, 0] = 1.0
        # another rule is another entry
        N2, _ = basis.at_quadrature(GaussQuadrature.hex(2))
        assert N2.shape == (8, basis.nbasis)
