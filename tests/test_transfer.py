"""Grid transfer: the Q1-embedded prolongation (paper SS III-C)."""

import numpy as np
import pytest

from repro.fem import StructuredMesh
from repro.mg.transfer import (
    q1_interpolation_1d,
    nodal_prolongation,
    vector_prolongation,
)


class Test1D:
    def test_shape(self):
        P = q1_interpolation_1d(5)
        assert P.shape == (9, 5)

    def test_partition_of_unity(self):
        P = q1_interpolation_1d(7)
        assert np.allclose(np.asarray(P.sum(axis=1)).ravel(), 1.0)

    def test_reproduces_linear(self):
        P = q1_interpolation_1d(5)
        xc = np.linspace(0, 1, 5)
        xf = np.linspace(0, 1, 9)
        assert np.allclose(P @ (2 * xc + 1), 2 * xf + 1)

    def test_injection_on_coincident_points(self):
        P = q1_interpolation_1d(4).toarray()
        for i in range(4):
            row = P[2 * i]
            assert row[i] == 1.0 and row.sum() == 1.0


class Test3D:
    def test_shape(self):
        fine = StructuredMesh((4, 4, 4), order=2)
        coarse = fine.coarsen()
        P = nodal_prolongation(fine, coarse)
        assert P.shape == (fine.nnodes, coarse.nnodes)

    def test_rejects_non_nested(self):
        with pytest.raises(ValueError):
            nodal_prolongation(StructuredMesh((4, 4, 4)), StructuredMesh((3, 3, 3)))

    def test_reproduces_trilinear_functions(self):
        fine = StructuredMesh((4, 2, 2), order=2, extent=(2, 1, 1))
        coarse = fine.coarsen()
        P = nodal_prolongation(fine, coarse)
        f = lambda c: 1 + 2 * c[:, 0] - c[:, 1] + 3 * c[:, 2] + c[:, 0] * c[:, 1]
        assert np.allclose(P @ f(coarse.coords), f(fine.coords), atol=1e-13)

    def test_restriction_is_transpose_partition(self):
        """R = P^T: column sums of P give the restriction weights; total
        mass of a restricted delta is 1 (full stencil weight 8x 1/8...)."""
        fine = StructuredMesh((2, 2, 2), order=2)
        coarse = fine.coarsen()
        P = nodal_prolongation(fine, coarse)
        # each fine node's interpolation weights sum to 1
        assert np.allclose(np.asarray(P.sum(axis=1)).ravel(), 1.0)

    def test_vector_prolongation_componentwise(self):
        fine = StructuredMesh((2, 2, 2), order=2)
        coarse = fine.coarsen()
        P = nodal_prolongation(fine, coarse)
        Pv = vector_prolongation(fine, coarse)
        assert Pv.shape == (3 * fine.nnodes, 3 * coarse.nnodes)
        uc = np.random.default_rng(0).standard_normal(coarse.nnodes)
        v = np.zeros(3 * coarse.nnodes)
        v[1::3] = uc
        out = Pv @ v
        assert np.allclose(out[1::3], P @ uc)
        assert np.allclose(out[0::3], 0)
        assert np.allclose(out[2::3], 0)

    def test_vector_prolongation_built_once_per_lattice_pair(self):
        """Shared by every hierarchy on the same lattices, read-only, and
        equal to a fresh Kronecker build."""
        import scipy.sparse as sp

        fine = StructuredMesh((4, 2, 2), order=2)
        coarse = fine.coarsen()
        Pv = vector_prolongation(fine, coarse)
        other = StructuredMesh((4, 2, 2), order=2, extent=(3.0, 1.0, 1.0))
        assert vector_prolongation(other, other.coarsen()) is Pv
        assert vector_prolongation(fine, coarse, ncomp=1) is not Pv
        with pytest.raises(ValueError):
            Pv.data[0] = 2.0
        fresh = sp.kron(nodal_prolongation(fine, coarse), sp.eye(3),
                        format="csr")
        for attr in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(Pv, attr), getattr(fresh, attr))
