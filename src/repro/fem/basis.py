"""Lagrange bases on hexahedra and the physical-coordinate P1disc basis.

Provides the Q1 (trilinear, 8-node) and Q2 (triquadratic, 27-node)
tensor-product bases used for velocity/geometry/projection, the 1D
basis/derivative matrices ``B_hat``/``D_hat`` that the tensor-product
matrix-free kernel factorizes the reference gradient into (paper SS III-D),
and the discontinuous linear pressure basis P1disc defined directly in the
x, y, z coordinate system (paper SS II-B) so the Q2-P1disc pair keeps its
order of accuracy on deformed meshes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def lagrange_1d(nodes: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate 1D Lagrange basis values and derivatives.

    Parameters
    ----------
    nodes:
        Interpolation nodes, shape ``(n,)``.
    x:
        Evaluation points, any shape ``s`` (a scalar counts as ``(1,)``).

    Returns
    -------
    (values, derivs):
        Arrays of shape ``s + (n,)``: ``values[..., a]`` is the a-th basis
        function at ``x[...]``.  Each entry is formed by the same
        elementwise product recurrence whatever ``s`` is, so one batched
        call equals one call per coordinate bit for bit.
    """
    nodes = np.asarray(nodes, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 0:
        x = x[None]
    n = nodes.size
    vals = np.ones(x.shape + (n,))
    for a in range(n):
        for b in range(n):
            if b != a:
                vals[..., a] *= (x - nodes[b]) / (nodes[a] - nodes[b])
    derivs = np.zeros(x.shape + (n,))
    for a in range(n):
        for c in range(n):
            if c == a:
                continue
            term = np.full(x.shape, 1.0 / (nodes[a] - nodes[c]))
            for b in range(n):
                if b != a and b != c:
                    term *= (x - nodes[b]) / (nodes[a] - nodes[b])
            derivs[..., a] += term
    return vals, derivs


#: read-only reference tables per (basis nodes, quadrature points); see
#: :meth:`HexBasis.at_quadrature`
_QUADRATURE_TABLES: dict = {}


@dataclass(frozen=True)
class HexBasis:
    """Tensor-product Lagrange basis on the reference hexahedron [-1, 1]^3.

    Local node ordering is x-fastest: local node ``a = i + n*(j + n*k)``
    where ``n = order + 1`` and ``(i, j, k)`` indexes the 1D node lattice.
    This matches the node lattice of :class:`repro.fem.mesh.StructuredMesh`,
    so element gathers are pure strided indexing.
    """

    order: int
    nodes_1d: np.ndarray

    @property
    def nbasis_1d(self) -> int:
        return self.nodes_1d.size

    @property
    def nbasis(self) -> int:
        return self.nbasis_1d**3

    @property
    def nodes(self) -> np.ndarray:
        """Reference coordinates of all nodes, shape ``(nbasis, 3)``."""
        n1 = self.nodes_1d
        Z, Y, X = np.meshgrid(n1, n1, n1, indexing="ij")
        return np.column_stack([X.ravel(), Y.ravel(), Z.ravel()])

    def tables(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Values and reference gradients at ``points`` (npts, 3) in one pass.

        Returns ``(N, dN)`` of shapes ``(npts, nbasis)`` and
        ``(npts, nbasis, 3)``.  One :func:`lagrange_1d` recurrence covers
        all three coordinates, and each tensor product is formed as
        ``(fx * fy) * fz`` directly in the x-fastest node layout.
        """
        points = np.atleast_2d(np.asarray(points, dtype=np.float64))
        m = points.shape[0]
        n = self.nbasis_1d
        v, d = lagrange_1d(self.nodes_1d, points)  # (m, 3, n) each
        vx, vy, vz = v[:, 0], v[:, 1], v[:, 2]
        dx, dy, dz = d[:, 0], d[:, 1], d[:, 2]
        # axes (q, k, j, i) flatten to the node index a = i + n*(j + n*k)
        vxy = (vy[:, :, None] * vx[:, None, :])[:, None]
        N = vz[:, :, None, None] * vxy
        dN = np.empty((m, n, n, n, 3))
        np.multiply((vy[:, :, None] * dx[:, None, :])[:, None],
                    vz[:, :, None, None], out=dN[..., 0])
        np.multiply((dy[:, :, None] * vx[:, None, :])[:, None],
                    vz[:, :, None, None], out=dN[..., 1])
        np.multiply(vxy, dz[:, :, None, None], out=dN[..., 2])
        return N.reshape(m, n**3), dN.reshape(m, n**3, 3)

    def eval(self, points: np.ndarray) -> np.ndarray:
        """Basis values at reference ``points`` (npts, 3) -> (npts, nbasis)."""
        return self.tables(points)[0]

    def grad(self, points: np.ndarray) -> np.ndarray:
        """Reference gradients at ``points``: shape ``(npts, nbasis, 3)``."""
        return self.tables(points)[1]

    def at_quadrature(self, quad) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`tables` at the points of ``quad``, built once per
        (basis, rule) and returned read-only: every mesh, operator and
        projection on the same rule shares one copy."""
        key = (self.nodes_1d.tobytes(), quad.points.tobytes())
        out = _QUADRATURE_TABLES.get(key)
        if out is None:
            out = self.tables(quad.points)
            for a in out:
                a.flags.writeable = False
            _QUADRATURE_TABLES[key] = out
        return out


def q1_basis() -> HexBasis:
    """The 8-node trilinear hexahedral basis."""
    return HexBasis(order=1, nodes_1d=np.array([-1.0, 1.0]))


def q2_basis() -> HexBasis:
    """The 27-node triquadratic hexahedral basis (velocity/geometry space)."""
    return HexBasis(order=2, nodes_1d=np.array([-1.0, 0.0, 1.0]))


def tensor_line_matrices(
    npoints_1d: int = 3,
) -> tuple[np.ndarray, np.ndarray]:
    """1D basis/derivative evaluation matrices ``(B_hat, D_hat)`` for Q2.

    ``B_hat[q, a]`` and ``D_hat[q, a]`` evaluate the 1D quadratic Lagrange
    basis (nodes -1, 0, 1) and its derivative at the ``npoints_1d``-point
    Gauss points.  The full reference gradient factors as
    ``D_hat (x) B_hat (x) B_hat`` etc. (paper SS III-D), which is what the
    tensor-product kernel contracts with.
    """
    from .quadrature import gauss_1d

    pts, _ = gauss_1d(npoints_1d)
    B, D = lagrange_1d(np.array([-1.0, 0.0, 1.0]), pts)
    return B, D


class P1DiscBasis:
    """Discontinuous linear pressure basis in physical coordinates.

    Four basis functions per element: ``{1, (x - xc)/hx, (y - yc)/hy,
    (z - zc)/hz}``, where ``xc`` is the element centroid (mean of the 8
    corner vertices) and ``h`` the element bounding-box extents.  Defining
    the basis in physical rather than mapped coordinates preserves the
    optimal convergence order of Q2-P1disc on deformed meshes (paper
    SS II-B); the scaling by ``h`` keeps the element mass matrices well
    conditioned across resolutions.
    """

    ndof_per_element = 4

    @staticmethod
    def eval(
        x_phys: np.ndarray, centroid: np.ndarray, h: np.ndarray
    ) -> np.ndarray:
        """Evaluate the 4 basis functions at physical points.

        Parameters
        ----------
        x_phys:
            Physical coordinates, shape ``(nel, nq, 3)``.
        centroid:
            Element centroids, shape ``(nel, 3)``.
        h:
            Element bounding-box extents, shape ``(nel, 3)``.

        Returns
        -------
        psi:
            Basis values, shape ``(nel, nq, 4)``.
        """
        nel, nq, _ = x_phys.shape
        psi = np.empty((nel, nq, 4))
        psi[:, :, 0] = 1.0
        psi[:, :, 1:] = (x_phys - centroid[:, None, :]) / h[:, None, :]
        return psi
