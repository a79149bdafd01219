"""SUPG-stabilized Q1 finite elements for the energy equation (SS V-A).

    dT/dt + u . grad T = div(kappa grad T)

discretized with Q1 elements on the corner lattice of the Q2 Stokes mesh
(same element partition, so the Q2 velocity restricts naturally), SUPG
streamline stabilization, and implicit Euler in time.  The linear systems
are nonsymmetric and solved with our BiCGstab/ILU(0)-Jacobi stack.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from ..fem.assembly import DEFAULT_CHUNK, _chunks
from ..fem.mesh import StructuredMesh
from ..obs.registry import instrument
from ..fem.quadrature import GaussQuadrature
from ..fem.bc import DirichletBC
from ..solvers.krylov import bicgstab, gmres
from ..solvers.relaxation import JacobiPreconditioner


def q1_companion_mesh(q2_mesh) -> StructuredMesh:
    """Q1 mesh sharing the element partition (and corner geometry) of a Q2 mesh."""
    q1 = StructuredMesh(q2_mesh.shape, order=1, extent=q2_mesh.extent,
                        origin=q2_mesh.origin)
    q1.set_coords(q2_mesh.coords[q2_mesh.corner_node_lattice()])
    return q1


def supg_tau(u_norm: np.ndarray, h: np.ndarray, kappa: float) -> np.ndarray:
    """Classic SUPG stabilization parameter.

    ``tau = h / (2|u|) (coth Pe - 1/Pe)`` with element Peclet number
    ``Pe = |u| h / (2 kappa)``; evaluated with the series-safe form near
    ``Pe = 0``.
    """
    un = np.maximum(np.asarray(u_norm), 1e-300)
    Pe = un * h / (2.0 * max(kappa, 1e-300))
    # coth(x) - 1/x, stable at small x (-> x/3)
    small = Pe < 1e-4
    xi = np.where(
        small,
        Pe / 3.0,
        1.0 / np.tanh(np.maximum(Pe, 1e-300)) - 1.0 / np.maximum(Pe, 1e-300),
    )
    return h / (2.0 * un) * xi


class EnergySolver:
    """Implicit-Euler SUPG advection-diffusion stepper."""

    def __init__(self, mesh: StructuredMesh, kappa: float,
                 bc: DirichletBC | None = None):
        if mesh.order != 1:
            raise ValueError("energy solver expects a Q1 mesh")
        self.mesh = mesh
        self.kappa = float(kappa)
        self.bc = bc
        self.quad = GaussQuadrature.hex(2)
        self._N = mesh.basis.at_quadrature(self.quad)[0]

    @instrument("EnergyAssemble")
    def _assemble(self, u_q: np.ndarray, dt: float):
        """System matrix ``M/dt + C + K`` and mass ``M`` with SUPG terms.

        ``u_q``: velocity at this solver's quadrature points ``(nel, nq, 3)``.
        """
        mesh, quad = self.mesh, self.quad
        _, det, _ = mesh.geometry_at(quad)
        wdet = det * quad.weights[None, :]
        N, kappa = self._N, self.kappa
        # element size along the flow (bounding-box scale is adequate here)
        _, h_el = mesh.element_centroids_and_extents()
        h = h_el.min(axis=1)
        u_norm = np.linalg.norm(u_q, axis=2)  # (nel, nq)
        tau = supg_tau(u_norm, h[:, None], kappa)
        conn = mesh.connectivity
        nb = conn.shape[1]
        Me = np.empty((mesh.nel, nb, nb))
        Ae = np.empty_like(Me)
        for s, e in _chunks(mesh.nel, DEFAULT_CHUNK):
            G = mesh.gradients_at(quad, s, e)
            # streamline-derivative of each basis function: (u . grad) N_a
            ugN = np.einsum("nqc,nqac->nqa", u_q[s:e], G, optimize=True)
            # test function with SUPG perturbation: w_a = N_a + tau (u.grad)N_a
            W = N[None, :, :] + tau[s:e, :, None] * ugN
            Me[s:e] = np.einsum("nq,nqa,qb->nab", wdet[s:e], W, N, optimize=True)
            Ce = np.einsum("nq,nqa,nqb->nab", wdet[s:e], W, ugN, optimize=True)
            Ke = kappa * np.einsum("nq,nqad,nqbd->nab", wdet[s:e], G, G,
                                   optimize=True)
            Ae[s:e] = Me[s:e] / dt + Ce + Ke
        rows = np.repeat(conn, nb, axis=1).ravel()
        cols = np.tile(conn, (1, nb)).ravel()
        n = mesh.nnodes
        M = sp.coo_matrix((Me.ravel(), (rows, cols)), shape=(n, n)).tocsr()
        A = sp.coo_matrix((Ae.ravel(), (rows, cols)), shape=(n, n)).tocsr()
        return A, M

    def velocity_at_quadrature(self, q2_mesh, u: np.ndarray) -> np.ndarray:
        """Restrict a Q2 velocity field to this solver's quadrature points."""
        N2 = q2_mesh.basis.at_quadrature(self.quad)[0]  # same reference coords
        ue = u.reshape(-1, 3)[q2_mesh.connectivity]  # (nel, 27, 3)
        return np.einsum("qa,nac->nqc", N2, ue, optimize=True)

    @instrument("EnergySolve")
    def step(self, T: np.ndarray, u_q: np.ndarray, dt: float,
             rtol: float = 1e-10) -> np.ndarray:
        """Advance temperature by one implicit Euler step."""
        A, M = self._assemble(u_q, dt)
        b = (M @ T) / dt
        if self.bc is not None:
            A, b = self.bc.eliminate(A, b)
        M_pc = JacobiPreconditioner(A.diagonal())
        res = bicgstab(lambda v: A @ v, b, x0=T.copy(), M=M_pc,
                       rtol=rtol, maxiter=500)
        if not res.converged:
            res = gmres(lambda v: A @ v, b, x0=T.copy(), M=M_pc,
                        rtol=rtol, maxiter=1000)
        return res.x
