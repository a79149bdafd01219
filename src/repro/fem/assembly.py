"""Vectorized, chunked assembly of the Q2-P1disc Stokes operators.

Assembled sparse matrices are the *baseline* the paper measures its
matrix-free kernels against (Table I, SS III-D): each Q2 row carries 81-375
nonzeros (192 average) that must be streamed through cache on every apply.
We build them with scipy CSR via COO triplets, computing element matrices in
batches of elements with einsum so no Python-level per-element loop runs.

Dof layouts
-----------
velocity: interleaved, ``dof = 3*node + component``.
pressure: element-local, ``dof = 4*element + mode`` (P1disc modes:
constant, x, y, z slopes).
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .basis import P1DiscBasis
from .quadrature import GaussQuadrature
from ..obs.registry import instrument

DEFAULT_CHUNK = 512


def _chunks(n: int, size: int):
    for start in range(0, n, size):
        yield start, min(n, start + size)


def viscous_element_matrices(
    G: np.ndarray, wdet: np.ndarray, eta: np.ndarray
) -> np.ndarray:
    """Element stiffness of the stress form ``int 2 eta D(u):D(v)``.

    Parameters
    ----------
    G:
        Physical basis gradients ``(nel, nq, nb, 3)``.
    wdet:
        Quadrature weight times detJ, ``(nel, nq)``.
    eta:
        Viscosity at quadrature points, ``(nel, nq)``.

    Returns
    -------
    Ke:
        ``(nel, 3*nb, 3*nb)`` with interleaved local dofs ``3*a + i``.

    Notes
    -----
    With trial ``phi_b e_j`` and test ``phi_a e_i``,
    ``2 D(u):D(v) = grad u : grad v + grad u : grad v^T`` gives

    ``K[ai, bj] = sum_q w eta ( delta_ij G_a . G_b + dG_a/dx_j dG_b/dx_i )``.
    """
    nel, nq, nb, _ = G.shape
    G = G.reshape(nel, nq, 3 * nb)
    # M[ai, bj] = sum_q w eta G_ai G_bj, one batched product: the cross
    # term is M[aj, bi], the delta_ij term sum_k M[ak, bk]
    M = np.matmul(G.transpose(0, 2, 1), (wdet * eta)[:, :, None] * G)
    M = M.reshape(nel, nb, 3, nb, 3)
    Ke = M.transpose(0, 1, 4, 3, 2).copy()
    lap = np.einsum("naibi->nab", M)
    for i in range(3):
        Ke[:, :, i, :, i] += lap
    return Ke.reshape(nel, 3 * nb, 3 * nb)


@instrument("AssembleViscous")
def assemble_viscous(
    mesh,
    eta_q: np.ndarray,
    quad: GaussQuadrature | None = None,
    chunk: int = DEFAULT_CHUNK,
) -> sp.csr_matrix:
    """Assembled viscous block ``J_uu`` (SPD after Dirichlet elimination)."""
    quad = quad or GaussQuadrature.hex(3)
    conn = mesh.connectivity
    nb = conn.shape[1]
    ndof = 3 * mesh.nnodes
    # triplet indices in the width the CSR result will use: scipy would
    # otherwise convert int64 triplets to that width while both are alive,
    # and at 6561 entries per element they are the assembly's memory peak
    edofs = (3 * conn[:, :, None] + np.arange(3)[None, None, :]).reshape(
        mesh.nel, 3 * nb
    ).astype(sp.get_index_dtype(maxval=ndof))
    rows = np.repeat(edofs, 3 * nb, axis=1).ravel()
    cols = np.tile(edofs, (1, 3 * nb)).ravel()
    eta_q = np.asarray(eta_q, float)
    _, det, _ = mesh.geometry_at(quad)
    wdet = det * quad.weights[None, :]
    block = (3 * nb) ** 2
    vals = np.empty(mesh.nel * block)
    for s, e in _chunks(mesh.nel, chunk):
        G = mesh.gradients_at(quad, s, e)
        Ke = viscous_element_matrices(G, wdet[s:e], eta_q[s:e])
        vals[s * block:e * block] = Ke.ravel()
    A = sp.coo_matrix((vals, (rows, cols)), shape=(ndof, ndof))
    return A.tocsr()


@instrument("MatGetDiagonal")
def viscous_diagonal(
    mesh, eta_q: np.ndarray, quad: GaussQuadrature | None = None
) -> np.ndarray:
    """Diagonal of the viscous block, computed without assembling it.

    This is the matrix-free path to the Jacobi preconditioner the Chebyshev
    smoother needs: only element-diagonal contributions are accumulated.
    """
    quad = quad or GaussQuadrature.hex(3)
    eta_q = np.asarray(eta_q, float)
    _, det, _ = mesh.geometry_at(quad)
    conn = mesh.connectivity
    dloc = np.empty((mesh.nel, conn.shape[1], 3))
    # element chunks bound G and the G*G temporary (17 kB per element)
    for s, e in _chunks(mesh.nel, DEFAULT_CHUNK):
        weta = det[s:e] * quad.weights[None, :]
        weta *= eta_q[s:e]
        G = mesh.gradients_at(quad, s, e)
        # K[ai, ai] = sum_q w eta (|G_a|^2 + G_ai^2): the cross term
        # for (a,i)=(b,j), and its sum over i is the delta_ij term
        cross = np.einsum("nq,nqai->nai", weta, G * G)
        np.add(cross.sum(-1)[:, :, None], cross, out=dloc[s:e])
    edofs = 3 * conn[:, :, None] + np.arange(3)[None, None, :]
    return np.bincount(
        edofs.ravel(), weights=dloc.ravel(), minlength=3 * mesh.nnodes
    )


@instrument("AssembleDivergence")
def assemble_divergence(
    mesh, quad: GaussQuadrature | None = None, chunk: int = DEFAULT_CHUNK
) -> sp.csr_matrix:
    """Discrete divergence constraint ``B[m, bj] = -int psi_m d(phi_b)/dx_j``.

    Shape ``(4*nel, 3*nnodes)``; the gradient block of the saddle system is
    ``B.T``.
    """
    quad = quad or GaussQuadrature.hex(3)
    _, det, xq = mesh.geometry_at(quad)
    wdet = det * quad.weights[None, :]
    centroid, h = mesh.element_centroids_and_extents()
    conn = mesh.connectivity
    nb = conn.shape[1]
    np_dof = 4 * mesh.nel
    nu_dof = 3 * mesh.nnodes
    edofs = (3 * conn[:, :, None] + np.arange(3)[None, None, :]).reshape(
        mesh.nel, 3 * nb
    )
    pdofs = 4 * np.arange(mesh.nel)[:, None] + np.arange(4)[None, :]
    rows, cols, vals = [], [], []
    for s, e in _chunks(mesh.nel, chunk):
        psi = P1DiscBasis.eval(xq[s:e], centroid[s:e], h[s:e])
        G = mesh.gradients_at(quad, s, e)
        Be = -np.einsum(
            "nq,nqm,nqbj->nmbj", wdet[s:e], psi, G, optimize=True
        ).reshape(e - s, 4, 3 * nb)
        rows.append(np.repeat(pdofs[s:e], 3 * nb, axis=1).ravel())
        cols.append(np.tile(edofs[s:e].reshape(e - s, 1, 3 * nb), (1, 4, 1)).ravel())
        vals.append(Be.ravel())
    B = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(np_dof, nu_dof),
    )
    return B.tocsr()


@instrument("AssembleSchurMass")
def pressure_mass_blocks(
    mesh, weight_q: np.ndarray | None = None, quad: GaussQuadrature | None = None
) -> np.ndarray:
    """Per-element 4x4 pressure mass blocks ``int w psi_m psi_l dV``.

    With ``w = 1/eta`` this is the paper's Schur complement preconditioner
    (viscosity-scaled mass matrix, SS III-B); P1disc makes it block diagonal
    and hence exactly invertible element by element.
    """
    quad = quad or GaussQuadrature.hex(3)
    _, det, xq = mesh.geometry_at(quad)
    wdet = det * quad.weights[None, :]
    if weight_q is not None:
        wdet = wdet * weight_q
    centroid, h = mesh.element_centroids_and_extents()
    psi = P1DiscBasis.eval(xq, centroid, h)
    return np.einsum("nq,nqm,nql->nml", wdet, psi, psi, optimize=True)


def assemble_pressure_mass(
    mesh, weight_q: np.ndarray | None = None, quad: GaussQuadrature | None = None
) -> sp.csr_matrix:
    """Block-diagonal pressure mass matrix as CSR (4*nel square)."""
    blocks = pressure_mass_blocks(mesh, weight_q, quad)
    return sp.block_diag([b for b in blocks], format="csr")


@instrument("AssembleRHS")
def rhs_body_force(
    mesh, rho_q: np.ndarray, g: np.ndarray, quad: GaussQuadrature | None = None
) -> np.ndarray:
    """Momentum right-hand side ``F(w) = int (rho g) . w dV``.

    ``rho_q`` is the projected density at quadrature points ``(nel, nq)``
    and ``g`` the gravity vector.  Sign convention: the physical momentum
    balance ``div(2 eta D(u)) - grad p + rho g = 0`` (gravity as a body
    force on the left), so with ``g = (0, 0, -9.8)`` denser material sinks
    and the hydrostatic pressure increases with depth.  (Eq. 1/10 of the
    paper, read literally, would invert buoyancy; the hydrostatic unit test
    pins the physical convention.)
    """
    quad = quad or GaussQuadrature.hex(3)
    _, det, _ = mesh.geometry_at(quad)
    wdet = det * quad.weights[None, :]
    N = mesh.basis.at_quadrature(quad)[0]
    g = np.asarray(g, dtype=np.float64)
    fe = np.einsum("nq,qa,c->nac", wdet * rho_q, N, g, optimize=True)
    F = np.zeros(3 * mesh.nnodes)
    conn = mesh.connectivity
    edofs = 3 * conn[:, :, None] + np.arange(3)[None, None, :]
    np.add.at(F, edofs.ravel(), fe.ravel())
    return F


_FACE_AXIS = {"xmin": 0, "xmax": 0, "ymin": 1, "ymax": 1, "zmin": 2, "zmax": 2}


def rhs_traction(
    mesh,
    face: str,
    traction,
    quad_1d: int = 3,
) -> np.ndarray:
    """Neumann boundary term ``int_Gamma_N t . w dS`` on one lattice face
    (Eq. 10's surface integral).

    ``traction`` is either a length-3 vector or a callable ``x -> (..., 3)``
    evaluated at the face quadrature points.  The face Jacobian uses the
    cross product of the in-face tangent vectors, so curved (isoparametric)
    boundary faces from ALE deformation integrate correctly.
    """
    from .basis import lagrange_1d
    from .quadrature import gauss_1d

    if face not in _FACE_AXIS:
        raise ValueError(f"unknown face {face!r}")
    axis = _FACE_AXIS[face]
    M, N, P = mesh.shape
    counts = (M, N, P)
    fixed_el = 0 if face.endswith("min") else counts[axis] - 1
    fixed_xi = -1.0 if face.endswith("min") else 1.0
    # boundary elements of this face
    ranges = [np.arange(c) for c in counts]
    ranges[axis] = np.array([fixed_el])
    EZ, EY, EX = np.meshgrid(ranges[2], ranges[1], ranges[0], indexing="ij")
    els = mesh.element_index(EX.ravel(), EY.ravel(), EZ.ravel())
    # 2D tensor quadrature on the face, embedded into 3D reference coords
    p1, w1 = gauss_1d(quad_1d)
    T2, T1 = np.meshgrid(p1, p1, indexing="ij")
    W2, W1 = np.meshgrid(w1, w1, indexing="ij")
    wq = (W1 * W2).ravel()
    nq = wq.size
    pts = np.empty((nq, 3))
    tangents = [d for d in range(3) if d != axis]
    pts[:, axis] = fixed_xi
    pts[:, tangents[0]] = T1.ravel()
    pts[:, tangents[1]] = T2.ravel()
    Nb = mesh.basis.eval(pts)          # (nq, nb)
    dNb = mesh.basis.grad(pts)         # (nq, nb, 3)
    coords_el = mesh.coords[mesh.connectivity[els]]  # (nf, nb, 3)
    # surface element: |d x/d s1 x d x/d s2|
    t1 = np.einsum("qa,nac->nqc", dNb[:, :, tangents[0]], coords_el)
    t2 = np.einsum("qa,nac->nqc", dNb[:, :, tangents[1]], coords_el)
    dS = np.linalg.norm(np.cross(t1, t2), axis=2)  # (nf, nq)
    xf = np.einsum("qa,nac->nqc", Nb, coords_el)
    if callable(traction):
        tvec = np.asarray(traction(xf), dtype=np.float64)
    else:
        tvec = np.broadcast_to(
            np.asarray(traction, dtype=np.float64), xf.shape
        )
    fe = np.einsum("nq,qa,nqc->nac", dS * wq[None, :], Nb, tvec,
                   optimize=True)
    F = np.zeros(3 * mesh.nnodes)
    edofs = 3 * mesh.connectivity[els][:, :, None] + np.arange(3)[None, None, :]
    np.add.at(F, edofs.ravel(), fe.ravel())
    return F


@instrument("AssemblePoisson")
def assemble_poisson(
    mesh,
    kappa_q: np.ndarray | None = None,
    quad: GaussQuadrature | None = None,
    chunk: int = DEFAULT_CHUNK,
) -> sp.csr_matrix:
    """Scalar operator ``-div(kappa grad u)`` on the mesh's own basis.

    Used for the energy equation's diffusion term and as the model problem
    in the multigrid unit tests.
    """
    quad = quad or GaussQuadrature.hex(mesh.order + 1)
    _, det, _ = mesh.geometry_at(quad)
    wdet = det * quad.weights[None, :]
    if kappa_q is not None:
        wdet = wdet * kappa_q
    conn = mesh.connectivity
    nb = conn.shape[1]
    rows, cols, vals = [], [], []
    for s, e in _chunks(mesh.nel, chunk):
        G = mesh.gradients_at(quad, s, e)
        Ke = np.einsum("nq,nqad,nqbd->nab", wdet[s:e], G, G, optimize=True)
        ed = conn[s:e]
        rows.append(np.repeat(ed, nb, axis=1).ravel())
        cols.append(np.tile(ed, (1, nb)).ravel())
        vals.append(Ke.ravel())
    A = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(mesh.nnodes, mesh.nnodes),
    )
    return A.tocsr()


def scalar_mass_lumped(mesh, quad: GaussQuadrature | None = None) -> np.ndarray:
    """Row-sum lumped scalar mass vector (used by projections and SUPG)."""
    quad = quad or GaussQuadrature.hex(mesh.order + 1)
    _, det, _ = mesh.geometry_at(quad)
    wdet = det * quad.weights[None, :]
    N = mesh.basis.at_quadrature(quad)[0]
    me = np.einsum("nq,qa->na", wdet, N, optimize=True)
    m = np.zeros(mesh.nnodes)
    np.add.at(m, mesh.connectivity.ravel(), me.ravel())
    return m
