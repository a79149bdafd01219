"""Dirichlet boundary conditions for assembled and matrix-free operators.

Free-slip walls and driven (extension) boundaries in the paper's test
problems are all component-wise Dirichlet conditions on the axis-aligned
faces of the IJK lattice.  Conditions are eliminated *symmetrically*: for
assembled matrices we zero rows/columns and place a unit diagonal; for
matrix-free operators we wrap the apply with the algebraically identical
mask-apply-restore sequence, so assembled and matrix-free paths produce
bit-comparable systems (required for the operator-equivalence tests and the
Table I/IV comparisons).
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

_FACES = {"xmin", "xmax", "ymin", "ymax", "zmin", "zmax"}


def boundary_nodes(mesh, face: str) -> np.ndarray:
    """Global node indices on one lattice face of a structured mesh."""
    if face not in _FACES:
        raise ValueError(f"unknown face {face!r}, expected one of {sorted(_FACES)}")
    nnx, nny, nnz = mesh.nodes_per_dim
    axis = {"x": 0, "y": 1, "z": 2}[face[0]]
    sizes = (nnx, nny, nnz)
    fixed = 0 if face.endswith("min") else sizes[axis] - 1
    ranges = [np.arange(s) for s in sizes]
    ranges[axis] = np.array([fixed])
    K, J, I = np.meshgrid(ranges[2], ranges[1], ranges[0], indexing="ij")
    return mesh.node_index(I.ravel(), J.ravel(), K.ravel())


def component_dofs(nodes: np.ndarray, comp: int, ncomp: int = 3) -> np.ndarray:
    """Interleaved dof indices of one vector component at ``nodes``."""
    return ncomp * np.asarray(nodes, dtype=np.int64) + comp


class DirichletBC:
    """A set of constrained dofs with prescribed values.

    Build incrementally with :meth:`add` (later additions override earlier
    ones on overlapping dofs, so corners/edges shared between faces resolve
    to the last condition added), then :meth:`finalize`.
    """

    def __init__(self, ndof: int):
        self.ndof = int(ndof)
        self._values = np.zeros(self.ndof)
        self._isbc = np.zeros(self.ndof, dtype=bool)
        self._frozen = False

    def add(self, dofs: np.ndarray, values) -> "DirichletBC":
        """Constrain ``dofs`` to ``values`` (scalar or per-dof array)."""
        if self._frozen:
            raise RuntimeError("DirichletBC is finalized")
        dofs = np.asarray(dofs, dtype=np.int64)
        self._isbc[dofs] = True
        self._values[dofs] = values
        return self

    def finalize(self) -> "DirichletBC":
        self._frozen = True
        self.dofs = np.flatnonzero(self._isbc)
        self.values = self._values[self.dofs]
        self.mask = self._isbc
        return self

    @property
    def ndirichlet(self) -> int:
        return self.dofs.size

    # ------------------------------------------------------------------ #
    # assembled path
    # ------------------------------------------------------------------ #
    def eliminate(self, A: sp.csr_matrix, b: np.ndarray):
        """Symmetric elimination on an assembled matrix.

        Returns ``(A_bc, b_bc)`` where constrained rows/columns of ``A`` are
        replaced by the identity and ``b`` absorbs ``-A[:, bc] @ g``.
        """
        A = A.tocsr()
        g = np.zeros(self.ndof)
        g[self.dofs] = self.values
        b_bc = b - A @ g
        b_bc[self.dofs] = self.values
        keep = (~self.mask).astype(A.dtype)
        D_keep = sp.diags(keep)
        A_bc = D_keep @ A @ D_keep + sp.diags(self.mask.astype(A.dtype))
        return A_bc.tocsr(), b_bc

    # ------------------------------------------------------------------ #
    # matrix-free path
    # ------------------------------------------------------------------ #
    def wrap_apply(self, apply_fn):
        """Wrap an operator apply so it matches :meth:`eliminate`'s matrix.

        ``y = A_bc @ u`` with ``A_bc`` the symmetrically eliminated matrix:
        interior rows see ``u`` with constrained entries zeroed, constrained
        rows return ``u`` itself.  ``apply_fn`` must return a new array
        (every operator kernel does), not its argument.
        """
        dofs = self.dofs
        # per-wrapper work buffer: the masked input is rebuilt in place on
        # every call, so one wrapper must not run on two threads at once
        u_in = np.empty(self.ndof)

        def apply_bc(u: np.ndarray) -> np.ndarray:
            np.copyto(u_in, u)
            u_in[dofs] = 0.0
            y = apply_fn(u_in)
            y[dofs] = u[dofs]
            return y

        return apply_bc

    def lift_rhs(self, apply_fn, b: np.ndarray) -> np.ndarray:
        """Matrix-free counterpart of the rhs modification in :meth:`eliminate`.

        ``apply_fn`` must be the *unconstrained* operator.
        """
        g = np.zeros(self.ndof)
        g[self.dofs] = self.values
        b_bc = b - apply_fn(g)
        b_bc[self.dofs] = self.values
        return b_bc

    def homogenize(self, u: np.ndarray) -> np.ndarray:
        """Overwrite constrained entries of ``u`` with the boundary values."""
        out = u.copy()
        out[self.dofs] = self.values
        return out
