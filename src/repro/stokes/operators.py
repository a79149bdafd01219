"""Coupled Stokes operator on the full velocity-pressure space.

Dof layout: ``x = [u (3*nnodes, interleaved) ; p (4*nel, P1disc modes)]``.

Dirichlet conditions are eliminated symmetrically and consistently across
the blocks: constrained velocity rows are identity, the gradient block has
zero rows there, and the divergence block has zero columns (boundary values
enter through the right-hand side).  This keeps the constrained operator
symmetric, which the Schur-complement theory of SS III-B relies on.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from ..fem import assembly
from ..fem.bc import DirichletBC
from ..fem.quadrature import GaussQuadrature
from ..matfree import make_operator


def eta_at_quadrature(mesh, fn, quad: GaussQuadrature | None = None) -> np.ndarray:
    """Evaluate a coefficient callable ``fn(x) -> value`` at quadrature points."""
    quad = quad or GaussQuadrature.hex(3)
    _, _, xq = mesh.geometry_at(quad)
    return np.asarray(fn(xq), dtype=np.float64)


def split_uy_p(mesh, r: np.ndarray) -> tuple[float, float, float]:
    """Norms of (full velocity, vertical momentum, pressure) residual parts.

    The Fig. 2 diagnostic: buoyancy-driven flows start with a large vertical
    momentum residual, and the pressure residual must rise to meet it before
    convergence sets in.
    """
    nu = 3 * mesh.nnodes
    ru = r[:nu]
    return (
        float(np.linalg.norm(ru)),
        float(np.linalg.norm(ru[2::3])),
        float(np.linalg.norm(r[nu:])),
    )


@dataclass
class StokesProblem:
    """A linearized variable-viscosity Stokes problem.

    Attributes
    ----------
    mesh:
        Finest Q2 mesh.
    eta_q:
        Effective viscosity at quadrature points ``(nel, nq)``.
    rho_q:
        Density at quadrature points (body force ``f = rho g``).
    gravity:
        Gravity vector (the paper's sinker uses ``(0, 0, -9.8)`` with z up).
    bc:
        Velocity Dirichlet conditions on the fine mesh.  May be omitted if
        ``bc_builder`` is given, in which case it is built lazily.
    bc_builder:
        ``mesh -> DirichletBC``, used to rebuild the same physical
        conditions on every multigrid level.
    """

    mesh: object
    eta_q: np.ndarray
    rho_q: np.ndarray
    gravity: tuple[float, float, float] = (0.0, 0.0, -9.8)
    bc: DirichletBC | None = None
    bc_builder: object = None
    quad: GaussQuadrature = field(default_factory=lambda: GaussQuadrature.hex(3))

    def __post_init__(self):
        if self.bc is None and self.bc_builder is not None:
            self.bc = self.bc_builder(self.mesh)

    @property
    def nu(self) -> int:
        return 3 * self.mesh.nnodes

    @property
    def npress(self) -> int:
        return 4 * self.mesh.nel

    @property
    def ndof(self) -> int:
        return self.nu + self.npress


class StokesOperator:
    """Matrix-free coupled operator and right-hand side builder.

    With a compiled viscous block (``tensor_compiled``, or a compiled
    Newton linearization swapped in by :meth:`with_velocity_operator`) the
    coupled apply is one kernel pass, ``(u, p) -> (A u + B^T p, B u)``,
    and the divergence one more
    (:meth:`~repro.matfree.tensor_compiled.TensorCompiledOperator.apply_coupled`,
    ``apply_divergence``): no sparse matrix is assembled.  Every other
    kind reads ``B_int``, ``B`` with its columns at constrained velocity
    dofs zeroed, as ``B_int @ u`` (divergence) and ``B_int.T @ p``
    (gradient, constrained rows zeroed); it is assembled on first use, as
    it is by :meth:`assemble`.  The unmasked ``B`` is used once, for the
    pressure lift ``-B g`` of the boundary values ``g``, and only that
    vector is kept.

    Parameters
    ----------
    problem:
        The :class:`StokesProblem` definition.
    kind:
        Which Table I kernel applies the viscous block (on the engine in
        scope now, :func:`~repro.parallel.executor.current_engine`).
    """

    def __init__(self, problem: StokesProblem,
                 kind: str = "tensor_compiled"):
        self.problem = problem
        mesh, quad = problem.mesh, problem.quad
        self.bc = problem.bc
        self.nu = problem.nu
        self.ndof = problem.ndof
        self._set_velocity_operator(
            make_operator(kind, mesh, problem.eta_q, quad=quad))
        self._lift_p = np.zeros(problem.npress)
        if self.bc is not None:
            g = np.zeros(self.nu)
            g[self.bc.dofs] = self.bc.values
            if self._fused:
                self._lift_p -= self.A_op.apply_divergence(g)
            else:
                B = assembly.assemble_divergence(mesh, quad)
                self.B_int = self._interior(B)
                self._lift_p -= B @ g

    def _interior(self, B: sp.spmatrix) -> sp.csr_matrix:
        """``B`` with its columns at constrained velocity dofs zeroed (it
        acts on interior velocity only)."""
        if self.bc is None:
            return B
        return (B @ sp.diags((~self.bc.mask).astype(float))).tocsr()

    @cached_property
    def B_int(self) -> sp.csr_matrix:
        """The divergence on interior velocity dofs, assembled on first use
        (the compiled kernels never read it)."""
        pb = self.problem
        return self._interior(assembly.assemble_divergence(pb.mesh, pb.quad))

    def _set_velocity_operator(self, A_op) -> None:
        self.A_op = A_op
        self._apply_A = A_op if self.bc is None else self.bc.wrap_apply(A_op)
        #: True when the coupled and divergence applies are kernel passes
        self._fused = bool(getattr(A_op, "compiled", False))

    def with_velocity_operator(self, A_op) -> "StokesOperator":
        """This operator with ``A_op`` (e.g. the Newton linearization, or
        another kernel) as its viscous block; the pressure lift, the
        problem and ``B_int`` (once built) are shared."""
        op = copy.copy(self)
        op._set_velocity_operator(A_op)
        return op

    # ------------------------------------------------------------------ #
    def _interior_input(self, x: np.ndarray) -> np.ndarray:
        """A copy of ``x`` with the constrained velocity dofs zeroed."""
        x = np.array(x, dtype=np.float64)
        if self.bc is not None:
            x[self.bc.dofs] = 0.0
        return x

    def divergence(self, u: np.ndarray) -> np.ndarray:
        """``B_int u``: the constraint rows, blind to constrained dofs."""
        if self._fused:
            return self.A_op.apply_divergence(self._interior_input(u))
        return self.B_int @ u

    def constraint(self, u: np.ndarray) -> np.ndarray:
        """``B u`` of a velocity that carries the boundary values: the
        divergence of its interior dofs minus the pressure lift ``-B g``."""
        return self.divergence(u) - self._lift_p

    def gradient(self, p: np.ndarray) -> np.ndarray:
        """``B_int^T p`` with the constrained velocity rows zeroed."""
        if self._fused:
            x = np.zeros(self.ndof)
            x[self.nu:] = p
            gp = self.A_op.apply_coupled(x)[: self.nu]
        else:
            gp = self.B_int.T @ p
        if self.bc is not None:
            gp[self.bc.dofs] = 0.0
        return gp

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Coupled matvec ``[A u + B^T p ; B u]`` with BC rows identity."""
        if self._fused:
            y = self.A_op.apply_coupled(self._interior_input(x))
            if self.bc is not None:
                y[self.bc.dofs] = x[self.bc.dofs]
            return y
        u = x[: self.nu]
        yu = self._apply_A(u)
        yu += self.gradient(x[self.nu:])
        return np.concatenate([yu, self.divergence(u)])

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.apply(x)

    # ------------------------------------------------------------------ #
    def rhs(self) -> np.ndarray:
        """Assembled right-hand side including boundary lifting."""
        pb = self.problem
        Fu = assembly.rhs_body_force(pb.mesh, pb.rho_q, np.asarray(pb.gravity), pb.quad)
        if self.bc is not None:
            g = np.zeros(self.nu)
            g[self.bc.dofs] = self.bc.values
            Fu = Fu - self.A_op.apply(g)
            Fu[self.bc.dofs] = self.bc.values
        return np.concatenate([Fu, self._lift_p])

    def residual(self, x: np.ndarray) -> np.ndarray:
        """Linear residual ``rhs - J x``."""
        return self.rhs() - self.apply(x)

    def assemble(self) -> sp.csr_matrix:
        """The full saddle-point matrix as one sparse CSR.

        Intended for small problems only (direct-solve correctness anchors
        and spectrum studies); production solves never form this matrix --
        that is the point of the paper.  The result is consistent with
        :meth:`apply` to rounding.
        """
        pb = self.problem
        A = assembly.assemble_viscous(pb.mesh, pb.eta_q, pb.quad)
        G = self.B_int.T
        if self.bc is not None:
            A_bc, _ = self.bc.eliminate(A, np.zeros(self.nu))
            # zero gradient rows at constrained dofs
            keep = sp.diags((~self.bc.mask).astype(float))
            G = keep @ G
        else:
            A_bc = A
        Z = sp.csr_matrix((self.ndof - self.nu, self.ndof - self.nu))
        return sp.bmat([[A_bc, G], [self.B_int, Z]], format="csr")
