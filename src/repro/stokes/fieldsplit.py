"""Block lower-triangular fieldsplit preconditioner (Eq. 17).

    P = [ A~     0  ]
        [ J_pu   S~ ]

applied as: solve ``du = A~^{-1} r_u`` (one multigrid V-cycle), then
``dp = S~^{-1} (r_p - J_pu du)``.  With exact blocks a suitable Krylov
method converges in at most two iterations; the practical price is the
non-normality of the preconditioned operator, which degrades with
coefficient contrast (SS IV-A / Fig. 2).

``S~`` is the pressure mass matrix scaled by the inverse effective
viscosity (spectrally equivalent to the true Schur complement for
discontinuous pressure spaces).  Because P1disc couples pressures only
within an element, ``S~`` is block diagonal with 4x4 blocks and is
inverted exactly at setup.  The sign convention: the true Schur complement
``S = -J_pu J_uu^{-1} J_up`` is negative definite, so the preconditioner
uses ``S~ = -M_p(1/eta)``.
"""

from __future__ import annotations

import numpy as np

from ..fem import assembly
from ..obs import registry as _obs


class SchurMass:
    """Inverse of the viscosity-scaled pressure mass matrix.

    ``__call__`` applies ``S~^{-1} = -M_p(1/eta)^{-1}`` blockwise.
    """

    def __init__(self, mesh, eta_q: np.ndarray, quad=None):
        Mp = assembly.pressure_mass_blocks(mesh, 1.0 / eta_q, quad)
        self._Minv = np.linalg.inv(Mp)  # (nel, 4, 4)

    def mass_apply(self, p: np.ndarray) -> np.ndarray:
        """Apply ``M_p(1/eta)`` (without the Schur sign)."""
        Minv = self._Minv
        blocks = p.reshape(-1, 4)
        out = np.linalg.solve(Minv, blocks[..., None])[..., 0]
        return out.ravel()

    def __call__(self, rp: np.ndarray) -> np.ndarray:
        with _obs.timed("PCApply_schur"):
            blocks = rp.reshape(-1, 4, 1)
            out = np.matmul(self._Minv, blocks)[:, :, 0]
            return -out.ravel()


class FieldSplitPreconditioner:
    """Lower-triangular fieldsplit apply.

    Parameters
    ----------
    stokes_op:
        The coupled :class:`repro.stokes.operators.StokesOperator` (supplies
        ``J_pu`` with consistent boundary conditions).
    velocity_pc:
        Approximate ``J_uu^{-1}`` -- in the paper, one V-cycle of the
        geometric multigrid hierarchy (an :class:`repro.mg.cycles.MGHierarchy`
        works directly).
    schur:
        A :class:`SchurMass` (built from the problem if omitted).
    """

    def __init__(self, stokes_op, velocity_pc, schur: SchurMass | None = None):
        self.op = stokes_op
        self.velocity_pc = velocity_pc
        pb = stokes_op.problem
        self.schur = schur or SchurMass(pb.mesh, pb.eta_q, pb.quad)
        self.nu = stokes_op.nu

    def __call__(self, r: np.ndarray) -> np.ndarray:
        with _obs.timed("PCApply_fieldsplit"):
            ru = r[: self.nu]
            rp = r[self.nu:]
            du = self.velocity_pc(ru)
            dp = self.schur(rp - self.op.divergence(du))
            return np.concatenate([du, dp])
