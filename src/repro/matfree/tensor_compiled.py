"""The paper's Tensor kernel, compiled: sum-factorized and SIMD over elements.

The pure-NumPy einsum kernels contract every element chunk against the
dense 27x27 Kronecker gradient factors and stream ``(chunk, 27, 3, 3)``
temporaries through memory.  This backend lowers the packed-coefficient
apply of :class:`~repro.matfree.tensor_c.TensorCOperator` to the C kernel
of :mod:`repro.matfree._ckernel`, which is the restructuring SS III-D of
the paper (and the 3D-blocking smoother paper, PAPERS.md arXiv 2509.19061)
gets its speed from:

* the reference gradient and its adjoint are applied by **sum
  factorization** -- eight 1-D 3x3 contractions each way, 10773 flops per
  element instead of the dense form's 30375;
* **eight elements are evaluated at once**, one per SIMD lane, streaming a
  lane-interleaved packed-coefficient array ``(ceil(nel/8), 27, 16, 8)``
  that is repacked only when ``set_viscosity`` or a mesh move bumps the
  operator's ``version`` (rank processes are sent it once per version)
  and is the only coefficient copy this operator holds;
* all per-batch scratch lives on the C stack, the scatter is scalar and in
  element order, and the widest ISA variant the CPU runs (AVX-512, AVX2 or
  the baseline ABI) is picked at load time -- every variant and lane
  position produces the same floats (see the determinism contract in
  :mod:`~repro.matfree._ckernel`);
* the kernel is a plain ``ctypes`` call, so the GIL is released: on the
  engine in scope when the operator is built
  (:func:`~repro.parallel.executor.current_engine`: a thread pool or a
  rank engine) the element slabs of
  :func:`~repro.parallel.executor.partition_elements` run as concurrent
  tasks under the owner-writes contract.  Span ``k`` writes
  every node no earlier span touches straight into the shared output and
  stashes the rest (nodes below ``lo_k``, one more than the largest node
  of elements ``[0, s_k)``); the stashes are replayed in span order, so
  the result equals the serial apply bit for bit for any worker count.

The arithmetic differs from the einsum path in association order, so the
two agree to a few ulp (``<= 1e-13 max|y|`` is tested), not bitwise.  When
no C toolchain is available (or ``$REPRO_NO_CKERNEL=1``) the operator
transparently degrades to the inherited NumPy packed apply -- same
contracts, slower, serial, last bits differ.
"""

from __future__ import annotations

import numpy as np

from ..parallel.executor import current_engine, partition_elements
from . import _ckernel
from .base import _owned_copy
from .tensor_c import (
    PACKED_VALUES, TensorCOperator, build_packed_coefficients,
)

LANES = _ckernel.LANES
#: Newton coefficient values per quadrature point (a, then M row-major)
NEWTON_VALUES = 10


def lane_batches(nel: int, values: int) -> np.ndarray:
    """Zeroed lane-interleaved storage ``(ceil(nel/8), 27, values, 8)``:
    element ``8 b + l`` is lane ``l`` of batch ``b``, lanes past ``nel``
    stay zero."""
    return np.zeros((-(-nel // LANES), 27, values, LANES))


def put_lanes(out: np.ndarray, s: int, e: int, block: np.ndarray) -> None:
    """Store the ``(e - s, 27, values)`` block of elements ``[s, e)`` in
    their lanes of ``out``."""
    el = np.arange(s, e)
    out[el // LANES, :, :, el % LANES] = block


def newton_coefficients(Jinv: np.ndarray, wdet: np.ndarray, Du: np.ndarray,
                        eta_prime: np.ndarray) -> np.ndarray:
    """Pack ``[a, M]`` per quadrature point into ``(..., 10)``.

    The Newton flux adds ``2 eta' w det (Du : Dw) Du`` to the physical
    stress.  With ``K = grad_x xi`` and ``Dw = sym(g K)``, ``Du : Dw =
    (Du K^T) : g`` (``Du`` is symmetric), and pulling the stress back with
    ``K^T`` gives the reference flux ``t = g S + w (K g K)^T + a (M:g) M``
    with ``M = Du K^T`` and ``a = 2 eta' w det``.
    """
    M = np.einsum("...ce,...de->...cd", Du, Jinv, optimize=True)
    out = np.empty(wdet.shape + (NEWTON_VALUES,))
    out[..., 0] = 2.0 * eta_prime * wdet
    out[..., 1:] = M.reshape(M.shape[:-2] + (9,))
    return out


def owner_writes_plan(conn: np.ndarray, spans):
    """``(lo, stashes)`` of element ``spans`` under the owner-writes contract.

    ``lo[s]`` is one more than the largest node any element before ``s``
    touches (``lo[0] = 0``); ``stashes[k]`` lists the dofs span ``k`` adds
    to nodes below ``lo[s_k]``, in the kernel's scatter order (element,
    local node, component).
    """
    lo = np.zeros(len(conn) + 1, dtype=np.int64)
    np.maximum.accumulate(conn.max(axis=1) + 1, out=lo[1:])
    stashes = []
    for s, e in spans:
        shared = conn[s:e][conn[s:e] < lo[s]]
        stashes.append((3 * shared[:, None] + np.arange(3)).ravel())
    return lo, stashes


class TensorCompiledOperator(TensorCOperator):
    """Compiled sum-factorized apply of the packed Tensor-C operator."""

    name = "tensor_compiled"
    #: which :data:`~repro.matfree._ckernel.KERNELS` entry applies it
    kernel_kind = "apply"

    def __init__(self, mesh, eta_q, quad=None, chunk=4096):
        # resolved before the base constructor packs the coefficients: the
        # layout of ``_C`` depends on which path applies them.  ``isa`` names
        # the variant in use (None on the NumPy fallback).
        self.isa = _ckernel.isa()
        self._kernel = _ckernel.variants(self.kernel_kind).get(self.isa)
        super().__init__(mesh, eta_q, quad, chunk)
        # the kernel reads these as raw pointers: pin dtypes/contiguity once
        self._conn64 = np.ascontiguousarray(
            self.mesh.connectivity, dtype=np.int64
        )
        self._BD = np.ascontiguousarray(
            np.stack([self.B_hat, self.D_hat]), dtype=np.float64
        )
        self.engine = current_engine()
        if self.engine is not None:
            #: contiguous element slabs, one task each
            self._spans = partition_elements(mesh, self.engine.workers)
            self._lo, self._stashes = owner_writes_plan(self._conn64,
                                                        self._spans)

    @property
    def compiled(self) -> bool:
        """True when applies go through the C kernel (else NumPy fallback)."""
        return self._kernel is not None

    @property
    def fallback_reason(self) -> str | None:
        return None if self.compiled else _ckernel.unavailable_reason()

    @property
    def _parallel_state_version(self) -> int:
        """Rank-state stamp: the operator's rebuild :attr:`version`."""
        return self.version

    #: the pickled form, shipped to rank processes: what ``_apply_span`` reads
    _rank_payload = ("_C", "_conn64", "_BD", "_lo", "ndof", "isa")

    def __getstate__(self) -> dict:
        return {k: v for k, v in vars(self).items() if k in self._rank_payload}

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._kernel = _ckernel.variants(self.kernel_kind).get(self.isa)

    def _rebuild(self) -> None:
        """Repack ``_C`` lane-interleaved, ``(ceil(nel/8), nq, 16, 8)``, for
        the C kernel: element ``8 b + l`` is lane ``l`` of batch ``b``,
        lanes past ``nel`` stay zero."""
        if not self.compiled:
            return super()._rebuild()
        C = lane_batches(self.mesh.nel, PACKED_VALUES)
        for s, e, packed in self._packed_chunks():
            put_lanes(C, s, e, packed)
        self._C = C

    def _streams(self) -> tuple:
        """Addresses of the coefficient arrays the kernel reads, in its
        argument order."""
        return (self._C.ctypes.data,)

    def _run_kernel(self, kernel, u: np.ndarray, s0: int, e0: int,
                    out: np.ndarray | None = None, lo: int = 0,
                    stash: np.ndarray | None = None) -> np.ndarray:
        """Elements ``[s0, e0)`` through one ISA variant, accumulated into
        ``out`` (a fresh zero vector by default); values for nodes below
        ``lo`` go to ``stash`` instead."""
        if out is None:
            out = np.zeros(self.ndof)
        u = np.ascontiguousarray(u, dtype=np.float64)
        if u.size != self.ndof:
            raise ValueError(f"u has {u.size} entries, expected {self.ndof}")
        nel = len(self._conn64)
        kernel(
            *self._streams(), self._conn64.ctypes.data,
            self._BD.ctypes.data, u.ctypes.data, out.ctypes.data,
            max(0, int(s0)), max(0, min(nel, int(e0))), nel, int(lo),
            None if stash is None else stash.ctypes.data,
        )
        return out

    def _apply_span(self, u, s, e, out, stash) -> None:
        """Executor task: owner-writes apply of elements ``[s, e)``."""
        self._run_kernel(self._kernel, u, s, e, out, self._lo[s], stash)

    def _apply(self, u: np.ndarray) -> np.ndarray:
        if not self.compiled:
            return super()._apply(u)
        if self.engine is None:
            return self._run_kernel(self._kernel, u, 0, self.mesh.nel)
        return self.engine.dispatch(self, "_apply_span", self._spans, u,
                                    self.ndof, self._stashes)


class NewtonTensorOperator(TensorCompiledOperator):
    """Action of the true Newton linearization (SS III-A), compiled.

    For ``eta = eta~(0.5 D(u):D(u))`` the Newton operator adds the rank-one
    (in strain space) anisotropic term

        J w = int 2 eta D(w):D(v) + 2 eta' (D(u):D(w)) (D(u):D(v)) dV,

    with ``eta' = d eta / d (second invariant)``.  For yielding and
    shear-thinning materials ``eta' < 0``, flattening the viscosity tensor
    along ``D(u)`` -- which is why the paper uses this operator only inside
    the Krylov matvec while preconditioning with the Picard operator.

    The compiled apply is the Picard kernel plus one rank-one term per
    point (:func:`newton_coefficients`): ``_rebuild`` packs a second
    lane-interleaved stream ``_N``, ``(ceil(nel/8), 27, 10, 8)``, next to
    ``_C``, and ``tc_newton_<isa>`` reads both.  ISA variants, span cuts
    and worker counts give the same floats, as for ``tensor_compiled``;
    with ``eta' = 0`` the floats are ``tensor_compiled``'s.  Without a
    toolchain it applies :meth:`_apply_einsum`, the dense-factor NumPy
    form, which is also the test oracle (``<= 1e-13 max|y|`` apart).

    Parameters
    ----------
    Du_q:
        Strain rate of the current iterate at quadrature points,
        ``(nel, nq, 3, 3)`` (symmetric).
    eta_prime_q:
        ``d eta / d I2`` at quadrature points, ``(nel, nq)``.  Both are
        kept as read-only copies, like ``eta_q``.
    """

    name = "newton"
    kernel_kind = "newton"
    _rank_payload = TensorCompiledOperator._rank_payload + ("_N",)

    def __init__(self, mesh, eta_q, Du_q, eta_prime_q, quad=None, chunk=4096):
        # the first _rebuild (in the base constructor) packs them
        self.Du_q = _owned_copy(Du_q, (mesh.nel, 27, 3, 3), "Du_q")
        self.eta_prime_q = _owned_copy(eta_prime_q, (mesh.nel, 27),
                                       "eta_prime_q")
        super().__init__(mesh, eta_q, quad, chunk)

    def _rebuild(self) -> None:
        """Pack ``_C`` and ``_N`` lane-interleaved; nothing on the einsum
        fallback, which reads the geometry and its inputs per apply."""
        if not self.compiled:
            return
        nel = self.mesh.nel
        C = lane_batches(nel, PACKED_VALUES)
        N = lane_batches(nel, NEWTON_VALUES)
        for s, e in self._chunks():
            Jinv, wdet = self._geometry(s, e)
            put_lanes(C, s, e, build_packed_coefficients(
                Jinv, wdet * self.eta_q[s:e]))
            put_lanes(N, s, e, newton_coefficients(
                Jinv, wdet, self.Du_q[s:e], self.eta_prime_q[s:e]))
        self._C, self._N = C, N

    def _streams(self) -> tuple:
        return (self._C.ctypes.data, self._N.ctypes.data)

    def _apply(self, w: np.ndarray) -> np.ndarray:
        if not self.compiled:
            return self._apply_einsum(w)
        return super()._apply(w)

    def _apply_einsum(self, w: np.ndarray) -> np.ndarray:
        """The Newton apply through the dense Kronecker factors (NumPy)."""
        y = np.zeros(self.ndof)
        for s, e in self._chunks():
            H, Jinv, wdet = self._strain_stage(w, s, e)
            Dw = 0.5 * (H + H.transpose(0, 1, 3, 2))
            Du = self.Du_q[s:e]
            tau = (2.0 * self.eta_q[s:e] * wdet)[:, :, None, None] * Dw
            # anisotropic Newton term: 2 eta' (Du : Dw) Du
            DuDw = np.einsum("nqcd,nqcd->nq", Du, Dw, optimize=True)
            tau += (
                2.0 * self.eta_prime_q[s:e] * wdet * DuDw
            )[:, :, None, None] * Du
            self._residual_stage(tau, Jinv, s, e, y)
        return y
