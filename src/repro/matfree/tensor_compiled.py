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

The same kernel pass applies the coupled Stokes operator, ``(u, p) ->
(A u + B^T p, B u)``, and the divergence alone
(:meth:`TensorCompiledOperator.apply_coupled`, ``apply_divergence``), so a
Stokes operator over a compiled viscous block holds no sparse matrix
(:class:`~repro.stokes.operators.StokesOperator`).

The arithmetic differs from the einsum path in association order, so the
two agree to a few ulp (``<= 1e-13 max|y|`` is tested), not bitwise.  When
no C toolchain is available (or ``$REPRO_NO_CKERNEL=1``) the operator
transparently degrades to the inherited NumPy packed apply -- same
contracts, slower, serial, last bits differ.
"""

from __future__ import annotations

import numpy as np

from ..fem.basis import P1DiscBasis
from ..parallel.executor import current_engine, partition_elements
from . import _ckernel
from .base import _owned_copy
from .tensor_c import (
    PACKED_VALUES, TensorCOperator, build_packed_coefficients,
)

LANES = _ckernel.LANES
#: Newton coefficient values per quadrature point (a, then M row-major)
NEWTON_VALUES = 10
#: pressure-stream values per quadrature point: w det psi_m, m < 4
PRESSURE_VALUES = 4


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
    """Compiled sum-factorized apply of the packed Tensor-C operator.

    Besides ``A u`` it applies the coupled Stokes operator in the same
    kernel pass (:meth:`apply_coupled`, ``(u, p) -> (A u + B^T p, B u)``)
    and the divergence alone (:meth:`apply_divergence`), both without
    boundary conditions; they read a third lane-interleaved stream ``_P``,
    ``(ceil(nel/8), 27, 4, 8)`` values ``w det psi_m``, packed at the first
    such call and repacked with ``_C`` from then on.
    """

    name = "tensor_compiled"
    #: which :data:`~repro.matfree._ckernel.KERNELS` entries apply ``A u``
    #: and the coupled operator
    kernel_kind = "apply"
    coupled_kind = "coupled"

    def __init__(self, mesh, eta_q, quad=None, chunk=4096):
        # resolved before the base constructor packs the coefficients: the
        # layout of ``_C`` depends on which path applies them.  ``isa`` names
        # the variant in use (None on the NumPy fallback).
        self.isa = _ckernel.isa()
        self._bind_kernels()
        #: the pressure stream, None until a coupled or divergence apply
        self._P = None
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

    def _bind_kernels(self) -> None:
        """The ``isa`` variants of the viscous, coupled and divergence
        kernels (None on the NumPy fallback)."""
        self._kernel = _ckernel.variants(self.kernel_kind).get(self.isa)
        self._coupled_kernel = _ckernel.variants(self.coupled_kind).get(
            self.isa)
        self._divergence_kernel = _ckernel.variants("divergence").get(
            self.isa)

    @property
    def compiled(self) -> bool:
        """True when applies go through the C kernel (else NumPy fallback)."""
        return self._kernel is not None

    @property
    def fallback_reason(self) -> str | None:
        return None if self.compiled else _ckernel.unavailable_reason()

    @property
    def npress(self) -> int:
        """P1disc pressure dofs, four per element."""
        return 4 * len(self._conn64)

    @property
    def _parallel_state_version(self) -> int:
        """Rank-state stamp: the operator's rebuild :attr:`version`, and
        whether the pressure stream is packed (ranks need it once it is)."""
        return 2 * self.version + (self._P is not None)

    #: the pickled form, shipped to rank processes: what the span methods
    #: read
    _rank_payload = ("_C", "_P", "_conn64", "_BD", "_lo", "ndof", "isa")

    def __getstate__(self) -> dict:
        return {k: v for k, v in vars(self).items() if k in self._rank_payload}

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._bind_kernels()

    def _rebuild(self) -> None:
        """Repack ``_C`` lane-interleaved, ``(ceil(nel/8), nq, 16, 8)``, for
        the C kernel: element ``8 b + l`` is lane ``l`` of batch ``b``,
        lanes past ``nel`` stay zero.  A packed pressure stream is repacked
        too."""
        if not self.compiled:
            return super()._rebuild()
        self._pack()
        if self._P is not None:
            self._pack_pressure()

    def _pack(self) -> None:
        C = lane_batches(self.mesh.nel, PACKED_VALUES)
        for s, e, packed in self._packed_chunks():
            put_lanes(C, s, e, packed)
        self._C = C

    def _pack_pressure(self) -> None:
        """Pack ``_P``: ``w det psi_m`` per point, the weights of
        :func:`~repro.fem.assembly.assemble_divergence`'s rows."""
        mesh, quad = self.mesh, self.quad
        _, det, xq = mesh.geometry_at(quad)
        centroid, h = mesh.element_centroids_and_extents()
        P = lane_batches(mesh.nel, PRESSURE_VALUES)
        for s, e in self._chunks():
            psi = P1DiscBasis.eval(xq[s:e], centroid[s:e], h[s:e])
            wdet = det[s:e] * quad.weights
            put_lanes(P, s, e, wdet[..., None] * psi)
        self._P = P

    def _streams(self) -> tuple:
        """Addresses of the coefficient arrays the viscous kernel reads, in
        its argument order."""
        return (self._C.ctypes.data,)

    def _call(self, kernel, streams, vectors, s0, e0, lo, stash) -> None:
        """One kernel call over elements ``[s0, e0)`` (clipped to the mesh)."""
        nel = len(self._conn64)
        kernel(
            *streams, self._conn64.ctypes.data, self._BD.ctypes.data,
            *vectors, max(0, int(s0)), max(0, min(nel, int(e0))), nel,
            int(lo), None if stash is None else stash.ctypes.data,
        )

    @staticmethod
    def _input(x, n: int) -> np.ndarray:
        x = np.ascontiguousarray(x, dtype=np.float64)
        if x.size != n:
            raise ValueError(f"input has {x.size} entries, expected {n}")
        return x

    def _run_kernel(self, kernel, u: np.ndarray, s0: int, e0: int,
                    out: np.ndarray | None = None, lo: int = 0,
                    stash: np.ndarray | None = None) -> np.ndarray:
        """``A u`` of elements ``[s0, e0)`` through one ISA variant,
        accumulated into ``out`` (a fresh zero vector by default); values
        for nodes below ``lo`` go to ``stash`` instead."""
        if out is None:
            out = np.zeros(self.ndof)
        u = self._input(u, self.ndof)
        self._call(kernel, self._streams(), (u.ctypes.data, out.ctypes.data),
                   s0, e0, lo, stash)
        return out

    def _run_coupled(self, kernel, x: np.ndarray, s0: int, e0: int,
                     out: np.ndarray | None = None, lo: int = 0,
                     stash: np.ndarray | None = None) -> np.ndarray:
        """``[A u + B^T p ; B u]`` of ``x = [u ; p]`` over elements
        ``[s0, e0)``, as :meth:`_run_kernel`: the velocity rows accumulate
        (and stash), each element writes its own four pressure rows."""
        n = self.ndof + self.npress
        if out is None:
            out = np.zeros(n)
        x = self._input(x, n)
        xp, yp = (a.ctypes.data for a in (x, out))
        off = 8 * self.ndof  # byte offset of the pressure block
        self._call(kernel, self._streams() + (self._P.ctypes.data,),
                   (xp, yp, xp + off, yp + off), s0, e0, lo, stash)
        return out

    def _run_divergence(self, kernel, u: np.ndarray, s0: int, e0: int,
                        out: np.ndarray | None = None) -> np.ndarray:
        """``B u`` rows of elements ``[s0, e0)`` into ``out`` (``4 nel``)."""
        if out is None:
            out = np.zeros(self.npress)
        u = self._input(u, self.ndof)
        self._call(kernel, (self._C.ctypes.data, self._P.ctypes.data),
                   (u.ctypes.data, out.ctypes.data), s0, e0, 0, None)
        return out

    # executor tasks: owner-writes applies of elements [s, e)
    def _apply_span(self, u, s, e, out, stash) -> None:
        self._run_kernel(self._kernel, u, s, e, out, self._lo[s], stash)

    def _coupled_span(self, x, s, e, out, stash) -> None:
        self._run_coupled(self._coupled_kernel, x, s, e, out, self._lo[s],
                          stash)

    def _apply(self, u: np.ndarray) -> np.ndarray:
        if not self.compiled:
            return super()._apply(u)
        if self.engine is None:
            return self._run_kernel(self._kernel, u, 0, self.mesh.nel)
        return self.engine.dispatch(self, "_apply_span", self._spans, u,
                                    self.ndof, self._stashes)

    def _pressure_pass(self, kind: str):
        """Ready a pass of a pressure kernel (current derived state, packed
        ``_P``) and return its ``MatMult_<kind>`` event."""
        if not self.compiled:
            raise RuntimeError(
                f"{self.name}: no compiled kernel ({self.fallback_reason})")
        self._sync()
        if self._P is None:
            self._pack_pressure()
        return self._event(kind)

    def apply_coupled(self, x: np.ndarray) -> np.ndarray:
        """``[A u + B^T p ; B u]`` of ``x = [u ; p]`` in one kernel pass, no
        boundary conditions (``B`` is
        :func:`~repro.fem.assembly.assemble_divergence`'s, to rounding).
        Compiled operators only."""
        with self._pressure_pass(self.coupled_kind):
            if self.engine is None:
                return self._run_coupled(self._coupled_kernel, x, 0,
                                         self.mesh.nel)
            return self.engine.dispatch(self, "_coupled_span", self._spans,
                                        x, self.ndof + self.npress,
                                        self._stashes)

    def apply_divergence(self, u: np.ndarray) -> np.ndarray:
        """``B u`` in one kernel pass (gather, forward sweep, trace), no
        boundary conditions.  Compiled operators only.  It runs here, not
        on the engine: each element writes only its own rows, so the
        floats are the same either way, and a third of an apply's work
        does not pay for a dispatch to rank processes."""
        with self._pressure_pass("divergence"):
            return self._run_divergence(self._divergence_kernel, u, 0,
                                        self.mesh.nel)


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
    coupled_kind = "coupled_newton"
    _rank_payload = TensorCompiledOperator._rank_payload + ("_N",)

    def __init__(self, mesh, eta_q, Du_q, eta_prime_q, quad=None, chunk=4096):
        # the first _rebuild (in the base constructor) packs them
        self.Du_q = _owned_copy(Du_q, (mesh.nel, 27, 3, 3), "Du_q")
        self.eta_prime_q = _owned_copy(eta_prime_q, (mesh.nel, 27),
                                       "eta_prime_q")
        super().__init__(mesh, eta_q, quad, chunk)

    def _rebuild(self) -> None:
        """Pack ``_C`` and ``_N`` lane-interleaved (and ``_P`` once used);
        nothing on the einsum fallback, which reads the geometry and its
        inputs per apply."""
        if self.compiled:
            super()._rebuild()

    def _pack(self) -> None:
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
