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
  operator's ``version`` (which rank processes snapshot by) and is the
  only coefficient copy this operator holds;
* all per-batch scratch lives on the C stack, the scatter is scalar and in
  element order, and the widest ISA variant the CPU runs (AVX-512, AVX2 or
  the baseline ABI) is picked at load time -- every variant and lane
  position produces the same floats (see the determinism contract in
  :mod:`~repro.matfree._ckernel`);
* the kernel is a plain ``ctypes`` call, so the GIL is released: with
  ``workers > 1`` (or a rank engine armed by
  :func:`~repro.parallel.executor.use_executor`) the element slabs of
  :func:`~repro.parallel.executor.partition_elements` run as concurrent
  tasks under the executor's owner-writes contract.  Span ``k`` writes
  every node no earlier span touches straight into the shared output and
  stashes the rest (nodes below ``lo_k``, one more than the largest node
  of elements ``[0, s_k)``); the stashes are replayed in span order, so
  the result equals the serial apply bit for bit for any worker count.

The arithmetic differs from the einsum path in association order, so the
two agree to a few ulp (``<= 1e-13 max|y|`` is tested), not bitwise.  When
no C toolchain is available (or ``$REPRO_NO_CKERNEL`` is set) the operator
transparently degrades to the inherited NumPy packed apply -- same
contracts, slower, serial, last bits differ.
"""

from __future__ import annotations

import numpy as np

from ..parallel.executor import make_executor, partition_elements
from . import _ckernel
from .tensor_c import TensorCOperator, PACKED_VALUES

LANES = _ckernel.LANES


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

    def __init__(self, mesh, eta_q, quad=None, chunk=4096, workers=None,
                 executor=None):
        # resolved before the base constructor packs the coefficients: the
        # layout of ``_C`` depends on which path applies them.  ``isa`` names
        # the variant in use (None on the NumPy fallback).
        self.isa = _ckernel.isa()
        self._kernel = _ckernel.variants().get(self.isa)
        super().__init__(mesh, eta_q, quad, chunk)
        # the kernel reads these as raw pointers: pin dtypes/contiguity once
        self._conn64 = np.ascontiguousarray(
            self.mesh.connectivity, dtype=np.int64
        )
        self._BD = np.ascontiguousarray(
            np.stack([self.B_hat, self.D_hat]), dtype=np.float64
        )
        #: also serves the hierarchy's assembled levels (row-split SpMV)
        self.executor = make_executor(workers, executor)
        if self.executor is not None:
            #: contiguous element slabs, one task each
            self._spans = partition_elements(mesh, self.executor.workers)
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
        """Rank-snapshot stamp: the operator's rebuild :attr:`version`."""
        return self.version

    def _rebuild(self) -> None:
        """Repack ``_C`` lane-interleaved, ``(ceil(nel/8), nq, 16, 8)``, for
        the C kernel: element ``8 b + l`` is lane ``l`` of batch ``b``,
        lanes past ``nel`` stay zero."""
        if not self.compiled:
            return super()._rebuild()
        C = np.zeros((-(-self.mesh.nel // LANES), 27, PACKED_VALUES, LANES))
        for s, e, packed in self._packed_chunks():
            el = np.arange(s, e)
            C[el // LANES, :, :, el % LANES] = packed
        self._C = C

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
        nel = self.mesh.nel
        kernel(
            self._C.ctypes.data, self._conn64.ctypes.data,
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
        if self.executor is None:
            return self._run_kernel(self._kernel, u, 0, self.mesh.nel)
        return self.executor.dispatch(self, "_apply_span", self._spans, u,
                                      self.ndof, self._stashes)
