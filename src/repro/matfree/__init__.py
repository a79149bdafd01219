"""Matrix-free application of the Q2 viscous (Stokes momentum) operator.

This package is the paper's headline contribution (SS III-D): applying the
variable-viscosity vector Laplacian ``v -> -div(2 eta D(v))`` without an
assembled sparse matrix.  Five interchangeable implementations are provided,
mirroring Table I:

``AssembledOperator``
    CSR SpMV baseline (memory-bandwidth bound; 4608 nonzeros/element).
``MFOperator``
    Reference matrix-free kernel: recomputes the isoparametric geometry and
    the full 81x27 physical gradient matrix every apply (53622 flops/el).
``TensorOperator``
    Exploits the tensor-product structure of Q2: the reference gradient
    factors into 1D basis/derivative matrices applied along each direction
    (15228 flops/el, ~3.5x fewer), with a working set small enough to batch
    many elements at once (here: one GEMM per chunk against the dense
    Kronecker factors).
``TensorCOperator``
    Variant storing a packed symmetric coefficient tensor
    ``(grad xi)^T (w eta) (grad xi)`` at setup (16 values/point), removing
    per-apply geometry recomputation at the cost of extra streamed bytes.
``TensorCompiledOperator``
    The paper's kernel proper and the default fine-level operator: the
    packed-coefficient apply as a compiled C kernel, sum-factorized
    (10773 flops/el) and evaluated for eight elements at once in SIMD
    lanes (GIL-releasing, no chunk temporaries, ISA picked at load time,
    bit-identical across ISAs and worker counts); degrades transparently
    to the serial NumPy path without a toolchain.

``NewtonTensorOperator`` (``newton``) is not a Table I row but the true
Newton linearization the nonlinear solver puts in the Krylov matvec
(SS III-A): the compiled kernel again, with one rank-one term per point
``a (M:g) M`` streamed from a second packed array (10 values/point), and
the einsum form as its fallback and test oracle.  The time loop builds
it directly, so it is not a ``make_operator`` kind.

All five produce identical discrete operators (to rounding), which the test
suite asserts; they differ only in flops-vs-bytes balance.  Only
``asmb`` (row-split SpMV), ``tensor_compiled`` and ``newton`` dispatch
over workers, on the engine in scope when they are built
(:func:`repro.parallel.executor.current_engine`); ``mf``, ``tensor`` and
``tensor_c`` are serial reference kernels.

An operator owns its inputs (:mod:`repro.matfree.base`): after
``set_viscosity`` or a mesh move it equals a freshly built one bit for bit.
``op(u)`` is the apply timed as ``MatMult_<kind>``; ``op.apply(u)`` is not.
"""

from .assembled import AssembledOperator
from .mf import MFOperator
from .tensor import TensorOperator
from .tensor_c import TensorCOperator
from .tensor_compiled import TensorCompiledOperator, NewtonTensorOperator

OPERATOR_TYPES = {
    "asmb": AssembledOperator,
    "mf": MFOperator,
    "tensor": TensorOperator,
    "tensor_c": TensorCOperator,
    "tensor_compiled": TensorCompiledOperator,
}


def make_operator(kind: str, mesh, eta_q, **kwargs):
    """Factory over the operator implementations of Table I."""
    try:
        cls = OPERATOR_TYPES[kind]
    except KeyError:
        raise ValueError(
            f"unknown operator kind {kind!r}; expected one of {sorted(OPERATOR_TYPES)}"
        ) from None
    return cls(mesh, eta_q, **kwargs)


__all__ = [
    "AssembledOperator",
    "MFOperator",
    "TensorOperator",
    "NewtonTensorOperator",
    "TensorCOperator",
    "TensorCompiledOperator",
    "OPERATOR_TYPES",
    "make_operator",
]
