"""Per-element flop and byte counts for the Q2 viscous operator (Table I).

Two tables live here, and the distinction is the point:

``PAPER_COUNTS`` / :func:`table1_counts`
    The paper's own arithmetic from SS III-D, kept as explicit expressions
    so the derivation is auditable.  These are the numbers Table I prints
    and the modeled columns of :func:`~repro.perf.roofline.table1_model`
    use -- including the paper's 21-entry symmetric Voigt storage for the
    Tensor-C coefficient tensor.

``OPERATOR_COUNTS``
    What *this implementation* actually computes and streams.  The
    ``asmb``/``mf``/``tensor`` kernels track the paper closely, but our
    Tensor-C apply differs in two audited ways, and quoting the paper's
    numbers for it flattered the kernel in every GF/s-vs-roofline report:

    * **storage** -- the paper packs the anisotropic rank-4 tensor into 21
      Voigt entries/point; early versions of this repo stored the dense 81
      while *counting* 21.  The current packing is 16 values/point
      ``[S (sym, 6), K (9), w eta (1)]``, exact for the isotropic Picard
      operator (see :mod:`repro.matfree.tensor_c`);
    * **flops** -- our apply evaluates the two-term contraction
      ``t = g S + w (K g K)^T`` (153 flops/point) between the factored
      reference-gradient forward/adjoint sweeps (13122 flops each), not
      the paper's fully-precomputed 81-entry contraction.

    ``tensor_compiled`` applies the same packed coefficients but is a
    different algorithm and gets its own row: its C kernel sum-factorizes
    the reference gradient into 1-D 3x3 contractions (3240 flops forward,
    3402 adjoint, instead of 13122 each), so it does 10773 flops per
    element, and streams the coefficients lane-interleaved in batches of
    eight elements (same 16 values per point, so the same bytes per
    element; the zero lanes padding the last batch are not counted).
    ``newton`` is that kernel with the rank-one Newton term: 36 flops and
    10 streamed values more per quadrature point.  ``coupled`` and
    ``coupled_newton`` are those kernels applying the whole Stokes
    operator, ``(u, p) -> (A u + B^T p, B u)``: 35 flops and 4 streamed
    values (``w det psi_m``) more per point, plus the element's pressures;
    ``divergence`` is the gather, the forward sweep and the trace alone.

Paper rows (SS III-D):

Assembled SpMV
    4608 nonzeros per element (27 nodes x 3 comps dense block rows across
    the 27-node stencil averaged per element); 2 flops per nonzero.
Matrix-free (MF)
    metric terms 2*81*27*3 + 42*27, building D_e 2*81*27*3, applying D_e
    and D_e^T 2*81*27 each.
Tensor
    three applications of the factored reference gradient at 2*3^7 flops
    each (one third of the dense 81x27 apply), metric terms in the
    quadrature loop, and the constitutive update.
Tensor-C
    stored rank-4 coefficient tensor (21 distinct entries/point) applied in
    the quadrature loop; reference gradients as in Tensor.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class OperatorCounts:
    """Flops and streamed bytes per element for one operator apply."""

    name: str
    flops: int
    bytes_perfect_cache: int
    bytes_pessimal_cache: int

    @property
    def intensity_perfect(self) -> float:
        """Arithmetic intensity (flops/byte) with perfect vector caching."""
        return self.flops / self.bytes_perfect_cache

    @property
    def intensity_pessimal(self) -> float:
        return self.flops / self.bytes_pessimal_cache


# -- Assembled: 4608 nnz/element ------------------------------------------- #
_NNZ_PER_EL = 4608
_ASSEMBLED = OperatorCounts(
    name="asmb",
    flops=2 * _NNZ_PER_EL,  # one multiply + one add per nonzero = 9216
    # matrix entries (8 B) + implicit column indices (4/8 B amortized) with
    # perfect vector reuse: the paper quotes 37248 B
    bytes_perfect_cache=_NNZ_PER_EL * 8 + 384,
    bytes_pessimal_cache=_NNZ_PER_EL * 12 + 384,
)

# -- shared matrix-free data motion (SS III-D paragraph 2) ------------------ #
# 8*3 coordinates + 2*8*3 state/residual + 27 coefficient + 27 gather indices
_MF_VALUES_PERFECT = 8 * 3 + 2 * 8 * 3 + 27 + 27  # = 126 -> 1008 B
_MF_BYTES_PERFECT = 8 * _MF_VALUES_PERFECT
_MF_BYTES_PESSIMAL = 2376  # paper: limited cache / poor element ordering

_MF = OperatorCounts(
    name="mf",
    # metric terms (14256) + build D_e (13122) + apply D_e and D_e^T to a
    # 3-component field (13122 each)
    flops=(2 * 81 * 27 * 3 + 42 * 27) + (2 * 81 * 27 * 3) + 2 * (2 * 81 * 27 * 3),
    bytes_perfect_cache=_MF_BYTES_PERFECT,
    bytes_pessimal_cache=_MF_BYTES_PESSIMAL,
)
assert _MF.flops == 53622, _MF.flops

_TENSOR = OperatorCounts(
    name="tensor",
    # 3 factored gradient applications + metric terms + quadrature update
    flops=3 * (2 * 3**7) + 42 * 27 + 3 * 12 * 27,
    bytes_perfect_cache=_MF_BYTES_PERFECT,
    bytes_pessimal_cache=_MF_BYTES_PESSIMAL,
)
assert _TENSOR.flops == 15228, _TENSOR.flops

# -- Tensor-C, paper accounting (21-entry Voigt storage) -------------------- #
_TENSOR_C_PAPER = OperatorCounts(
    name="tensor_c",
    # stored 21-entry coefficient tensor: 2*4920 + 2*81*27
    flops=2 * 4920 + 2 * 81 * 27,
    bytes_perfect_cache=8 * (2 * 8 * 3 + 21 * 27),     # 4920 B
    bytes_pessimal_cache=8 * (2 * 27 * 3 + 21 * 27),   # 5832 B
)
assert _TENSOR_C_PAPER.flops == 14214
assert _TENSOR_C_PAPER.bytes_perfect_cache == 4920
assert _TENSOR_C_PAPER.bytes_pessimal_cache == 5832

# -- Tensor-C, implementation accounting (16-value packed storage) ---------- #
# forward gradient: 3 directions x 27 q x 27 basis x 3 comps x 2 flops
_GRAD_FLOPS = 3 * 27 * 27 * 3 * 2  # = 13122 (same for the adjoint sweep)
# pointwise t = g S + w (K g K)^T per quadrature point:
#   gK   9 entries x (3 mul + 2 add)              = 45
#   gS   3 comps x 3 entries x (3 mul + 2 add)    = 45
#   KgK  3 comps x 3 entries x (3 mul + 2 add)    = 45
#   t    3 comps x 3 entries x (1 mul + 1 add)    = 18
_POINT_FLOPS = 45 + 45 + 45 + 18  # = 153
_TENSOR_C_FLOPS = 2 * _GRAD_FLOPS + 27 * _POINT_FLOPS
assert _TENSOR_C_FLOPS == 30375, _TENSOR_C_FLOPS
# streamed/element: packed coefficients 16*27 doubles + 27 gather indices
# (int64) + state/residual vectors (8 fresh nodes with perfect caching, all
# 27 with pessimal)
_TENSOR_C_BYTES_PERFECT = 8 * (2 * 8 * 3) + 8 * 16 * 27 + 8 * 27
_TENSOR_C_BYTES_PESSIMAL = 8 * (2 * 27 * 3) + 8 * 16 * 27 + 8 * 27
assert _TENSOR_C_BYTES_PERFECT == 4056
assert _TENSOR_C_BYTES_PESSIMAL == 4968

_TENSOR_C_IMPL = OperatorCounts(
    name="tensor_c",
    flops=_TENSOR_C_FLOPS,
    bytes_perfect_cache=_TENSOR_C_BYTES_PERFECT,
    bytes_pessimal_cache=_TENSOR_C_BYTES_PESSIMAL,
)
# -- compiled Tensor kernel: sum-factorized, 8 elements per SIMD batch ------ #
# one 1-D contraction of a 3^3 lattice: 27 outputs x (3 mul + 2 add)
_LINE_FLOPS = 27 * 5  # = 135
# forward, per component: uB,uD along x; BB,DB,BD along y; gx,gy,gz along z
_FACTORED_GRAD_FLOPS = 3 * (2 + 3 + 3) * _LINE_FLOPS
# adjoint, per component: the same eight contractions transposed, plus the
# merges where two of them land on one lattice (uB^T along y, y_e along x:
# 27 adds each)
_FACTORED_ADJ_FLOPS = 3 * ((3 + 3 + 2) * _LINE_FLOPS + 2 * 27)
assert _FACTORED_GRAD_FLOPS == 3240, _FACTORED_GRAD_FLOPS
assert _FACTORED_ADJ_FLOPS == 3402, _FACTORED_ADJ_FLOPS
_TENSOR_COMPILED_FLOPS = (
    _FACTORED_GRAD_FLOPS + 27 * _POINT_FLOPS + _FACTORED_ADJ_FLOPS
)
assert _TENSOR_COMPILED_FLOPS == 10773, _TENSOR_COMPILED_FLOPS
# streamed per batch of 8 elements: the interleaved coefficient block
# (27 points x 16 values x 8 lanes), 8 gather maps, and the state/residual
# vectors of 8 elements
_LANES = 8
_BATCH_BYTES_PERFECT = 8 * (27 * 16 * _LANES) + _LANES * 8 * (27 + 2 * 8 * 3)
_BATCH_BYTES_PESSIMAL = 8 * (27 * 16 * _LANES) + _LANES * 8 * (27 + 2 * 27 * 3)
assert _BATCH_BYTES_PERFECT == _LANES * 4056
assert _BATCH_BYTES_PESSIMAL == _LANES * 4968

_TENSOR_COMPILED = OperatorCounts(
    name="tensor_compiled",
    flops=_TENSOR_COMPILED_FLOPS,
    bytes_perfect_cache=_BATCH_BYTES_PERFECT // _LANES,
    bytes_pessimal_cache=_BATCH_BYTES_PESSIMAL // _LANES,
)

# -- Newton linearization: the compiled kernel plus a rank-one term -------- #
# per quadrature point, t += a (M:g) M:
#   M:g      9 mul + 8 add  = 17
#   a (M:g)  1 mul          =  1
#   t +=     9 mul + 9 add  = 18
_NEWTON_POINT_FLOPS = 17 + 1 + 18
assert _NEWTON_POINT_FLOPS == 36
# streamed: the second lane-interleaved array, [a, M (9)] per point
_NEWTON_EXTRA_BYTES = 8 * 10 * 27
assert _NEWTON_EXTRA_BYTES == 2160
_NEWTON = OperatorCounts(
    name="newton",
    flops=_TENSOR_COMPILED_FLOPS + 27 * _NEWTON_POINT_FLOPS,
    bytes_perfect_cache=_TENSOR_COMPILED.bytes_perfect_cache
    + _NEWTON_EXTRA_BYTES,
    bytes_pessimal_cache=_TENSOR_COMPILED.bytes_pessimal_cache
    + _NEWTON_EXTRA_BYTES,
)
assert _NEWTON.flops == 11745, _NEWTON.flops
assert _NEWTON.bytes_perfect_cache == 6216
assert _NEWTON.bytes_pessimal_cache == 7128

# -- the coupled Stokes apply and the divergence, one kernel pass each ----- #
# per quadrature point, on top of the viscous kernel's flux:
#   tr(g K)      the diagonal of (g K) is already formed: 2 add   =  2
#   B u rows     dv_m += (w det psi_m) tr, m < 4: 4 mul + 4 add   =  8
#   P            sum_m (w det psi_m) p_m: 4 mul + 3 add           =  7
#   t -= P K^T   9 mul + 9 sub                                    = 18
_DIV_POINT_FLOPS = 2 + 8
_GRAD_POINT_FLOPS = 7 + 18
assert _DIV_POINT_FLOPS + _GRAD_POINT_FLOPS == 35
# streamed: the third lane-interleaved array, w det psi_m (4 doubles per
# point), and the element's four pressures in and four rows out
_PRESSURE_STREAM_BYTES = 8 * 4 * 27
_PRESSURE_VECTOR_BYTES = 8 * 2 * 4
assert _PRESSURE_STREAM_BYTES + _PRESSURE_VECTOR_BYTES == 928


def _coupled(name: str, viscous: OperatorCounts) -> OperatorCounts:
    """``(u, p) -> (A u + B^T p, B u)``: ``viscous`` plus the pressure
    terms and streams."""
    extra = _PRESSURE_STREAM_BYTES + _PRESSURE_VECTOR_BYTES
    return OperatorCounts(
        name=name,
        flops=viscous.flops + 27 * (_DIV_POINT_FLOPS + _GRAD_POINT_FLOPS),
        bytes_perfect_cache=viscous.bytes_perfect_cache + extra,
        bytes_pessimal_cache=viscous.bytes_pessimal_cache + extra,
    )


_COUPLED = _coupled("coupled", _TENSOR_COMPILED)
_COUPLED_NEWTON = _coupled("coupled_newton", _NEWTON)
assert _COUPLED.flops == 11718, _COUPLED.flops
assert _COUPLED_NEWTON.flops == 12690, _COUPLED_NEWTON.flops

# the divergence alone: gather and forward sweep, then per point the
# diagonal of (g K) (3 x (3 mul + 2 add) = 15) and the B u rows; it streams
# K (9 of the 16 packed values), the pressure weights, the gather map, the
# velocities in (8 fresh nodes perfect, 27 pessimal) and 4 rows out
_DIVERGENCE = OperatorCounts(
    name="divergence",
    flops=_FACTORED_GRAD_FLOPS + 27 * (15 + _DIV_POINT_FLOPS),
    bytes_perfect_cache=8 * (9 + 4) * 27 + 8 * 27 + 8 * 8 * 3 + 8 * 4,
    bytes_pessimal_cache=8 * (9 + 4) * 27 + 8 * 27 + 8 * 27 * 3 + 8 * 4,
)
assert _DIVERGENCE.flops == 3915, _DIVERGENCE.flops
assert _DIVERGENCE.bytes_perfect_cache == 3248
assert _DIVERGENCE.bytes_pessimal_cache == 3704

#: Table I exactly as the paper prints it (four rows, paper arithmetic)
PAPER_COUNTS: dict[str, OperatorCounts] = {
    c.name: c for c in (_ASSEMBLED, _MF, _TENSOR, _TENSOR_C_PAPER)
}

#: what this implementation computes and streams (GF/s accounting, events)
OPERATOR_COUNTS: dict[str, OperatorCounts] = {
    c.name: c
    for c in (_ASSEMBLED, _MF, _TENSOR, _TENSOR_C_IMPL, _TENSOR_COMPILED,
              _NEWTON, _COUPLED, _COUPLED_NEWTON, _DIVERGENCE)
}


def table1_counts() -> list[OperatorCounts]:
    """The four rows of Table I in paper order (paper accounting)."""
    return [_ASSEMBLED, _MF, _TENSOR, _TENSOR_C_PAPER]
