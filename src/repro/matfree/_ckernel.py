"""Build/load machinery for the compiled sum-factorized tensor kernels.

The container bakes in NumPy but no Numba/Cython, so the compiled backend
is a small C translation unit compiled *at first use* with whatever system
compiler is available (``cc``/``gcc``/``clang``) and loaded through
:mod:`ctypes`.  Everything is guarded: if no toolchain exists, compilation
fails, or ``$REPRO_NO_CKERNEL=1``, :func:`load` returns ``None`` and
:class:`~repro.matfree.tensor_compiled.TensorCompiledOperator` falls back
to the pure-NumPy packed-coefficient path -- the suite passes either way.

Shared objects are cached under ``$REPRO_CKERNEL_CACHE`` (default
``~/.cache/repro``) keyed by a hash of the source, the compile flags, the
machine architecture and the compiler's identity, so the compile cost is
paid once per machine and a ``$HOME`` shared between architectures or
compilers never loads a foreign object.  A cached file that does not load
(truncated, foreign) is unlinked and rebuilt once before giving up.

The kernel (SS III-D of the paper, "Tensor")
--------------------------------------------
``tc_apply_<isa>(cpk, conn, bd, u, y, s, e, nel, lo, stash)`` accumulates
the viscous contributions of elements ``[s, e)`` into the caller's ``y``:

* the reference gradient and its adjoint are **sum-factorized**: eight
  one-dimensional 3x3 ``B_hat``/``D_hat`` contractions each way (``uB, uD``
  along x; ``BB, DB, BD`` along y; ``gx = B.BD, gy = B.DB, gz = D.BB``
  along z) instead of three dense 27x27 products;
* :data:`LANES` = 8 elements are evaluated at once, one per SIMD lane
  (compiler vector extensions, no intrinsics), streaming the
  lane-interleaved packed coefficients ``(ceil(nel/8), 27, 16, 8)``;
  batches are aligned to the *global* element index, and a span that cuts
  a batch computes the whole (part-)batch and scatters only its own lanes;
* one variant per ISA lives in the same object (function-level
  ``target`` attributes, never ``-march=native``): ``avx512`` walks a
  batch as one 8-lane vector, ``avx2`` as two 4-lane halves, ``base``
  (SSE2 / NEON / whatever the baseline ABI has) as four 2-lane quarters.
  :func:`variants` lists the ones this CPU can run, narrowest first.

``tc_newton_<isa>(cpk, npk, conn, ...)`` is the same template instantiated
with ``NEWTON 1``: the true Newton linearization of SS III-A.  Its flux is
the Picard flux plus one rank-one term per point, ``t += a (M:g) M`` with
``M = Du K^T`` and ``a = 2 eta' w det``, read from a second stream ``npk``
``(ceil(nel/8), 27, 10, 8)`` laid out like ``cpk``; 36 flops per point
more.  With ``NEWTON 0`` those lines drop out, so the Picard variants are
the unchanged apply, and both kinds keep every contract below.

The flag ``PRESSURE`` applies the whole Stokes operator in the same pass
(:data:`KERNELS` lists the five kinds):

* ``tc_coupled_<isa>(cpk, ppk, conn, bd, u, y, p, yp, ...)`` and
  ``tc_coupled_newton_<isa>(cpk, npk, ppk, ...)`` (``PRESSURE 1``) read
  the P1disc pressures ``p`` and a third stream ``ppk``
  ``(ceil(nel/8), 27, 4, 8)`` of ``w det psi_m``; per point they take
  ``tr(grad u)`` from the ``(g K)`` already formed, accumulate the
  element's four divergence rows ``-sum_q w det psi_m tr`` into ``yp``,
  and add ``-(sum_m w det psi_m p_m) K^T`` to the flux before the adjoint
  sweep, so ``y`` gets ``A u + B^T p``;
* ``tc_divergence_<isa>(cpk, ppk, conn, bd, u, yp, ...)``
  (``PRESSURE 2``) is the gather, the forward sweep and the trace alone:
  ``yp = B u``.

A pressure row belongs to one element and is written once, by the span
that owns the element: nothing of it is stashed.

Determinism contract
--------------------
Lanes never interact, ``-ffp-contract=off`` forbids fused multiply-adds,
and without ``-ffast-math`` the compiler may not reassociate: every
element therefore sees the same IEEE operation sequence in any lane, at
any vector width.  The scatter is scalar and runs **in strictly
increasing element order**.  Together: the floats an element contributes
depend on nothing but the element -- not on the ISA variant, the lane it
lands in, or how a caller cut neighbouring spans.

A node index below ``lo`` is one an earlier span also touches; its
three values go to ``stash`` (in the same scatter order) instead of
``y``, for the caller to add back after the earlier spans are done.
With ``lo = 0`` (the serial call) nothing is stashed.  This is the
kernel half of the executor's owner-writes contract
(:mod:`repro.parallel.executor`), under which any cut of the elements
into spans reproduces the serial ``y`` bit for bit.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import shutil
import subprocess
import tempfile
from pathlib import Path

__all__ = ["available", "load", "unavailable_reason", "variants", "isa",
           "status", "KERNEL_SOURCE", "KERNELS", "LANES"]

#: environment kill-switch: ``1`` forces the pure-NumPy fallback (CI
#: fallback leg); unset, empty or ``0`` keep the kernel
ENV_DISABLE = "REPRO_NO_CKERNEL"
#: override the shared-object cache directory
ENV_CACHE = "REPRO_CKERNEL_CACHE"

#: elements per batch of the lane-interleaved coefficient layout
LANES = 8

_CFLAGS = ["-O3", "-fPIC", "-shared", "-std=c11", "-ffp-contract=off",
           "-Wno-psabi"]
_COMPILERS = ("cc", "gcc", "clang")

#: (name, lanes per vector, function target attribute), narrowest first, in
#: the order tc_isa_level() counts them; entries with a target attribute
#: exist on x86-64 only
_ISA_VARIANTS = (
    ("base", 2, ""),
    ("avx2", 4, '__attribute__((target("avx2")))'),
    ("avx512", 8, '__attribute__((target("avx512f")))'),
)

_PRELUDE = r"""
#include <stdint.h>

#define LANES 8
#define CAT_(a, b) a##b
#define CAT(a, b) CAT_(a, b)
/* per-ISA names: the templates below are instantiated once per ISA */
#define vec CAT(vec, W)
#define vec_u CAT(vec_u, W)

/* Index of the widest tc_apply_* variant this CPU (and OS) can run:
 * 0 base, 1 avx2, 2 avx512. */
int tc_isa_level(void)
{
#if defined(__x86_64__)
    __builtin_cpu_init();
    if (__builtin_cpu_supports("avx512f")) return 2;
    if (__builtin_cpu_supports("avx2")) return 1;
#endif
    return 0;
}
"""

# The vector types of one ISA, over the macro W (lanes per vector).
_VECTOR_TYPES = r"""
/* W-lane vector of doubles; `vec_u` for loads at arbitrary alignment */
typedef double vec __attribute__((vector_size(8 * W), may_alias));
typedef double vec_u
    __attribute__((vector_size(8 * W), may_alias, aligned(8)));
"""

# One ISA variant of the apply, a C "template" over the macros TC_APPLY
# (function name), W (lanes per vector), TARGET (function attribute),
# NEWTON (1 adds the Newton rank-one stream) and PRESSURE (1: the coupled
# Stokes apply, 2: the divergence alone).  With NEWTON 0 and PRESSURE 0
# every `#if` line drops out and the Picard apply is left as it always was.
_VARIANT = r"""
/* Apply of the packed-coefficient Q2 viscous operator to elements [s, e).
 *
 * cpk  : (ceil(nel/8), 27, 16, 8) lane-interleaved packed coefficients;
 *        element 8*b + l sits in lane l of batch b.  Per point
 *        [S00,S01,S02,S11,S12,S22, K row-major (9), w*det*eta]
 *        with S = w*eta * K K^T (K = inverse Jacobian); lanes past nel
 *        are zero.
 * npk  : (NEWTON only) (ceil(nel/8), 27, 10, 8) Newton coefficients in
 *        the same layout, per point [a, M row-major (9)] with
 *        M = Du K^T and a = 2 eta' w det: the flux gains a (M:g) M.
 * ppk  : (PRESSURE only) (ceil(nel/8), 27, 4, 8) per point w*det*psi_m,
 *        psi the four P1disc modes, in the same layout.
 * conn : (nel, 27) element-to-node map (int64).
 * bd   : (2, 3, 3) one-dimensional B_hat then D_hat, [point][basis].
 * u    : (nnodes*3,) interleaved input velocities.
 * y    : (nnodes*3,) output accumulator (the caller zeroes it); with
 *        PRESSURE 2 the (4*nel,) divergence B u instead.
 * pres : (PRESSURE 1 only) (4*nel,) P1disc pressures; yp (4*nel,) gets
 *        B u.  The flux
 *        gains -(sum_m w det psi_m p_m) K^T, so y is A u + B^T p.
 * s, e : element half-open range, 0 <= s <= e <= nel (the caller checks);
 * nel  : total element count.
 * lo   : nodes below lo are shared with an earlier span: their values go,
 *        in scatter order, to stash (3 per node visit) instead of y.
 *        Pressure rows belong to one element each and are never stashed
 *        (PRESSURE 2 ignores lo and stash).
 */
TARGET
void TC_APPLY(const double *restrict cpk,
#if NEWTON
              const double *restrict npk,
#endif
#if PRESSURE
              const double *restrict ppk,
#endif
              const int64_t *restrict conn,
              const double *restrict bd,
              const double *restrict u,
              double *restrict y,
#if PRESSURE == 1
              const double *restrict pres,
              double *restrict yp,
#endif
              int64_t s, int64_t e, int64_t nel,
              int64_t lo, double *restrict stash)
{
    const double (*B)[3] = (const double (*)[3])bd;
    const double (*D)[3] = (const double (*)[3])(bd + 9);

    for (int64_t el0 = s - s % W; el0 < e; el0 += W) {
        /* this part-batch: W lanes of batch el0 / 8, from lane el0 % 8 */
        const double *cq =
            cpk + (el0 / LANES) * (27 * 16 * LANES) + el0 % LANES;
#if NEWTON
        const double *cr =
            npk + (el0 / LANES) * (27 * 10 * LANES) + el0 % LANES;
#endif
#if PRESSURE
        const double *cw =
            ppk + (el0 / LANES) * (27 * 4 * LANES) + el0 % LANES;
        /* dv[m] accumulates sum_q w det psi_m tr(grad u) */
        vec dv[4] = {(vec){0}, (vec){0}, (vec){0}, (vec){0}};
#endif

        /* gather: ue[c][a] holds component c of local node a, per lane */
        double ue[3][27][W] __attribute__((aligned(8 * W)));
        for (int l = 0; l < W; ++l) {
            if (el0 + l < nel) {
                const int64_t *cn = conn + 27 * (el0 + l);
                for (int a = 0; a < 27; ++a) {
                    const double *un = u + 3 * cn[a];
                    ue[0][a][l] = un[0];
                    ue[1][a][l] = un[1];
                    ue[2][a][l] = un[2];
                }
            } else {
                for (int a = 0; a < 27; ++a)
                    ue[0][a][l] = ue[1][a][l] = ue[2][a][l] = 0.0;
            }
        }
#if PRESSURE == 1
        double pl[4][W] __attribute__((aligned(8 * W)));
        for (int l = 0; l < W; ++l)
            for (int m = 0; m < 4; ++m)
                pl[m][l] = el0 + l < nel ? pres[4 * (el0 + l) + m] : 0.0;
        const vec *pe = (const vec *)pl;
#endif

        /* reference gradient g[q][3*c + d] = d u_c / d xi_d at point q,
         * lattice indices [z][y][x] flattened x-fastest */
        vec g[27][9];
        for (int c = 0; c < 3; ++c) {
            const vec *U = (const vec *)ue[c];
            vec uB[27], uD[27], BB[27], DB[27], BD[27];
            for (int zy = 0; zy < 9; ++zy) {          /* along x */
                const vec u0 = U[3 * zy], u1 = U[3 * zy + 1],
                          u2 = U[3 * zy + 2];
                for (int q = 0; q < 3; ++q) {
                    uB[3 * zy + q] = B[q][0] * u0 + B[q][1] * u1 + B[q][2] * u2;
                    uD[3 * zy + q] = D[q][0] * u0 + D[q][1] * u1 + D[q][2] * u2;
                }
            }
            for (int z = 0; z < 3; ++z)               /* along y */
                for (int x = 0; x < 3; ++x) {
                    const int i = 9 * z + x;
                    const vec b0 = uB[i], b1 = uB[i + 3], b2 = uB[i + 6];
                    const vec d0 = uD[i], d1 = uD[i + 3], d2 = uD[i + 6];
                    for (int q = 0; q < 3; ++q) {
                        BB[i + 3 * q] = B[q][0] * b0 + B[q][1] * b1 + B[q][2] * b2;
                        DB[i + 3 * q] = D[q][0] * b0 + D[q][1] * b1 + D[q][2] * b2;
                        BD[i + 3 * q] = B[q][0] * d0 + B[q][1] * d1 + B[q][2] * d2;
                    }
                }
            for (int r = 0; r < 9; ++r)               /* along z */
                for (int q = 0; q < 3; ++q) {
                    vec *gq = g[9 * q + r] + 3 * c;
                    gq[0] = B[q][0] * BD[r] + B[q][1] * BD[r + 9] + B[q][2] * BD[r + 18];
                    gq[1] = B[q][0] * DB[r] + B[q][1] * DB[r + 9] + B[q][2] * DB[r + 18];
                    gq[2] = D[q][0] * BB[r] + D[q][1] * BB[r + 9] + D[q][2] * BB[r + 18];
                }
        }

        /* reference flux, in place: t_cd = (g S)_cd + w (K g K)_dc */
        for (int q = 0; q < 27; ++q) {
            const double *p = cq + 16 * LANES * q;
#define CP(k) (*(const vec_u *)(p + LANES * (k)))
            const vec K0 = CP(6), K1 = CP(7), K2 = CP(8);
            const vec K3 = CP(9), K4 = CP(10), K5 = CP(11);
            const vec K6 = CP(12), K7 = CP(13), K8 = CP(14);
#if PRESSURE != 2
            const vec S00 = CP(0), S01 = CP(1), S02 = CP(2);
            const vec S11 = CP(3), S12 = CP(4), S22 = CP(5);
            const vec w = CP(15);
#endif
#undef CP
            vec *gq = g[q];
#if NEWTON
            /* rank-one Newton term am M with am = a (M:g), read from g
             * before the flux overwrites it */
            const double *pr = cr + 10 * LANES * q;
            vec M[9];
            for (int k = 0; k < 9; ++k)
                M[k] = *(const vec_u *)(pr + LANES * (k + 1));
            vec mg = M[0] * gq[0];
            for (int k = 1; k < 9; ++k)
                mg = mg + M[k] * gq[k];
            const vec am = *(const vec_u *)pr * mg;
#endif
            vec gk[3][3];                             /* (g K)_cf */
            for (int c = 0; c < 3; ++c) {
                const vec g0 = gq[3 * c], g1 = gq[3 * c + 1], g2 = gq[3 * c + 2];
                gk[c][0] = g0 * K0 + g1 * K3 + g2 * K6;
                gk[c][1] = g0 * K1 + g1 * K4 + g2 * K7;
                gk[c][2] = g0 * K2 + g1 * K5 + g2 * K8;
            }
#if PRESSURE
            /* w det psi_m at this point; tr(grad u) = tr(g K) */
            const double *pw = cw + 4 * LANES * q;
            vec wpsi[4];
            for (int m = 0; m < 4; ++m)
                wpsi[m] = *(const vec_u *)(pw + LANES * m);
            const vec tr = gk[0][0] + gk[1][1] + gk[2][2];
            for (int m = 0; m < 4; ++m)
                dv[m] = dv[m] + wpsi[m] * tr;
#endif
#if PRESSURE != 2
#if PRESSURE == 1
            /* the pressure at this point times w det; the flux gains
             * -P K^T, the gradient's share */
            const vec P = wpsi[0] * pe[0] + wpsi[1] * pe[1]
                        + wpsi[2] * pe[2] + wpsi[3] * pe[3];
            const vec Kt[9] = {K0, K3, K6, K1, K4, K7, K2, K5, K8};
#endif
            for (int c = 0; c < 3; ++c) {
                const vec g0 = gq[3 * c], g1 = gq[3 * c + 1], g2 = gq[3 * c + 2];
                /* (g S)_cd with S symmetric */
                const vec gs0 = g0 * S00 + g1 * S01 + g2 * S02;
                const vec gs1 = g0 * S01 + g1 * S11 + g2 * S12;
                const vec gs2 = g0 * S02 + g1 * S12 + g2 * S22;
                /* (K g K)_dc = sum_e K_de (g K)_ec */
                const vec kg0 = K0 * gk[0][c] + K1 * gk[1][c] + K2 * gk[2][c];
                const vec kg1 = K3 * gk[0][c] + K4 * gk[1][c] + K5 * gk[2][c];
                const vec kg2 = K6 * gk[0][c] + K7 * gk[1][c] + K8 * gk[2][c];
                gq[3 * c] = gs0 + w * kg0;
                gq[3 * c + 1] = gs1 + w * kg1;
                gq[3 * c + 2] = gs2 + w * kg2;
#if NEWTON
                gq[3 * c] += am * M[3 * c];
                gq[3 * c + 1] += am * M[3 * c + 1];
                gq[3 * c + 2] += am * M[3 * c + 2];
#endif
#if PRESSURE == 1
                /* t_cd -= P K_dc */
                gq[3 * c] -= P * Kt[3 * c];
                gq[3 * c + 1] -= P * Kt[3 * c + 1];
                gq[3 * c + 2] -= P * Kt[3 * c + 2];
#endif
            }
#endif
        }

#if PRESSURE
        /* B u = -sum_q w det psi tr(grad u): four rows per element, each
         * written by the one span that owns the element */
        double yl[4][W] __attribute__((aligned(8 * W)));
        for (int m = 0; m < 4; ++m)
            ((vec *)yl)[m] = -dv[m];
#if PRESSURE == 2
        double *yp = y;
#endif
        for (int l = 0; l < W; ++l) {
            const int64_t el = el0 + l;
            if (el < s || el >= e) continue;
            for (int m = 0; m < 4; ++m)
                yp[4 * el + m] = yl[m][l];
        }
#endif
#if PRESSURE != 2
        /* adjoint gradient: the forward sweeps transposed, z then y then x */
        double ye[3][27][W] __attribute__((aligned(8 * W)));
        for (int c = 0; c < 3; ++c) {
            vec BDt[27], DBt[27], BBt[27], uBt[27], uDt[27];
            for (int r = 0; r < 9; ++r) {             /* along z */
                const vec *t0 = g[r] + 3 * c, *t1 = g[r + 9] + 3 * c,
                          *t2 = g[r + 18] + 3 * c;
                for (int a = 0; a < 3; ++a) {
                    BDt[9 * a + r] = B[0][a] * t0[0] + B[1][a] * t1[0] + B[2][a] * t2[0];
                    DBt[9 * a + r] = B[0][a] * t0[1] + B[1][a] * t1[1] + B[2][a] * t2[1];
                    BBt[9 * a + r] = D[0][a] * t0[2] + D[1][a] * t1[2] + D[2][a] * t2[2];
                }
            }
            for (int z = 0; z < 3; ++z)               /* along y */
                for (int x = 0; x < 3; ++x) {
                    const int i = 9 * z + x;
                    for (int a = 0; a < 3; ++a) {
                        uDt[i + 3 * a] = B[0][a] * BDt[i] + B[1][a] * BDt[i + 3]
                                       + B[2][a] * BDt[i + 6];
                        uBt[i + 3 * a] = (D[0][a] * DBt[i] + D[1][a] * DBt[i + 3]
                                          + D[2][a] * DBt[i + 6])
                                       + (B[0][a] * BBt[i] + B[1][a] * BBt[i + 3]
                                          + B[2][a] * BBt[i + 6]);
                    }
                }
            vec *Y = (vec *)ye[c];
            for (int zy = 0; zy < 9; ++zy) {          /* along x */
                const int i = 3 * zy;
                for (int a = 0; a < 3; ++a)
                    Y[i + a] = (D[0][a] * uDt[i] + D[1][a] * uDt[i + 1]
                                + D[2][a] * uDt[i + 2])
                             + (B[0][a] * uBt[i] + B[1][a] * uBt[i + 1]
                                + B[2][a] * uBt[i + 2]);
            }
        }

        /* ordered scalar scatter of the lanes that belong to [s, e) */
        for (int l = 0; l < W; ++l) {
            const int64_t el = el0 + l;
            if (el < s || el >= e) continue;
            const int64_t *cn = conn + 27 * el;
            for (int a = 0; a < 27; ++a) {
                if (cn[a] < lo) {
                    for (int c = 0; c < 3; ++c)
                        *stash++ = ye[c][a][l];
                    continue;
                }
                double *yn = y + 3 * cn[a];
                yn[0] += ye[0][a][l];
                yn[1] += ye[1][a][l];
                yn[2] += ye[2][a][l];
            }
        }
#endif
    }
}
"""


#: the kernels each ISA variant carries: ``tc_<kind>_<isa>`` and its
#: ``(NEWTON, PRESSURE)`` flags.  ``apply``/``newton`` map ``u -> A u``;
#: ``coupled``/``coupled_newton`` map ``(u, p) -> (A u + B^T p, B u)``;
#: ``divergence`` maps ``u -> B u``
KERNELS = {"apply": (0, 0), "newton": (1, 0), "coupled": (0, 1),
           "coupled_newton": (1, 1), "divergence": (0, 2)}


def _kernel_source() -> str:
    parts = [_PRELUDE]
    for name, width, target in _ISA_VARIANTS:
        block = f"#define W {width}\n#define TARGET {target}\n{_VECTOR_TYPES}"
        for kind, (newton, pressure) in KERNELS.items():
            block += (f"#define TC_APPLY tc_{kind}_{name}\n"
                      f"#define NEWTON {newton}\n#define PRESSURE {pressure}\n"
                      f"{_VARIANT}\n"
                      "#undef TC_APPLY\n#undef NEWTON\n#undef PRESSURE\n")
        block += "#undef W\n#undef TARGET"
        if target:  # an x86 ISA extension
            block = f"#if defined(__x86_64__)\n{block}\n#endif"
        parts.append(block)
    return "\n".join(parts)


KERNEL_SOURCE = _kernel_source()

_lib = None
_load_attempted = False
_reason: str | None = None


def _cache_dir() -> Path:
    env = os.environ.get(ENV_CACHE)
    if env:
        return Path(env)
    return Path(os.path.expanduser("~")) / ".cache" / "repro"


def _source_key(cc_path: str) -> str:
    """Cache key: source, flags, architecture and compiler identity."""
    st = os.stat(cc_path)
    payload = "\0".join([
        KERNEL_SOURCE, " ".join(_CFLAGS), platform.machine(),
        os.path.realpath(cc_path), str(st.st_size), str(st.st_mtime_ns),
    ])
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def _compile(cc_path: str, so_path: Path) -> str | None:
    """Compile the kernel into ``so_path``; return a failure reason or None."""
    so_path.parent.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="repro-ckernel-") as tmp:
        c_path = Path(tmp) / "tensor_kernel.c"
        c_path.write_text(KERNEL_SOURCE)
        tmp_so = Path(tmp) / "tensor_kernel.so"
        cmd = [cc_path, *_CFLAGS, str(c_path), "-o", str(tmp_so)]
        try:
            proc = subprocess.run(
                cmd, capture_output=True, text=True, timeout=120
            )
        except (OSError, subprocess.TimeoutExpired) as err:
            return f"{cc_path}: {err}"
        if proc.returncode != 0:
            return (f"{cc_path} exited {proc.returncode}: "
                    f"{proc.stderr.strip()[:400]}")
        # atomic publish so concurrent processes race benignly
        os.replace(tmp_so, so_path)
    return None


def _argtypes(newton: int, pressure: int) -> list:
    """ctypes signature of ``tc_<kind>_<isa>`` with these template flags."""
    ptr, i64 = ctypes.c_void_p, ctypes.c_int64
    streams = [ptr] * (1 + newton + (pressure > 0))  # cpk [npk] [ppk]
    vectors = [ptr] * (4 + 2 * (pressure == 1))      # conn bd u y [pres yp]
    return streams + vectors + [i64, i64, i64, i64, ptr]  # s e nel lo stash


def _bind(lib: ctypes.CDLL) -> ctypes.CDLL:
    """Declare signatures; raises AttributeError on a foreign object."""
    lib.tc_isa_level.restype = ctypes.c_int
    lib.tc_isa_level.argtypes = []
    level = lib.tc_isa_level()
    for name, _, _ in _ISA_VARIANTS[: level + 1]:
        for kind, flags in KERNELS.items():
            fn = getattr(lib, f"tc_{kind}_{name}")
            fn.restype = None
            fn.argtypes = _argtypes(*flags)
    return lib


def _open(cc_path: str, so_path: Path):
    """``(library, None)`` or ``(None, reason)``: load ``so_path``, building
    it first if absent.  A file that exists but does not load is unlinked
    and rebuilt once."""
    reason = None
    for _ in range(2):
        if not so_path.exists():
            failure = _compile(cc_path, so_path)
            if failure is not None:
                return None, f"compile failed: {failure}"
        try:
            return _bind(ctypes.CDLL(str(so_path))), None
        except (OSError, AttributeError) as err:
            reason = f"load failed: {err}"
            so_path.unlink(missing_ok=True)
    return None, reason


def load() -> ctypes.CDLL | None:
    """The compiled kernel library, or ``None`` with a recorded reason."""
    global _lib, _load_attempted, _reason
    if _lib is not None:
        return _lib
    if _load_attempted:
        return None
    raw = os.environ.get(ENV_DISABLE, "").strip()
    if raw not in ("", "0", "1"):
        raise ValueError(
            f"${ENV_DISABLE} must be unset, empty, 0 or 1; got {raw!r}")
    _load_attempted = True
    if raw == "1":
        _reason = f"disabled via ${ENV_DISABLE}"
        return None
    _reason = "compile failed: no C compiler found (tried: %s)" % ", ".join(
        _COMPILERS)
    for cc in _COMPILERS:
        cc_path = shutil.which(cc)
        if cc_path is None:
            continue
        try:
            so_path = _cache_dir() / f"tensor_kernel-{_source_key(cc_path)}.so"
            _lib, _reason = _open(cc_path, so_path)
        except OSError as err:  # unwritable cache directory and the like
            _reason = f"compile failed: {err}"
        if _lib is not None:
            return _lib
    return None


def available() -> bool:
    """True when the compiled kernel can be (or has been) loaded."""
    return load() is not None


def unavailable_reason() -> str | None:
    """Why the compiled kernel is unavailable (None when it is available)."""
    load()
    return _reason


def variants(kind: str = "apply") -> dict:
    """``{isa name: tc_<kind> function}`` (``kind`` one of :data:`KERNELS`)
    for every variant this CPU can run, narrowest first (so the last entry
    is the one to use); empty when the kernel is unavailable.  All variants
    of one kind produce identical floats."""
    lib = load()
    if lib is None:
        return {}
    return {name: getattr(lib, f"tc_{kind}_{name}")
            for name, _, _ in _ISA_VARIANTS[: lib.tc_isa_level() + 1]}


def isa() -> str | None:
    """Name of the widest runnable variant (None when unavailable)."""
    return next(reversed(variants()), None)


def status() -> dict | None:
    """What the run manifest records about the kernel: ``{"isa": ...}``
    when loaded, ``{"fallback_reason": ...}`` when a load was attempted and
    failed, ``None`` when nothing has asked for the kernel yet (never
    triggers a compile itself)."""
    if not _load_attempted:
        return None
    if _lib is None:
        return {"fallback_reason": _reason}
    return {"isa": isa()}


def _reset_for_tests() -> None:
    """Forget the cached load state (used by the fallback-path tests)."""
    global _lib, _load_attempted, _reason
    _lib = None
    _load_attempted = False
    _reason = None
