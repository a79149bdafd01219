"""Isoparametric geometry: Jacobians, inverses, determinants, physical grads.

All routines are batched over elements and quadrature points with explicit
3x3 formulas (no per-element Python loops), following the vectorize-over-
elements strategy the paper uses for its SIMD kernels.
"""

from __future__ import annotations

import numpy as np


def jacobians(coords_el: np.ndarray, dN: np.ndarray) -> np.ndarray:
    """Coordinate Jacobians ``J[n, q, c, d] = d x_c / d xi_d``.

    Parameters
    ----------
    coords_el:
        Element node coordinates, shape ``(nel, nbasis, 3)``.
    dN:
        Reference basis gradients at quadrature points, shape
        ``(nq, nbasis, 3)``.
    """
    return np.einsum("qad,nac->nqcd", dN, coords_el, optimize=True)


def det_3x3(J: np.ndarray) -> np.ndarray:
    """Batched determinant of 3x3 matrices (no inverse, safe for detJ <= 0).

    ``J`` has shape ``(..., 3, 3)``.  Unlike :func:`invert_3x3` this never
    divides by the determinant, so it is the right primitive for mesh
    validity checks that must report non-positive Jacobians instead of
    producing infinities.
    """
    a, b, c = J[..., 0, 0], J[..., 0, 1], J[..., 0, 2]
    d, e, f = J[..., 1, 0], J[..., 1, 1], J[..., 1, 2]
    g, h, i = J[..., 2, 0], J[..., 2, 1], J[..., 2, 2]
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def invert_3x3(J: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Batched inverse and determinant of 3x3 matrices.

    ``J`` has shape ``(..., 3, 3)``; returns ``(Jinv, det)`` with the same
    leading shape.  Uses the adjugate formula, which vectorizes cleanly.
    """
    a = J[..., 0, 0]
    b = J[..., 0, 1]
    c = J[..., 0, 2]
    d = J[..., 1, 0]
    e = J[..., 1, 1]
    f = J[..., 1, 2]
    g = J[..., 2, 0]
    h = J[..., 2, 1]
    i = J[..., 2, 2]
    A = e * i - f * h
    B = -(d * i - f * g)
    C = d * h - e * g
    det = a * A + b * B + c * C
    Jinv = np.empty_like(J)
    Jinv[..., 0, 0] = A
    Jinv[..., 1, 0] = B
    Jinv[..., 2, 0] = C
    Jinv[..., 0, 1] = -(b * i - c * h)
    Jinv[..., 1, 1] = a * i - c * g
    Jinv[..., 2, 1] = -(a * h - b * g)
    Jinv[..., 0, 2] = b * f - c * e
    Jinv[..., 1, 2] = -(a * f - c * d)
    Jinv[..., 2, 2] = a * e - b * d
    Jinv /= det[..., None, None]
    return Jinv, det


def gradients(dN: np.ndarray, Jinv: np.ndarray) -> np.ndarray:
    """Physical basis gradients ``G[n, q, a, d] = d N_a / d x_d``.

    From reference gradients ``dN`` ``(nq, nbasis, 3)`` and ``Jinv``
    ``(nel, nq, 3, 3)``.  Element ``n`` reads ``Jinv[n]`` only, so
    ``Jinv[s:e]`` gives ``G[s:e]`` bit for bit: form ``G`` by chunk.
    """
    # dN/dx_d = sum_e dN/dxi_e * dxi_e/dx_d, with Jinv[d, e] = dxi_d/dx_e
    return np.einsum("qae,nqed->nqad", dN, Jinv, optimize=True)


def physical_gradients(
    coords_el: np.ndarray, dN: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Physical basis gradients and Jacobian determinants, for all elements.

    Returns
    -------
    G:
        :func:`gradients` of every element, ``(nel, nq, nbasis, 3)``: for
        Q2, 9x the size of the ``Jinv`` it is formed from.
    det:
        ``det[n, q] = det J``; multiply by reference quadrature weights to
        get physical integration weights.
    """
    Jinv, det = invert_3x3(jacobians(coords_el, dN))
    return gradients(dN, Jinv), det


def map_to_physical(coords_el: np.ndarray, N: np.ndarray) -> np.ndarray:
    """Physical coordinates of reference points: shape ``(nel, nq, 3)``.

    ``N`` are basis values at the reference points, shape ``(nq, nbasis)``.
    """
    return np.einsum("qa,nac->nqc", N, coords_el, optimize=True)
