"""Material point container, its per-point geometric tables, and seeding."""

from __future__ import annotations

from functools import cached_property

import numpy as np

from ..fem.basis import q1_basis
from ..fem.geometry import invert_3x3


class PointTables:
    """Geometric tables of one ``(els, xi)`` placement on one mesh geometry.

    Everything a reader of point data needs besides the field itself:
    the physical Q2 gradients ``G`` and the P1disc values ``psi`` (strain
    rate, pressure), the Q1 corner weights and corner ids (temperature,
    projection), and the projection's clamped weights and denominators.
    Each group is built on its first read and kept; the arrays are
    read-only.  :meth:`MaterialPoints.tables` holds one instance per
    relocation; the ``(mesh, field, els, xi)`` reader forms build a
    throwaway one, so both go through the same arithmetic.
    """

    def __init__(self, mesh, els: np.ndarray, xi: np.ndarray):
        self.mesh = mesh
        self.els = els
        self.xi = xi
        self.coords_version = mesh.coords_version

    @cached_property
    def _q2(self) -> tuple[np.ndarray, np.ndarray]:
        mesh, els = self.mesh, self.els
        N, dN = mesh.basis.tables(self.xi)
        coords = np.take(mesh.coords, mesh.connectivity[els], axis=0)
        # per-point Jacobian: J[p, c, d] = sum_a dN[p, a, d] x[p, a, c]
        Jp = np.einsum("pad,pac->pcd", dN, coords, optimize=True)
        Jinv, _ = invert_3x3(Jp)
        # kept in einsum's own output layout: the strain-rate contraction
        # sums in an order that follows G's strides
        G = np.einsum("pae,ped->pad", dN, Jinv, optimize=True)
        x = np.einsum("pa,pac->pc", N, coords, optimize=True)
        centroid, h = mesh.element_centroids_and_extents()
        psi = np.empty((els.size, 4))
        psi[:, 0] = 1.0
        psi[:, 1:] = (x - centroid[els]) / h[els]
        return _frozen(G), _frozen(psi)

    @property
    def G(self) -> np.ndarray:
        """Physical Q2 gradients ``G[p, a, d] = dN_a/dx_d``, ``(np, nb, 3)``."""
        return self._q2[0]

    @property
    def psi(self) -> np.ndarray:
        """P1disc basis values at the points, ``(np, 4)``."""
        return self._q2[1]

    @cached_property
    def _q1(self) -> tuple[np.ndarray, np.ndarray]:
        w = q1_basis().eval(self.xi)
        ids = self.mesh.corner_lattice_connectivity()[self.els]
        return _frozen(w), _frozen(ids)

    @property
    def q1_weights(self) -> np.ndarray:
        """Trilinear corner weights ``(np, 8)``."""
        return self._q1[0]

    @property
    def corner_ids(self) -> np.ndarray:
        """Corner-lattice ids of each point's element corners ``(np, 8)``."""
        return self._q1[1]

    @cached_property
    def projection(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(w, den, empty)`` of the Eq. 12 reconstruction: the weights
        clamped at 0 (jittered points can sit marginally outside), their
        per-vertex sums and the vertices whose support holds no point."""
        w = np.maximum(self.q1_weights, 0.0)
        size = self.mesh.corner_node_lattice().size
        den = np.bincount(self.corner_ids.ravel(), weights=w.ravel(),
                          minlength=size)
        return _frozen(w), _frozen(den), _frozen(den <= 0.0)


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


class MaterialPoints:
    """Struct-of-arrays material point set.

    Mandatory per-point state: position ``x``, integer ``lithology``,
    accumulated ``plastic_strain``, and the location cache ``(el, xi)``
    maintained by :func:`repro.mpm.location.locate_points`.  Arbitrary
    extra per-point history fields can be attached via :meth:`add_field`.

    ``el`` and ``xi`` are read-only: assigning either (the one way to
    change them) stores a read-only copy and drops the point tables of
    :meth:`tables`, which are also rebuilt when the mesh coordinates move.
    """

    def __init__(self, x: np.ndarray, lithology: np.ndarray | None = None):
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        if x.shape[1] != 3:
            raise ValueError("positions must be (n, 3)")
        self.x = x
        n = x.shape[0]
        self.lithology = (
            np.zeros(n, dtype=np.int32)
            if lithology is None
            else np.asarray(lithology, dtype=np.int32).copy()
        )
        self.plastic_strain = np.zeros(n)
        self.el = np.full(n, -1, dtype=np.int64)
        self.xi = np.zeros((n, 3))
        self._extra: dict[str, np.ndarray] = {}

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def el(self) -> np.ndarray:
        """Containing element per point (``-1``: outside the domain)."""
        return self._el

    @el.setter
    def el(self, value: np.ndarray) -> None:
        self._el = _frozen(np.array(value, dtype=np.int64))
        self._tables = None

    @property
    def xi(self) -> np.ndarray:
        """Reference coordinates of each point in its element, ``(n, 3)``."""
        return self._xi

    @xi.setter
    def xi(self, value: np.ndarray) -> None:
        self._xi = _frozen(np.array(value, dtype=np.float64))
        self._tables = None

    def tables(self, mesh) -> PointTables:
        """The :class:`PointTables` of the current ``(el, xi)`` on ``mesh``,
        built once per relocation and geometry (``mesh.coords_version``)."""
        t = self._tables
        if (t is None or t.mesh is not mesh
                or t.coords_version != mesh.coords_version):
            t = self._tables = PointTables(mesh, self._el, self._xi)
        return t

    def add_field(self, name: str, values: np.ndarray) -> None:
        values = np.asarray(values)
        if values.shape[0] != self.n:
            raise ValueError(f"field {name!r} has wrong length")
        self._extra[name] = values.copy()

    def field(self, name: str) -> np.ndarray:
        return self._extra[name]

    @property
    def field_names(self) -> list[str]:
        return list(self._extra)

    def subset(self, idx: np.ndarray) -> "MaterialPoints":
        """A new point set holding rows ``idx`` (copy)."""
        out = MaterialPoints(self.x[idx], self.lithology[idx])
        out.plastic_strain = self.plastic_strain[idx].copy()
        out.el = self.el[idx]
        out.xi = self.xi[idx]
        for k, v in self._extra.items():
            out._extra[k] = v[idx].copy()
        return out

    def remove(self, mask: np.ndarray) -> "MaterialPoints":
        """Drop the points flagged in ``mask`` (in place); returns self."""
        keep = ~np.asarray(mask, dtype=bool)
        self.x = self.x[keep]
        self.lithology = self.lithology[keep]
        self.plastic_strain = self.plastic_strain[keep]
        self.el = self.el[keep]
        self.xi = self.xi[keep]
        for k in self._extra:
            self._extra[k] = self._extra[k][keep]
        return self

    def extend(self, other: "MaterialPoints") -> "MaterialPoints":
        """Append another point set (in place); returns self."""
        self.x = np.vstack([self.x, other.x])
        self.lithology = np.concatenate([self.lithology, other.lithology])
        self.plastic_strain = np.concatenate(
            [self.plastic_strain, other.plastic_strain]
        )
        self.el = np.concatenate([self.el, other.el])
        self.xi = np.vstack([self.xi, other.xi])
        for k in self._extra:
            self._extra[k] = np.concatenate([self._extra[k], other._extra[k]])
        return self


def seed_points(
    mesh,
    points_per_dim: int = 3,
    jitter: float = 0.0,
    rng: np.random.Generator | None = None,
) -> MaterialPoints:
    """Seed a regular lattice of points per element (optionally jittered).

    Points are placed at the centers of a ``points_per_dim^3`` sub-lattice
    of each element in *reference* coordinates and mapped through the
    element geometry, so seeding is correct on deformed meshes too.
    ``jitter`` perturbs uniformly by that fraction of the sub-cell width.
    """
    k = int(points_per_dim)
    if k < 1:
        raise ValueError("points_per_dim must be >= 1")
    centers = (np.arange(k) + 0.5) / k * 2.0 - 1.0
    Z, Y, X = np.meshgrid(centers, centers, centers, indexing="ij")
    xi = np.column_stack([X.ravel(), Y.ravel(), Z.ravel()])  # (k^3, 3)
    if jitter > 0:
        rng = rng or np.random.default_rng(0)
        xi = xi + rng.uniform(-jitter, jitter, size=xi.shape) * (2.0 / k)
        xi = np.clip(xi, -0.999, 0.999)
    N = mesh.basis.eval(xi)  # (k^3, nb)
    ecoords = mesh.element_coords()  # (nel, nb, 3)
    x = np.einsum("qa,nac->nqc", N, ecoords, optimize=True).reshape(-1, 3)
    pts = MaterialPoints(x)
    nel = mesh.nel
    pts.el = np.repeat(np.arange(nel, dtype=np.int64), k**3)
    pts.xi = np.tile(xi, (nel, 1))
    return pts
