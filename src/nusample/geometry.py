"""Compact convex symmetric frequency bodies and their duals.

A spectrum is a compact, convex set in frequency space, symmetric about the
origin, represented as an axis-aligned box, a Euclidean ball, or a symmetric
vertex polytope.  All coordinates are in cycles per unit.  The module supplies
the Minkowski gauge, polar bodies, scalings, midpoint quadrature grids, and a
grid-based check of the translate-covering criterion.

Dimensions 1 and 2 are supported; membership tests are exact (finite sets of
linear or quadratic inequalities).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product

import numpy as np

_SHAPES = ("box", "ball", "polytope")
_MEMBERSHIP_TOL = 1e-12


def _cross(u: np.ndarray, v: np.ndarray) -> float:
    """z component of the cross product of two 2-vectors."""
    return u[0] * v[1] - u[1] * v[0]


def as_points(x, dim: int) -> np.ndarray:
    """Coerce scalars / lists / arrays to an (n, dim) float array."""
    a = np.asarray(x, dtype=float)
    if a.ndim == 0:
        if dim != 1:
            raise ValueError(f"scalar point given for dim={dim}")
        return a.reshape(1, 1)
    if a.ndim == 1:
        if dim == 1:
            return a.reshape(-1, 1)
        if a.shape[0] == dim:
            return a.reshape(1, dim)
        raise ValueError(f"cannot interpret shape {a.shape} as points in dim {dim}")
    if a.shape[1] != dim:
        raise ValueError(f"points have dim {a.shape[1]}, expected {dim}")
    return a


@dataclass(frozen=True, eq=False)
class SpectrumSet:
    """Compact convex set in frequency space, symmetric about the origin.

    Use the :meth:`box`, :meth:`ball`, or :meth:`polytope` constructors.
    """

    dim: int
    shape: str
    half_widths: np.ndarray | None = None
    radius: float | None = None
    vertices: np.ndarray | None = None

    @classmethod
    def box(cls, half_widths) -> "SpectrumSet":
        h = np.atleast_1d(np.asarray(half_widths, dtype=float))
        if h.ndim != 1 or h.size not in (1, 2):
            raise ValueError("box supports dim 1 or 2")
        if np.any(h <= 0):
            raise ValueError("box half-widths must be positive")
        return cls(dim=h.size, shape="box", half_widths=h)

    @classmethod
    def ball(cls, radius: float, dim: int = 2) -> "SpectrumSet":
        if dim not in (1, 2):
            raise ValueError("ball supports dim 1 or 2")
        if radius <= 0:
            raise ValueError("ball radius must be positive")
        return cls(dim=dim, shape="ball", radius=float(radius))

    @classmethod
    def polytope(cls, vertices) -> "SpectrumSet":
        v = np.asarray(vertices, dtype=float)
        if v.ndim != 2 or v.shape[1] not in (1, 2):
            raise ValueError("polytope vertices must be an (m, 1) or (m, 2) array")
        obj = cls(dim=v.shape[1], shape="polytope", vertices=v)
        obj._validate_polytope()
        return obj

    def _validate_polytope(self) -> None:
        v = self.vertices
        # symmetry: every vertex must have its negation in the list
        for row in v:
            if not np.any(np.all(np.abs(v + row) <= 1e-9, axis=1)):
                raise ValueError("polytope vertex list is not closed under negation")
        if np.linalg.matrix_rank(v, tol=1e-12) < self.dim:
            raise ValueError("polytope vertices do not span the space")
        if self.dim == 2:
            self._hull_system  # force hull construction; raises on degeneracy

    @cached_property
    def _hull_system(self):
        """Half-space form A x <= b of the 2-d vertex polytope (b > 0), one
        row per hull edge, with unit outward normals A.

        The hull is Andrew's monotone chain: the distinct vertices sorted by
        (x, y), then a lower and an upper chain, each dropping every vertex
        where the turn is not strictly counterclockwise, so repeated vertices
        and vertices exactly on an edge leave no row.
        """
        v = np.unique(self.vertices, axis=0)   # sorted by (x, y)
        chains = ([], [])
        for chain, points in zip(chains, (v, v[::-1])):
            for p in points:
                while len(chain) >= 2 and _cross(chain[-1] - chain[-2], p - chain[-1]) <= 0:
                    chain.pop()
                chain.append(p)
        # counterclockwise corners, each once: each chain ends where the other starts
        corners = np.array(chains[0][:-1] + chains[1][:-1])
        if corners.shape[0] < 3:
            raise ValueError("degenerate polytope: the vertices are collinear")
        edges = np.roll(corners, -1, axis=0) - corners
        a = np.stack([edges[:, 1], -edges[:, 0]], axis=1)
        a /= np.linalg.norm(a, axis=1, keepdims=True)
        b = np.sum(a * corners, axis=1)
        if np.any(b <= 0):
            raise ValueError("polytope does not contain the origin in its interior")
        return a, b

    # -- geometry queries -------------------------------------------------

    def gauge(self, points) -> np.ndarray:
        """Minkowski gauge inf{rho > 0 : p in rho * set} per point."""
        p = as_points(points, self.dim)
        if self.shape == "box":
            return np.max(np.abs(p) / self.half_widths, axis=1)
        if self.shape == "ball":
            return np.linalg.norm(p, axis=1) / self.radius
        if self.dim == 1:
            return np.abs(p[:, 0]) / np.max(np.abs(self.vertices))
        a, b = self._hull_system
        return np.max((p @ a.T) / b, axis=1)

    def contains(self, points, tol: float = _MEMBERSHIP_TOL) -> np.ndarray:
        return self.gauge(points) <= 1.0 + tol

    def boundary_distance(self, point) -> float:
        """Euclidean distance from an interior point to the boundary."""
        p = as_points(point, self.dim)[0]
        if self.shape == "box":
            d = np.min(self.half_widths - np.abs(p))
        elif self.shape == "ball":
            d = self.radius - np.linalg.norm(p)
        elif self.dim == 1:
            d = np.max(np.abs(self.vertices)) - abs(p[0])
        else:
            a, b = self._hull_system
            d = np.min((b - a @ p) / np.linalg.norm(a, axis=1))
        return float(d)

    def bounding_box(self) -> np.ndarray:
        """Axis-aligned bounds, shape (dim, 2)."""
        if self.shape == "box":
            h = self.half_widths
        elif self.shape == "ball":
            h = np.full(self.dim, self.radius)
        else:
            h = np.max(np.abs(self.vertices), axis=0)
        return np.stack([-h, h], axis=1)

    # -- constructions -----------------------------------------------------

    def scaled(self, rho: float) -> "SpectrumSet":
        if rho <= 0:
            raise ValueError("scale factor must be positive")
        if self.shape == "box":
            return SpectrumSet.box(rho * self.half_widths)
        if self.shape == "ball":
            return SpectrumSet.ball(rho * self.radius, self.dim)
        return SpectrumSet.polytope(rho * self.vertices)

    def polar(self) -> "SpectrumSet":
        """Dual body {x : x . g <= 1 for all g in the set}.

        Since the set is symmetric, the one-sided condition coincides with
        the absolute-value polar.  Box -> cross-polytope, ball r -> ball 1/r,
        polytope -> polytope via facet/vertex duality.
        """
        if self.shape == "ball":
            return SpectrumSet.ball(1.0 / self.radius, self.dim)
        if self.shape == "box":
            if self.dim == 1:
                return SpectrumSet.polytope([[1.0 / self.half_widths[0]], [-1.0 / self.half_widths[0]]])
            verts = []
            for i, h in enumerate(self.half_widths):
                e = np.zeros(self.dim)
                e[i] = 1.0 / h
                verts.extend([e, -e])
            return SpectrumSet.polytope(np.array(verts))
        if self.dim == 1:
            m = np.max(np.abs(self.vertices))
            return SpectrumSet.polytope([[1.0 / m], [-1.0 / m]])
        a, b = self._hull_system
        verts = a / b[:, None]
        verts = np.vstack([verts, -verts])
        verts = np.unique(np.round(verts, 12), axis=0)
        return SpectrumSet.polytope(verts)

    def enlarged(self, eps: float) -> "SpectrumSet":
        """A representable superset of the eps-neighbourhood of the set.

        Exact for intervals and balls; boxes in 2-d are inflated per axis and
        polytopes are rescaled about the origin, both of which contain the
        Euclidean eps-neighbourhood.
        """
        if eps < 0:
            raise ValueError("eps must be nonnegative")
        if self.shape == "box":
            return SpectrumSet.box(self.half_widths + eps)
        if self.shape == "ball":
            return SpectrumSet.ball(self.radius + eps, self.dim)
        if self.dim == 1:
            m = np.max(np.abs(self.vertices))
            return self.scaled((m + eps) / m)
        a, b = self._hull_system
        inradius = np.min(b / np.linalg.norm(a, axis=1))
        return self.scaled(1.0 + eps / inradius)

    def diameter(self) -> float:
        if self.shape == "ball":
            return 2.0 * self.radius
        if self.shape == "box":
            return 2.0 * float(np.linalg.norm(self.half_widths))
        return 2.0 * float(np.max(np.linalg.norm(self.vertices, axis=1)))

    # -- serialization -----------------------------------------------------

    @classmethod
    def from_json(cls, data: dict) -> "SpectrumSet":
        """The set ``data`` describes; a ``dim`` that differs from the
        dimension of a box's ``half_widths`` or a polytope's ``vertices`` is
        an error, not ignored."""
        shape = data["shape"]
        if shape == "ball":
            return cls.ball(data["radius"], data["dim"])
        if shape == "box":
            spectrum = cls.box(data["half_widths"])
        elif shape == "polytope":
            spectrum = cls.polytope(data["vertices"])
        else:
            raise ValueError(f"unknown shape {shape!r}")
        if data.get("dim", spectrum.dim) != spectrum.dim:
            raise ValueError(f"spectrum dim {data['dim']!r} differs from the dimension "
                             f"{spectrum.dim} of its {shape}")
        return spectrum


@dataclass(frozen=True, eq=False)
class SpectralGrid:
    """Quadrature nodes and weights over a spectrum (midpoint rule)."""

    nodes: np.ndarray        # (n, dim)
    weights: np.ndarray      # (n,)
    spectrum: SpectrumSet

    def __post_init__(self):
        if self.nodes.shape[0] != self.weights.shape[0]:
            raise ValueError("node/weight length mismatch")
        if np.any(self.weights <= 0):
            raise ValueError("quadrature weights must be positive")

    @property
    def size(self) -> int:
        return self.nodes.shape[0]


def lambda_norm(spectrum: SpectrumSet, gamma) -> float:
    """Minkowski gauge of a single frequency point; a norm equivalent to the
    Euclidean one (positively homogeneous, zero only at the origin)."""
    return float(spectrum.gauge(gamma)[0])


def enlarge(spectrum: SpectrumSet, eps: float) -> SpectrumSet:
    return spectrum.enlarged(eps)


@dataclass(frozen=True)
class CoveringReport:
    covered: bool
    witnesses: np.ndarray    # uncovered grid points, (k, dim)
    n_grid: int
    resolution: float


def _region_axes(region, resolution: float) -> list[np.ndarray]:
    """Grid values per axis: lo, lo + resolution, ... up to hi, for finite lo <= hi."""
    if not resolution > 0 or not np.isfinite(resolution):
        raise ValueError(f"resolution must be positive and finite, got {resolution!r}")
    region = np.asarray(region, dtype=float)
    if region.ndim == 1:
        region = region.reshape(1, 2)
    for k, (lo, hi) in enumerate(region):
        if not (np.isfinite(lo) and np.isfinite(hi) and lo <= hi):
            raise ValueError(f"region axis {k} has bounds [{lo}, {hi}]; need finite lo <= hi")
    return [np.arange(lo, hi + resolution / 2.0, resolution) for lo, hi in region]


def _index_boxes(axes, pts, half) -> tuple[np.ndarray, np.ndarray]:
    """Per axis and point, the index range [start, stop) of the grid values v
    with y - half <= v <= y + half, as (dim, n) arrays."""
    starts = np.stack([np.searchsorted(ax, pts[:, k] - half[k], side="left")
                       for k, ax in enumerate(axes)])
    stops = np.stack([np.searchsorted(ax, pts[:, k] + half[k], side="right")
                      for k, ax in enumerate(axes)])
    return starts, stops


def _surely_covered(axes, pts, body: SpectrumSet) -> np.ndarray:
    """Pass 1 of :func:`covering_check`: the grid cells inside some translate
    of a box inscribed in ``body``, as a boolean array over the grid."""
    h = body.bounding_box()[:, 1]
    corners = h * np.array(list(product((-1.0, 1.0), repeat=body.dim)))
    # A convex body holds a box when it holds the box's corners, so the box of
    # half-widths h / max gauge(corners) is inscribed.  Shrunk by 1e-9
    # relative, every cell in it has gauge(p - y) <= 1 - 1e-9 exactly, which
    # leaves room for the rounding of p - y and of the gauge (about 1e-16 times
    # the body's outer over inner radius); 4 ulps of the largest coordinate
    # absorb the rounding of y -+ inner in the search.
    scale = max(np.max(np.abs(pts)), *(np.max(np.abs(ax)) for ax in axes))
    inner = h / np.max(body.gauge(corners)) * (1.0 - 1e-9) - 4.0 * np.spacing(scale)
    starts, stops = _index_boxes(axes, pts, inner)
    keep = np.all(stops > starts, axis=0)
    # a difference array holds +-1 at the corners of each box; its running sum
    # along every axis counts the boxes that hold a cell
    count = np.zeros(tuple(ax.size + 1 for ax in axes), dtype=np.int64)
    for upper in product((False, True), repeat=body.dim):
        corner = tuple((hi if u else lo)[keep] for u, lo, hi in zip(upper, starts, stops))
        np.add.at(count, corner, (-1) ** sum(upper))
    for axis in range(body.dim):
        count = np.cumsum(count, axis=axis)
    return count[tuple(slice(ax.size) for ax in axes)] > 0


def _test_open_cells(covered, axes, pts, body: SpectrumSet, resolution: float) -> None:
    """Pass 2 of :func:`covering_check`: mark in ``covered`` each open cell p
    with ``body.contains(p - y)`` for a sampling point y whose padded
    bounding box reaches it."""
    # A passing grid point has gauge(p - y) <= 1 + 1e-12, hence
    # |p_k - y_k| <= (1 + 1e-12) h_k for the bounding half-widths h.  The
    # relative pad of 1e-9 absorbs that tolerance and the rounding of p - y
    # and of the gauge; the extra grid step absorbs the rounding of the
    # window ends y_k -+ reach_k, so no passing point falls outside.
    reach = (1.0 + 1e-9) * body.bounding_box()[:, 1] + resolution
    starts, stops = _index_boxes(axes, pts, reach)
    for i in np.flatnonzero(np.all(stops > starts, axis=0)):
        window = tuple(slice(lo, hi) for lo, hi in zip(starts[:, i], stops[:, i]))
        done = covered[window]   # a view: writes go to ``covered``
        todo = np.nonzero(~done)
        if todo[0].size:
            cells = np.stack([ax[w][j] for ax, w, j in zip(axes, window, todo)], axis=1)
            done[todo] = body.contains(cells - pts[i])


def covering_check(sampling_set, body: SpectrumSet, region, resolution: float) -> CoveringReport:
    """Check whether translates of ``body`` by the sampling points cover a region.

    A grid point p counts as covered when p - y lies in ``body`` for some
    sampling point y.  The check is a finite-resolution surrogate for covering
    all of space: only the given region is examined, at the given grid step,
    and all uncovered grid points are returned as witnesses, in grid order.
    The region's bounds must be finite with lo <= hi on each axis.

    The check runs in two passes.  Both find the cells near a sampling point
    per axis, by binary search on the regular grid.
    Pass 1 marks, with no membership test, every cell inside some translate
    of a box inscribed in the body, shrunk by 1e-9 relative and by a few ulps
    of the coordinates; one difference array marks them all.  Such a cell
    has gauge(p - y) <= 1 - 1e-9, so the membership test would pass it.
    Pass 2 runs the membership test ``body.contains(p - y)`` on the cells
    still open, only on those inside y plus the body's bounding box
    (slightly padded), and skips each translate whose box holds no open
    cell.  It does not run when pass 1 covers the region.  Every cell that
    can pass the test lies inside that box.
    So the result equals the all-pairs definition exactly: the same
    ``covered`` flag and the same witnesses in the same order.  The work
    grows with the number of points plus the grid size and, when pass 1
    leaves cells open, with the cells each translate's box reaches.
    Deterministic for fixed inputs.
    """
    axes = _region_axes(region, resolution)
    if len(axes) != body.dim:
        raise ValueError("region dimension does not match the body")
    pts = np.asarray(getattr(sampling_set, "points", sampling_set), dtype=float)
    covered = np.zeros(tuple(ax.size for ax in axes), dtype=bool)
    if pts.size:
        if pts.ndim <= 1:
            pts = pts.reshape(-1, 1)
        if pts.ndim != 2 or pts.shape[1] != body.dim:
            raise ValueError(f"sampling points have dim {pts.shape[-1]}, body has dim {body.dim}")
        covered = _surely_covered(axes, pts, body)
        if not covered.all():
            _test_open_cells(covered, axes, pts, body, resolution)
    witnesses = np.stack([ax[j] for ax, j in zip(axes, np.nonzero(~covered))], axis=1)
    return CoveringReport(witnesses.shape[0] == 0, witnesses, covered.size, resolution)


def build_grid(spectrum: SpectrumSet, target_nodes: int) -> SpectralGrid:
    """Tensor-product midpoint rule restricted to the spectrum.

    ``target_nodes`` is the ambient node count per axis; cells whose centers
    fall outside the spectrum are dropped and each kept node carries the full
    cell volume as weight.  The weight sum therefore matches the exact volume
    for boxes and approaches it at second order for curved bodies.
    """
    if target_nodes < 2:
        raise ValueError("need at least 2 nodes per axis")
    bbox = spectrum.bounding_box()
    axes, steps = [], []
    for lo, hi in bbox:
        edges = np.linspace(lo, hi, target_nodes + 1)
        axes.append(0.5 * (edges[:-1] + edges[1:]))
        steps.append(edges[1] - edges[0])
    mesh = np.meshgrid(*axes, indexing="ij")
    nodes = np.stack([m.ravel() for m in mesh], axis=1)
    keep = spectrum.contains(nodes)
    if not keep.any():
        raise ValueError("no grid node falls inside the spectrum; increase target_nodes")
    nodes = nodes[keep]
    cell = float(np.prod(steps))
    return SpectralGrid(nodes=nodes, weights=np.full(nodes.shape[0], cell), spectrum=spectrum)
