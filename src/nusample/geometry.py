"""Compact convex symmetric frequency bodies and their duals.

A spectrum is a compact, convex set in frequency space, symmetric about the
origin, represented as a Euclidean ball or a symmetric vertex polytope; an
axis-aligned box is the polytope of its corners.  All coordinates are in
cycles per unit.  The module supplies the Minkowski gauge, polar bodies,
scalings, enlargements, midpoint quadrature grids, and a grid-based check of
the translate-covering criterion.

Dimensions 1 and 2 are supported; membership tests are exact (finite sets of
linear or quadratic inequalities).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product

import numpy as np

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
    """Compact convex set in frequency space, symmetric about the origin:
    a ball (``shape == "ball"``, given by ``radius``) or a symmetric vertex
    polytope (``shape == "polytope"``, given by ``vertices``).

    Use the :meth:`box`, :meth:`ball`, or :meth:`polytope` constructors; a
    box is built as the polytope of its corners.
    """

    dim: int
    shape: str
    radius: float | None = None
    vertices: np.ndarray | None = None

    @classmethod
    def box(cls, half_widths) -> "SpectrumSet":
        h = np.atleast_1d(np.asarray(half_widths, dtype=float))
        if h.ndim != 1 or h.size not in (1, 2):
            raise ValueError("box supports dim 1 or 2")
        if np.any(h <= 0):
            raise ValueError("box half-widths must be positive")
        return cls.polytope(h * np.array(list(product((-1.0, 1.0), repeat=h.size))))

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
        # symmetry: every vertex must have its negation in the list
        for row in v:
            if not np.any(np.all(np.abs(v + row) <= 1e-9, axis=1)):
                raise ValueError("polytope vertex list is not closed under negation")
        obj = cls(dim=v.shape[1], shape="polytope", vertices=v)
        obj._hull_system   # force hull construction; raises on degeneracy
        return obj

    @cached_property
    def _hull_corners(self) -> np.ndarray:
        """The polytope's corners, each once: m and -m for [-m, m] in 1-d; in
        2-d, counterclockwise, from Andrew's monotone chain: the distinct
        vertices sorted by (x, y), then a lower and an upper chain, each
        dropping every vertex where the turn is not strictly counterclockwise,
        so repeated vertices and vertices exactly on an edge are not corners."""
        if self.dim == 1:
            m = np.max(np.abs(self.vertices))
            return np.array([[m], [-m]])
        v = np.unique(self.vertices, axis=0)   # sorted by (x, y)
        chains = ([], [])
        for chain, points in zip(chains, (v, v[::-1])):
            for p in points:
                while len(chain) >= 2 and _cross(chain[-1] - chain[-2], p - chain[-1]) <= 0:
                    chain.pop()
                chain.append(p)
        # each chain ends where the other starts
        corners = np.array(chains[0][:-1] + chains[1][:-1])
        if corners.shape[0] < 3:
            raise ValueError("degenerate polytope: the vertices are collinear")
        return corners

    @cached_property
    def _hull_system(self):
        """Half-space form A x <= b of the polytope (b > 0), one row per
        facet, with unit outward normals A; facets k - dim + 1 to k meet at
        corner k.  The facets are the corners themselves in 1-d and the edges
        from corner k to corner k + 1 in 2-d."""
        corners = self._hull_corners
        if self.dim == 1:
            a = np.sign(corners)
        else:
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
        if self.shape == "ball":
            return np.linalg.norm(p, axis=1) / self.radius
        a, b = self._hull_system
        return np.max((p @ a.T) / b, axis=1)

    def contains(self, points, tol: float = _MEMBERSHIP_TOL) -> np.ndarray:
        return self.gauge(points) <= 1.0 + tol

    def boundary_distance(self, point) -> float:
        """Euclidean distance from an interior point to the boundary."""
        p = as_points(point, self.dim)[0]
        if self.shape == "ball":
            return float(self.radius - np.linalg.norm(p))
        a, b = self._hull_system
        return float(np.min(b - a @ p))

    def bounding_box(self) -> np.ndarray:
        """Axis-aligned bounds, shape (dim, 2)."""
        if self.shape == "ball":
            h = np.full(self.dim, self.radius)
        else:
            h = np.max(np.abs(self.vertices), axis=0)
        return np.stack([-h, h], axis=1)

    # -- constructions -----------------------------------------------------

    def scaled(self, rho: float) -> "SpectrumSet":
        if rho <= 0:
            raise ValueError("scale factor must be positive")
        if self.shape == "ball":
            return SpectrumSet.ball(rho * self.radius, self.dim)
        return SpectrumSet.polytope(rho * self.vertices)

    def polar(self) -> "SpectrumSet":
        """Dual body {x : x . g <= 1 for all g in the set}.

        Since the set is symmetric, the one-sided condition coincides with
        the absolute-value polar.  Ball r -> ball 1/r; a polytope's polar
        has one vertex a / b per facet a . x <= b, so a box gives the
        cross-polytope.
        """
        if self.shape == "ball":
            return SpectrumSet.ball(1.0 / self.radius, self.dim)
        a, b = self._hull_system
        return SpectrumSet.polytope(a / b[:, None])

    def enlarged(self, eps: float) -> "SpectrumSet":
        """A representable superset of the eps-neighbourhood of the set.

        A ball's radius grows by eps.  A polytope's facets a . x <= b move
        out to a . x <= b + eps: exact for intervals, h + eps for a box, and a
        little more than eps at the corners of any other 2-d polytope.
        """
        if eps < 0:
            raise ValueError("eps must be nonnegative")
        if self.shape == "ball":
            return SpectrumSet.ball(self.radius + eps, self.dim)
        # corner k moves by eps * w with a' . w = a . w = 1 for its facets
        # a' = k - dim + 1 and a = k (one facet in 1-d); unlike a 2 x 2 solve,
        # this w stays finite when the two facets are nearly parallel
        a, _ = self._hull_system
        prev = np.roll(a, self.dim - 1, axis=0)
        w = (prev + a) / (1.0 + np.sum(prev * a, axis=1, keepdims=True))
        return SpectrumSet.polytope(self._hull_corners + eps * w)

    def diameter(self) -> float:
        if self.shape == "ball":
            return 2.0 * self.radius
        return 2.0 * float(np.max(np.linalg.norm(self.vertices, axis=1)))


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


def enlarge(spectrum: SpectrumSet, eps: float) -> SpectrumSet:
    """``spectrum.enlarged(eps)``, the name the benchmark's workloads call."""
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
