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

import numpy as np
from scipy.spatial import ConvexHull, QhullError

_SHAPES = ("box", "ball", "polytope")
_MEMBERSHIP_TOL = 1e-12


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
        """Half-space form A x <= b of the 2-d vertex polytope (b > 0)."""
        try:
            hull = ConvexHull(self.vertices)
        except QhullError as exc:
            raise ValueError(f"degenerate polytope: {exc}") from exc
        a = hull.equations[:, :2]
        b = -hull.equations[:, 2]
        if np.any(b <= 0):
            raise ValueError("polytope does not contain the origin in its interior")
        return a, b, hull

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
        a, b, _ = self._hull_system
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
            a, b, _ = self._hull_system
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

    def volume(self) -> float:
        if self.shape == "box":
            return float(np.prod(2.0 * self.half_widths))
        if self.shape == "ball":
            return 2.0 * self.radius if self.dim == 1 else float(np.pi * self.radius**2)
        if self.dim == 1:
            return 2.0 * float(np.max(np.abs(self.vertices)))
        return float(self._hull_system[2].volume)

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
        a, b, _ = self._hull_system
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
        a, b, _ = self._hull_system
        inradius = np.min(b / np.linalg.norm(a, axis=1))
        return self.scaled(1.0 + eps / inradius)

    def diameter(self) -> float:
        bbox = self.bounding_box()
        if self.shape == "ball":
            return 2.0 * self.radius
        if self.shape == "box":
            return 2.0 * float(np.linalg.norm(self.half_widths))
        return 2.0 * float(np.max(np.linalg.norm(self.vertices, axis=1)))

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        out = {"dim": self.dim, "shape": self.shape}
        if self.shape == "box":
            out["half_widths"] = self.half_widths.tolist()
        elif self.shape == "ball":
            out["radius"] = self.radius
        else:
            out["vertices"] = self.vertices.tolist()
        return out

    @classmethod
    def from_json(cls, data: dict) -> "SpectrumSet":
        shape = data["shape"]
        if shape == "box":
            return cls.box(data["half_widths"])
        if shape == "ball":
            return cls.ball(data["radius"], data["dim"])
        if shape == "polytope":
            return cls.polytope(data["vertices"])
        raise ValueError(f"unknown shape {shape!r}")


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

    def same_as(self, other: "SpectralGrid") -> bool:
        return (
            self.nodes.shape == other.nodes.shape
            and np.array_equal(self.nodes, other.nodes)
            and np.array_equal(self.weights, other.weights)
        )


def lambda_norm(spectrum: SpectrumSet, gamma) -> float:
    """Minkowski gauge of a single frequency point; a norm equivalent to the
    Euclidean one (positively homogeneous, zero only at the origin)."""
    return float(spectrum.gauge(gamma)[0])


def polar_set(spectrum: SpectrumSet) -> SpectrumSet:
    """Polar (dual) body, living in the time domain."""
    return spectrum.polar()


def scale(spectrum: SpectrumSet, rho: float) -> SpectrumSet:
    return spectrum.scaled(rho)


def enlarge(spectrum: SpectrumSet, eps: float) -> SpectrumSet:
    return spectrum.enlarged(eps)


@dataclass(frozen=True)
class CoveringReport:
    covered: bool
    witnesses: np.ndarray    # uncovered grid points, (k, dim)
    n_grid: int
    resolution: float


def _region_axes(region, resolution: float) -> list[np.ndarray]:
    region = np.asarray(region, dtype=float)
    if region.ndim == 1:
        region = region.reshape(1, 2)
    return [np.arange(lo, hi + resolution / 2.0, resolution) for lo, hi in region]


def _region_grid(region, resolution: float) -> np.ndarray:
    axes = _region_axes(region, resolution)
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(axes))


def covering_check(sampling_set, body: SpectrumSet, region, resolution: float) -> CoveringReport:
    """Check whether translates of ``body`` by the sampling points cover a region.

    A grid point p counts as covered when p - y lies in ``body`` for some
    sampling point y.  The check is a finite-resolution surrogate for covering
    all of space: only the given region is examined, at the given grid step,
    and all uncovered grid points are returned as witnesses, in grid order.

    Each sampling point y tests only the grid points inside y plus the
    body's bounding box (slightly padded), found per axis by binary search
    on the regular grid; points whose box misses the region cost nothing.
    The work therefore grows with the number of points times the grid cells
    one translate spans, not times the whole grid, and no temporary exceeds
    one translate's window.  Every grid point that can pass the membership
    test lies inside the padded box, so the result equals the all-pairs
    definition exactly: the same ``covered`` flag and the same witnesses in
    the same order.  Deterministic for fixed inputs.
    """
    if resolution <= 0:
        raise ValueError("resolution must be positive")
    pts = np.asarray(getattr(sampling_set, "points", sampling_set), dtype=float)
    axes = _region_axes(region, resolution)
    if len(axes) != body.dim:
        raise ValueError("region dimension does not match the body")
    cells = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    grid = cells.reshape(-1, body.dim)
    if pts.size == 0:
        return CoveringReport(False, grid, grid.shape[0], resolution)
    if pts.ndim <= 1:
        pts = pts.reshape(-1, 1)
    if pts.ndim != 2 or pts.shape[1] != body.dim:
        raise ValueError(f"sampling points have dim {pts.shape[-1]}, body has dim {body.dim}")
    covered = np.zeros(cells.shape[:-1], dtype=bool)
    # A passing grid point has gauge(p - y) <= 1 + 1e-12, hence
    # |p_k - y_k| <= (1 + 1e-12) h_k for the bounding half-widths h.  The
    # relative pad of 1e-9 absorbs that tolerance and the rounding of p - y
    # and of the gauge; the extra grid step absorbs the rounding of the
    # window ends y_k -+ reach_k, so no passing point falls outside.
    reach = (1.0 + 1e-9) * body.bounding_box()[:, 1] + resolution
    starts = [np.searchsorted(ax, pts[:, k] - reach[k], side="left")
              for k, ax in enumerate(axes)]
    stops = [np.searchsorted(ax, pts[:, k] + reach[k], side="right")
             for k, ax in enumerate(axes)]
    for i, y in enumerate(pts):
        window = tuple(slice(lo[i], hi[i]) for lo, hi in zip(starts, stops))
        local = cells[window]
        if local.size == 0:
            continue
        hit = body.contains(local.reshape(-1, body.dim) - y)
        covered[window] |= hit.reshape(local.shape[:-1])
    witnesses = grid[~covered.ravel()]
    return CoveringReport(witnesses.shape[0] == 0, witnesses, grid.shape[0], resolution)


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
