"""Finite sampling configurations: density, generators, symmetrization.

A sampling set is a finite list of distinct time-domain points together with
the bounding window inside which it is meant to be dense.  The window matters:
every density or frame statement made downstream is a windowed surrogate for
an infinite-set statement, so the window is carried explicitly.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .geometry import as_points

_WINDOW_TOL = 1e-12   # absolute distance a point may lie outside its window


def _in_window(points: np.ndarray, lo, hi) -> np.ndarray:
    """Entrywise: the coordinate lies in [lo, hi] up to ``_WINDOW_TOL``."""
    return (points >= lo - _WINDOW_TOL) & (points <= hi + _WINDOW_TOL)


@dataclass(frozen=True, eq=False)
class SamplingSet:
    """Finite point configuration with its declared window.

    points: (n, dim) array of distinct time-domain points.
    window: (dim, 2) array of [lo, hi] bounds containing every point.
    """

    dim: int
    points: np.ndarray
    window: np.ndarray

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"sampling set dim must be at least 1, got {self.dim}")
        pts = as_points(self.points, self.dim)
        win = np.asarray(self.window, dtype=float).reshape(self.dim, 2)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "window", win)
        ordered = pts[np.lexsort(pts.T[::-1])]   # equal rows end up adjacent
        if np.any(np.all(ordered[1:] == ordered[:-1], axis=1)):
            raise ValueError("sampling set contains duplicate points")
        lo, hi = win[:, 0], win[:, 1]
        if np.any(lo > hi):
            raise ValueError("window bounds out of order")
        if pts.size and not np.all(_in_window(pts, lo, hi)):
            raise ValueError("points fall outside the declared window")

    @property
    def size(self) -> int:
        return self.points.shape[0]

    @classmethod
    def from_csv(cls, path, window=None) -> "SamplingSet":
        """Read one point per row; window defaults to the point bounding box.
        Blank rows and ``#`` comments are skipped, and the first other row may
        be a header; any later row that is not all numbers is an error."""
        rows, header_allowed = [], True
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            for row in reader:
                if not row or row[0].lstrip().startswith("#"):
                    continue
                try:
                    rows.append([float(c) for c in row])
                except ValueError:
                    if not header_allowed:
                        raise ValueError(f"{path} line {reader.line_num}: row {row!r} "
                                         "is not numeric") from None
                header_allowed = False
        pts = np.asarray(rows, dtype=float)
        if pts.ndim != 2:
            raise ValueError(f"no numeric rows in {path}")
        dim = pts.shape[1]
        if window is None:
            window = np.stack([pts.min(axis=0), pts.max(axis=0)], axis=1)
        return cls(dim=dim, points=pts, window=np.asarray(window, dtype=float))


@dataclass(frozen=True)
class DensityEntry:
    radius: float
    min_count: int
    density: float       # min_count / radius**dim
    center_step: float   # grid step used for the center minimization


@dataclass(frozen=True)
class DensityReport:
    entries: list[DensityEntry] = field(default_factory=list)
    skipped: list[float] = field(default_factory=list)
    estimate: float = 0.0


def lower_beurling_density(sampling_set: SamplingSet, radii) -> DensityReport:
    """Windowed lower-density sweep.

    For each radius r, n-(r) is the minimal number of points in a closed ball
    of radius r/2 whose center keeps the ball inside the declared window; the
    minimum runs over a center grid of step r/20 rather than all centers (a
    coarser r/10 grid aliases against lattice-like sets), and each entry
    records that step as its approximation granularity.  The reported
    estimate is the value at the largest usable radius; the raw curve is
    exposed so convergence can be judged rather than trusted.
    """
    dim = sampling_set.dim
    win = sampling_set.window
    entries, skipped = [], []
    pts = sampling_set.points
    for r in sorted(float(r) for r in radii):
        if r <= 0:
            raise ValueError("radii must be positive")
        lo = win[:, 0] + r / 2.0
        hi = win[:, 1] - r / 2.0
        if np.any(hi < lo):
            skipped.append(r)
            continue
        step = r / 20.0
        axes = [np.arange(l, h + step / 2.0, step) for l, h in zip(lo, hi)]
        mesh = np.meshgrid(*axes, indexing="ij")
        centers = np.stack([m.ravel() for m in mesh], axis=1)
        if pts.size == 0:
            n_min = 0
        else:
            d2 = ((centers[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2)
            counts = (d2 <= (r / 2.0) ** 2 + 1e-12).sum(axis=1)
            n_min = int(counts.min())
        entries.append(DensityEntry(r, n_min, n_min / r**dim, step))
    est = entries[-1].density if entries else 0.0
    return DensityReport(entries=entries, skipped=skipped, estimate=est)


def generate_jittered_grid(delta, jitter: float, window, seed: int | None) -> SamplingSet:
    """Lattice delta_1 Z x ... x delta_d Z intersected with the window, each
    point perturbed by independent uniform noise in [-jitter, jitter]^d.

    ``delta`` is one step for every axis or one step per axis.  Requires
    0 <= jitter < min(delta)/2 so the separation stays >= min(delta) - 2*jitter.
    The declared window of the result is inflated by jitter so perturbed points
    remain inside it.  Deterministic for a fixed seed.
    """
    win = np.asarray(window, dtype=float)
    if win.ndim == 1:
        win = win.reshape(1, 2)
    dim = win.shape[0]
    steps = np.broadcast_to(np.asarray(delta, dtype=float), (dim,))
    if np.any(steps <= 0):
        raise ValueError("delta must be positive")
    if not 0 <= jitter < steps.min() / 2.0:
        raise ValueError(f"jitter must lie in [0, {steps.min() / 2.0:g}), half the "
                         f"smallest lattice step, got {jitter!r}")
    axes = []
    for (lo, hi), step in zip(win, steps):
        # the lattice points of the window, by the test the set itself applies
        axis = step * np.arange(np.floor((lo - _WINDOW_TOL) / step),
                                np.ceil((hi + _WINDOW_TOL) / step) + 1)
        axes.append(axis[_in_window(axis, lo, hi)])
    mesh = np.meshgrid(*axes, indexing="ij")
    base = np.stack([m.ravel() for m in mesh], axis=1)
    rng = np.random.default_rng(seed)
    pts = base + rng.uniform(-jitter, jitter, size=base.shape) if jitter > 0 else base
    out_win = np.stack([win[:, 0] - jitter, win[:, 1] + jitter], axis=1)
    return SamplingSet(dim=dim, points=pts, window=out_win)


def symmetrize(sampling_set: SamplingSet) -> SamplingSet:
    """Union with the reflected set, duplicates removed; symmetric about 0."""
    pts = np.vstack([sampling_set.points, -sampling_set.points])
    pts = np.unique(pts, axis=0)
    win = sampling_set.window
    out_win = np.stack([np.minimum(win[:, 0], -win[:, 1]),
                        np.maximum(win[:, 1], -win[:, 0])], axis=1)
    return SamplingSet(dim=sampling_set.dim, points=pts, window=out_win)
