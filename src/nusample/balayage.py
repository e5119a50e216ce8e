"""Balayage coefficient systems and compact-spectrum windows.

Sweeping a point mass at y onto a sampling set E, relative to a spectrum, is
realized here as a finite fit: find real coefficients a_x with

    sum_{x in E} a_x exp(-2 pi i x . g)  ~  exp(-2 pi i y . g)

on a quadrature grid over the enlarged spectrum.  The fit is an l1-regularized
least-squares problem solved by iteratively reweighted least squares from a
damped (Tikhonov) least-squares start, continuous in the data; it succeeds
only when the sup-norm residual over the grid meets the requested tolerance,
the empirical stand-in for "balayage is possible at this density".  The
maximal l1 coefficient mass over a sample of centers estimates the balayage
constant of the pair (E, enlarged spectrum).

The window h that glues the swept coefficients into a pointwise identity has
h(0) = 1 and a transform supported exactly in the closed eps-ball.  It is
built as the normalized square of the inverse transform of a smooth bump on
the eps/2-ball: support containment, nonnegativity of the spectral profile,
and |h| <= h(0) = 1 all hold by construction, and smoothness of the bump
gives super-polynomial time decay.
"""
from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import os
from dataclasses import dataclass, replace

import numpy as np

from .geometry import SpectralGrid, as_points
from .sampling import SamplingSet
from .spectral import TrigPolynomial, eval_trigpoly, exp_sum, exp_table

_DAMPING = 1e-8   # of the least-squares start, relative to the largest singular value
# Panel width of the per-step triangular-pentagonal QR.  scipy's LAPACK links
# its own OpenBLAS beside numpy's.  At wider panels its block updates thread,
# and with 2 OpenBLAS threads the two pools then contend for the cores: on a
# 2-core host a sweep benchmark op took 33-39 ms at width 10 or 12 and 59 ms
# at 16, against 27-30 ms at width 4 or 8 (23-25 ms with 1 thread at 4-8).
# dtpqrt takes no panel wider than its n + 1 columns, so 1 or 2 points take n + 1.
_TPQRT_NB = 4


def _flapack_path() -> str | None:
    """The file of scipy's compiled LAPACK wrappers, ``scipy/linalg/_flapack``
    with an extension suffix of this interpreter, or None.  Finding the
    scipy package imports none of it."""
    spec = importlib.util.find_spec("scipy")
    for root in (spec and spec.submodule_search_locations) or ():
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(root, "linalg", "_flapack" + suffix)
            if os.path.isfile(path):
                return path
    return None


@functools.cache
def _lapack_routines():
    """LAPACK's dtpqrt and dtrtrs, loaded once per process.

    They come straight from scipy's ``_flapack`` extension, the module that
    ``scipy.linalg.lapack`` re-exports, without importing the
    ``scipy.linalg`` package, which took 0.2-0.3 s and 28 MB of RSS with
    scipy 1.17 on a 2-core host, against a few ms and 3 MB for the file.
    The interpreter registers the extension as ``scipy.linalg._flapack``, so
    a later ``scipy.linalg`` import reuses the same module.  Where the file
    is not found, the routines come from ``scipy.linalg.lapack``.
    """
    path = _flapack_path()
    if path is None:
        from scipy.linalg import lapack as flapack
    else:
        spec = importlib.util.spec_from_file_location("scipy.linalg._flapack", path)
        flapack = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(flapack)
    return flapack.dtpqrt, flapack.dtrtrs


class BalayageInfeasibleError(RuntimeError):
    """Raised when no coefficient system meets the fit tolerance."""

    def __init__(self, y, residual: float, eta: float):
        self.y = y
        self.residual = residual
        self.eta = eta
        super().__init__(f"infeasible at tolerance: residual {residual:.3e} > eta {eta:.3e} at y={y}")


# -- windows -----------------------------------------------------------------


def _bump(r: np.ndarray) -> np.ndarray:
    """exp(-1/(1-r^2)) on r < 1, zero outside; C^infinity with compact support."""
    out = np.zeros_like(r)
    inside = np.abs(r) < 1.0
    out[inside] = np.exp(-1.0 / (1.0 - r[inside] ** 2))
    return out


@dataclass(frozen=True, eq=False)
class InghamWindow:
    """Integrable window with h(0)=1 and transform supported in the eps-ball.

    h(x) = |B(x)|^2 / B(0)^2 where B is the inverse transform (by midpoint
    quadrature) of a smooth radial bump supported on the eps/2-ball.  The
    quadrature turns the spectral profile into a discrete measure whose
    support still lies inside the eps/2-ball, so the product spectrum of h
    stays inside the closed eps-ball exactly.
    """

    eps: float
    dim: int
    bump_nodes: np.ndarray     # (m, dim) quadrature nodes of the bump
    bump_values: np.ndarray    # (m,)
    bump_cell: float           # cell volume
    profile_nodes: np.ndarray  # spectral-profile sample points of h-hat
    profile_values: np.ndarray
    l2_norm: float             # L2 norm of h (via Parseval on the profile)

    def __call__(self, x) -> np.ndarray:
        pts = as_points(x, self.dim)
        b = exp_sum(pts, self.bump_nodes, self.bump_values * self.bump_cell)
        b0 = float(np.sum(self.bump_values) * self.bump_cell)
        vals = np.abs(b) ** 2 / b0**2
        return vals if vals.size != 1 else float(vals[0])


def default_enlargement(spectrum) -> float:
    """Default enlargement radius for sweep grids: 5% of the spectrum diameter."""
    return 0.05 * spectrum.diameter()


def _five_smooth(m: int) -> int:
    """The least integer >= m with no prime factor above 5."""
    while True:
        rest = m
        for p in (2, 3, 5):
            while rest % p == 0:
                rest //= p
        if rest == 1:
            return m
        m += 1


def ingham_window(eps: float, dim: int = 1, profile_nodes: int = 401) -> InghamWindow:
    """Construct the self-convolved-bump window for a given support radius.

    The bump's self-convolution is one real FFT pair padded past its 2n - 1
    lags per axis, cropped to the closed eps-ball that holds its exact
    support and clamped at 0: FFT rounding picks neither the nodes nor the
    sign of the values."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    if dim not in (1, 2):
        raise ValueError("dim must be 1 or 2")
    half = eps / 2.0
    n = int(profile_nodes)
    edges = np.linspace(-half, half, n + 1)
    step = edges[1] - edges[0]
    cell = step**dim
    centers = np.stack(np.meshgrid(*[0.5 * (edges[:-1] + edges[1:])] * dim, indexing="ij"), -1)
    grid_vals = _bump(np.linalg.norm(centers, axis=-1) / half)
    m = 2 * n - 1
    axes, fft_len = tuple(range(dim)), (_five_smooth(m),) * dim
    spec = np.fft.rfftn(grid_vals, s=fft_len, axes=axes)
    psi = np.fft.irfftn(spec**2, s=fft_len, axes=axes)[(slice(m),) * dim] * cell
    lags = np.stack(np.meshgrid(*[(np.arange(m) - (m - 1) / 2.0) * step] * dim,
                                indexing="ij"), -1)
    keep = np.linalg.norm(lags, axis=-1) <= eps
    psi, psi_nodes = np.maximum(psi[keep], 0.0), lags[keep]
    nodes, vals = centers[grid_vals > 0], grid_vals[grid_vals > 0]
    total = float(np.sum(psi) * cell)          # integral of the self-convolution
    profile = psi / total                      # h-hat, integrates to 1
    l2 = float(np.sqrt(np.sum(profile**2) * cell))
    return InghamWindow(eps=float(eps), dim=dim, bump_nodes=nodes, bump_values=vals,
                        bump_cell=cell, profile_nodes=psi_nodes, profile_values=profile,
                        l2_norm=l2)


# -- coefficient solves -------------------------------------------------------


@dataclass(frozen=True, eq=False)
class BalayageSolution:
    """Coefficients on the sampling set fitting a target, with the IRLS
    counters of the fit: sweeping the point mass at ``y``, or for a bare
    target of :meth:`BalayageSolver.solve_rhs` with ``y`` None."""

    coeffs: np.ndarray
    residual: float         # sup over grid nodes of the exponential mismatch
    iterations: int         # IRLS steps run (0 without reweighting)
    converged: bool         # the IRLS step rule was met, or no reweighting was due
    reweighted: bool        # the IRLS result replaced the least-squares start
    y: np.ndarray | None = None

    @property
    def l1_mass(self) -> float:
        return float(np.sum(np.abs(self.coeffs)))


class BalayageSolver:
    """Shared machinery for repeated sweeps of different centers onto one set.

    Precomputes one thin SVD U diag(s) V^T of the stacked real form [Re; Im]
    of the square-root-weighted exponential system, which gives the damped
    inverse V diag(s / (s^2 + mu^2)) U^T, mu = 1e-8 s_0, of the real
    least-squares start, and one QR diag(s) V^T = Q R, whose triangle R every
    reweighted step starts from; memoizes solutions per center.  Solves are
    deterministic and independent: each only reads the precomputed factors.
    """

    def __init__(self, sampling_set: SamplingSet, grid: SpectralGrid,
                 eta: float = 1e-6, reg: float = 1e-12, max_irls: int = 20):
        if sampling_set.size == 0:
            raise ValueError("empty sampling set")
        if eta <= 0:
            raise ValueError("eta must be positive")
        self.sampling_set = sampling_set
        self.grid = grid
        self.eta = float(eta)
        self.reg = float(reg)
        self.max_irls = int(max_irls)
        self._tpqrt, self._trtrs = _lapack_routines()
        self._phi = exp_table(sampling_set.points, grid.nodes, sign=-1).T   # (nodes, points)
        self._sqw = np.sqrt(grid.weights)
        # thin SVD of the stacked weighted system, shared by the damped start
        # and the steps, which solve on diag(s) V^T and never square its condition
        weighted = self._sqw[:, None] * self._phi
        stacked = np.concatenate([weighted.real, weighted.imag])   # (2 nodes, points)
        u, s, vt = np.linalg.svd(stacked, full_matrices=False)
        self._start = (vt.T * (s / (s**2 + (_DAMPING * s[0]) ** 2))) @ u.T
        # diag(s) V^T = Q R, once: the top (n+1) x (n+1) block of each step's
        # [R, Q^T U^T c; 0, 0] is upper triangular, with zero rows below row
        # k when the stacked system has fewer rows k than points n
        q, r = np.linalg.qr(s[:, None] * vt)
        k, n = r.shape
        self._rot = q.T @ u.T     # (k, 2 nodes): Q^T U^T
        self._top = np.zeros((n + 1, n + 1), order="F")
        self._top[:k, :n] = r
        self._cache: dict[bytes, BalayageSolution] = {}

    def _target(self, y: np.ndarray) -> np.ndarray:
        return exp_table(y, self.grid.nodes, sign=-1)[0]

    def solve_rhs(self, b: np.ndarray) -> BalayageSolution:
        """Real l1-regularized weighted least squares against any target.

        Starts from the damped least-squares solution V diag(s / (s^2 + mu^2))
        U^T c, mu = 1e-8 s_0 (c and the SVD as below), and, when the l1 weight
        is positive, polishes it by iteratively reweighted least squares
        towards a stationary point of

            || sqrt(w) (Phi a - b) ||^2 + reg * sum |a_x| ,   a real.

        With c = [Re; Im] of sqrt(w) b, [Re; Im] of sqrt(w) Phi = U diag(s) V^T
        the precomputed thin SVD and diag(s) V^T = Q R its precomputed QR,
        each reweighted step solves the least-squares problem

            [R; D] a ~ [Q^T U^T c; 0],   D = diag(sqrt(reg / (2 m_x)))

        by an orthogonal factorization, never through the normal equations;
        m_x is |a_x| of the previous iterate, floored at 1e-6 max |a|.  The
        right-hand side is stacked and rotated once per call, and a step
        factors only the upper-triangular block over the diagonal one, with
        LAPACK's triangular-pentagonal QR, then back-substitutes.  Iteration
        stops once the relative step falls to 1e-11; when that does not
        happen within ``max_irls`` steps, the last iterate is taken as the
        reweighted result.  Either way that result replaces the start only
        while its residual stays within max(eta, start residual).

        For a target with b(-g) = conj(b(g)) on a mirror-symmetric grid, as
        every point mass is on a :func:`build_grid` grid of an origin-symmetric
        spectrum, the real optimum is the complex one.  The residual is taken
        on the complex system, so any other target's is still the true one.

        Returns the coefficients and their sup-norm residual over the grid
        nodes, with the number of IRLS steps run, whether the step rule was
        met (always so when ``reg`` is 0 and no step is due), and whether the
        reweighted result was kept.  Raises ``numpy.linalg.LinAlgError`` when
        a step's triangle has a zero pivot.
        """
        wb = self._sqw * b
        c = np.concatenate([wb.real, wb.imag])   # the stacked real right-hand side
        a0 = self._start @ c
        r0 = float(np.max(np.abs(self._phi @ a0 - b)))
        if self.reg <= 0:
            return BalayageSolution(a0, r0, iterations=0, converged=True, reweighted=False)
        a = a0
        n = self._top.shape[1] - 1
        # [R, Q^T U^T c; 0, 0] over [D, 0]: the last column of the factored
        # triangle carries the orthogonally transformed right-hand side
        top = self._top.copy(order="F")
        top[:self._rot.shape[0], n] = self._rot @ c
        bottom = np.zeros((n, n + 1), order="F")
        iterations, converged = 0, False
        while iterations < self.max_irls and not converged:
            maj = np.maximum(np.abs(a), 1e-6 * max(np.max(np.abs(a)), 1e-300))
            np.fill_diagonal(bottom, np.sqrt(0.5 * self.reg / maj))
            tri, _, _, info = self._tpqrt(n, min(_TPQRT_NB, n + 1), top, bottom)
            if info == 0:   # dtpqrt fails only on an illegal argument
                a_new, info = self._trtrs(tri[:n, :n], tri[:n, n])
            if info > 0:
                raise np.linalg.LinAlgError(
                    f"singular matrix: resolution failed at diagonal {info - 1}")
            if info < 0:
                raise ValueError(f"illegal value in LAPACK argument {-info}")
            converged = bool(np.max(np.abs(a_new - a))
                             <= 1e-11 * max(np.max(np.abs(a_new)), 1e-30))
            a = a_new
            iterations += 1
        r1 = float(np.max(np.abs(self._phi @ a - b)))
        # keep the sparser stationary point only while it stays feasible;
        # the l1 weight must not turn a feasible sweep into a failure
        if r1 <= max(self.eta, r0):
            return BalayageSolution(a, r1, iterations, converged, reweighted=True)
        return BalayageSolution(a0, r0, iterations, converged, reweighted=False)

    def solve(self, y) -> BalayageSolution:
        yv = as_points(y, self.sampling_set.dim)[0]
        key = yv.tobytes()
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        match = np.all(self.sampling_set.points == yv, axis=1)
        if match.any():
            # a point mass already supported on E is its own sweep
            coeffs = np.zeros(self.sampling_set.size)
            coeffs[int(np.argmax(match))] = 1.0
            sol = BalayageSolution(coeffs, 0.0, 0, converged=True, reweighted=False, y=yv)
        else:
            sol = replace(self.solve_rhs(self._target(yv)), y=yv)
            if sol.residual > self.eta:
                raise BalayageInfeasibleError(yv, sol.residual, self.eta)
        self._cache[key] = sol
        return sol

    def solve_many(self, ys) -> list[BalayageSolution]:
        return [self.solve(p) for p in as_points(ys, self.sampling_set.dim)]


@dataclass(frozen=True)
class BalayageConstant:
    value: float          # max l1 mass over the sampled centers
    argmax_y: np.ndarray
    masses: np.ndarray    # per-center l1 masses, in input order


def balayage_constant(sampling_set: SamplingSet, grid: SpectralGrid, ysample,
                      eta: float = 1e-6,
                      solver: BalayageSolver | None = None) -> BalayageConstant:
    """Estimate the balayage constant as the max l1 mass over sampled centers.

    Any infeasible center propagates as :class:`BalayageInfeasibleError` with
    the offending y attached.
    """
    if solver is None:
        solver = BalayageSolver(sampling_set, grid, eta=eta)
    sols = solver.solve_many(ysample)
    masses = np.array([s.l1_mass for s in sols])
    k = int(np.argmax(masses))
    return BalayageConstant(value=float(masses[k]), argmax_y=sols[k].y, masses=masses)


def _window_rows(window: InghamWindow, sampling_set: SamplingSet, ys: np.ndarray) -> np.ndarray:
    """h(x - y) for every center y (rows) and sampling point x (columns), from
    one window evaluation on the stacked differences."""
    diffs = sampling_set.points[None, :, :] - ys[:, None, :]
    return np.reshape(window(diffs.reshape(-1, sampling_set.dim)), (len(ys), sampling_set.size))


def fundamental_identity_residual(poly: TrigPolynomial, sampling_set: SamplingSet,
                                  grid: SpectralGrid, window: InghamWindow, ysample,
                                  solver: BalayageSolver | None = None) -> float:
    """Sup over sampled centers of |f(y) - sum_x f(x) a_x(y) h(x-y)| / max|f|.

    The polynomial's frequencies must lie in the base spectrum and the window
    must have been built with the same enlargement radius used by the grid;
    under those hypotheses the identity holds up to the fit residual times the
    polynomial's coefficient mass.  Returns 0 for the zero polynomial.
    Without a ``solver`` one is built with eta 1e-6.
    """
    if solver is None:
        solver = BalayageSolver(sampling_set, grid)
    ys = as_points(ysample, sampling_set.dim)
    f_at_y = np.atleast_1d(eval_trigpoly(poly, ys))
    scale = float(np.max(np.abs(f_at_y)))
    if scale == 0.0:
        return 0.0
    f_at_x = np.atleast_1d(eval_trigpoly(poly, sampling_set.points))
    worst = 0.0
    sols = solver.solve_many(ys)
    for fy, sol, hvals in zip(f_at_y, sols, _window_rows(window, sampling_set, ys)):
        recon = np.sum(f_at_x * sol.coeffs * hvals)
        worst = max(worst, abs(fy - recon))
    return worst / scale


@dataclass(frozen=True)
class LpBoundReport:
    lhs: float        # sum_x |k_x|^p
    norm_p: float     # integral of |k|^p
    ratio: float      # lhs / norm_p


def lp_balayage_bound(sampling_set: SamplingSet, grid: SpectralGrid, window: InghamWindow,
                      k_nodes, k_weights, k_values, p: float,
                      solver: BalayageSolver | None = None) -> LpBoundReport:
    """Empirical p-th power bound for the sampled sweep of a test function.

    Each sample value k_x = integral of a_x(y) h(x-y) k(y) dy is computed by
    quadrature over the test function's grid, sweeping every quadrature node
    (solutions are memoized in the solver).  Returns the ratio of the sampled
    p-energy to the function's own p-norm, for empirical boundedness checks.
    Without a ``solver`` one is built with eta 1e-6.
    """
    if p <= 1:
        raise ValueError("p must exceed 1")
    if solver is None:
        solver = BalayageSolver(sampling_set, grid)
    ys = as_points(k_nodes, sampling_set.dim)
    wts = np.asarray(k_weights, dtype=float)
    kv = np.asarray(k_values, dtype=complex)
    sols = solver.solve_many(ys)
    live = np.flatnonzero(kv != 0.0)
    kx = np.zeros(sampling_set.size, dtype=complex)
    for i, hvals in zip(live, _window_rows(window, sampling_set, ys[live])):
        kx += sols[i].coeffs * hvals * (wts[i] * kv[i])
    lhs = float(np.sum(np.abs(kx) ** p))
    norm_p = float(np.sum(wts * np.abs(kv) ** p))
    ratio = lhs / norm_p if norm_p > 0 else 0.0
    return LpBoundReport(lhs=lhs, norm_p=norm_p, ratio=ratio)
