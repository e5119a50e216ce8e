"""Fourier-frame engine on the discretized Paley-Wiener model.

Analysis maps a spectral coefficient vector to its time samples on a point
set.  Frame bounds are the extreme eigenvalues of the Gram matrix of the
weighted analysis matrix, taken on its smaller side (so the matrix is never
decomposed itself), either over the full coefficient space or compressed to a
subspace of time-localized signals.  Over the full space, on a grid that fills
a lattice box with uniform weights (every box grid of
:func:`~nusample.geometry.build_grid`) and with no more samples than nodes,
the samples-side Gram is the weight times :func:`~nusample.spectral.box_gram`,
so no samples x nodes table is formed.  Every other case forms that table.
No node count is capped: the one size rule, at most 2**24 entries per table
or Gram, is :mod:`~nusample.spectral`'s.  The subspace matters: a finite
sampling window can never frame the full discretized space (the analysis map
has finite rank), so tightness statements are made for signals concentrated
away from the window edge, built here from smoothly tapered, shifted
spectral envelopes.  The shifts are symmetric about their center, so the
envelopes span a modulation of real cosine and sine columns, scaled by
sqrt(2) so that the change of basis is unitary.  Their orthonormal basis,
like the real Gabor reference subspace of :mod:`~nusample.timefreq`, comes
from one helper that takes, in real arithmetic, the eigenvectors of the
small Gram matrix of the spanning set and one Cholesky re-orthonormalization
pass, in place of a thin SVD of the tall matrix; every result that uses it
depends on the span only.

Also included: least-squares reconstruction from samples, the dilation
inequality checker (three dilates, one sampling set), the weighted frame
inequality checker, and the covering-criterion experiment.

Reconstruction has two methods.  With at least as many samples as nodes
and the nodes on a regular lattice, as every grid from
:func:`~nusample.geometry.build_grid` and :func:`dilation_grid` has them,
CG runs on the spectral-side frame operator, which is Toeplitz
(block-Toeplitz on a masked 2-d lattice) and is applied by circulant
embedding and FFT in O(N log N) per step, after one
:func:`~nusample.spectral.lattice_sums` call in any dimension (the ACT
method of Feichtinger, Groechenig and Strohmer): ``"toeplitz-fft"``.  Every
other case, fewer samples than nodes or nodes off a lattice, forms the
weighted samples x nodes table once and takes its minimal-norm
least-squares solution from one SVD, with no iterations: ``"direct"``.
Every table comes from :func:`~nusample.spectral.exp_table`, and analysis
is :func:`~nusample.spectral.evaluate` on the sampling points, which sums
the exponentials against the coefficients without forming the table.  How
the sums factor the exponentials is known to ``spectral`` alone.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import (CoveringReport, SpectralGrid, SpectrumSet,
                       build_grid, covering_check)
from .sampling import SamplingSet
from .spectral import (BandlimitedSignal, _check_entries, _lattice_split, box_gram, evaluate,
                       exp_table, lattice_sums)

_EIG_FLOOR = 1e-12
_SLACK = 1e-9   # relative rounding allowance of the frame-inequality checks
_LSTSQ_RCOND = 1e-10   # singular-value cutoff, relative to the largest, of the direct solve


class NotAFrameError(RuntimeError):
    """Raised when the lower bound is numerically zero at the current scale."""


@dataclass(frozen=True, eq=False)
class SampleVector:
    """Time-domain samples of a signal on a sampling set."""

    sampling_set: SamplingSet
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=complex)
        object.__setattr__(self, "values", v)
        if v.shape != (self.sampling_set.size,):
            raise ValueError("sample vector length does not match the set")


@dataclass(frozen=True)
class FrameReport:
    lower: float
    upper: float
    condition: float
    node_count: int
    sample_count: int
    method: str

    def to_json(self) -> dict:
        return {
            "lower": self.lower,
            "upper": self.upper,
            "condition": None if np.isinf(self.condition) else self.condition,
            "node_count": self.node_count,
            "sample_count": self.sample_count,
            "method": self.method,
        }


def analysis(signal: BandlimitedSignal, sampling_set: SamplingSet) -> SampleVector:
    """Sample the signal on the set: values are the spectral quadratures of the
    coefficients against the sampled exponentials."""
    return SampleVector(sampling_set=sampling_set,
                        values=evaluate(signal, sampling_set.points))


def frame_bounds(sampling_set: SamplingSet, grid: SpectralGrid,
                 subspace: np.ndarray | None = None) -> FrameReport:
    """Extreme frame constants of the sampled exponential system.

    Without a subspace the bounds are taken over the whole coefficient space;
    the lower bound is then zero whenever the set has fewer points than the
    grid has nodes.  Passing an orthonormal ``subspace`` (columns in the
    sqrt-weight coordinates, e.g. from :func:`interior_taper_subspace`)
    compresses the operator to time-localized signals, which is how tightness
    of truncated sampling windows is measured.

    The discrete model is periodic: samples separated by (node count) x
    (node spacing) along an axis alias onto the same row, so the node count
    per axis should exceed the sampling window extent in those units.

    The bounds are the extreme squared singular values of the weighted
    analysis matrix (compressed to the subspace when one is given), taken as
    the eigenvalues of its Gram matrix on the smaller side (method
    ``dense-gram`` or ``dense-gram/subspace-<rank>``).  Without a subspace,
    on a grid whose nodes fill a lattice box with uniform weights (every
    :func:`~nusample.geometry.build_grid` grid of a box, in any dimension)
    and with no more samples than nodes, the samples-side Gram is the weight
    times :func:`~nusample.spectral.box_gram`, at a cost that grows with the
    square of the sample count.  Every other case forms the weighted
    analysis matrix.  Either raises ValueError past the 2**24 entries that
    :mod:`~nusample.spectral` allows a table or Gram.  The Gram's rounding
    error on an eigenvalue is about eps * upper in absolute terms, far below
    the floor: a lower value below 1e-12 times max(upper, 1) is reported as
    0, i.e. not a frame at this scale.
    """
    samples = sampling_set.size
    if samples == 0:
        raise ValueError("empty sampling set")
    w = grid.weights
    gram = (box_gram(sampling_set.points, grid.nodes)
            if subspace is None and samples <= grid.size and np.all(w == w[0]) else None)
    cols, method = grid.size, "dense-gram"
    if gram is not None:
        gram *= w[0]
    else:
        a = exp_table(sampling_set.points, grid.nodes)   # (samples, nodes)
        a *= np.sqrt(w)
        if subspace is not None:
            q = np.asarray(subspace)
            if q.shape[0] != grid.size:
                raise ValueError("subspace rows must match grid size")
            a, method = a @ q, f"dense-gram/subspace-{q.shape[1]}"   # (samples, rank)
        ah = a.conj().T
        gram, cols = (a @ ah if samples <= a.shape[1] else ah @ a), a.shape[1]
    sq = np.maximum(np.linalg.eigvalsh(gram), 0.0)   # squared singular values, ascending
    upper = float(sq[-1])
    lower = float(sq[0]) if samples >= cols else 0.0
    if lower < _EIG_FLOOR * max(upper, 1.0):
        lower = 0.0
    condition = np.inf if lower == 0.0 else upper / lower
    return FrameReport(lower=lower, upper=upper, condition=condition,
                       node_count=grid.size, sample_count=samples, method=method)


def _smooth_step(t: np.ndarray) -> np.ndarray:
    """C^infinity transition: 0 for t <= 0, 1 for t >= 1."""
    t = np.clip(t, 0.0, 1.0)
    lo = np.exp(-1.0 / np.maximum(t, 1e-300))
    hi = np.exp(-1.0 / np.maximum(1.0 - t, 1e-300))
    return lo / (lo + hi)


def interior_taper_subspace(grid: SpectralGrid, window, margin: float) -> np.ndarray:
    """Orthonormal basis (in sqrt-weight coordinates) of tapered shifts.

    Columns span signals of the form  taper(g) * exp(-2 pi i x0 . g)  with
    shift centers x0 on a grid inside the window shrunk by ``margin``, of step
    0.8 / (2 h) along an axis where the spectrum's bounding box is [-h, h].  The
    taper is a smooth cutoff that is 1 on the inner 0.4 of the spectrum
    (measured in the gauge) and vanishes at its boundary, so the basis signals
    decay rapidly in time and stay concentrated near their centers.
    Directions with singular value below 1e-3 of the largest are dropped;
    the rank matches the thin SVD's unless a singular value lies within about
    1e-10 relative of that cutoff (see :func:`_orthonormal_span`).  Only the
    span is meant: frame bounds and :func:`random_subspace_signal` depend on
    it alone, not on the basis chosen inside it.

    The shifts are symmetric about their center c, so with x0 = c + u the
    span is exp(-2 pi i c . g) times that of sqrt(2) taper cos(2 pi u . g)
    and sqrt(2) taper sin(2 pi u . g), u over the first half of the offsets
    in C order (the rest mirror them), and of taper alone for u = 0 when the
    count is odd.  This change of basis is unitary, so the singular values,
    rank and span are the complex set's, orthonormalized in real arithmetic.
    The cosines and sines come from one :func:`~nusample.spectral.exp_table`
    of half the shifts, under the 2**24-entry limit of the full set.
    """
    spec = grid.spectrum
    dim = spec.dim
    win = np.asarray(window, dtype=float).reshape(dim, 2)
    steps = 0.8 / (2.0 * spec.bounding_box()[:, 1])
    axes = []
    for (lo, hi), st in zip(win, steps):
        lo_m, hi_m = lo + margin, hi - margin
        if hi_m < lo_m:
            raise ValueError("margin leaves no interior room in the window")
        axes.append(np.arange(lo_m, hi_m + st / 2.0, st))
    mesh = np.meshgrid(*axes, indexing="ij")
    shifts = np.stack([m.ravel() for m in mesh], axis=1)
    _check_entries(len(shifts), grid.size)
    center = (shifts[0] + shifts[-1]) / 2.0   # the corners of the shift box, in C order
    pairs = len(shifts) // 2
    waves = exp_table(shifts[:len(shifts) - pairs] - center, grid.nodes, sign=-1)
    root = np.sqrt(grid.weights) * _smooth_step((1.0 - spec.gauge(grid.nodes)) / 0.6)
    rows = np.concatenate([waves.real, waves.imag[:pairs]])   # (shifts, nodes)
    rows *= math.sqrt(2.0) * root
    if len(waves) > pairs:   # the zero offset: its cosine, unpaired
        rows[pairs] = root
    q = _orthonormal_span(rows.T, 1e-3)
    return exp_table(grid.nodes, center[None, :], sign=-1) * q   # exp(-2 pi i c . g) q


def _orthonormal_span(basis: np.ndarray, cutoff: float) -> np.ndarray:
    """Orthonormal basis of the left singular directions of the real
    ``basis`` whose singular value exceeds ``cutoff`` times the largest,
    without an SVD.

    The eigenvectors v of the small Gram matrix basis^T basis with
    eigenvalue above cutoff^2 times the largest give
    Q0 = basis v / sqrt(lambda), whose columns are orthonormal only to about
    eps / cutoff^2.  One Cholesky pass, Q0^T Q0 = L L^T and Q = Q0 L^-T,
    brings them to rounding (CholeskyQR2 of Fukaya, Nakatsukasa, Yanagisawa
    and Yamamoto, 2014); the r x r triangle is inverted once rather than
    solved against every row.  The span is the SVD's: the rank matches
    unless a singular value lies within about 1e-10 relative of the cutoff,
    where the Gram's rounding decides.
    """
    lam, v = np.linalg.eigh(basis.T @ basis)
    keep = lam > cutoff**2 * lam[-1]
    q0 = basis @ (v[:, keep] / np.sqrt(lam[keep]))
    chol = np.linalg.cholesky(q0.T @ q0)
    return q0 @ np.linalg.inv(chol).T


def random_subspace_signal(grid: SpectralGrid, subspace: np.ndarray, seed: int) -> BandlimitedSignal:
    """Projection Q Q^H z of a complex-normal z onto the subspace (in
    sqrt-weight coordinates), unit normalized; it depends on the span of Q
    only, not on the basis chosen."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(grid.size) + 1j * rng.standard_normal(grid.size)
    f = subspace @ (z.conj() @ subspace).conj() / np.sqrt(grid.weights)
    n = BandlimitedSignal(grid=grid, coeffs=f).norm()
    if n == 0:
        raise ValueError("zero subspace coefficient vector")
    return BandlimitedSignal(grid=grid, coeffs=f / n)


@dataclass(frozen=True, eq=False)
class ReconstructionResult:
    signal: BandlimitedSignal
    iterations: int
    residual: float
    converged: bool
    method: str      # "toeplitz-fft" (CG) or "direct" (least squares)
    history: list    # per-iteration relative residuals; empty on the direct path
    rank: int | None = None   # numerical rank of the direct solve's table


def reconstruct(samples: SampleVector, grid: SpectralGrid,
                tol: float = 1e-8, max_iter: int = 200) -> ReconstructionResult:
    """Minimal-norm least-squares signal recovery from samples.

    With at least as many samples as nodes on a regular lattice (every grid
    from :func:`~nusample.geometry.build_grid` and :func:`dilation_grid`),
    CG runs on the Toeplitz spectral-side frame operator, applied by
    circulant embedding and FFT (``"toeplitz-fft"``, see
    :func:`_toeplitz_system`); ``max_iter`` caps its steps, and at the cap
    the last iterate comes back flagged unconverged.  Every other case,
    fewer samples than nodes, nodes off a lattice, or lattice subsets so
    sparse that :func:`~nusample.spectral.exp_table` builds them densely,
    is solved directly (``"direct"``, see :func:`_least_squares`), with no
    iterations, an empty history and the table's numerical ``rank``.

    ``residual`` is that of the normal equations on the smaller side, and
    ``converged`` says whether it meets ``tol``.  A numerically vanishing
    lower bound raises :class:`NotAFrameError`: a CG breakdown, or a
    rank-deficient table whose residual misses ``tol``.
    """
    ss = samples.sampling_set
    v = samples.values
    w = grid.weights
    lattice = None if ss.size < grid.size else _lattice_split(ss.points, grid.nodes, 1)[2]
    method = "direct" if lattice is None else "toeplitz-fft"
    if not np.any(v):
        return ReconstructionResult(
            signal=BandlimitedSignal(grid=grid, coeffs=np.zeros(grid.size, dtype=complex)),
            iterations=0, residual=0.0, converged=True, method=method, history=[])

    rank = None
    if method == "toeplitz-fft":
        coeffs, it, residual, converged, history = _conjugate_gradients(
            *_toeplitz_system(ss, v, w, *lattice), w, tol, max_iter)
    else:
        coeffs, residual, rank = _least_squares(ss.points, v, grid)
        it, converged, history = 0, residual <= tol, []
        if not converged and rank < min(ss.size, grid.size):
            raise NotAFrameError(f"not a frame at this scale: the sampled table has rank "
                                 f"{rank} of {min(ss.size, grid.size)}")
    return ReconstructionResult(signal=BandlimitedSignal(grid=grid, coeffs=coeffs),
                                iterations=it, residual=residual, converged=converged,
                                method=method, history=history, rank=rank)


def _least_squares(points: np.ndarray, values: np.ndarray, grid: SpectralGrid):
    """Coefficients F = u / sqrt(w), with u the minimal-norm least-squares
    solution of B u = v for the weighted table B = E sqrt(w) from one
    ``np.linalg.lstsq`` (an SVD of B, singular values below 1e-10 of the
    largest dropped); the relative residual, ||v - B u|| / ||v|| with fewer
    samples than nodes and ||B^H (v - B u)|| / ||B^H v|| otherwise (what CG
    reports on either side); and lstsq's rank."""
    root_w = np.sqrt(grid.weights)
    b = exp_table(points, grid.nodes)       # (samples, nodes)
    b *= root_w
    u, _, rank, _ = np.linalg.lstsq(b, values, rcond=_LSTSQ_RCOND)
    r = values - b @ u
    if b.shape[0] < b.shape[1]:
        residual = np.linalg.norm(r) / np.linalg.norm(values)
    else:
        bh = b.conj().T
        residual = np.linalg.norm(bh @ r) / np.linalg.norm(bh @ values)
    return u / root_w, float(residual), int(rank)


def _toeplitz_system(sampling_set: SamplingSet, values: np.ndarray, weights: np.ndarray,
                     idx: np.ndarray, origin: np.ndarray, steps: np.ndarray):
    """Frame operator and right-hand side of the spectral-side normal equations
    on a lattice grid g_k = origin + idx_k * steps, without the sampled
    exponential matrix E.

    S[k, l] = sum_x exp(-2 pi i x . (g_k - g_l)) = t[idx_k - idx_l] is
    (block-)Toeplitz.  The kernel t[m] = sum_x exp(-2 pi i x . (m * steps))
    over the half difference lattice (m_1 >= 0) and the right-hand side
    E^H v are the conjugates of one :func:`~nusample.spectral.lattice_sums`
    over that lattice, from the corner origin - offset * steps with
    offset = (0, n_2 - 1, ...), against the weights exp(-2 pi i x . origin)
    and conj(v); E^H v is read off at idx + offset.  In 1-d the corner is the
    origin, so the sums read the factor tables :func:`analysis` has just
    summed against, and a reconstruction right after analysis builds no
    table.  The kernel is mirrored by t[-m] = conj(t[m]) into a circulant of
    twice the lattice box per axis, so applying S to F is one FFT pair on
    the zero-padded ``weights * F``.  Returns (apply_op, rhs) for
    :func:`_conjugate_gradients`.
    """
    box = idx.max(axis=0) + 1
    pad = tuple(2 * box)
    offset = np.concatenate([[0], box[1:] - 1])
    half = (box[0], *(2 * box[1:] - 1))
    x = sampling_set.points
    phase = exp_table(x, origin[None, :], sign=-1)[:, 0]   # exp(-2 pi i x . origin)
    kern, rhs_half = lattice_sums(x, np.stack([phase, values.conj()], axis=1),
                                  origin - offset * steps, steps, half).conj()
    m = np.indices(half).reshape(len(half), -1).T - offset
    circ = np.zeros(pad, dtype=complex)
    circ[tuple((-m % pad).T)] = kern.conj().ravel()
    circ[tuple((m % pad).T)] = kern.ravel()
    spectrum = np.fft.fftn(circ)
    rhs = rhs_half[tuple((idx + offset).T)]
    at = np.ravel_multi_index(idx.T, pad)

    def apply_op(f):
        u = np.zeros(pad, dtype=complex)
        u.flat[at] = weights * f
        return np.fft.ifftn(spectrum * np.fft.fftn(u)).flat[at]

    return apply_op, rhs


def _conjugate_gradients(apply_op, b: np.ndarray, weights: np.ndarray | None,
                         tol: float, max_iter: int):
    """Conjugate gradients for a Hermitian positive semidefinite frame operator.

    Solves ``apply_op(x) = b`` from a zero start in the inner product
    <a, c> = sum(weights * a * conj(c)) (the plain dot product when
    ``weights`` is None), until the relative residual meets ``tol`` or
    ``max_iter`` steps have run.  A search direction p with
    <Sp, p> <= 1e-14 <p, p> ends the run when the residual already meets
    ``tol`` and raises :class:`NotAFrameError` otherwise.

    Returns (x, iterations, relative residual, converged, per-step relative
    residuals); at the cap the last iterate comes back with converged False.
    """
    def dot(a, c):
        return complex(np.vdot(c, a if weights is None else weights * a)).real

    x = np.zeros_like(b)
    r = b.copy()
    p = r.copy()
    rs = dot(r, r)
    bnorm = np.sqrt(dot(b, b))
    it = 0
    converged = False
    history = []
    for it in range(1, max_iter + 1):
        sp = apply_op(p)
        pap = dot(p, sp)
        if pap <= 1e-14 * dot(p, p):
            if np.sqrt(rs) <= tol * bnorm:
                converged = True
                break
            raise NotAFrameError("not a frame at this scale: frame operator is singular "
                                 "along the current search direction")
        alpha = rs / pap
        x = x + alpha * p
        r = r - alpha * sp
        rs_new = dot(r, r)
        history.append(float(np.sqrt(max(rs_new, 0.0)) / bnorm))
        if np.sqrt(rs_new) <= tol * bnorm:
            rs = rs_new
            converged = True
            break
        p = r + (rs_new / rs) * p
        rs = rs_new
    return x, it, float(np.sqrt(max(rs, 0.0)) / bnorm), converged, history


# -- dilation and weighted inequality checkers --------------------------------


def dilation_grid(spectrum: SpectrumSet, sixths: int) -> SpectralGrid:
    """Integer-spaced symmetric grid whose node set is closed under the
    dilations g -> 2g and g -> 3g (node count 12*sixths + 1, d=1 only)."""
    if spectrum.dim != 1:
        raise ValueError("dilation grids are one-dimensional")
    if sixths < 1:
        raise ValueError("sixths must be >= 1")
    n = 6 * sixths
    h = spectrum.bounding_box()[0, 1]
    step = h / n
    nodes = (step * np.arange(-n, n + 1)).reshape(-1, 1)
    weights = np.full(nodes.shape[0], step)
    return SpectralGrid(nodes=nodes, weights=weights, spectrum=spectrum)


def _dilation_indices(grid: SpectralGrid) -> tuple[np.ndarray, float]:
    nodes = grid.nodes[:, 0]
    step = nodes[1] - nodes[0]
    idx = np.rint(nodes / step).astype(int)
    if not np.allclose(nodes, idx * step, atol=1e-9 * max(abs(nodes[-1]), 1.0)):
        raise ValueError("grid is not integer-spaced; dilations would need interpolation")
    if np.max(np.abs(np.diff(idx))) != 1 or 0 not in idx:
        raise ValueError("grid is not a symmetric consecutive integer grid")
    return idx, step


def _dilate_coeffs(signal: BandlimitedSignal, factor: int) -> np.ndarray:
    """Coefficient vector of g -> F(factor * g) by exact node lookup."""
    idx, _ = _dilation_indices(signal.grid)
    pos = {j: k for k, j in enumerate(idx)}
    out = np.zeros_like(signal.coeffs)
    for k, j in enumerate(idx):
        src = pos.get(factor * j)
        if src is not None:
            out[k] = signal.coeffs[src]
    return out


@dataclass(frozen=True)
class InequalityCheck:
    """The three sides of a frame-type inequality lhs <= mid <= rhs and
    whether each half holds (None for a half that was not checked)."""

    lhs: float
    mid: float
    rhs: float
    lower_ok: bool | None
    upper_ok: bool | None

    @classmethod
    def of(cls, lhs: float, mid: float, rhs: float) -> "InequalityCheck":
        """Both halves checked up to a relative slack of 1e-9."""
        return cls(lhs, mid, rhs, lower_ok=bool(lhs <= mid * (1.0 + _SLACK)),
                   upper_ok=bool(mid <= rhs * (1.0 + _SLACK)))


def three_dilate_check(signal: BandlimitedSignal, sampling_set: SamplingSet,
                       lower_const: float | None = None,
                       upper_const: float | None = None) -> InequalityCheck:
    """Dilation inequality data for one signal and one sampling set.

    lhs = integral over the spectrum of |F(g) + F(2g) + F(3g)|^2, divided by
    the norm of F; mid = sum over j = 1,2,3 of (1/j) times the root sampled
    energy of f(x/j) on the set; rhs = norm of F.  When constants are given,
    checks sqrt(lower_const) * lhs <= mid <= sqrt(upper_const) * rhs.  The lhs
    ratio is not scale-invariant; the inequality is checked exactly in this
    printed shape.  Requires a dilation-closed grid (see :func:`dilation_grid`).
    """
    grid = signal.grid
    w = grid.weights
    j_f = signal.coeffs + _dilate_coeffs(signal, 2) + _dilate_coeffs(signal, 3)
    norm_f = signal.norm()
    if norm_f == 0.0:
        return InequalityCheck(0.0, 0.0, 0.0, None if lower_const is None else True,
                               None if upper_const is None else True)
    lhs = float(np.sum(w * np.abs(j_f) ** 2)) / norm_f
    mid = 0.0
    for j in (1, 2, 3):
        samples = evaluate(signal, sampling_set.points / j)
        mid += (1.0 / j) * float(np.sqrt(np.sum(np.abs(samples) ** 2)))
    rhs = norm_f
    lower_ok = None if lower_const is None else bool(
        np.sqrt(lower_const) * lhs <= mid * (1.0 + _SLACK))
    upper_ok = None if upper_const is None else bool(
        mid <= np.sqrt(upper_const) * rhs * (1.0 + _SLACK))
    return InequalityCheck(lhs, mid, rhs, lower_ok, upper_ok)


def weighted_frame_check(signal: BandlimitedSignal, weight_values,
                         sampling_set: SamplingSet,
                         balayage_k: float, window_l2: float,
                         bessel_bound: float | None = None) -> InequalityCheck:
    """Weighted frame inequality data for one signal, weight, and set.

    lhs = A * (integral |F|^2 G)^2 / integral |F|^2 with A = 1/(K * ||h||_2)^2
    assembled from the measured balayage constant and the window norm;
    mid = sampled energy of (F G)-check on the set; rhs = B * sup(G)^2 *
    integral |F|^2 with B the upper frame (Bessel) bound of the set over the
    full grid.  Asserts lhs <= mid <= rhs up to a relative slack of 1e-9.
    """
    g_vals = np.asarray(weight_values, dtype=float)
    if g_vals.shape != (signal.grid.size,):
        raise ValueError("weight must be sampled on the signal grid")
    if np.any(g_vals < 0):
        raise ValueError("weight must be nonnegative")
    w = signal.grid.weights
    norm_sq = signal.norm_sq()
    a_const = 1.0 / (balayage_k * window_l2) ** 2
    weighted_energy = float(np.sum(w * np.abs(signal.coeffs) ** 2 * g_vals))
    lhs = a_const * weighted_energy**2 / norm_sq if norm_sq > 0 else 0.0
    fg = BandlimitedSignal(grid=signal.grid, coeffs=signal.coeffs * g_vals)
    sampled = analysis(fg, sampling_set).values
    mid = float(np.sum(np.abs(sampled) ** 2))
    if bessel_bound is None:
        bessel_bound = frame_bounds(sampling_set, signal.grid).upper
    rhs = bessel_bound * float(np.max(g_vals)) ** 2 * norm_sq
    return InequalityCheck.of(lhs, mid, rhs)


# -- covering experiment -------------------------------------------------------


@dataclass(frozen=True, eq=False)
class CoveringExperiment:
    covering: CoveringReport
    rho_ok: bool
    report: FrameReport

    @property
    def prediction_applies(self) -> bool:
        return self.covering.covered and self.rho_ok

    @property
    def frame_confirmed(self) -> bool:
        return self.report.lower > 0.0


def covering_frame_experiment(spectrum: SpectrumSet, sampling_set: SamplingSet,
                              rho: float, region, resolution: float,
                              grid_nodes: int = 64, margin: float = 5.0) -> CoveringExperiment:
    """Covering criterion versus measured frame bounds on the shrunk spectrum.

    Checks that translates of the polar body by the sampling points cover the
    region, that rho < 1/4, and estimates frame bounds for the rho-scaled
    spectrum on an interior-tapered subspace.  When both the covering and the
    rho condition hold, the covering criterion predicts a positive lower
    bound; the report is attached either way.
    """
    cov = covering_check(sampling_set, spectrum.polar(), region, resolution)
    rho_ok = rho < 0.25
    grid = build_grid(spectrum.scaled(rho), grid_nodes)
    q = interior_taper_subspace(grid, sampling_set.window, margin=margin)
    report = frame_bounds(sampling_set, grid, subspace=q)
    return CoveringExperiment(covering=cov, rho_ok=rho_ok, report=report)
