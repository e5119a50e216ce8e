"""Short-time Fourier transform engine and non-uniform Gabor systems.

Signals and windows live on uniform time grids; the transform

    V_g f(x, w) = integral f(t) conj(g(t - x)) exp(-2 pi i t w) dt

is computed by midpoint quadrature at each requested phase-space node, with
window shifts resolved by exact index offsets (grids must be commensurate).
The phase convention pairs f against exp(2 pi i s t) g(t - s); every theorem
check in this module only involves |V_g f| or the frame operator, both of
which are invariant under the alternative modulation/translation ordering.

Includes the Gaussian window, the isometry / time-frequency / closed-form
transform identities, the phase-space l1 norm, the sampled-STFT energy bound
with its explicit constant, and the non-uniform Gabor frame operator with
conjugate-gradient inversion.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .frames import NotAFrameError, _conjugate_gradients, _orthonormal_span
from .sampling import SamplingSet, generate_jittered_grid
from .spectral import BandlimitedSignal, evaluate, exp_sum, exp_table

_ALIGN_TOL = 1e-9


@dataclass(frozen=True)
class UniformGrid:
    """Uniform 1-d grid start + step * [0..count)."""

    start: float
    step: float
    count: int

    @property
    def nodes(self) -> np.ndarray:
        return self.start + self.step * np.arange(self.count)

    @property
    def stop(self) -> float:
        return self.start + self.step * (self.count - 1)

    @classmethod
    def symmetric(cls, half_width: float, step: float) -> "UniformGrid":
        if not step > 0:
            raise ValueError(f"step must be positive, got {step!r}")
        n = int(round(half_width / step))
        return cls(start=-n * step, step=step, count=2 * n + 1)


@dataclass(frozen=True)
class TimeFrequencyGrid:
    """Bounded phase-space box discretized on a time and a frequency axis."""

    time: UniformGrid
    freq: UniformGrid

    def __post_init__(self):
        if self.time.step <= 0 or self.freq.step <= 0:
            raise ValueError("grid steps must be positive")
        if self.time.count < 2 or self.freq.count < 2:
            raise ValueError("need at least 2 nodes per axis")


def gaussian_identity_fixture(check: str, refine: int = 1):
    """Canonical Gaussian fixture (f, grid, window, tf) for one identity check.

    Each check has its own default grids, sized so the dominant error is the
    step-controlled quadrature alias: fine enough to meet the check's
    tolerance, coarse enough that halving the steps still shrinks the
    deviation measurably.  ``refine`` divides every step.
    """
    if check == "isometry":
        step, sig_half = 0.2, 8.0
        tf = TimeFrequencyGrid(time=UniformGrid.symmetric(6.0, 2 * step / refine),
                               freq=UniformGrid.symmetric(3.0, 2 * step / refine))
    elif check == "tf_identity":
        step, sig_half = 0.1, 6.0
        tf = TimeFrequencyGrid(time=UniformGrid.symmetric(2.5, 2 * step / refine),
                               freq=UniformGrid.symmetric(2.5, 2 * step / refine))
    elif check == "closed_form":
        step, sig_half = 0.125, 6.0
        tf = TimeFrequencyGrid(time=UniformGrid.symmetric(4.0, 2 * step / refine),
                               freq=UniformGrid.symmetric(4.0, 2 * step / refine))
    else:
        raise ValueError(f"unknown check {check!r}")
    grid = UniformGrid.symmetric(sig_half, step / refine)
    window = gaussian_window(step=step / refine, half_width=sig_half)
    return window.values.copy(), grid, window, tf


def interp_complex(x, nodes: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Linear interpolation of complex samples at ``x``, zero outside the nodes."""
    re = np.interp(x, nodes, values.real, left=0.0, right=0.0)
    im = np.interp(x, nodes, values.imag, left=0.0, right=0.0)
    return re + 1j * im


@dataclass(frozen=True, eq=False)
class WindowFunction:
    """Window samples on a uniform grid, unit L2 norm after construction."""

    grid: UniformGrid
    values: np.ndarray
    kind: str = "sampled"   # "gaussian" windows evaluate off-grid exactly

    def __post_init__(self):
        v = np.asarray(self.values, dtype=complex)
        object.__setattr__(self, "values", v)
        if v.shape != (self.grid.count,):
            raise ValueError("window sample count mismatch")

    def l2_norm(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.values) ** 2) * self.grid.step))

    def at(self, points) -> np.ndarray:
        """Window values at arbitrary points: exact for the Gaussian, as real
        values (so a complex product with them takes no complex copy of the
        window), linear interpolation (zero outside the grid, complex)
        otherwise."""
        p = np.asarray(points, dtype=float)
        if self.kind == "gaussian":
            return (2.0 ** 0.25) * np.exp(-np.pi * p**2)
        return interp_complex(p, self.grid.nodes, self.values)


def gaussian_window(half_width: float = 8.0, step: float = 1.0 / 3.0) -> WindowFunction:
    """Unit-norm Gaussian 2^(1/4) exp(-pi x^2) sampled on a symmetric grid.

    The window is one-dimensional; phase space is then two-dimensional,
    which is the configuration every check here uses.
    """
    grid = UniformGrid.symmetric(half_width, step)
    vals = (2.0 ** 0.25) * np.exp(-np.pi * grid.nodes**2)
    return WindowFunction(grid=grid, values=vals.astype(complex), kind="gaussian")


def _shift_indices(signal_grid: UniformGrid, window: WindowFunction, x_nodes: np.ndarray) -> np.ndarray:
    """Integer offsets s with t_m - x = window node (m - s); errors when the
    shifts fall between window samples (incommensurate grids)."""
    if abs(signal_grid.step - window.grid.step) > _ALIGN_TOL * window.grid.step:
        raise ValueError("incommensurate grids: signal and window steps differ")
    step = window.grid.step
    s_exact = (x_nodes + window.grid.start - signal_grid.start) / step
    s = np.rint(s_exact)
    if np.max(np.abs(s_exact - s)) > _ALIGN_TOL:
        raise ValueError("incommensurate grids: shifts fall between window samples")
    return s.astype(int)


def stft(f_values, f_grid: UniformGrid, window: WindowFunction,
         tf: TimeFrequencyGrid) -> np.ndarray:
    """Transform matrix with rows over tf.time nodes and columns over tf.freq.

    Quadrature of the defining integral on the signal grid; the window is
    shifted by exact sample offsets, so tf.time nodes must be commensurate
    with the common grid step.  The shifted products f(t_m) conj(g(t_m - x_i))
    are gathered into one (time nodes, signal samples) matrix, which is
    multiplied once by the kernel exp(-2 pi i t w) from the factored
    exponential builder.  Each shifted conjugate window is a row of a sliding
    view over the conjugated window padded by the signal length of zeros on
    each side, so no index table is formed; a shift past either end of the
    signal starts at the view's first or last row, which is all zeros.
    """
    f = np.asarray(f_values, dtype=complex)
    if f.shape != (f_grid.count,):
        raise ValueError("signal sample count mismatch")
    offsets = _shift_indices(f_grid, window, tf.time.nodes)
    # t_m - x_i is window sample m - s_i, which is sample n - s_i + m of the
    # padded buffer; row r of the view holds buffer samples r .. r + n - 1
    n = f_grid.count
    padded = np.zeros(window.values.size + 2 * n, dtype=complex)
    padded[n:n + window.values.size] = np.conj(window.values)
    rows = np.lib.stride_tricks.sliding_window_view(padded, n)
    prod = rows[np.clip(n - offsets, 0, rows.shape[0] - 1)]      # (n_x, n_t), a copy
    np.multiply(f, prod, out=prod)   # f first: complex products are not commutative bitwise
    v = prod @ exp_table(f_grid.nodes, tf.freq.nodes, sign=-1)    # kernel (n_t, n_freq)
    v *= f_grid.step
    return v


@dataclass(frozen=True)
class DeviationReport:
    lhs: float
    rhs: float
    deviation: float


def isometry_check(f_values, f_grid: UniformGrid, window: WindowFunction,
                   tf: TimeFrequencyGrid) -> DeviationReport:
    """Relative deviation of the phase-space L2 norm of V_g f from
    ||g||_2 ||f||_2 (the transform is an isometry up to quadrature error)."""
    v = stft(f_values, f_grid, window, tf)
    lhs = float(np.sqrt(np.sum(np.abs(v) ** 2) * tf.time.step * tf.freq.step))
    f = np.asarray(f_values, dtype=complex)
    rhs = window.l2_norm() * float(np.sqrt(np.sum(np.abs(f) ** 2) * f_grid.step))
    dev = abs(lhs - rhs) / rhs if rhs > 0 else lhs
    return DeviationReport(lhs=lhs, rhs=rhs, deviation=dev)


def _forward_transform(values, grid: UniformGrid, freq_nodes: np.ndarray) -> np.ndarray:
    """Quadrature Fourier transform of grid samples at arbitrary frequencies."""
    return exp_sum(freq_nodes, grid.nodes, values, sign=-1) * grid.step


def tf_identity_check(f_values, f_grid: UniformGrid, window: WindowFunction,
                      tf: TimeFrequencyGrid,
                      spectral_half: float = 6.0) -> float:
    """Max pointwise deviation between V_g f(x, w) and
    exp(-2 pi i x w) V_G F(w, -x), the two transforms computed independently.

    F and G are obtained from the samples by quadrature Fourier transform on
    a uniform frequency grid of the same step (so the frequency-side
    transform is again an exact-shift computation).
    """
    gamma = UniformGrid.symmetric(spectral_half, tf.freq.step)
    f_hat = _forward_transform(f_values, f_grid, gamma.nodes)
    g_hat = _forward_transform(window.values, window.grid, gamma.nodes)
    g_hat_win = WindowFunction(grid=gamma, values=g_hat, kind="sampled")

    x_nodes = tf.time.nodes
    neg_x = UniformGrid(start=-x_nodes[-1], step=tf.time.step, count=x_nodes.size)
    tf_swapped = TimeFrequencyGrid(time=tf.freq, freq=neg_x)
    v_spec = stft(f_hat, gamma, g_hat_win, tf_swapped)   # rows w, cols -x ascending

    v_time = stft(f_values, f_grid, window, tf)          # rows x, cols w
    rhs = v_spec[:, ::-1].T                              # -> rows x, cols w
    phase = exp_table(x_nodes, tf.freq.nodes, sign=-1)
    return float(np.max(np.abs(v_time - phase * rhs)))


def stft_fourier_closed_form(f_values, f_grid: UniformGrid, window: WindowFunction,
                             tf: TimeFrequencyGrid) -> float:
    """Max deviation of the 2-d transform of V_g f from its closed form,
    evaluated for |zeta| <= 1.2 and |z| <= 2.

    For integrable real windows the transform of V_g f factors as
    exp(2 pi i z zeta) f(-z) g-hat(-zeta); the phase sign follows from
    collapsing the frequency integral to a point mass at t = -z and is
    re-derivable from the inner substitution steps.
    """
    v = stft(f_values, f_grid, window, tf)
    x_nodes = tf.time.nodes
    w_nodes = tf.freq.nodes
    # evaluation nodes: z on (negated) signal grid points, zeta on a coarse grid
    zeta = UniformGrid.symmetric(1.2, tf.freq.step).nodes
    t = f_grid.nodes
    z = t[np.abs(t) <= 2.0]
    ker_x = exp_table(zeta, x_nodes, sign=-1)                # (n_zeta, n_x)
    ker_w = exp_table(w_nodes, z, sign=-1)                   # (n_w, n_z)
    vhat = ker_x @ v @ ker_w * (tf.time.step * tf.freq.step)  # (n_zeta, n_z)

    f = np.asarray(f_values, dtype=complex)
    f_neg = f[np.argmin(np.abs(t[None, :] + z[:, None]), axis=1)]
    g_hat_neg = _forward_transform(window.values, window.grid, -zeta)
    closed = exp_table(zeta, z) * np.outer(g_hat_neg, f_neg)
    return float(np.max(np.abs(vhat - closed)))


def feichtinger_norm(f_values, f_grid: UniformGrid) -> float:
    """Phase-space l1 norm of the Gaussian-window transform of f.

    The phase-space box keeps the frequency extent inside the signal grid's
    alias-free range (Nyquist minus the Gaussian spread), so accurate values
    for wide-band f require a correspondingly fine grid; its time step is the
    multiple of the signal step nearest 1/3, so the two are commensurate.
    """
    freq_half = min(4.0, max(1.0, 0.5 / f_grid.step - 2.5))
    t_step = max(1, round((1.0 / 3.0) / f_grid.step)) * f_grid.step
    tf = TimeFrequencyGrid(time=UniformGrid.symmetric(6.0, t_step),
                           freq=UniformGrid.symmetric(freq_half, min(1.0 / 3.0, freq_half / 6.0)))
    g0 = gaussian_window(step=f_grid.step)
    v = stft(f_values, f_grid, g0, tf)
    return float(np.sum(np.abs(v)) * tf.time.step * tf.freq.step)


def gaussian_offset_sup(sampling_set: SamplingSet) -> float:
    """sup over u of sum_x exp(-||x - u||^2), maximized on a u-grid of step
    0.005 that reaches 1 beyond the set on each side."""
    pts = sampling_set.points
    if pts.shape[1] != 1:
        raise ValueError("offset sup implemented for 1-d sets")
    x = pts[:, 0]
    u = np.arange(x.min() - 1.0, x.max() + 1.0 + 0.005 / 2.0, 0.005)
    sums = np.exp(-((u[:, None] - x[None, :]) ** 2)).sum(axis=1)
    return float(sums.max())


@dataclass(frozen=True)
class PwStftCheck:
    energy: float
    lower_ratio: float    # energy / ||f||^2
    upper_ratio: float    # energy / (B_formula ||f||^2)
    b_formula: float
    c_const: float


def pw_stft_frame_check(signal: BandlimitedSignal, window: WindowFunction,
                        sampling_set: SamplingSet, omega: UniformGrid) -> PwStftCheck:
    """Sampled STFT energy of a bandlimited signal against the explicit bound.

    energy = sum over x in the (symmetric) set of the frequency-integrated
    squared transform, with the signal sampled on the window's step out to 8
    beyond the set on each side; the upper constant is
    2^(1/2) * C * ||V_{g0} g||_1^2 with C the sup of the Gaussian offset sums
    over the set.  The lower direction reports the energy ratio only
    (positivity), since the abstract lower constant is not computable from
    the data.
    """
    if sampling_set.dim != 1:
        raise ValueError("sampled STFT checks are one-dimensional")
    pts = np.sort(sampling_set.points[:, 0])
    if not np.allclose(pts, -pts[::-1], atol=1e-9):
        raise ValueError("sampling set must be symmetric about 0")
    step = window.grid.step
    lo = pts.min() - 8.0
    hi = pts.max() + 8.0
    k0 = int(np.floor(lo / step))
    k1 = int(np.ceil(hi / step))
    f_grid = UniformGrid(start=k0 * step, step=step, count=k1 - k0 + 1)
    f_vals = evaluate(signal, f_grid.nodes.reshape(-1, 1))
    tf = TimeFrequencyGrid(time=UniformGrid(start=pts[0], step=pts[1] - pts[0],
                                            count=pts.size), freq=omega)
    if not np.allclose(tf.time.nodes, pts, atol=1e-9):
        raise ValueError("sampling set must be uniformly spaced for the sampled STFT")
    v = stft(f_vals, f_grid, window, tf)
    energy = float(np.sum(np.abs(v) ** 2) * omega.step)
    norm_sq = float(np.sum(np.abs(f_vals) ** 2) * step)
    c_const = gaussian_offset_sup(sampling_set)
    s0 = feichtinger_norm(window.values, window.grid)
    b_formula = np.sqrt(2.0) * c_const * s0**2
    if norm_sq == 0.0:
        return PwStftCheck(energy=0.0, lower_ratio=0.0, upper_ratio=0.0,
                           b_formula=b_formula, c_const=c_const)
    return PwStftCheck(energy=energy,
                       lower_ratio=energy / norm_sq,
                       upper_ratio=energy / (b_formula * norm_sq),
                       b_formula=b_formula, c_const=c_const)


# -- non-uniform Gabor systems -------------------------------------------------


def phase_lattice(a: float, b: float, time_extent: float, freq_extent: float,
                  jitter: float = 0.0, seed: int | None = None) -> SamplingSet:
    """Time-frequency nodes (s_n, sigma_n): the rectangular lattice a Z x b Z
    in the phase-space box [-T, T] x [-F, F], optionally jittered by uniform
    noise in [-jitter, jitter]^2 (seeded), which needs jitter < min(a, b)/2."""
    return generate_jittered_grid([a, b], jitter, [[-time_extent, time_extent],
                                                   [-freq_extent, freq_extent]], seed)


def _atom_matrix(grid: UniformGrid, window: WindowFunction,
                 samples: SamplingSet) -> np.ndarray:
    """Columns exp(2 pi i sigma t) g(t - s) per phase-space node (s, sigma); the
    exponentials are factored along the uniform t axis."""
    t = grid.nodes
    s = samples.points[:, 0]
    sigma = samples.points[:, 1]
    shifts = window.at(t[:, None] - s[None, :])
    return exp_table(sigma, t).T * shifts


def reference_test_subspace(grid: UniformGrid, time_extent: float,
                            freq_extent: float) -> np.ndarray:
    """Real orthonormal basis of phase-space-concentrated test signals:
    Gaussian atoms on the interior lattice 0.5 Z x 0.5 Z, without the
    directions whose singular value is below 1e-2 of the largest (see
    :func:`~nusample.frames._orthonormal_span`; the rank matches the SVD's
    unless a singular value lies within about 1e-10 relative of the cutoff).
    The atom at -sigma is the conjugate of the one at sigma, so by a unitary
    change of basis the atoms span sqrt(2) Re and sqrt(2) Im of those with
    sigma > 0 and Re of those with sigma = 0, the only ones built.
    Conditioning of the frame operator is measured on this subspace, since
    the full grid space always contains content no truncated atom family can
    reach; the condition depends on the span only, not on the basis."""
    ref = generate_jittered_grid(0.5, 0.0, [[-time_extent, time_extent],
                                            [0.0, freq_extent]], None)
    g0 = gaussian_window(step=grid.step)
    atoms = _atom_matrix(grid, g0, ref)
    paired = ref.points[:, 1] > 0
    scale = np.sqrt(grid.step * np.where(paired, 2.0, 1.0))
    basis = np.concatenate([atoms.real * scale, atoms.imag[:, paired] * scale[paired]], axis=1)
    return _orthonormal_span(basis, 1e-2)


def gabor_frame_condition(grid: UniformGrid, window: WindowFunction,
                          samples: SamplingSet,
                          test_subspace: np.ndarray,
                          atoms: np.ndarray | None = None) -> float:
    """Extreme-eigenvalue ratio of the frame operator compressed to the test
    subspace (infinite when the smallest eigenvalue vanishes numerically, or
    when there are fewer nodes than subspace dimensions).  ``atoms`` is the
    atom matrix of the nodes if the caller already has it."""
    if samples.size < test_subspace.shape[1]:
        return np.inf
    if atoms is None:
        atoms = _atom_matrix(grid, window, samples)
    c = (atoms.conj().T @ test_subspace) * np.sqrt(grid.step)   # (n_atoms, r)
    svals = np.linalg.svd(c, compute_uv=False)
    top = float(svals[0] ** 2) * grid.step
    bot = float(svals[-1] ** 2) * grid.step
    if bot <= 1e-15 * top:
        return np.inf
    return top / bot


@dataclass(frozen=True, eq=False)
class GaborResult:
    values: np.ndarray
    error: float
    iterations: int
    condition: float
    converged: bool
    history: list = field(default_factory=list)   # per-iteration relative residuals


def gabor_reconstruct(f_values, grid: UniformGrid, window: WindowFunction,
                      samples: SamplingSet, max_iter: int = 500,
                      cond_threshold: float = 1e8,
                      test_subspace: np.ndarray | None = None) -> GaborResult:
    """Invert the frame operator on the coefficients of f by conjugate
    gradients and report the relative L2 reconstruction error.

    Solves S y = S f from a zero start, which converges to the projection of
    f onto the atom span; the error therefore measures how well the sampled
    system represents f.  A test-subspace condition above the threshold
    raises :class:`NotAFrameError` ("not a frame at this scale"), as does a
    breakdown of the iteration short of the relative residual 1e-10; at
    ``max_iter`` the last iterate is returned flagged unconverged.
    """
    f = np.asarray(f_values, dtype=complex)
    if not np.any(f):
        return GaborResult(values=np.zeros_like(f), error=0.0, iterations=0,
                           condition=0.0, converged=True)
    if test_subspace is None:
        test_subspace = reference_test_subspace(grid, max(grid.stop - 5.0, 1.0), 1.5)
    atoms = _atom_matrix(grid, window, samples)
    condition = gabor_frame_condition(grid, window, samples, test_subspace, atoms=atoms)
    if condition > cond_threshold:
        raise NotAFrameError(f"not a frame at this scale: test-subspace condition "
                             f"{condition:.3e} exceeds {cond_threshold:.1e}")
    adjoint = atoms.conj().T
    adjoint *= grid.step

    def apply_s(x):
        return atoms @ (adjoint @ x)

    x, it, _, converged, history = _conjugate_gradients(apply_s, apply_s(f), None,
                                                        1e-10, max_iter)
    fnorm = np.sqrt(float(np.vdot(f, f).real))
    err = np.sqrt(float(np.vdot(x - f, x - f).real)) / fnorm
    return GaborResult(values=x, error=float(err), iterations=it, condition=condition,
                       converged=converged, history=history)
