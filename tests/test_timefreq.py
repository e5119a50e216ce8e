import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import pdist

from nusample import geometry as geo
from nusample import spectral as spc
from nusample import timefreq as tfm
from nusample.frames import NotAFrameError
from nusample.sampling import SamplingSet, generate_jittered_grid, symmetrize

# quadrature value of the phase-space l1 norm of the Gaussian transform of
# itself, measured once at step 1/12 and frozen (the closed-form value is 2)
S0_NORM_G0 = 1.9999999993533746


def gaussian_fixture(check, refine=1):
    return tfm.gaussian_identity_fixture(check, refine=refine)


def stft_at(f_values, f_grid, window, points):
    """V_g f at arbitrary phase-space points (n, 2) by direct quadrature, with
    off-grid window evaluation (exact for Gaussian windows)."""
    f = np.asarray(f_values, dtype=complex)
    t = f_grid.nodes
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    out = np.empty(pts.shape[0], dtype=complex)
    for i, (s, sigma) in enumerate(pts):
        out[i] = np.sum(f * np.conj(window.at(t - s)) * np.exp(-2j * np.pi * t * sigma))
    return out * f_grid.step


def gabor_coefficients(f_values, grid, window, samples):
    """<f, atom_n> per phase-space node."""
    atoms = tfm._atom_matrix(grid, window, samples)
    return (atoms.conj().T @ np.asarray(f_values, dtype=complex)) * grid.step


def gabor_frame_operator(f_values, grid, window, samples):
    """S f = sum_n <f, atom_n> atom_n by direct summation, as grid samples."""
    if samples.size == 0:
        return np.zeros_like(f_values, dtype=complex)
    return tfm._atom_matrix(grid, window, samples) @ gabor_coefficients(
        f_values, grid, window, samples)


def window_from_samples(grid, values):
    """A sampled window scaled to unit L2 norm."""
    v = np.asarray(values, dtype=complex)
    return tfm.WindowFunction(grid=grid, values=v / np.sqrt(np.sum(np.abs(v) ** 2) * grid.step))


def bandlimited_pair(omega, t_support, grid, seed):
    """Fixture pair (f, g) whose transform has compactly supported 2-d spectrum.

    g is bandlimited with a smooth even transform supported in [-omega, omega];
    f is even, supported in [-t_support, t_support], with four random cosine
    terms.  Then the transform of V_g f lives in [-omega, omega] x
    [-t_support, t_support], the only constructive instance of the support
    hypothesis used by the non-uniform Gabor expansion checks.
    """
    rng = np.random.default_rng(seed)
    t = grid.nodes
    # window: inverse transform of a smooth even bump on [-omega, omega]
    gamma = np.linspace(-omega, omega, 257)
    prof = np.zeros(gamma.size)
    inner = np.abs(gamma) < omega
    prof[inner] = np.exp(-1.0 / (1.0 - (gamma[inner] / omega) ** 2))
    g = window_from_samples(grid, (spc.exp_table(t, gamma) @ prof) * (gamma[1] - gamma[0]))
    # signal: even, compactly supported, random even cosine content
    mask = np.abs(t) < t_support
    envelope = np.zeros_like(t)
    envelope[mask] = np.exp(-1.0 / (1.0 - (t[mask] / t_support) ** 2))
    coefs = rng.standard_normal(4)
    f_vals = envelope * sum(c * np.cos(2.0 * np.pi * k * t / (2 * t_support))
                            for k, c in enumerate(coefs))
    return f_vals.astype(complex), g


class TestWindow:
    def test_peak_value(self):
        g0 = tfm.gaussian_window(step=0.25)
        mid = np.argmin(np.abs(g0.grid.nodes))
        assert g0.values[mid].real == pytest.approx(2.0**0.25)

    def test_unit_norm(self):
        g0 = tfm.gaussian_window(step=0.125)
        assert g0.l2_norm() == pytest.approx(1.0, abs=1e-8)

    def test_even(self):
        g0 = tfm.gaussian_window(step=0.25)
        assert np.allclose(g0.values, g0.values[::-1])

    def test_off_grid_evaluation_exact_for_gaussian(self):
        g0 = tfm.gaussian_window(step=0.25)
        pts = np.array([0.1, -1.37, 2.0])
        assert np.allclose(g0.at(pts), 2.0**0.25 * np.exp(-np.pi * pts**2))


class TestStft:
    def test_gaussian_self_inner_product(self):
        f, grid, g0, tf = gaussian_fixture("isometry")
        v = tfm.stft(f, grid, g0, tf)
        i0 = np.argmin(np.abs(tf.time.nodes))
        j0 = np.argmin(np.abs(tf.freq.nodes))
        assert v[i0, j0] == pytest.approx(1.0, abs=1e-6)

    def test_zero_signal(self):
        f, grid, g0, tf = gaussian_fixture("isometry")
        assert not np.any(tfm.stft(np.zeros_like(f), grid, g0, tf))

    def test_cauchy_schwarz_entrywise(self):
        f, grid, g0, tf = gaussian_fixture("isometry")
        rng = np.random.default_rng(0)
        sig = f * (1 + 0.3 * rng.standard_normal(f.size))
        v = tfm.stft(sig, grid, g0, tf)
        bound = g0.l2_norm() * np.sqrt(np.sum(np.abs(sig) ** 2) * grid.step)
        assert np.max(np.abs(v)) <= bound * (1 + 1e-9)

    def test_matches_off_grid_evaluation(self):
        # independent route: closed-form Gaussian window values at t - x
        step = 0.125
        grid = tfm.UniformGrid.symmetric(6.0, step)
        g0 = tfm.gaussian_window(step=step, half_width=6.0)
        rng = np.random.default_rng(0)
        f = rng.standard_normal(grid.count) + 1j * rng.standard_normal(grid.count)
        tf = tfm.TimeFrequencyGrid(time=tfm.UniformGrid.symmetric(2.0, 0.5),
                                   freq=tfm.UniformGrid.symmetric(1.5, 0.25))
        v = tfm.stft(f, grid, g0, tf)
        pts = np.array([(x, w) for x in tf.time.nodes for w in tf.freq.nodes])
        v2 = stft_at(f, grid, g0, pts).reshape(tf.time.count, tf.freq.count)
        assert np.max(np.abs(v - v2)) <= 1e-12

    def test_incommensurate_grids_rejected(self):
        f, grid, g0, tf = gaussian_fixture("isometry")
        bad = tfm.TimeFrequencyGrid(
            time=tfm.UniformGrid(start=0.05, step=tf.time.step, count=4),
            freq=tf.freq)
        with pytest.raises(ValueError, match="incommensurate"):
            tfm.stft(f, grid, g0, bad)
        other = tfm.gaussian_window(step=grid.step / 3)
        with pytest.raises(ValueError, match="incommensurate"):
            tfm.stft(f, grid, other, tf)


def stft_row_loop(f, f_grid, window, tf):
    """Reference transform: one row per time node, each the window-shifted
    product against a dense kernel exp(-2 pi i t w)."""
    offsets = tfm._shift_indices(f_grid, window, tf.time.nodes)
    kernel = np.exp(-2j * np.pi * np.outer(f_grid.nodes, tf.freq.nodes))
    n_t, n_w = f_grid.count, window.grid.count
    out = np.empty((tf.time.count, tf.freq.count), dtype=complex)
    for i, s in enumerate(offsets):
        m_lo, m_hi = max(0, s), min(n_t, s + n_w)
        prod = np.zeros(n_t, dtype=complex)
        if m_hi > m_lo:
            prod[m_lo:m_hi] = f[m_lo:m_hi] * np.conj(window.values[m_lo - s:m_hi - s])
        out[i] = prod @ kernel
    return out * f_grid.step


def stft_clip_gather(f, f_grid, window, tf):
    """The transform with the shifted conjugate windows gathered through a
    clipped index table into the window padded by one zero at each end."""
    offsets = tfm._shift_indices(f_grid, window, tf.time.nodes)
    padded = np.concatenate([[0.0], np.conj(window.values), [0.0]])
    k = np.arange(f_grid.count)[None, :] - offsets[:, None] + 1
    prod = np.asarray(f, dtype=complex) * padded[np.clip(k, 0, padded.size - 1)]
    return (prod @ spc.exp_table(f_grid.nodes, tf.freq.nodes, sign=-1)) * f_grid.step


@st.composite
def stft_cases(draw):
    """A complex signal and window on commensurate grids of one step, and time
    nodes at whole multiples of it, some shifting the window off the signal."""
    step = draw(st.floats(0.02, 0.5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    f_grid = tfm.UniformGrid(start=draw(st.integers(-60, 0)) * step, step=step,
                             count=draw(st.integers(1, 120)))
    w_grid = tfm.UniformGrid(start=draw(st.integers(-30, 0)) * step, step=step,
                             count=draw(st.integers(1, 60)))
    window = tfm.WindowFunction(grid=w_grid, values=rng.standard_normal(w_grid.count)
                                + 1j * rng.standard_normal(w_grid.count))
    time = tfm.UniformGrid(start=draw(st.integers(-100, 60)) * step,
                           step=draw(st.integers(1, 4)) * step, count=draw(st.integers(2, 40)))
    freq = tfm.UniformGrid(start=draw(st.floats(-3.0, 0.0)), step=draw(st.floats(0.01, 0.5)),
                           count=draw(st.integers(2, 60)))
    f = rng.standard_normal(f_grid.count) + 1j * rng.standard_normal(f_grid.count)
    return f, f_grid, window, tfm.TimeFrequencyGrid(time=time, freq=freq)


def compact_signal(t, half, center, coeffs):
    """Smooth bump supported in |t - center| < half times low-frequency
    trigonometric content with the given complex coefficients."""
    env = np.zeros_like(t)
    inside = np.abs(t - center) < half
    env[inside] = np.exp(-1.0 / (1.0 - ((t[inside] - center) / half) ** 2))
    k = np.arange(coeffs.size)
    return env * (coeffs @ np.exp(2j * np.pi * np.outer(k, t) / (2.0 * half)))


@st.composite
def compact_signals(draw):
    """Random compactly supported signal on [-8, 8] at step 0.1, support
    inside [-5, 5], highest frequency at most 1."""
    grid = tfm.UniformGrid.symmetric(8.0, 0.1)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 3))
    coeffs = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return compact_signal(grid.nodes, draw(st.floats(1.0, 3.0)),
                          draw(st.floats(-2.0, 2.0)), coeffs), grid


PROPERTY_WINDOW = tfm.gaussian_window(step=0.1, half_width=8.0)
PROPERTY_TF = tfm.TimeFrequencyGrid(time=tfm.UniformGrid.symmetric(7.0, 0.2),
                                    freq=tfm.UniformGrid.symmetric(4.0, 0.2))


class TestStftProperties:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(stft_cases())
    def test_matches_row_loop(self, case):
        f, f_grid, window, tf = case
        expect = stft_row_loop(f, f_grid, window, tf)
        got = tfm.stft(f, f_grid, window, tf)
        assert np.linalg.norm(got - expect) <= 1e-12 * max(np.linalg.norm(expect), 1e-300)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(stft_cases())
    def test_matches_clip_gather_bitwise(self, case):
        f, f_grid, window, tf = case
        assert tfm.stft(f, f_grid, window, tf).tobytes() == stft_clip_gather(
            f, f_grid, window, tf).tobytes()

    def test_shifts_past_both_ends_match_clip_gather_bitwise(self):
        f, f_grid, window, _ = gaussian_fixture("isometry")
        step = f_grid.step
        # shifts from a window wholly left of the signal to one wholly right of it
        tf = tfm.TimeFrequencyGrid(time=tfm.UniformGrid.symmetric(40.0, 4 * step),
                                   freq=tfm.UniformGrid.symmetric(2.0, 0.25))
        offsets = tfm._shift_indices(f_grid, window, tf.time.nodes)
        assert offsets.max() > f_grid.count and offsets.min() < -window.grid.count
        v = tfm.stft(f, f_grid, window, tf)
        assert v.tobytes() == stft_clip_gather(f, f_grid, window, tf).tobytes()
        assert not np.any(v[0]) and not np.any(v[-1])

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(compact_signals())
    def test_isometry(self, case):
        # ||V_g f|| = ||g|| ||f|| within the tolerance of configs/stft.json
        f, grid = case
        assert tfm.isometry_check(f, grid, PROPERTY_WINDOW, PROPERTY_TF).deviation <= 1e-3

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(compact_signals(), compact_signals(),
           st.complex_numbers(max_magnitude=5.0), st.complex_numbers(max_magnitude=5.0))
    def test_linear_in_signal(self, first, second, a, b):
        (f, grid), (h, _) = first, second
        lhs = tfm.stft(a * f + b * h, grid, PROPERTY_WINDOW, PROPERTY_TF)
        rhs = (a * tfm.stft(f, grid, PROPERTY_WINDOW, PROPERTY_TF)
               + b * tfm.stft(h, grid, PROPERTY_WINDOW, PROPERTY_TF))
        scale = (abs(a) * np.linalg.norm(f) + abs(b) * np.linalg.norm(h)) * grid.step
        assert np.linalg.norm(lhs - rhs) <= 1e-12 * max(scale * np.sqrt(lhs.size), 1e-300)


class TestIdentities:
    def test_isometry_within_tolerance(self):
        f, grid, g0, tf = gaussian_fixture("isometry")
        assert tfm.isometry_check(f, grid, g0, tf).deviation <= 1e-3

    def test_isometry_scale_invariant(self):
        f, grid, g0, tf = gaussian_fixture("isometry")
        base = tfm.isometry_check(f, grid, g0, tf)
        scaled = tfm.isometry_check(3.0 * f, grid, g0, tf)
        assert scaled.lhs == pytest.approx(3.0 * base.lhs, rel=1e-12)
        assert scaled.deviation == pytest.approx(base.deviation, rel=1e-6)

    def test_isometry_zero_signal(self):
        f, grid, g0, tf = gaussian_fixture("isometry")
        rep = tfm.isometry_check(np.zeros_like(f), grid, g0, tf)
        assert rep.lhs == rep.rhs == 0.0 and rep.deviation == 0.0

    def test_tf_identity_within_tolerance(self):
        f, grid, g0, tf = gaussian_fixture("tf_identity")
        assert tfm.tf_identity_check(f, grid, g0, tf, spectral_half=2.5) <= 1e-3

    def test_tf_identity_zero_phase_at_origin(self):
        f, grid, g0, tf = gaussian_fixture("tf_identity")
        v = tfm.stft(f, grid, g0, tf)
        gamma = tfm.UniformGrid.symmetric(2.5, tf.freq.step)
        f_hat = tfm._forward_transform(f, grid, gamma.nodes)
        g_hat = tfm.WindowFunction(grid=gamma,
                                   values=tfm._forward_transform(g0.values, g0.grid, gamma.nodes))
        v2 = tfm.stft(f_hat, gamma, g_hat,
                      tfm.TimeFrequencyGrid(time=tf.freq, freq=tf.time))
        i0 = np.argmin(np.abs(tf.time.nodes))
        j0 = np.argmin(np.abs(tf.freq.nodes))
        assert v[i0, j0] == pytest.approx(v2[j0, i0], abs=1e-4)

    def test_closed_form_within_tolerance(self):
        f, grid, g0, tf = gaussian_fixture("closed_form")
        assert tfm.stft_fourier_closed_form(f, grid, g0, tf) <= 1e-2

    def test_real_even_window_has_real_even_transform(self):
        g0 = tfm.gaussian_window(step=0.125)
        gamma = np.linspace(-2, 2, 33)
        ghat = tfm._forward_transform(g0.values, g0.grid, gamma)
        assert np.max(np.abs(ghat.imag)) <= 1e-10
        assert np.allclose(ghat, ghat[::-1], atol=1e-10)

    @pytest.mark.parametrize("check,runner", [
        ("isometry", lambda f, g, w, tf: tfm.isometry_check(f, g, w, tf).deviation),
        ("tf_identity", lambda f, g, w, tf: tfm.tf_identity_check(f, g, w, tf, spectral_half=2.5)),
        ("closed_form", tfm.stft_fourier_closed_form),
    ])
    def test_refinement_halves_deviation(self, check, runner):
        coarse = runner(*gaussian_fixture(check))
        fine = runner(*gaussian_fixture(check, refine=2))
        assert coarse / max(fine, 1e-300) >= 2.0


class TestFeichtinger:
    def test_zero(self):
        grid = tfm.UniformGrid.symmetric(6.0, 1.0 / 12.0)
        assert tfm.feichtinger_norm(np.zeros(grid.count), grid) == 0.0

    def test_gaussian_regression_value(self):
        g0 = tfm.gaussian_window(step=1.0 / 12.0)
        val = tfm.feichtinger_norm(g0.values, g0.grid)
        assert val == pytest.approx(S0_NORM_G0, abs=1e-9)

    def test_absolute_homogeneity(self):
        g0 = tfm.gaussian_window(step=1.0 / 12.0)
        base = tfm.feichtinger_norm(g0.values, g0.grid)
        scaled = tfm.feichtinger_norm((-2.0 + 1.5j) * g0.values, g0.grid)
        assert scaled == pytest.approx(abs(-2.0 + 1.5j) * base, rel=1e-12)


@pytest.fixture(scope="module")
def sampled_setup():
    spec = geo.SpectrumSet.box([0.25])
    e_set = symmetrize(generate_jittered_grid(0.5, 0.0, [[-20.0, 20.0]], seed=0))
    g0 = tfm.gaussian_window(step=1.0 / 12.0)
    omega = tfm.UniformGrid.symmetric(3.0, 0.125)
    return spec, e_set, g0, omega


class TestSampledStftBound:

    def test_offset_sum_for_integers(self):
        e_set = generate_jittered_grid(1.0, 0.0, [[-20.0, 20.0]], seed=0)
        c = tfm.gaussian_offset_sup(e_set)
        # oracle: the lattice sum peaks on the lattice itself
        direct = 1.0 + 2 * np.exp(-1.0) + 2 * np.exp(-4.0) + 2 * np.exp(-9.0)
        assert c == pytest.approx(direct, abs=1e-4)
        assert c == pytest.approx(1.7726, abs=1e-3)

    def test_energy_bounded_by_formula(self, sampled_setup):
        spec, e_set, g0, omega = sampled_setup
        for seed in range(3):
            f = spc.random_pw_signal(spec, 128, seed)
            chk = tfm.pw_stft_frame_check(f, g0, e_set, omega)
            assert 0 < chk.lower_ratio
            assert chk.upper_ratio <= 1.0

    def test_zero_signal(self, sampled_setup):
        spec, e_set, g0, omega = sampled_setup
        grid = geo.build_grid(spec, 64)
        f = spc.BandlimitedSignal(grid=grid, coeffs=np.zeros(grid.size, dtype=complex))
        chk = tfm.pw_stft_frame_check(f, g0, e_set, omega)
        assert chk.energy == 0.0

    def test_asymmetric_set_rejected(self, sampled_setup):
        spec, _, g0, omega = sampled_setup
        bad = generate_jittered_grid(0.5, 0.0, [[-5.0, 7.0]], seed=0)
        f = spc.random_pw_signal(spec, 64, 0)
        with pytest.raises(ValueError, match="symmetric"):
            tfm.pw_stft_frame_check(f, g0, bad, omega)


@pytest.fixture(scope="module")
def gabor_setup():
    step = 0.1
    grid = tfm.UniformGrid.symmetric(8.0, step)
    g0 = tfm.gaussian_window(step=step)
    t = grid.nodes
    f = (np.exp(-np.pi * (t - 0.3) ** 2) * np.exp(2j * np.pi * 0.2 * t)
         + 0.5 * np.exp(-np.pi * (t + 0.5) ** 2)).astype(complex)
    q = tfm.reference_test_subspace(grid, 3.0, 1.5)
    return grid, g0, f, q


class TestGabor:

    def test_real_gaussian_atoms_match_complex_bitwise(self, gabor_setup):
        grid, g0, _, _ = gabor_setup
        samples = tfm.phase_lattice(0.5, 0.5, 5.0, 3.0, jitter=0.1, seed=3)
        s, sigma = samples.points.T
        shifts = g0.at(grid.nodes[:, None] - s[None, :])
        assert shifts.dtype == float
        old = spc.exp_table(sigma, grid.nodes).T * (shifts + 0j)
        assert tfm._atom_matrix(grid, g0, samples).tobytes() == old.tobytes()

    def test_empty_sample_set_gives_zero_operator(self, gabor_setup):
        grid, g0, f, _ = gabor_setup
        empty = SamplingSet(2, np.empty((0, 2)), [[0.0, 0.0], [0.0, 0.0]])
        out = gabor_frame_operator(f, grid, g0, empty)
        assert not np.any(out)

    def test_single_atom_is_rank_one(self, gabor_setup):
        grid, g0, f, _ = gabor_setup
        p = SamplingSet(2, [[0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]])
        out = gabor_frame_operator(f, grid, g0, p)
        coeff = np.sum(f * np.conj(g0.values)) * grid.step
        assert np.allclose(out, coeff * g0.values)

    def test_hermitian(self, gabor_setup):
        grid, g0, _, _ = gabor_setup
        p = tfm.phase_lattice(0.5, 0.5, 4.0, 2.0)
        rng = np.random.default_rng(1)
        u = rng.standard_normal(grid.count) + 1j * rng.standard_normal(grid.count)
        w = rng.standard_normal(grid.count) + 1j * rng.standard_normal(grid.count)
        lhs = np.vdot(w, gabor_frame_operator(u, grid, g0, p))
        rhs = np.vdot(gabor_frame_operator(w, grid, g0, p), u)
        assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_positive_semidefinite(self, gabor_setup):
        grid, g0, _, _ = gabor_setup
        p = tfm.phase_lattice(0.5, 0.5, 4.0, 2.0)
        rng = np.random.default_rng(2)
        for _ in range(50):
            u = rng.standard_normal(grid.count) + 1j * rng.standard_normal(grid.count)
            assert np.vdot(u, gabor_frame_operator(u, grid, g0, p)).real >= -1e-12

    def test_coefficients_match_transform(self, gabor_setup):
        grid, g0, f, _ = gabor_setup
        p = tfm.phase_lattice(0.5, 0.5, 3.0, 1.5)
        coeffs = gabor_coefficients(f, grid, g0, p)
        direct = stft_at(f, grid, g0, p.points)
        assert np.max(np.abs(coeffs - direct)) <= 1e-12

    def test_lattice_reconstruction(self, gabor_setup):
        grid, g0, f, q = gabor_setup
        p = tfm.phase_lattice(0.5, 0.5, 5.0, 3.0)
        res = tfm.gabor_reconstruct(f, grid, g0, p, test_subspace=q)
        assert res.error <= 1e-4

    def test_jittered_reconstruction(self, gabor_setup):
        grid, g0, f, q = gabor_setup
        p = tfm.phase_lattice(0.5, 0.5, 5.0, 3.0, jitter=0.1, seed=3)
        assert pdist(p.points).min() > 0.2   # separated
        res = tfm.gabor_reconstruct(f, grid, g0, p, test_subspace=q)
        assert res.error <= 1e-3

    def test_zero_signal_exact(self, gabor_setup):
        grid, g0, _, q = gabor_setup
        p = tfm.phase_lattice(0.5, 0.5, 5.0, 3.0)
        res = tfm.gabor_reconstruct(np.zeros(grid.count, dtype=complex), grid, g0, p,
                                    test_subspace=q)
        assert res.error == 0.0 and res.iterations == 0

    def test_iteration_cap_is_reported(self, gabor_setup):
        grid, g0, f, q = gabor_setup
        p = tfm.phase_lattice(0.5, 0.5, 5.0, 3.0)
        capped = tfm.gabor_reconstruct(f, grid, g0, p, test_subspace=q, max_iter=3)
        assert capped.converged is False and capped.iterations == 3
        assert len(capped.history) == 3
        full = tfm.gabor_reconstruct(f, grid, g0, p, test_subspace=q)
        assert full.converged is True and len(full.history) == full.iterations

    def test_empty_sample_set_is_not_a_frame(self, gabor_setup):
        grid, g0, f, q = gabor_setup
        empty = SamplingSet(2, np.empty((0, 2)), [[0.0, 0.0], [0.0, 0.0]])
        assert tfm.gabor_frame_condition(grid, g0, empty, q) == np.inf
        with pytest.raises(NotAFrameError):
            tfm.gabor_reconstruct(f, grid, g0, empty, test_subspace=q)

    def test_sparse_lattice_not_a_frame(self, gabor_setup):
        grid, g0, f, q = gabor_setup
        p = tfm.phase_lattice(1.5, 1.5, 5.0, 3.0)
        assert tfm.gabor_frame_condition(grid, g0, p, q) > 1e6
        with pytest.raises(NotAFrameError):
            tfm.gabor_reconstruct(f, grid, g0, p, test_subspace=q)

    def test_same_nodes_work_across_windows(self, gabor_setup):
        # consistency probe: one phase-space node set serves several windows
        grid, g0, f, q = gabor_setup
        p = tfm.phase_lattice(0.5, 0.5, 5.0, 3.0)
        res_g0 = tfm.gabor_reconstruct(f, grid, g0, p, test_subspace=q)
        wide = window_from_samples(grid, np.exp(-0.5 * np.pi * grid.nodes**2))
        res_wide = tfm.gabor_reconstruct(f, grid, wide, p, test_subspace=q)
        assert res_g0.error <= 1e-3 and res_wide.error <= 1e-3


class TestSupportRecipe:
    def test_pair_transform_supported_in_box(self):
        # window bandlimited to [-omega, omega], signal supported in [-T, T]:
        # the 2-d transform of V_g f must vanish outside the product box
        omega_max, t_supp = 1.0, 2.0
        grid = tfm.UniformGrid.symmetric(8.0, 0.125)
        f, g = bandlimited_pair(omega_max, t_supp, grid, seed=0)
        tf = tfm.TimeFrequencyGrid(time=tfm.UniformGrid.symmetric(6.0, 0.25),
                                   freq=tfm.UniformGrid.symmetric(3.0, 0.25))
        v = tfm.stft(f, grid, g, tf)
        zeta = np.array([1.4, 2.0, -1.7])     # outside [-omega, omega]
        z_in = np.array([0.5, -1.0])
        ker_x = np.exp(-2j * np.pi * np.outer(zeta, tf.time.nodes))
        ker_w = np.exp(-2j * np.pi * np.outer(tf.freq.nodes, z_in))
        outside = ker_x @ v @ ker_w * (tf.time.step * tf.freq.step)
        inside_ref = np.exp(-2j * np.pi * np.outer(np.array([0.2]), tf.time.nodes)) @ v \
            @ ker_w * (tf.time.step * tf.freq.step)
        # floor set by time-truncation of the slowly decaying bandlimited window
        assert np.max(np.abs(outside)) <= 1e-3 * np.max(np.abs(inside_ref))

    def test_signal_supported_in_time(self):
        grid = tfm.UniformGrid.symmetric(8.0, 0.125)
        f, _ = bandlimited_pair(1.0, 2.0, grid, seed=1)
        assert np.max(np.abs(f[np.abs(grid.nodes) >= 2.0])) == 0.0
        assert np.allclose(f, f[::-1])        # even
