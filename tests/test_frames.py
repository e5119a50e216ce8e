import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from nusample import balayage as bal
from nusample import frames
from nusample import geometry as geo
from nusample import spectral as spc
from nusample import timefreq as tfm
from nusample.sampling import SamplingSet, generate_jittered_grid, symmetrize

UNIT_BAND = geo.SpectrumSet.box([0.5])
QUARTER_BAND = geo.SpectrumSet.box([0.25])


def uniform_set(delta, half_window, seed=0):
    return generate_jittered_grid(delta, 0.0, [[-half_window, half_window]], seed=seed)


def frame_operator_apply(samples, grid):
    """Synthesis: coefficients G_k = sum_x v_x exp(-2 pi i x . g_k).

    Composing with :func:`frames.analysis` yields the discrete frame operator;
    the two maps are adjoint with respect to the weighted spectral inner
    product and the plain sample-space dot product.
    """
    coeffs = spc.exp_table(samples.sampling_set.points, grid.nodes, sign=-1).T @ samples.values
    return spc.BandlimitedSignal(grid=grid, coeffs=coeffs)


class TestAnalysisSynthesis:
    def test_flat_spectrum_samples_spike_at_zero(self):
        grid = geo.build_grid(UNIT_BAND, 512)
        f = spc.BandlimitedSignal(grid=grid, coeffs=np.ones(grid.size, dtype=complex))
        e_set = uniform_set(1.0, 10.0)
        v = frames.analysis(f, e_set).values
        at_zero = v[np.argmin(np.abs(e_set.points[:, 0]))]
        assert at_zero == pytest.approx(1.0)
        others = np.abs(v[np.abs(e_set.points[:, 0]) > 0.5])
        assert np.max(others) <= 1e-10

    def test_zero_signal(self):
        grid = geo.build_grid(UNIT_BAND, 64)
        f = spc.BandlimitedSignal(grid=grid, coeffs=np.zeros(grid.size, dtype=complex))
        assert not np.any(frames.analysis(f, uniform_set(1.0, 5.0)).values)

    def test_linearity(self):
        grid = geo.build_grid(UNIT_BAND, 64)
        e_set = uniform_set(0.5, 5.0)
        f = spc.random_coeff_signal(grid, 0)
        g = spc.random_coeff_signal(grid, 1)
        a, b = 0.3 - 1.1j, 2.0 + 0.4j
        combo = spc.BandlimitedSignal(grid=grid, coeffs=a * f.coeffs + b * g.coeffs)
        lhs = frames.analysis(combo, e_set).values
        rhs = a * frames.analysis(f, e_set).values + b * frames.analysis(g, e_set).values
        assert np.allclose(lhs, rhs, atol=1e-12)

    def test_unit_sample_synthesizes_flat_spectrum(self):
        grid = geo.build_grid(UNIT_BAND, 64)
        e_set = SamplingSet(dim=1, points=[0.0, 1.0], window=[[-2, 2]])
        v = frames.SampleVector(sampling_set=e_set, values=np.array([1.0, 0.0], dtype=complex))
        g = frame_operator_apply(v, grid)
        assert np.allclose(g.coeffs, 1.0)

    def test_adjoint_identity(self):
        grid = geo.build_grid(UNIT_BAND, 96)
        e_set = generate_jittered_grid(0.5, 0.1, [[-6, 6]], seed=3)
        rng = np.random.default_rng(4)
        f = spc.random_coeff_signal(grid, 7)
        v = frames.SampleVector(
            sampling_set=e_set,
            values=rng.standard_normal(e_set.size) + 1j * rng.standard_normal(e_set.size))
        lhs = np.sum(frames.analysis(f, e_set).values * np.conj(v.values))
        g = frame_operator_apply(v, grid)
        rhs = np.sum(grid.weights * f.coeffs * np.conj(g.coeffs))   # weighted inner
        assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_zero_samples_synthesize_zero(self):
        grid = geo.build_grid(UNIT_BAND, 64)
        e_set = uniform_set(1.0, 3.0)
        v = frames.SampleVector(sampling_set=e_set,
                                values=np.zeros(e_set.size, dtype=complex))
        assert not np.any(frame_operator_apply(v, grid).coeffs)


@st.composite
def sets_with_added_points(draw):
    """A jittered 1-d set on [-20, 20], and the same set with 1 to 5 points
    added inside its window."""
    delta = draw(st.floats(0.4, 0.95))
    jitter = draw(st.floats(0.0, 0.49)) * delta
    base = generate_jittered_grid(delta, jitter, [[-20.0, 20.0]],
                                  seed=draw(st.integers(0, 2**31 - 1)))
    lo, hi = base.window[0]
    added = np.array(draw(st.lists(st.floats(lo, hi), min_size=1, max_size=5, unique=True)))
    added = added[~np.isin(added, base.points[:, 0])]   # a point may be sampled only once
    richer = SamplingSet(dim=1, points=np.vstack([base.points, added[:, None]]),
                         window=base.window)
    return base, richer


@pytest.fixture(scope="module")
def grid512():
    return geo.build_grid(UNIT_BAND, 512)


@pytest.fixture(scope="module")
def subspace(grid512):
    return frames.interior_taper_subspace(grid512, [[-40.0, 40.0]], margin=10.0)


def dense_svd_bounds(sampling_set, grid, subspace=None):
    """(lower, upper) frame bounds as the extreme squared singular values of
    the dense weighted analysis matrix, compressed to the subspace when one
    is given; lower is 0 when there are fewer samples than columns."""
    u = spc._exp_matrix(sampling_set.points, grid.nodes) * np.sqrt(grid.weights)
    a = u if subspace is None else u @ subspace
    svals = np.linalg.svd(a, compute_uv=False)
    return (svals[-1] ** 2 if a.shape[0] >= a.shape[1] else 0.0), svals[0] ** 2


# (spectrum, nodes per axis, delta, window half-width, subspace margin or None)
ORACLE_CASES = [
    (UNIT_BAND, 64, 0.5, 30.0, None),    # full grid, 121 samples over 64 nodes
    (UNIT_BAND, 64, 0.5, 10.0, None),    # full grid, 41 samples under 64 nodes
    (UNIT_BAND, 64, 1.0, 31.5, None),    # full grid, 63 samples under 64 nodes
    (UNIT_BAND, 64, 0.5, 30.0, 5.0),     # subspace of rank 51, 121 samples
    (UNIT_BAND, 64, 0.9, 30.0, 5.0),     # subspace, 67 samples
    (UNIT_BAND, 64, 2.0, 30.0, 5.0),     # subspace, 31 samples under rank 50
    (geo.SpectrumSet.ball(0.5), 20, 0.7, 9.0, None),   # 2-d, 625 samples over 316 nodes
    (geo.SpectrumSet.ball(0.5), 20, 1.2, 9.0, None),   # 2-d, 225 samples under 316 nodes
    (geo.SpectrumSet.ball(0.5), 20, 0.7, 9.0, 3.0),    # 2-d subspace of rank 184
    (geo.SpectrumSet.ball(0.5), 20, 1.0, 9.0, 3.0),
]


# (spectrum, nodes per axis, jitter, window) of unit-step sets with no more
# samples than nodes on a full box grid
FULL_BOX_CASES = [
    (UNIT_BAND, 64, 0.0, [[-32.0, 31.0]]),      # 64 samples on 64 nodes
    (UNIT_BAND, 64, 0.3, [[-32.0, 31.0]]),
    (UNIT_BAND, 1000, 0.0, [[-40.0, 40.0]]),    # 1000 = 32 * 32 - 24: a tail of 24 cells
    (UNIT_BAND, 1000, 0.3, [[-40.0, 40.0]]),
    (UNIT_BAND, 4096, 0.0, [[-40.0, 40.0]]),
    (UNIT_BAND, 4096, 0.3, [[-40.0, 40.0]]),
    (geo.SpectrumSet.box([0.5, 0.5]), 24, 0.2, [[-10.0, 10.0]] * 2),   # 441 on 576 nodes
]


class TestFrameBounds:
    @pytest.mark.parametrize("case", ORACLE_CASES)
    def test_matches_dense_svd_oracle(self, case):
        spec, nodes, delta, half, margin = case
        grid = geo.build_grid(spec, nodes)
        e_set = generate_jittered_grid(delta, 0.1 * delta, [[-half, half]] * spec.dim, seed=1)
        q = None if margin is None else frames.interior_taper_subspace(
            grid, e_set.window, margin=margin)
        rep = frames.frame_bounds(e_set, grid, subspace=q)
        lower, upper = dense_svd_bounds(e_set, grid, q)
        assert rep.upper == pytest.approx(upper, rel=1e-10, abs=0.0)
        if lower > 1e-12 * max(upper, 1.0):
            assert rep.lower == pytest.approx(lower, rel=1e-10, abs=0.0)
        else:
            assert rep.lower == 0.0

    def test_gram_lower_error_is_eps_times_upper(self):
        # an ill-conditioned full-grid frame (upper/lower about 7e6): the Gram's
        # error on the least eigenvalue is absolute, about eps * upper
        grid = geo.build_grid(UNIT_BAND, 64)
        e_set = generate_jittered_grid(0.8, 0.3, [[-30.0, 30.0]], seed=1)
        rep = frames.frame_bounds(e_set, grid)
        lower, upper = dense_svd_bounds(e_set, grid)
        assert upper / lower > 1e6
        assert abs(rep.lower - lower) <= 1e-13 * upper

    def test_nyquist_tight(self, grid512, subspace):
        rep = frames.frame_bounds(uniform_set(1.0, 40.0), grid512, subspace=subspace)
        assert 0.95 <= rep.lower <= rep.upper <= 1.05

    @pytest.mark.parametrize("shift", [0.0, 0.3, 3.0])
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_bounds_scale_with_density(self, grid512, k, shift):
        # the lattice Z / k stacks k shifted Nyquist frames: both bounds read k
        window = [[-40.0 + shift, 40.0 + shift]]
        q = frames.interior_taper_subspace(grid512, window, margin=10.0)
        e_set = generate_jittered_grid(1.0 / k, 0.0, window, seed=0)
        rep = frames.frame_bounds(e_set, grid512, subspace=q)
        assert 0.99 <= rep.lower / k <= rep.upper / k <= 1.0 + 1e-12

    def test_undersampling_kills_lower_bound(self, grid512, subspace):
        rep = frames.frame_bounds(uniform_set(2.0, 40.0), grid512, subspace=subspace)
        assert rep.lower <= 1e-6
        assert np.isinf(rep.condition)

    def test_full_space_rank_deficiency_reported_as_zero(self, grid512):
        rep = frames.frame_bounds(uniform_set(1.0, 40.0), grid512)
        assert rep.lower == 0.0 and rep.upper > 0.0

    def test_empty_sampling_set_rejected(self, grid512):
        empty = SamplingSet(dim=1, points=np.empty((0, 1)), window=[[-1.0, 1.0]])
        with pytest.raises(ValueError, match="empty sampling set"):
            frames.frame_bounds(empty, grid512)

    def test_operator_matrix_hermitian_psd(self):
        grid = geo.build_grid(UNIT_BAND, 48)
        e_set = generate_jittered_grid(0.5, 0.1, [[-8, 8]], seed=0)
        # assemble the weighted operator matrix column by column through the ops
        cols = []
        for k in range(grid.size):
            unit = np.zeros(grid.size, dtype=complex)
            unit[k] = 1.0
            f = spc.BandlimitedSignal(grid=grid, coeffs=unit)
            s_f = frame_operator_apply(frames.analysis(f, e_set), grid)
            cols.append(s_f.coeffs)
        m = grid.weights[:, None] * np.stack(cols, axis=1)   # matrix of S in the weighted inner
        asym = np.max(np.abs(m - m.conj().T)) / np.max(np.abs(m))
        assert asym <= 1e-12
        eig = np.linalg.eigvalsh(m)
        assert eig.min() >= -1e-10 * eig.max()

    def test_rayleigh_sandwich(self, grid512, subspace):
        e_set = uniform_set(0.5, 40.0)
        rep = frames.frame_bounds(e_set, grid512, subspace=subspace)
        for s in range(50):
            f = frames.random_subspace_signal(grid512, subspace, seed=s)
            energy = np.sum(np.abs(frames.analysis(f, e_set).values) ** 2)
            assert rep.lower * (1 - 1e-9) <= energy <= rep.upper * (1 + 1e-9)

    def test_subspace_signal_depends_on_the_span_only(self, grid512, subspace):
        # tied singular values leave the basis free up to a unitary within the
        # span, so the seeded signal must not depend on which basis is returned
        r = subspace.shape[1]
        rng = np.random.default_rng(3)
        unitary, _ = np.linalg.qr(rng.standard_normal((r, r))
                                  + 1j * rng.standard_normal((r, r)))
        for s in range(3):
            f = frames.random_subspace_signal(grid512, subspace, seed=s)
            g = frames.random_subspace_signal(grid512, subspace @ unitary, seed=s)
            assert np.max(np.abs(f.coeffs - g.coeffs)) <= 1e-12 * np.max(np.abs(f.coeffs))

    def test_monotone_in_sampling_points(self, grid512, subspace):
        base = uniform_set(1.0, 40.0)
        richer = SamplingSet(dim=1,
                             points=np.vstack([base.points, [[0.25], [10.3], [-17.8]]]),
                             window=base.window)
        rep_a = frames.frame_bounds(base, grid512, subspace=subspace)
        rep_b = frames.frame_bounds(richer, grid512, subspace=subspace)
        assert rep_b.lower >= rep_a.lower - 1e-12
        assert rep_b.upper >= rep_a.upper - 1e-12

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(sets_with_added_points())
    def test_adding_points_never_lowers_the_bounds(self, sets):
        # the frame operator only gains positive semidefinite terms
        base, richer = sets
        grid = geo.build_grid(UNIT_BAND, 128)
        q = frames.interior_taper_subspace(grid, base.window, margin=5.0)
        upper = [frames.frame_bounds(s, grid).upper for s in (base, richer)]
        lower = [frames.frame_bounds(s, grid, subspace=q).lower for s in (base, richer)]
        assert upper[1] >= upper[0] * (1 - 1e-12)
        assert lower[1] >= lower[0] * (1 - 1e-12)

    def test_plancherel_polya_sampled_energy(self, grid512):
        e_set = generate_jittered_grid(0.7, 0.1, [[-30, 30]], seed=2)
        for j in (1, 2, 3):
            e_j = SamplingSet(dim=1, points=e_set.points / j, window=e_set.window / j)
            bound = frames.frame_bounds(e_j, grid512).upper
            assert np.isfinite(bound)
            for s in range(5):
                f = spc.random_coeff_signal(grid512, 10 * j + s)
                sampled = np.sum(np.abs(
                    np.atleast_1d(spc.evaluate(f, e_set.points / j))) ** 2)
                assert sampled <= bound * f.norm_sq() * (1 + 1e-9)

    def test_subspace_bounds_past_4096_nodes(self):
        # compressing to a subspace forms the samples x nodes table, and no
        # node cap stops it: 5,000 nodes give the bounds of 4,096
        e_set = uniform_set(1.0, 5.0)
        reports = []
        for nodes in (4096, 5000):
            grid = geo.build_grid(UNIT_BAND, nodes)
            q = frames.interior_taper_subspace(grid, e_set.window, margin=2.0)
            reports.append(frames.frame_bounds(e_set, grid, subspace=q))
        small, large = reports
        assert large.node_count == 5000 and large.method == small.method
        assert large.lower == pytest.approx(small.lower, rel=0.0, abs=1e-9)
        assert large.upper == pytest.approx(small.upper, rel=0.0, abs=1e-9)

    @pytest.mark.parametrize("subspace", [False, True])
    def test_table_past_the_entry_limit_raises(self, subspace, monkeypatch):
        # the one size rule is spectral's, on the Gram route and the table route
        grid = geo.build_grid(UNIT_BAND, 64)
        e_set = uniform_set(1.0, 5.0)   # 11 samples
        q = frames.interior_taper_subspace(grid, e_set.window, margin=2.0) if subspace else None
        monkeypatch.setattr(spc, "_MAX_ENTRIES", 11 * (64 if subspace else 11) - 1)
        with pytest.raises(ValueError, match="exceeds the limit"):
            frames.frame_bounds(e_set, grid, subspace=q)

    @pytest.mark.parametrize("case", FULL_BOX_CASES)
    def test_full_box_matches_dense_gram_oracle(self, case, monkeypatch):
        spec, nodes, jitter, window = case
        grid = geo.build_grid(spec, nodes)
        e_set = generate_jittered_grid(1.0, jitter, window, seed=1)
        assert e_set.size <= grid.size
        u = spc._exp_matrix(e_set.points, grid.nodes) * np.sqrt(grid.weights)
        oracle = np.linalg.eigvalsh(u @ u.conj().T)
        monkeypatch.setattr(frames, "exp_table", None)   # no samples x nodes table
        rep = frames.frame_bounds(e_set, grid)
        assert rep.method == "dense-gram"
        assert rep.upper == pytest.approx(oracle[-1], rel=1e-13, abs=0.0)
        if e_set.size == grid.size:
            assert rep.lower == pytest.approx(oracle[0], rel=1e-13, abs=0.0)
        else:
            assert rep.lower == 0.0

    def test_full_box_past_the_old_cap(self):
        # unit-spaced samples are an orthonormal system for the unit band
        rep = frames.frame_bounds(uniform_set(1.0, 40.0), geo.build_grid(UNIT_BAND, 16384))
        assert (rep.node_count, rep.sample_count) == (16384, 81)
        assert abs(rep.upper - 1.0) <= 1e-12

    def test_two_dimensional_bounds(self):
        # node count per axis (40) must exceed the window extent in spacing
        # units (25) or samples wrap onto duplicate rows of the period
        spec = geo.SpectrumSet.box([0.5, 0.5])
        grid = geo.build_grid(spec, 40)
        window = [[-12.0, 12.0], [-12.0, 12.0]]
        q = frames.interior_taper_subspace(grid, window, margin=4.0)
        nyq = frames.frame_bounds(
            generate_jittered_grid(1.0, 0.0, window, seed=0), grid, subspace=q)
        assert nyq.upper == pytest.approx(1.0, abs=1e-6)
        assert nyq.lower >= 0.5
        sparse = frames.frame_bounds(
            generate_jittered_grid(2.0, 0.0, window, seed=0), grid, subspace=q)
        assert sparse.lower == 0.0


def spanned_basis(module, build, *args, **kwargs):
    """Run ``build`` and capture the (basis, cutoff) it hands to
    ``_orthonormal_span`` through ``module``, with the basis it returns."""
    seen = []
    real = frames._orthonormal_span

    def capture(basis, cutoff):
        seen.append((basis, cutoff))
        return real(basis, cutoff)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(module, "_orthonormal_span", capture)
        q = build(*args, **kwargs)
    (basis, cutoff), = seen
    return basis, cutoff, q


def svd_span(basis, cutoff):
    """The thin-SVD definition: left singular vectors whose singular value
    exceeds ``cutoff`` times the largest."""
    u, svals, _ = np.linalg.svd(basis, full_matrices=False)
    return u[:, :int(np.sum(svals > cutoff * svals[0]))]


def taper_set(grid, window, margin):
    """The literal complex spanning set of :func:`frames.interior_taper_subspace`:
    sqrt(w) taper(g) exp(-2 pi i x0 . g) for every shift x0 of its rule."""
    spec = grid.spectrum
    steps = 0.8 / (2.0 * spec.bounding_box()[:, 1])
    axes = [np.arange(lo + margin, hi - margin + st / 2.0, st)
            for (lo, hi), st in zip(np.reshape(window, (spec.dim, 2)), steps)]
    shifts = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=1)
    taper = frames._smooth_step((1.0 - spec.gauge(grid.nodes)) / 0.6)
    return spc._exp_matrix(-shifts, grid.nodes).T * (np.sqrt(grid.weights) * taper)[:, None]


# (spectrum, nodes per axis, sampling step, window per axis, taper margin); the
# last two windows are off centre, with 51 (odd) and 16 x 16 (even) shifts
TAPER_CASES = [
    (UNIT_BAND, 64, 0.5, (-30.0, 30.0), 5.0),
    (UNIT_BAND, 512, 1.0, (-40.0, 40.0), 10.0),
    (UNIT_BAND, 4096, 1.0, (-40.0, 40.0), 10.0),
    (geo.SpectrumSet.ball(0.5), 20, 0.7, (-9.0, 9.0), 3.0),
    (geo.SpectrumSet.box([0.5, 0.5]), 24, 1.0, (-10.0, 10.0), 4.0),
    (UNIT_BAND, 512, 1.0, (-13.0, 47.0), 10.0),
    (geo.SpectrumSet.box([0.5, 0.5]), 24, 1.0, (-6.0, 14.0), 4.0),
]


class TestOrthonormalSpan:
    """The Gram-eigenvector basis of a real cosine-sine spanning set, with one
    Cholesky pass, against the thin SVD of the literal complex set:
    orthonormal to rounding, the SVD's rank and span, and the same frame
    bounds and Gabor condition."""

    @staticmethod
    def check_against_svd(spanning, cutoff, q):
        assert q.shape[0] == spanning.shape[0]
        assert np.max(np.abs(q.conj().T @ q - np.eye(q.shape[1]))) <= 1e-13
        oracle = svd_span(spanning, cutoff)
        assert q.shape[1] == oracle.shape[1]
        assert np.linalg.norm(oracle @ (oracle.conj().T @ q) - q, 2) <= 1e-8
        return oracle

    @pytest.mark.parametrize("case", TAPER_CASES)
    def test_taper_subspace_matches_svd(self, case):
        spec, nodes, delta, side, margin = case
        grid = geo.build_grid(spec, nodes)
        e_set = generate_jittered_grid(delta, 0.1 * delta, [side] * spec.dim, seed=1)
        _, cutoff, q = spanned_basis(frames, frames.interior_taper_subspace,
                                     grid, e_set.window, margin=margin)
        assert cutoff == 1e-3
        oracle = self.check_against_svd(taper_set(grid, e_set.window, margin), cutoff, q)
        got, expect = (frames.frame_bounds(e_set, grid, subspace=s) for s in (q, oracle))
        assert got.upper == pytest.approx(expect.upper, rel=1e-10, abs=0.0)
        assert got.lower == pytest.approx(expect.lower, rel=1e-10, abs=0.0)

    @pytest.mark.parametrize("case", TAPER_CASES)
    def test_taper_real_basis_keeps_complex_singular_values(self, case):
        spec, nodes, _, side, margin = case
        grid = geo.build_grid(spec, nodes)
        window = [side] * spec.dim
        basis, _, _ = spanned_basis(frames, frames.interior_taper_subspace,
                                    grid, window, margin=margin)
        assert np.isrealobj(basis)
        got, expect = (np.linalg.svd(b, compute_uv=False)
                       for b in (basis, taper_set(grid, window, margin)))
        assert np.max(np.abs(got - expect)) <= 1e-12 * expect[0]

    @pytest.mark.parametrize("step", [0.1, 0.025])
    def test_gabor_reference_subspace_matches_svd(self, step):
        grid = tfm.UniformGrid.symmetric(8.0, step)
        basis, cutoff, q = spanned_basis(tfm, tfm.reference_test_subspace, grid, 3.0, 1.5)
        assert cutoff == 1e-2 and np.isrealobj(basis)
        g0 = tfm.gaussian_window(step=step)
        atoms = tfm._atom_matrix(grid, g0, tfm.phase_lattice(0.5, 0.5, 3.0, 1.5))
        oracle = self.check_against_svd(atoms * np.sqrt(step), cutoff, q)
        for samples in (tfm.phase_lattice(0.5, 0.5, 5.0, 3.0),
                        tfm.phase_lattice(0.5, 0.5, 5.0, 3.0, jitter=0.1, seed=3)):
            got, expect = (tfm.gabor_frame_condition(grid, g0, samples, s) for s in (q, oracle))
            assert got == pytest.approx(expect, rel=1e-10, abs=0.0)


@st.composite
def sample_side_cases(draw):
    """A 1-d box or 2-d ball grid from build_grid and the parameters of a
    jittered set on a window so short that it holds fewer samples than the
    grid has nodes; the weighted table is then often rank deficient."""
    kind = draw(st.sampled_from(["box1", "ball"]))
    n = draw(st.integers(8, 96)) if kind == "box1" else draw(st.integers(4, 14))
    delta = draw(st.floats(0.3, 1.0))
    jitter = draw(st.floats(0.0, 0.45)) * delta
    half = draw(st.floats(0.05, 0.4)) * n * delta
    return kind, n, delta, jitter, half, draw(st.integers(0, 2**32 - 1))


class TestReconstruct:
    def test_self_consistency_on_jittered_sets(self):
        for seed in range(3):
            e_set = generate_jittered_grid(0.4, 0.1, [[-10.0, 10.0]], seed=seed)
            truth = spc.random_pw_signal(UNIT_BAND, 16, seed)
            res = frames.reconstruct(frames.analysis(truth, e_set), truth.grid,
                                     tol=1e-9, max_iter=200)
            err = np.sqrt(np.sum(truth.grid.weights *
                                 np.abs(res.signal.coeffs - truth.coeffs) ** 2))
            assert res.converged and err / truth.norm() <= 1e-5

    def test_zero_samples_short_circuit(self):
        grid = geo.build_grid(UNIT_BAND, 32)
        e_set = uniform_set(1.0, 5.0)
        v = frames.SampleVector(sampling_set=e_set,
                                values=np.zeros(e_set.size, dtype=complex))
        res = frames.reconstruct(v, grid)
        assert res.iterations == 0 and res.converged
        assert not np.any(res.signal.coeffs)

    def test_unconverged_flagged(self):
        e_set = generate_jittered_grid(0.4, 0.1, [[-10.0, 10.0]], seed=0)
        truth = spc.random_pw_signal(UNIT_BAND, 16, 0)
        res = frames.reconstruct(frames.analysis(truth, e_set), truth.grid,
                                 tol=1e-14, max_iter=2)
        assert not res.converged

    def test_not_a_frame_raises(self):
        # spacing-4 samples repeat modulo the 32-node grid period, so the
        # sampled-sinc Gram is singular and a random target is inconsistent
        grid = geo.build_grid(UNIT_BAND, 32)
        e_set = uniform_set(4.0, 40.0)
        rng = np.random.default_rng(0)
        v = frames.SampleVector(
            sampling_set=e_set,
            values=rng.standard_normal(e_set.size) + 1j * rng.standard_normal(e_set.size))
        with pytest.raises(frames.NotAFrameError):
            frames.reconstruct(v, grid, tol=1e-12, max_iter=50)

    def test_history_tracks_iterations(self):
        e_set = generate_jittered_grid(0.4, 0.1, [[-10.0, 10.0]], seed=1)
        truth = spc.random_pw_signal(UNIT_BAND, 16, 1)
        res = frames.reconstruct(frames.analysis(truth, e_set), truth.grid)
        assert len(res.history) == res.iterations
        assert res.history[-1] == pytest.approx(res.residual)

    def test_two_dimensional_spectral_side(self):
        spec = geo.SpectrumSet.ball(0.5)
        e_set = generate_jittered_grid(0.5, 0.1, [[-10.0, 10.0], [-10.0, 10.0]], seed=0)
        truth = spc.random_pw_signal(spec, 16, 0)
        assert e_set.size >= truth.grid.size
        res = frames.reconstruct(frames.analysis(truth, e_set), truth.grid, tol=1e-9)
        err = np.sqrt(np.sum(truth.grid.weights *
                             np.abs(res.signal.coeffs - truth.coeffs) ** 2))
        assert res.method == "toeplitz-fft"
        assert res.converged and err / truth.norm() <= 1e-5

    def test_off_lattice_grid_takes_direct_path(self):
        rng = np.random.default_rng(0)
        nodes = np.sort(rng.uniform(-0.5, 0.5, 24)).reshape(-1, 1)
        grid = geo.SpectralGrid(nodes=nodes, weights=np.full(24, 1.0 / 24), spectrum=UNIT_BAND)
        assert spc._lattice_indices(grid.nodes) is None
        truth = spc.random_coeff_signal(grid, 0)
        e_set = generate_jittered_grid(0.4, 0.1, [[-15.0, 15.0]], seed=0)
        res = frames.reconstruct(frames.analysis(truth, e_set), grid, tol=1e-9)
        assert res.method == "direct" and res.converged

    def test_sparse_lattice_subset_takes_direct_path(self):
        # three nodes on a lattice of step 1e-3: the Toeplitz path would embed
        # an 801 x 801 circulant, the dense table is 121 x 3
        nodes = np.array([[0.0, 0.0], [1e-3, 1e-3], [0.4, 0.4]])
        grid = geo.SpectralGrid(nodes=nodes, weights=np.full(3, 1.0 / 3),
                                spectrum=geo.SpectrumSet.ball(1.0))
        assert spc._lattice_indices(grid.nodes) is not None
        e_set = generate_jittered_grid(1.0, 0.1, [[-5.0, 5.0], [-5.0, 5.0]], seed=0)
        assert e_set.size == 121
        samples = frames.analysis(spc.random_coeff_signal(grid, 0), e_set)
        res = frames.reconstruct(samples, grid, tol=1e-9)
        assert res.method == "direct" and res.converged
        assert (res.iterations, res.history, res.rank) == (0, [], 3)
        expect = _pinv_oracle(e_set, grid, samples.values)
        assert np.linalg.norm(res.signal.coeffs - expect) <= 1e-10 * np.linalg.norm(expect)

    def test_sample_side_method(self):
        e_set = generate_jittered_grid(0.9, 0.2, [[-10.0, 10.0]], seed=0)
        truth = spc.random_pw_signal(UNIT_BAND, 128, 0)
        res = frames.reconstruct(frames.analysis(truth, e_set), truth.grid)
        assert res.method == "direct" and res.converged

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(sample_side_cases())
    @example(("box1", 64, 0.4, 0.1, 10.0, 0))   # configs/reconstruct.json at 64 nodes
    def test_sample_side_matches_pinv_oracle(self, case):
        kind, n, delta, jitter, half, seed = case
        spec = UNIT_BAND if kind == "box1" else geo.SpectrumSet.ball(0.5)
        truth = spc.random_pw_signal(spec, n, seed)
        grid = truth.grid
        e_set = generate_jittered_grid(delta, jitter, [[-half, half]] * spec.dim, seed=seed)
        assume(e_set.size < grid.size)
        samples = frames.analysis(truth, e_set)
        res = frames.reconstruct(samples, grid, tol=1e-9)
        assert res.method == "direct" and res.converged and res.iterations == 0
        fit = frames.analysis(res.signal, e_set).values - samples.values
        assert np.linalg.norm(fit) <= 1e-9 * np.linalg.norm(samples.values)
        table = spc._exp_matrix(e_set.points, grid.nodes) * np.sqrt(grid.weights)
        assert res.rank == np.linalg.matrix_rank(table, rtol=1e-10)
        # both SVDs' rounding is amplified by the kept condition number, up to
        # the cutoff's 1e10 on a rank-deficient table (measured: under 23 eps
        # times it over 300 random cases, 1.9e-7 relative on the example)
        svals = np.linalg.svd(table, compute_uv=False)
        bound = max(1e-10, 100 * np.finfo(float).eps * svals[0] / svals[res.rank - 1])
        expect = _pinv_oracle(e_set, grid, samples.values)
        assert np.linalg.norm(res.signal.coeffs - expect) <= bound * np.linalg.norm(expect)


@st.composite
def lattice_cases(draw):
    """A lattice grid (a 1-d box, a 2-d box, ball or polytope from build_grid,
    or a dilation grid) with a jittered set that oversamples it, spread over
    1.25 periods of the discrete model per axis as in the shipped configs."""
    kind = draw(st.sampled_from(["box1", "box2", "ball", "polytope", "dilation"]))
    size = draw(st.floats(0.2, 2.0))
    if kind == "dilation":
        spec = geo.SpectrumSet.box([size])
        sixths = draw(st.integers(1, 6))
        grid = frames.dilation_grid(spec, sixths)
        step = np.array([size / (6 * sixths)])
    else:
        if kind == "box1":
            spec, n = geo.SpectrumSet.box([size]), draw(st.integers(2, 80))
        elif kind == "box2":
            spec = geo.SpectrumSet.box([size, draw(st.floats(0.5, 2.0)) * size])
            n = draw(st.integers(2, 14))
        elif kind == "ball":
            spec, n = geo.SpectrumSet.ball(size), draw(st.integers(3, 14))
        else:
            radii = np.array(draw(st.lists(st.floats(0.6, 1.0), min_size=3, max_size=3)))
            angles = draw(st.floats(0.0, np.pi)) + np.pi / 3.0 * np.arange(3)
            half = size * radii[:, None] * np.stack([np.cos(angles), np.sin(angles)], axis=1)
            spec, n = geo.SpectrumSet.polytope(np.vstack([half, -half])), draw(st.integers(3, 14))
        grid = geo.build_grid(spec, n)
        step = 2.0 * spec.bounding_box()[:, 1] / n
    delta = draw(st.floats(0.4, 0.8)) / (2.0 * spec.bounding_box()[:, 1].max())
    jitter = draw(st.floats(0.0, 0.25)) * delta
    window = np.stack([-0.625 / step, 0.625 / step], axis=1)
    e_set = generate_jittered_grid(delta, jitter, window, seed=draw(st.integers(0, 2**32 - 1)))
    return grid, e_set, draw(st.integers(0, 2**32 - 1))


def _pinv_oracle(e_set, grid, values):
    """Minimal-norm least-squares coefficients through the pseudo-inverse of
    the weighted sampled exponential matrix E sqrt(w), at the direct path's
    cutoff: the oracle for that path."""
    root_w = np.sqrt(grid.weights)
    b = spc._exp_matrix(e_set.points, grid.nodes) * root_w
    return np.linalg.pinv(b, rcond=1e-10) @ values / root_w


def _dense_normal_equations(e_set, grid, values):
    """The frame operator and right-hand side through the sampled exponential
    matrix E: the oracle for the lattice path."""
    e = spc._exp_matrix(e_set.points, grid.nodes)
    return (lambda f: e.conj().T @ (e @ (grid.weights * f))), e.conj().T @ values


class TestToeplitzOperator:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(lattice_cases())
    def test_matches_dense_product(self, case):
        grid, e_set, seed = case
        rng = np.random.default_rng(seed)
        f = rng.standard_normal(grid.size) + 1j * rng.standard_normal(grid.size)
        v = rng.standard_normal(e_set.size) + 1j * rng.standard_normal(e_set.size)
        lattice = spc._lattice_indices(grid.nodes)
        assert lattice is not None
        apply_op, rhs = frames._toeplitz_system(e_set, v, grid.weights, *lattice)
        dense_op, dense_rhs = _dense_normal_equations(e_set, grid, v)
        expect = dense_op(f)
        assert np.linalg.norm(apply_op(f) - expect) <= 1e-10 * np.linalg.norm(expect)
        assert np.linalg.norm(rhs - dense_rhs) <= 1e-10 * np.linalg.norm(dense_rhs)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(lattice_cases())
    def test_reconstruct_matches_dense_oracle(self, case):
        grid, e_set, seed = case
        assert e_set.size >= grid.size
        truth = spc.random_coeff_signal(grid, seed)
        samples = frames.analysis(truth, e_set)
        res = frames.reconstruct(samples, grid, tol=1e-9, max_iter=200)
        # the lattice rule of exp_table: 1-d lattices of 2-3 nodes are built densely
        if spc._lattice_split(e_set.points, grid.nodes, 1)[2] is None:
            assert res.method == "direct" and res.converged and res.iterations == 0
            coeffs = _pinv_oracle(e_set, grid, samples.values)
        else:
            coeffs, it, _, converged, _ = frames._conjugate_gradients(
                *_dense_normal_equations(e_set, grid, samples.values), grid.weights, 1e-9, 200)
            assert res.method == "toeplitz-fft"
            assert (res.iterations, res.converged) == (it, converged)
        assert np.linalg.norm(res.signal.coeffs - coeffs) <= 1e-10 * np.linalg.norm(coeffs)


def _negated_table_system(e_set, values, weights, idx, origin, steps):
    """The 1-d Toeplitz system from factor tables at (-x, 0), the first
    construction: kernel t[m] = sum_x exp(-2 pi i x m step) and right-hand
    side sum_x v_x exp(-2 pi i x (origin + m step)) straight from the
    negated exponentials.  The oracle for the shared-table construction."""
    x = e_set.points[:, 0]
    n = int(idx.max()) + 1
    fa, fb = spc._exp_factors(-x, 0.0, steps[0], n)
    shifted = values * spc.exp_table(x, origin[None, :], sign=-1)[:, 0]
    lead = np.stack([np.ones_like(shifted), shifted], axis=1)
    lead = (lead[:, :, None] * fa[:, None, :]).reshape(x.size, -1)
    kern, rhs = (lead.T @ fb).reshape(2, -1)[:, :n]
    circ = np.zeros(2 * n, dtype=complex)
    circ[-np.arange(n) % (2 * n)] = kern.conj()
    circ[np.arange(n)] = kern
    spectrum = np.fft.fft(circ)
    at = idx[:, 0]

    def apply_op(f):
        u = np.zeros(2 * n, dtype=complex)
        u[at] = weights * f
        return np.fft.ifft(spectrum * np.fft.fft(u))[at]

    return apply_op, rhs[at]


class CountingNumpy:
    """numpy, counting the entries of every ``exp`` argument: the
    exponentials a module evaluates."""

    def __init__(self):
        self.exponentials = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def exp(self, a, *args, **kwargs):
        self.exponentials += np.size(a)
        return np.exp(a, *args, **kwargs)


class TestSharedSampleTables:
    """Analysis and reconstruction on one set and one lattice grid share the
    factor tables exp(2 pi i x (origin + k step)) of the builder."""

    @pytest.fixture
    def spectral_exps(self, monkeypatch):
        counter = CountingNumpy()
        monkeypatch.setattr(spc, "np", counter)
        spc._factor_memo.clear()
        return counter

    def test_analyses_and_reconstruction_build_the_tables_once(self, spectral_exps):
        grid = geo.build_grid(UNIT_BAND, 128)
        e_set = generate_jittered_grid(0.4, 0.1, [[-80.0, 80.0]], seed=3)
        for seed in range(6):
            samples = frames.analysis(spc.random_coeff_signal(grid, seed), e_set)
        # one pair of factor tables
        assert spectral_exps.exponentials == e_set.size * spc._FACTOR_EXPONENTIALS
        before = spectral_exps.exponentials
        res = frames.reconstruct(samples, grid, tol=1e-9)
        assert res.method == "toeplitz-fft" and res.converged
        # the phases exp(-2 pi i x . origin) alone
        assert spectral_exps.exponentials - before == e_set.size
        assert list(spc._factor_memo) == [0]   # a 1-d lattice keeps one pair

    def test_two_dimensional_reconstruction_keeps_the_first_axis(self, spectral_exps):
        # the ball grid of CI's 2-d reconstruct: 24 nodes per axis, 448 in all
        grid = geo.build_grid(geo.SpectrumSet.ball(0.5), 24)
        e_set = generate_jittered_grid(0.5, 0.1, [[-12.0, 12.0], [-12.0, 12.0]], seed=0)
        for seed in range(3):
            samples = frames.analysis(spc.random_coeff_signal(grid, seed), e_set)
        box = spc._lattice_indices(grid.nodes)[0].max(axis=0) + 1
        # one pair of factor tables per axis
        assert spectral_exps.exponentials == e_set.size * len(box) * spc._FACTOR_EXPONENTIALS
        before = spectral_exps.exponentials
        res = frames.reconstruct(samples, grid, tol=1e-9)
        assert res.method == "toeplitz-fft" and res.converged
        # the phases, and the last axis over its 2 n - 1 difference steps; the
        # tables of axis 0 are the ones analysis built
        assert spectral_exps.exponentials - before == e_set.size * (
            1 + spc._FACTOR_EXPONENTIALS)
        spc._factor_memo.clear()
        fresh = frames.reconstruct(samples, grid, tol=1e-9)
        assert np.array_equal(res.signal.coeffs, fresh.signal.coeffs)
        assert (res.iterations, res.residual) == (fresh.iterations, fresh.residual)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(lattice_cases())
    def test_toeplitz_matches_negated_tables(self, case):
        grid, e_set, seed = case
        assume(grid.nodes.shape[1] == 1)
        rng = np.random.default_rng(seed)
        v = rng.standard_normal(e_set.size) + 1j * rng.standard_normal(e_set.size)
        f = rng.standard_normal(grid.size) + 1j * rng.standard_normal(grid.size)
        lattice = spc._lattice_indices(grid.nodes)
        apply_op, rhs = frames._toeplitz_system(e_set, v, grid.weights, *lattice)
        oracle_op, oracle_rhs = _negated_table_system(e_set, v, grid.weights, *lattice)
        # the kernel, column by column, and the right-hand side
        for u in (f, np.eye(grid.size)[0], np.eye(grid.size)[-1]):
            expect = oracle_op(u)
            assert np.linalg.norm(apply_op(u) - expect) <= 1e-12 * np.linalg.norm(expect)
        assert np.linalg.norm(rhs - oracle_rhs) <= 1e-12 * np.linalg.norm(oracle_rhs)
        got = frames._conjugate_gradients(apply_op, rhs, grid.weights, 1e-9, 200)
        expect = frames._conjugate_gradients(oracle_op, oracle_rhs, grid.weights, 1e-9, 200)
        assert (got[1], got[3]) == (expect[1], expect[3])


_TOEPLITZ_SUMS = """
import sys
import numpy as np
from nusample import frames, geometry, spectral
from nusample.sampling import generate_jittered_grid
e_set = generate_jittered_grid(0.4, 0.1, [[-640.0, 640.0]], seed=0)
truth = spectral.random_pw_signal(geometry.SpectrumSet.box([0.5]), 1024, 0)
samples = frames.analysis(truth, e_set).values
lattice = spectral._lattice_indices(truth.grid.nodes)
apply_op, rhs = frames._toeplitz_system(e_set, samples, truth.grid.weights, *lattice)
sys.stdout.write((rhs.tobytes() + apply_op(truth.coeffs).tobytes()).hex())
"""


def test_toeplitz_sums_do_not_depend_on_blas_threads():
    # 3,201 samples: one product over all of them rounds differently at 1 and
    # 2 OpenBLAS threads, the blocked sums do not
    runs = [subprocess.run([sys.executable, "-c", _TOEPLITZ_SUMS], capture_output=True,
                           text=True, check=True,
                           env={**os.environ, "OPENBLAS_NUM_THREADS": str(threads),
                                "PYTHONPATH": str(Path(frames.__file__).parent.parent)}).stdout
            for threads in (1, 2)]
    assert runs[0] == runs[1] and runs[0]


@pytest.fixture(scope="module")
def dilate_setup():
    dg = frames.dilation_grid(QUARTER_BAND, sixths=40)
    e_set = symmetrize(uniform_set(0.5, 20.0))
    return dg, e_set


class TestThreeDilate:

    def test_zero_signal(self, dilate_setup):
        dg, e_set = dilate_setup
        f = spc.BandlimitedSignal(grid=dg, coeffs=np.zeros(dg.size, dtype=complex))
        chk = frames.three_dilate_check(f, e_set, lower_const=1.0, upper_const=1.0)
        assert chk.lhs == chk.mid == chk.rhs == 0.0

    def test_disjoint_dilation_supports(self, dilate_setup):
        dg, e_set = dilate_setup
        nodes = dg.nodes[:, 0]
        shell = (np.abs(nodes) >= 0.06) & (np.abs(nodes) <= 0.08)
        coeffs = np.where(shell, 1.0 + 0.0j, 0.0)
        f = spc.BandlimitedSignal(grid=dg, coeffs=coeffs)
        chk = frames.three_dilate_check(f, e_set)
        # direct-quadrature oracle: supports of F(g), F(2g), F(3g) are disjoint,
        # so the squared integral splits into three counted pieces
        w = dg.weights
        piece = f.norm_sq()
        for factor in (2, 3):
            lookup = frames._dilate_coeffs(f, factor)
            piece += float(np.sum(w * np.abs(lookup) ** 2))
        assert chk.lhs == pytest.approx(piece / f.norm())
        assert chk.lhs == pytest.approx((11.0 / 6.0) * f.norm(), rel=0.02)

    def test_chain_with_module_constants(self, dilate_setup):
        dg, e_set = dilate_setup
        egrid = geo.build_grid(QUARTER_BAND.enlarged(0.025), 384)
        win = bal.ingham_window(0.025, dim=1)
        ys = np.random.default_rng(5).uniform(-10, 10, size=(25, 1))
        k_hat = bal.balayage_constant(e_set, egrid, ys, eta=1e-5)
        a_const = 1.0 / (k_hat.value * win.l2_norm * (1 + 2**-0.5 + 3**-0.5)) ** 2
        b_root = sum((1.0 / j) * np.sqrt(frames.frame_bounds(
            SamplingSet(dim=1, points=e_set.points / j, window=e_set.window / j),
            dg).upper) for j in (1, 2, 3))
        rng = np.random.default_rng(2)
        inner = np.abs(dg.nodes[:, 0]) <= 0.25 / 3
        for _ in range(3):
            coeffs = np.zeros(dg.size, dtype=complex)
            coeffs[inner] = rng.standard_normal(inner.sum()) + 1j * rng.standard_normal(inner.sum())
            f = spc.BandlimitedSignal(grid=dg, coeffs=coeffs)
            chk = frames.three_dilate_check(f, e_set, lower_const=a_const,
                                            upper_const=b_root**2)
            assert chk.lower_ok and chk.upper_ok

    def test_non_nested_grid_rejected(self, dilate_setup):
        _, e_set = dilate_setup
        midpoint = geo.build_grid(QUARTER_BAND, 64)   # midpoint nodes, not dilation-closed
        f = spc.random_coeff_signal(midpoint, 0)
        with pytest.raises(ValueError, match="integer"):
            frames.three_dilate_check(f, e_set)


@pytest.fixture(scope="module")
def weighted_setup():
    grid = geo.build_grid(QUARTER_BAND, 256)
    e_set = symmetrize(uniform_set(0.5, 20.0))
    egrid = geo.build_grid(QUARTER_BAND.enlarged(0.025), 384)
    win = bal.ingham_window(0.025, dim=1)
    ys = np.random.default_rng(5).uniform(-10, 10, size=(25, 1))
    k_hat = bal.balayage_constant(e_set, egrid, ys, eta=1e-5)
    return grid, e_set, k_hat.value, win.l2_norm


class TestWeightedCheck:

    def test_unit_weight_reduces_to_sampled_energy(self, weighted_setup):
        grid, e_set, k, h2 = weighted_setup
        f = spc.random_coeff_signal(grid, 0)
        chk = frames.weighted_frame_check(f, np.ones(grid.size), e_set, k, h2)
        direct = np.sum(np.abs(frames.analysis(f, e_set).values) ** 2)
        assert chk.mid == pytest.approx(direct)
        assert chk.lower_ok and chk.upper_ok

    def test_zero_weight(self, weighted_setup):
        grid, e_set, k, h2 = weighted_setup
        f = spc.random_coeff_signal(grid, 1)
        chk = frames.weighted_frame_check(f, np.zeros(grid.size), e_set, k, h2)
        assert chk.lhs == 0.0 and chk.mid == pytest.approx(0.0, abs=1e-20)

    def test_half_band_bump_chain(self, weighted_setup):
        grid, e_set, k, h2 = weighted_setup
        gauge = QUARTER_BAND.gauge(grid.nodes)
        weight = np.where(grid.nodes[:, 0] > 0, np.clip(1 - gauge, 0, 1) ** 2, 0.0)
        bessel = frames.frame_bounds(e_set, grid).upper
        for s in range(5):
            f = spc.random_coeff_signal(grid, 20 + s)
            chk = frames.weighted_frame_check(f, weight, e_set, k, h2,
                                              bessel_bound=bessel)
            assert chk.lower_ok and chk.upper_ok

    def test_negative_weight_rejected(self, weighted_setup):
        grid, e_set, k, h2 = weighted_setup
        f = spc.random_coeff_signal(grid, 2)
        with pytest.raises(ValueError):
            frames.weighted_frame_check(f, -np.ones(grid.size), e_set, k, h2)


class TestCoveringExperiment:
    def test_covered_set_is_frame(self):
        spec = geo.SpectrumSet.box([1.0])
        e_set = generate_jittered_grid(1.0, 0.2, [[-20.0, 20.0]], seed=0)
        res = frames.covering_frame_experiment(spec, e_set, rho=0.2,
                                               region=[[-10.0, 10.0]], resolution=0.05)
        assert res.covering.covered and res.rho_ok and res.prediction_applies
        assert res.report.lower > 0 and res.report.condition < 1e6

    def test_prediction_implies_frame(self):
        # gaps below 1 + 2 * 0.21 < 2 leave no hole between the translates of
        # the polar [-1, 1], so the prediction applies at every seed
        spec = geo.SpectrumSet.box([1.0])
        for seed in range(30):
            jitter = 0.05 + 0.04 * (seed % 5)
            e_set = generate_jittered_grid(1.0, jitter, [[-20.0, 20.0]], seed=seed)
            res = frames.covering_frame_experiment(spec, e_set, rho=0.2,
                                                   region=[[-10.0, 10.0]], resolution=0.05)
            assert res.prediction_applies and res.frame_confirmed, seed

    def test_sparse_control_fails_both(self):
        spec = geo.SpectrumSet.box([1.0])
        e_set = uniform_set(3.0, 20.0)
        res = frames.covering_frame_experiment(spec, e_set, rho=0.2,
                                               region=[[-10.0, 10.0]], resolution=0.05)
        assert not res.covering.covered
        assert res.report.lower <= 1e-6

    def test_large_rho_disables_prediction(self):
        spec = geo.SpectrumSet.box([1.0])
        e_set = uniform_set(1.0, 20.0)
        res = frames.covering_frame_experiment(spec, e_set, rho=0.3,
                                               region=[[-10.0, 10.0]], resolution=0.05)
        assert not res.rho_ok and not res.prediction_applies
        assert res.report.upper > 0   # report still attached
