"""End-to-end acceptance criteria.

Each test runs one criterion at its stated tolerance, prints a single
PASS/FAIL line (run pytest with -s to see them), and enforces the runtime
budget.  Tolerances are fixed here, not calibrated elsewhere.
"""
import time

import numpy as np
import pytest

from nusample import balayage as bal
from nusample import frames
from nusample import geometry as geo
from nusample import psido
from nusample import spectral as spc
from nusample import timefreq as tfm
from nusample.sampling import SamplingSet, generate_jittered_grid, symmetrize

UNIT_BAND = geo.SpectrumSet.box([0.5])
QUARTER_BAND = geo.SpectrumSet.box([0.25])


def report(number, name, ok, elapsed, budget):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:2d} {name}: {status} ({elapsed:.2f}s < {budget:.0f}s)")
    assert ok, f"criterion {number} ({name}) failed"
    assert elapsed < budget, f"criterion {number} exceeded runtime budget"


def uniform_set(delta, half_window):
    return generate_jittered_grid(delta, 0.0, [[-half_window, half_window]], seed=0)


def test_01_nyquist_tightness():
    start = time.monotonic()
    grid = geo.build_grid(UNIT_BAND, 512)
    subspace = frames.interior_taper_subspace(grid, [[-40.0, 40.0]], margin=10.0)
    nyquist = frames.frame_bounds(uniform_set(1.0, 40.0), grid, subspace=subspace)
    double = frames.frame_bounds(uniform_set(0.5, 40.0), grid, subspace=subspace)
    sparse = frames.frame_bounds(uniform_set(2.0, 40.0), grid, subspace=subspace)
    ok = (0.95 <= nyquist.lower and nyquist.upper <= 1.05
          and 1.9 <= double.lower and double.upper <= 2.1
          and sparse.lower <= 1e-6)
    report(1, "nyquist tightness", ok, time.monotonic() - start, 10.0)


def test_02_fundamental_identity():
    start = time.monotonic()
    e_set = uniform_set(0.5, 20.0)
    eps = 0.05 * QUARTER_BAND.diameter()
    egrid = geo.build_grid(QUARTER_BAND.enlarged(eps), 384)
    window = bal.ingham_window(eps, dim=1)
    solver = bal.BalayageSolver(e_set, egrid, eta=1e-5)
    rng = np.random.default_rng(1)
    ys = rng.uniform(-10.0, 10.0, size=(25, 1))
    ok = True
    for trial in range(5):
        poly = spc.random_trig_polynomial(QUARTER_BAND, 5, seed=100 + trial)
        res = bal.fundamental_identity_residual(poly, e_set, egrid, window, ys,
                                                solver=solver)
        ok &= res <= 1e-2
    on_set = bal.fundamental_identity_residual(
        spc.random_trig_polynomial(QUARTER_BAND, 5, seed=0),
        e_set, egrid, window, e_set.points[::8], solver=solver)
    ok &= on_set <= 1e-12
    report(2, "fundamental identity", ok, time.monotonic() - start, 30.0)


def test_03_reconstruction():
    start = time.monotonic()
    ok = True
    for seed in range(10):
        e_set = generate_jittered_grid(0.4, 0.1, [[-10.0, 10.0]], seed=seed)
        truth = spc.random_pw_signal(UNIT_BAND, 16, seed)
        res = frames.reconstruct(frames.analysis(truth, e_set), truth.grid,
                                 tol=1e-9, max_iter=200)
        err = np.sqrt(np.sum(truth.grid.weights *
                             np.abs(res.signal.coeffs - truth.coeffs) ** 2)) / truth.norm()
        ok &= res.converged and res.iterations <= 200 and err <= 1e-5
    report(3, "iterative reconstruction", ok, time.monotonic() - start, 20.0)


def test_04_covering_criterion():
    start = time.monotonic()
    spec = geo.SpectrumSet.box([1.0])
    region = [[-10.0, 10.0]]
    ok = True
    for seed in range(20):
        jitter = 0.05 + 0.2 * (seed % 5) / 5.0
        e_set = generate_jittered_grid(1.0, jitter, [[-20.0, 20.0]], seed=seed)
        res = frames.covering_frame_experiment(spec, e_set, rho=0.2, region=region,
                                               resolution=0.05)
        ok &= (res.covering.covered and res.rho_ok
               and res.report.lower > 0 and res.report.condition < 1e6)
    control = frames.covering_frame_experiment(spec, uniform_set(3.0, 20.0), rho=0.2,
                                               region=region, resolution=0.05)
    ok &= (not control.covering.covered) and control.report.lower <= 1e-6
    report(4, "covering criterion", ok, time.monotonic() - start, 60.0)


def test_05_stft_identities():
    start = time.monotonic()
    runners = {
        "isometry": (lambda f, g, w, tf: tfm.isometry_check(f, g, w, tf).deviation, 1e-3),
        "tf_identity": (lambda f, g, w, tf: tfm.tf_identity_check(f, g, w, tf,
                                                                  spectral_half=2.5), 1e-3),
        "closed_form": (tfm.stft_fourier_closed_form, 1e-2),
    }
    ok = True
    for check, (runner, tol) in runners.items():
        coarse = runner(*tfm.gaussian_identity_fixture(check))
        fine = runner(*tfm.gaussian_identity_fixture(check, refine=2))
        ok &= coarse <= tol
        ok &= coarse / max(fine, 1e-300) >= 2.0
    report(5, "stft identities + refinement", ok, time.monotonic() - start, 30.0)


def test_06_sampled_stft_energy_bound():
    start = time.monotonic()
    e_set = symmetrize(uniform_set(0.5, 20.0))
    g0 = tfm.gaussian_window(step=1.0 / 12.0)
    omega = tfm.UniformGrid.symmetric(3.0, 0.125)
    ok = True
    for seed in range(10):
        f = spc.random_pw_signal(QUARTER_BAND, 128, seed)
        chk = tfm.pw_stft_frame_check(f, g0, e_set, omega)
        ok &= 0.0 < chk.upper_ratio <= 1.0
    report(6, "sampled stft energy bound", ok, time.monotonic() - start, 60.0)


def test_07_gabor_reconstruction():
    start = time.monotonic()
    step = 0.1
    grid = tfm.UniformGrid.symmetric(8.0, step)
    g0 = tfm.gaussian_window(step=step)
    t = grid.nodes
    f = (np.exp(-np.pi * (t - 0.3) ** 2) * np.exp(2j * np.pi * 0.2 * t)
         + 0.5 * np.exp(-np.pi * (t + 0.5) ** 2)).astype(complex)
    q = tfm.reference_test_subspace(grid, 3.0, 1.5)
    lattice = tfm.phase_lattice(0.5, 0.5, 5.0, 3.0)
    jittered = tfm.phase_lattice(0.5, 0.5, 5.0, 3.0, jitter=0.1, seed=3)
    sparse = tfm.phase_lattice(1.5, 1.5, 5.0, 3.0)
    ok = tfm.gabor_reconstruct(f, grid, g0, lattice, test_subspace=q).error <= 1e-3
    ok &= tfm.gabor_reconstruct(f, grid, g0, jittered, test_subspace=q).error <= 1e-3
    ok &= tfm.gabor_frame_condition(grid, g0, sparse, q) > 1e6
    report(7, "gabor reconstruction + density sanity", ok, time.monotonic() - start, 60.0)


def test_08_psido_chain():
    start = time.monotonic()
    symbol = psido.KNSymbol(
        terms=[psido.symbol_term(0.1, 0.1, psido.SpectralFactor.from_callable(
            lambda g: np.exp(-((g / 0.5) ** 2)), -1.0, 1.0), order=8),
            psido.symbol_term(-0.1, 0.1, psido.SpectralFactor.from_callable(
                lambda g: 1.0 / (1.0 + (g / 0.4) ** 2), -1.0, 1.0), order=8,
                amplitude=0.7)],
        spectrum=QUARTER_BAND)
    assert psido.validate_symbol_class(symbol).ok
    e_set = symmetrize(uniform_set(0.5, 20.0))
    eps = 0.05 * QUARTER_BAND.diameter()
    egrid = geo.build_grid(QUARTER_BAND.enlarged(eps), 384)
    window = bal.ingham_window(eps, dim=1)
    ys = np.random.default_rng(5).uniform(-10.0, 10.0, size=(25, 1))
    k_hat = bal.balayage_constant(e_set, egrid, ys, eta=1e-5)
    lower_const = 1.0 / (k_hat.value * window.l2_norm) ** 2
    bessel = frames.frame_bounds(e_set, geo.build_grid(QUARTER_BAND, 256)).upper
    f_grid = tfm.UniformGrid.symmetric(12.0, 0.25)
    gamma = np.linspace(-0.7, 0.7, 141)
    gw = np.full(gamma.size, gamma[1] - gamma[0])
    envelope = np.exp(-((f_grid.nodes / 8.0) ** 2))
    ok = True
    for seed in range(10):
        rng = np.random.default_rng(200 + seed)
        f = envelope * (rng.standard_normal(f_grid.count)
                        + 1j * rng.standard_normal(f_grid.count))
        chk = psido.psido_frame_check(symbol, f, f_grid, e_set, gamma, gw,
                                      lower_const=lower_const, bessel_bound=bessel)
        ok &= chk.lower_ok and chk.upper_ok
    report(8, "pseudo-differential chain", ok, time.monotonic() - start, 60.0)


def test_09_geometry_exactness():
    start = time.monotonic()
    box = geo.SpectrumSet.box([1.0, 1.0])
    polar = box.polar()
    rng = np.random.default_rng(9)
    pts = rng.uniform(-1.5, 1.5, size=(1000, 2))
    ok = bool(np.array_equal(polar.contains(pts, tol=0.0),
                             np.abs(pts).sum(axis=1) <= 1.0))
    lhs = box.scaled(0.25).polar()
    rhs = box.polar().scaled(4.0)

    def ordered(v):
        v = np.round(v, 12)
        return v[np.lexsort((v[:, 1], v[:, 0]))]

    ok &= bool(np.array_equal(ordered(lhs.vertices), ordered(rhs.vertices)))
    for spec in (box, geo.SpectrumSet.ball(0.7, 2), polar):
        for _ in range(100):
            g = rng.normal(size=2)
            t = rng.normal()
            ok &= abs(spec.gauge(t * g)[0]
                      - abs(t) * spec.gauge(g)[0]) <= 1e-12 * max(
                          1.0, spec.gauge(t * g)[0])
    report(9, "geometry exactness", ok, time.monotonic() - start, 5.0)


def test_10_dilation_and_weighted_chains():
    start = time.monotonic()
    e_set = symmetrize(uniform_set(0.5, 20.0))
    eps = 0.05 * QUARTER_BAND.diameter()
    egrid = geo.build_grid(QUARTER_BAND.enlarged(eps), 384)
    window = bal.ingham_window(eps, dim=1)
    ys = np.random.default_rng(5).uniform(-10.0, 10.0, size=(25, 1))
    k_hat = bal.balayage_constant(e_set, egrid, ys, eta=1e-5)

    # factor-6 nested grid; lower constant assembled from the sweep bound via
    # the Minkowski split, upper from the dilated sampled-energy bounds
    dg = frames.dilation_grid(QUARTER_BAND, sixths=40)
    a_three = 1.0 / (k_hat.value * window.l2_norm * (1 + 2**-0.5 + 3**-0.5)) ** 2
    b_root = sum((1.0 / j) * np.sqrt(frames.frame_bounds(
        SamplingSet(dim=1, points=e_set.points / j, window=e_set.window / j),
        dg).upper) for j in (1, 2, 3))
    rng = np.random.default_rng(2)
    inner = np.abs(dg.nodes[:, 0]) <= 0.25 / 3.0
    ok = True
    for _ in range(10):
        coeffs = np.zeros(dg.size, dtype=complex)
        coeffs[inner] = (rng.standard_normal(inner.sum())
                         + 1j * rng.standard_normal(inner.sum()))
        f = spc.BandlimitedSignal(grid=dg, coeffs=coeffs)
        chk = frames.three_dilate_check(f, e_set, lower_const=a_three,
                                        upper_const=b_root**2)
        ok &= bool(chk.lower_ok and chk.upper_ok)

    grid = geo.build_grid(QUARTER_BAND, 256)
    gauge = QUARTER_BAND.gauge(grid.nodes)
    weight = np.where(grid.nodes[:, 0] > 0, np.clip(1.0 - gauge, 0, 1) ** 2, 0.0)
    bessel = frames.frame_bounds(e_set, grid).upper
    for seed in range(10):
        f = spc.random_coeff_signal(grid, 50 + seed)
        chk = frames.weighted_frame_check(f, weight, e_set,
                                          balayage_k=k_hat.value,
                                          window_l2=window.l2_norm,
                                          bessel_bound=bessel)
        ok &= bool(chk.lower_ok and chk.upper_ok)
    report(10, "dilation + weighted chains", ok, time.monotonic() - start, 60.0)
