"""Seeded workloads for the nusample benchmark.

A workload is a fixed cycle of op kinds.  Op ``i`` of a run is kind
``cycle[(i - 1) % len(cycle)]`` on inputs drawn from ``op_rng(seed, i)``, so a
seed and an op index always give the same inputs, and the timed loop, which
runs whole cycles, always has the same op mix.  Every call into ``nusample``
goes through ``t.call`` so the traced run can put a span around it.

An op raises :class:`CheckFailed` when a result misses a tolerance that the
commands or the tests already state; any exception marks the op failed.
"""
from __future__ import annotations

from functools import partial

import numpy as np

from nusample import balayage as bal
from nusample import frames
from nusample import geometry as geo
from nusample import psido
from nusample import sampling as smp
from nusample import spectral as spc
from nusample import timefreq as tfm

QUARTER_BAND = geo.SpectrumSet.box([0.25])
UNIT_BAND = geo.SpectrumSet.box([0.5])
EPS = bal.default_enlargement(QUARTER_BAND)
ENLARGED_BAND = geo.enlarge(QUARTER_BAND, EPS)
COVERING_BAND = geo.SpectrumSet.box([1.0])
PLANE_BODIES = {
    "box": geo.SpectrumSet.box([0.5, 0.5]).polar(),
    "ball": geo.SpectrumSet.ball(0.6, 2).polar(),
    "polytope": geo.SpectrumSet.polytope([[0.5, 0.2], [-0.5, -0.2], [0.1, 0.55],
                                          [-0.1, -0.55], [0.45, -0.35],
                                          [-0.45, 0.35]]).polar(),
}

# Work per op in sweep and phase is drawn from these inclusive ranges.  Op
# latencies then spread over a range instead of sitting at one value, so a
# median moves smoothly, as a mean does, with the share of a run the host
# spends in a slow state.  fourier has too few ops of each kind per run to
# average such draws, so its trial count is fixed.
SWEEP_CENTERS = (1, 5)     # cold centers per sweep op
SWEEP_POLYS = 4            # identity checks per sweep op, each over the same centers
PHASE_CENTERS = (1, 3)     # psido-style balayage centers per phase op
PSIDO_TRIALS = (10, 30)
RAYLEIGH_TRIALS = 10
STFT_REFINE = 8
GABOR_STEP = 0.025
PSIDO_F_GRID = tfm.UniformGrid.symmetric(12.0, 0.125)
PSIDO_GAMMA = np.linspace(-0.7, 0.7, 281)
PSIDO_GAMMA_W = np.full(PSIDO_GAMMA.size, PSIDO_GAMMA[1] - PSIDO_GAMMA[0])
PSIDO_ENVELOPE = np.exp(-((PSIDO_F_GRID.nodes / 8.0) ** 2))
STFT_CHECKS = {   # check -> (runner, tolerance from configs/stft.json)
    "isometry": (lambda f, g, w, tf: tfm.isometry_check(f, g, w, tf).deviation, 1e-3),
    "tf_identity": (lambda f, g, w, tf: tfm.tf_identity_check(f, g, w, tf,
                                                              spectral_half=2.5), 1e-3),
    "closed_form": (tfm.stft_fourier_closed_form, 1e-2),
}


class CheckFailed(Exception):
    """A result missed a stated tolerance."""


def check(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def op_rng(seed: int, index: int) -> np.random.Generator:
    """Inputs of op ``index``; index 0 is the warm-up op."""
    return np.random.default_rng([seed, index])


def _seed(rng) -> int:
    return int(rng.integers(2**31))


def _draw(rng, bounds) -> int:
    return int(rng.integers(bounds[0], bounds[1] + 1))


# -- shared steps ----------------------------------------------------------------


def _jittered(t, delta, jitter, window, rng):
    e = t.call("sampling.generate", smp.generate_jittered_grid, delta, jitter, window,
               _seed(rng))
    t.count("sampling.points", e.size)
    return e


def _grid(t, spectrum, nodes):
    grid = t.call("geometry.build_grid", geo.build_grid, spectrum, nodes)
    t.count("geometry.grid_nodes", grid.size)
    return grid


def _solver(t, e, grid):
    t.count("balayage.solver_inits")
    return t.call("balayage.solver_init", bal.BalayageSolver, e, grid, eta=1e-5, reg=1e-8)


def _request(t, solved: set, ys) -> int:
    """Count centers asked of one solver and those it already solved (its
    memo is keyed on the center's bytes); returns the number not yet solved."""
    keys = {y.tobytes() for y in ys}
    hits = len(keys & solved)
    solved |= keys
    t.count("balayage.centers_requested", len(ys))
    t.count("balayage.cache_hits", hits)
    return len(keys) - hits


def _constant(t, solver, e, grid, ys, solved: set):
    t.count("balayage.centers_solved", _request(t, solved, ys))
    try:
        return t.call("balayage.solve", bal.balayage_constant, e, grid, ys, solver=solver)
    except bal.BalayageInfeasibleError:
        t.count("balayage.infeasible")
        raise


def _frame_bounds(t, e, grid, subspace=None):
    t.count("frames.frame_bounds_nodes", grid.size)
    return t.call("frames.frame_bounds", frames.frame_bounds, e, grid, subspace=subspace)


# -- sweep -----------------------------------------------------------------------


def sweep_identity(t, rng):
    """configs/identity.json on a fresh jittered set: cold solves, then
    identity checks that reuse the same centers from the solver's memo."""
    e = _jittered(t, 0.5, rng.uniform(0.1, 0.2), [[-20.0, 20.0]], rng)
    grid = _grid(t, ENLARGED_BAND, 384)
    window = t.call("balayage.window", bal.ingham_window, EPS)
    solver = _solver(t, e, grid)
    ys = rng.uniform(-10.0, 10.0, size=(_draw(rng, SWEEP_CENTERS), 1))
    solved: set = set()
    _constant(t, solver, e, grid, ys, solved)
    for _ in range(SWEEP_POLYS):
        poly = t.call("spectral.signal_gen", spc.random_trig_polynomial, QUARTER_BAND, 5,
                      _seed(rng))
        _request(t, solved, ys)
        res = t.call("balayage.identity_residual", bal.fundamental_identity_residual,
                     poly, e, grid, window, ys, solver=solver)
        check(res <= 1e-2, f"identity residual {res:.3e} > 1e-2")


# -- fourier ---------------------------------------------------------------------


def covering_1d(t, rng):
    """configs/covering.json with the jitter range of the covering acceptance test."""
    e = _jittered(t, 1.0, rng.uniform(0.05, 0.21), [[-20.0, 20.0]], rng)
    res = t.call("frames.covering_experiment", frames.covering_frame_experiment,
                 COVERING_BAND, e, rho=0.2, region=[[-10.0, 10.0]], resolution=0.05)
    check(not res.prediction_applies or res.frame_confirmed,
          "covering predicts a frame but the lower bound is 0")


def nyquist_frame_bounds(t, rng, nodes: int):
    """configs/frame_bounds.json on a ``nodes``-node grid: unit-spaced samples
    are a tight frame for the unit band on the interior-taper subspace.  The
    seed shifts the 80-wide window by whole units, so the 81 samples and the
    cost stay the same from op to op."""
    center = float(rng.integers(-5, 6))
    e = _jittered(t, 1.0, 0.0, [[center - 40.0, center + 40.0]], rng)
    grid = _grid(t, UNIT_BAND, nodes)
    full = _frame_bounds(t, e, grid)
    check(full.upper <= 1.05, f"full-grid upper bound {full.upper:.4f} > 1.05")
    q = t.call("frames.subspace", frames.interior_taper_subspace, grid, e.window, margin=10.0)
    sub = _frame_bounds(t, e, grid, subspace=q)
    check(0.95 <= sub.lower and sub.upper <= 1.05,
          f"Nyquist bounds [{sub.lower:.4f}, {sub.upper:.4f}] outside [0.95, 1.05]")
    for _ in range(RAYLEIGH_TRIALS):
        # a subspace signal's Rayleigh quotient lies between the compressed bounds
        sig, values = t.call("frames.analysis", _rayleigh_samples, grid, q, e, _seed(rng))
        quotient = float(np.sum(np.abs(values) ** 2)) / sig.norm_sq()
        check(sub.lower * (1 - 1e-9) <= quotient <= sub.upper * (1 + 1e-9),
              f"Rayleigh quotient {quotient:.6f} outside the frame bounds")


def _rayleigh_samples(grid, q, e, seed):
    sig = frames.random_subspace_signal(grid, q, seed)
    return sig, frames.analysis(sig, e).values


def reconstruct(t, rng, nodes: int, delta: float, jitter: float, half: float, tol: float):
    """configs/reconstruct.json at ``nodes`` nodes on [-half, half]."""
    e = _jittered(t, delta, jitter, [[-half, half]], rng)
    truth = t.call("spectral.signal_gen", spc.random_pw_signal, UNIT_BAND, nodes, _seed(rng))
    samples = t.call("frames.analysis", frames.analysis, truth, e)
    try:
        res = t.call("frames.reconstruct", frames.reconstruct, samples, truth.grid,
                     tol=tol, max_iter=200)
    except frames.NotAFrameError:
        t.count("frames.not_a_frame")
        raise
    t.count("frames.cg_iterations", res.iterations)
    t.count("frames.cg_unconverged", int(not res.converged))
    check(res.converged, f"CG unconverged after {res.iterations} iterations")
    if e.size < truth.grid.size:
        return   # sample-side branch: only convergence is stated
    check(res.iterations <= 200, f"{res.iterations} CG iterations > 200")
    # beyond (window length) x (spectrum width) nodes the window cannot determine the signal
    if nodes <= 2.0 * half * 1.0:
        err = np.sqrt(np.sum(truth.grid.weights * np.abs(res.signal.coeffs - truth.coeffs) ** 2))
        rel = float(err) / truth.norm()
        check(rel <= 1e-5, f"relative error {rel:.3e} > 1e-5")


def covering_2d(t, rng, shape: str):
    """2-d covering check of a polar body over [-4, 4]^2 by 625 jittered points."""
    jitter = rng.uniform(0.1, 0.2)
    e = _jittered(t, 1.0, jitter, [[-12.0, 12.0], [-12.0, 12.0]], rng)
    body = PLANE_BODIES[shape]
    rep = t.call("geometry.covering_check", geo.covering_check, e, body,
                 [[-4.0, 4.0], [-4.0, 4.0]], 0.05)
    t.count("geometry.covering_points", e.size)
    # every point is within sqrt(2) (1/2 + jitter) of a sampling point, so a
    # body with a larger inradius must cover
    if body.boundary_distance([0.0, 0.0]) >= np.sqrt(2.0) * (0.5 + jitter):
        check(rep.covered, f"{rep.witnesses.shape[0]} uncovered points")


# -- phase -----------------------------------------------------------------------


def _psido_balayage(t, rng):
    """configs/psido.json's balayage constant on a fresh set, over few centers."""
    e = _jittered(t, 0.5, rng.uniform(0.05, 0.15), [[-20.0, 20.0]], rng)
    grid = _grid(t, ENLARGED_BAND, 384)
    solver = _solver(t, e, grid)
    ys = rng.uniform(-10.0, 10.0, size=(_draw(rng, PHASE_CENTERS), 1))
    return e, _constant(t, solver, e, grid, ys, set())


def stft_checks(t, rng):
    """configs/stft.json on the fixture refined ``STFT_REFINE`` times."""
    _psido_balayage(t, rng)
    for name, (runner, tol) in STFT_CHECKS.items():
        fixture = t.call("timefreq.fixture", tfm.gaussian_identity_fixture, name,
                         refine=STFT_REFINE)
        dev = t.call("timefreq.stft_checks", runner, *fixture)
        check(dev <= tol, f"{name} deviation {dev:.3e} > {tol:.0e}")


def gabor(t, rng):
    """configs/gabor.json on a seeded jittered lattice and a shifted test signal."""
    _psido_balayage(t, rng)
    grid = t.call("timefreq.fixture", tfm.UniformGrid.symmetric, 8.0, GABOR_STEP)
    g0 = t.call("timefreq.fixture", tfm.gaussian_window, step=GABOR_STEP)
    lattice = t.call("timefreq.fixture", tfm.phase_lattice, 0.5, 0.5, 5.0, 3.0,
                     jitter=rng.uniform(0.05, 0.15), seed=_seed(rng))
    shift, freq = rng.uniform(-0.5, 0.5, size=2)
    nodes = grid.nodes
    f = (np.exp(-np.pi * (nodes - shift) ** 2) * np.exp(2j * np.pi * freq * nodes)
         + 0.5 * np.exp(-np.pi * (nodes + 0.5) ** 2))
    res = t.call("timefreq.gabor", tfm.gabor_reconstruct, f, grid, g0, lattice)
    t.count("timefreq.gabor_cg_iterations", res.iterations)
    check(res.error <= 1e-3, f"Gabor error {res.error:.3e} > 1e-3")


def psido_chain(t, rng):
    """configs/psido.json with seeded symbol terms and trial signals."""
    e, k_hat = _psido_balayage(t, rng)
    window = t.call("balayage.window", bal.ingham_window, EPS)
    terms = []
    for sign, amplitude in ((1.0, 1.0), (-1.0, 0.7)):
        lam = sign * rng.uniform(0.05, 0.15)    # |lambda| + eps stays inside the band
        width = rng.uniform(0.4, 0.6)
        b = t.call("psido.symbol", psido.SpectralFactor.from_callable,
                   lambda g, w=width: np.exp(-(g / w) ** 2), -1.0, 1.0)
        terms.append(t.call("psido.symbol", psido.symbol_term, lam, 0.1, b, order=8,
                            amplitude=amplitude))
    symbol = t.call("psido.symbol", psido.KNSymbol, terms=terms, spectrum=QUARTER_BAND)
    validation = t.call("psido.validate", psido.validate_symbol_class, symbol)
    check(validation.ok, f"symbol validation failed: {validation.failures}")
    lower_const = 1.0 / (k_hat.value * window.l2_norm) ** 2
    bessel = _frame_bounds(t, e, _grid(t, QUARTER_BAND, 256)).upper
    for _ in range(_draw(rng, PSIDO_TRIALS)):
        f = PSIDO_ENVELOPE * (rng.standard_normal(PSIDO_F_GRID.count)
                              + 1j * rng.standard_normal(PSIDO_F_GRID.count))
        t.count("psido.frame_checks")
        chk = t.call("psido.frame_check", psido.psido_frame_check, symbol, f, PSIDO_F_GRID,
                     e, PSIDO_GAMMA, PSIDO_GAMMA_W, lower_const=lower_const,
                     bessel_bound=bessel)
        check(chk.lower_ok and chk.upper_ok,
              f"psido chain violated: {chk.lhs:.3e} <= {chk.mid:.3e} <= {chk.rhs:.3e}")


WORKLOADS = {
    "sweep": [("identity", sweep_identity)],
    "fourier": [
        ("covering_1d", covering_1d),
        *[(f"frame_bounds_{n}", partial(nyquist_frame_bounds, nodes=n))
          for n in (512, 4096)],
        *[(f"reconstruct_{n}", partial(reconstruct, nodes=n, delta=0.4, jitter=0.1,
                                       half=0.625 * n, tol=1e-9))
          for n in (16, 128, 1024)],
        ("reconstruct_samples", partial(reconstruct, nodes=128, delta=0.9, jitter=0.2,
                                        half=10.0, tol=1e-8)),
        ("reconstruct_oversampled", partial(reconstruct, nodes=45, delta=0.7, jitter=0.2,
                                            half=10.0, tol=1e-8)),
        *[(f"covering_2d_{shape}", partial(covering_2d, shape=shape)) for shape in PLANE_BODIES],
    ],
    "phase": [("stft", stft_checks), ("gabor", gabor), ("psido", psido_chain)],
}
