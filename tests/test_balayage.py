import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_triangular

from nusample import balayage as bal
from nusample import geometry as geo
from nusample import spectral as spc
from nusample.sampling import SamplingSet, generate_jittered_grid, symmetrize

QUARTER_BAND = geo.SpectrumSet.box([0.25])
EPS = 0.05 * QUARTER_BAND.diameter()

# measured once for the eps=1 window at 801 profile nodes and frozen; the
# construction is deterministic, so regressions show up as a breach here
DECAY_CONSTANT_EPS1 = 1.31e-3


def spectral_profile_at(window, gamma):
    """The window's h-hat by interpolation on its profile; exactly zero outside
    the eps-ball."""
    pts = geo.as_points(gamma, window.dim)
    r = np.linalg.norm(pts, axis=1)
    if window.dim == 1:
        vals = np.interp(pts[:, 0], window.profile_nodes[:, 0], window.profile_values,
                         left=0.0, right=0.0)
    else:
        prof_r = np.linalg.norm(window.profile_nodes, axis=1)
        order = np.argsort(prof_r)
        vals = np.interp(r, prof_r[order], window.profile_values[order], left=None, right=0.0)
    vals = np.where(r > window.eps, 0.0, vals)
    return vals if vals.size > 1 else float(vals[0])


@pytest.fixture(scope="module")
def enlarged_grid():
    return geo.build_grid(geo.enlarge(QUARTER_BAND, EPS), 384)


@pytest.fixture(scope="module")
def half_grid_set():
    return generate_jittered_grid(0.5, 0.0, [[-20.0, 20.0]], seed=0)


@pytest.fixture(scope="module")
def solver(half_grid_set, enlarged_grid):
    return bal.BalayageSolver(half_grid_set, enlarged_grid, eta=1e-6)


@pytest.fixture(scope="module")
def window():
    return bal.ingham_window(EPS, dim=1)


class TestInghamWindow:
    def test_normalization(self, window):
        assert window(0.0) == pytest.approx(1.0, abs=1e-10)

    def test_spectral_support_exact(self, window):
        assert spectral_profile_at(window, [1.01 * EPS]) == 0.0
        assert spectral_profile_at(window, [-2.0 * EPS]) == 0.0

    def test_profile_nonnegative(self, window):
        assert np.all(window.profile_values >= 0)

    def test_bounded_by_value_at_origin(self, window):
        xs = np.linspace(-60, 60, 3001).reshape(-1, 1)
        assert np.max(np.abs(window(xs))) <= 1.0 + 1e-12

    def test_decay_constant_frozen(self):
        win = bal.ingham_window(1.0, dim=1, profile_nodes=801)
        xs = np.linspace(20.0, 40.0, 2001).reshape(-1, 1)
        measured = np.max(np.atleast_1d(win(xs)) * (1 + xs[:, 0]) ** 4)
        assert measured <= DECAY_CONSTANT_EPS1

    def test_two_dimensional_window(self):
        win = bal.ingham_window(0.5, dim=2, profile_nodes=64)
        assert win(np.zeros((1, 2))) == pytest.approx(1.0, abs=1e-10)
        assert spectral_profile_at(win, [[0.505, 0.0]]) == 0.0
        assert win.l2_norm > 0

    @pytest.mark.parametrize("eps,nodes", [(0.5, 64), (0.1, 101)])
    def test_two_dimensional_profile_inside_closed_ball(self, eps, nodes):
        win = bal.ingham_window(eps, dim=2, profile_nodes=nodes)
        assert np.all(np.linalg.norm(win.profile_nodes, axis=1) <= eps)
        assert np.all(win.profile_values >= 0)
        assert np.sum(win.profile_values) * (eps / nodes) ** 2 == pytest.approx(1.0)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            bal.ingham_window(0.0)
        with pytest.raises(ValueError):
            bal.ingham_window(1.0, dim=3)


class TestSolve:
    def test_point_already_on_set(self, solver):
        sol = solver.solve([0.5])
        assert sol.fit_residual == 0.0
        assert sol.l1_mass == 1.0
        k = np.argmax(np.abs(sol.coeffs))
        assert solver.sampling_set.points[k, 0] == 0.5
        assert sol.coeffs[k] == 1.0

    def test_oversampled_interior_center(self, solver):
        sol = solver.solve([0.13])
        assert sol.fit_residual <= 1e-6
        assert sol.l1_mass <= 10.0

    def test_undersampled_infeasible(self):
        band = geo.SpectrumSet.box([0.5])
        grid = geo.build_grid(geo.enlarge(band, 0.05), 384)
        sparse = generate_jittered_grid(4.0, 0.0, [[-20.0, 20.0]], seed=0)
        # rank oracle: even the unconstrained least-squares fit cannot match
        phi = np.exp(-2j * np.pi * grid.nodes @ sparse.points.T)
        target = np.exp(-2j * np.pi * grid.nodes[:, 0] * 0.13)
        coef, *_ = np.linalg.lstsq(np.sqrt(grid.weights)[:, None] * phi,
                                   np.sqrt(grid.weights) * target, rcond=None)
        assert np.max(np.abs(phi @ coef - target)) > 1e-3
        with pytest.raises(bal.BalayageInfeasibleError):
            bal.BalayageSolver(sparse, grid, eta=1e-3).solve([0.13])

    def test_two_spike_target_is_additive(self, half_grid_set, enlarged_grid, solver):
        y1, y2 = np.array([0.13]), np.array([-3.71])
        b = solver._target(y1) + solver._target(y2)
        # the plain least-squares core is exactly linear in the target
        plain = bal.BalayageSolver(half_grid_set, enlarged_grid, eta=1e-6, reg=0.0)
        combined = plain.solve_rhs(b).coeffs
        separate = plain.solve(y1).coeffs + plain.solve(y2).coeffs
        # rounding scale is set by the truncated pseudo-inverse norm (~1/cutoff)
        assert np.max(np.abs(combined - separate)) <= 1e-6
        # with the l1 polish, coefficients may redistribute along near-null
        # directions, but the fitted exponential sums must still agree
        combined_l1 = solver.solve_rhs(b).coeffs
        separate_l1 = solver.solve(y1).coeffs + solver.solve(y2).coeffs
        fit_gap = np.max(np.abs(solver._phi @ (combined_l1 - separate_l1)))
        assert fit_gap <= 5 * solver.eta

    def test_conjugation_symmetry(self, enlarged_grid):
        e_set = generate_jittered_grid(0.5, 0.0, [[-20.0, 20.0]], seed=0)
        solver = bal.BalayageSolver(e_set, enlarged_grid, eta=1e-5)
        y = 2.31
        a_pos = solver.solve([y]).coeffs
        a_neg = solver.solve([-y]).coeffs
        order = np.argsort(e_set.points[:, 0])
        flipped = np.argsort(-e_set.points[:, 0])
        assert np.max(np.abs(a_neg[order] - np.conj(a_pos[flipped]))) <= 1e-6

    def test_plain_least_squares_runs_no_irls(self, half_grid_set, enlarged_grid):
        plain = bal.BalayageSolver(half_grid_set, enlarged_grid, eta=1e-6, reg=0.0)
        sol = plain.solve([0.13])
        assert sol.iterations == 0 and sol.converged and not sol.reweighted
        fit = plain.solve_rhs(plain._target(np.array([0.13])))
        assert fit.iterations == 0 and np.array_equal(fit.coeffs, sol.coeffs)

    def test_center_on_set_runs_no_irls(self, solver):
        sol = solver.solve([0.5])
        assert sol.iterations == 0 and sol.converged and not sol.reweighted

    def test_irls_cap_is_reported(self, enlarged_grid):
        e_set = generate_jittered_grid(0.5, 0.0, [[-20.0, 20.0]], seed=0)
        capped = bal.BalayageSolver(e_set, enlarged_grid, eta=1e-5)
        sol = capped.solve([2.31])
        assert sol.iterations == capped.max_irls == 20
        assert not sol.converged and sol.reweighted
        # the step rule is met well inside a larger cap
        longer = bal.BalayageSolver(e_set, enlarged_grid, eta=1e-5, max_irls=200)
        sol = longer.solve([2.31])
        assert sol.converged and sol.iterations < 200


def irls_fit(solver, stack, rows, a0, r0, b):
    """The IRLS loop of ``solve_rhs`` with each step a dense QR of the whole
    ``stack`` [diag(s) V^H, U^H c; D, 0], D filling the rows below ``rows``."""
    n = stack.shape[1] - 1
    a, iterations, converged = a0, 0, False
    while iterations < solver.max_irls and not converged:
        maj = np.maximum(np.abs(a), 1e-6 * max(np.max(np.abs(a)), 1e-300))
        np.fill_diagonal(stack[rows:, :n], np.sqrt(0.5 * solver.reg / maj))
        r = np.linalg.qr(stack, mode="r")
        a_new = solve_triangular(r[:n, :n], r[:n, n])
        converged = bool(np.max(np.abs(a_new - a))
                         <= 1e-11 * max(np.max(np.abs(a_new)), 1e-30))
        a = a_new
        iterations += 1
    r1 = float(np.max(np.abs(solver._phi @ a - b)))
    if r1 <= max(solver.eta, r0):
        return bal.RhsFit(a, r1, iterations, converged, reweighted=True)
    return bal.RhsFit(a0, r0, iterations, converged, reweighted=False)


def dense_qr_fit(solver, b):
    """``solve_rhs`` on the stacked real system, c = [Re; Im] of sqrt(w) b,
    with each IRLS step a dense QR of [diag(s) V^T, U^T c; D, 0]: the oracle
    of the factored step."""
    weighted = solver._sqw[:, None] * solver._phi
    c = np.concatenate([(solver._sqw * b).real, (solver._sqw * b).imag])
    a0 = solver._pinv @ c
    r0 = float(np.max(np.abs(solver._phi @ a0 - b)))
    u, s, vt = np.linalg.svd(np.concatenate([weighted.real, weighted.imag]),
                             full_matrices=False)
    k, n = vt.shape
    stack = np.zeros((k + n, n + 1))
    stack[:k, :n] = s[:, None] * vt
    stack[:k, n] = u.T @ c
    return irls_fit(solver, stack, k, a0, r0, b)


def complex_qr_fit(solver, b):
    """The fit over complex coefficients, from its own complex SVD of
    sqrt(w) Phi: truncated-SVD start, then IRLS steps that each take a dense
    QR of [diag(s) V^H, U^H sqrt(w) b; D, 0].  An independent reference for
    the real solver."""
    u, s, vh = np.linalg.svd(solver._sqw[:, None] * solver._phi, full_matrices=False)
    keep = s > 1e-10 * s[0]
    a0 = (vh[keep].conj().T / s[keep]) @ (u[:, keep].conj().T @ (solver._sqw * b))
    r0 = float(np.max(np.abs(solver._phi @ a0 - b)))
    k, n = vh.shape
    stack = np.zeros((k + n, n + 1), dtype=complex)
    stack[:k, :n] = s[:, None] * vh
    stack[:k, n] = u.conj().T @ (solver._sqw * b)
    return irls_fit(solver, stack, k, a0, r0, b)


def dense_qr_cases():
    """Solvers and centers of the factored-step checks: the 768 stacked rows
    of 384 grid nodes exceed the 81 points; at 32 nodes (64 rows) R is upper
    trapezoidal."""
    for reg in (1e-12, 1e-8):
        for seed in range(4):
            for nodes in (384, 32):
                yield pytest.param(nodes, seed, reg, id=f"{reg:g}-{seed}-{nodes}")


def dense_qr_solver(nodes, seed, reg):
    grid = geo.build_grid(geo.enlarge(QUARTER_BAND, EPS), nodes)
    e_set = generate_jittered_grid(0.5, 0.15, [[-20.0, 20.0]], seed=seed)
    solver = bal.BalayageSolver(e_set, grid, eta=1e-5, reg=reg)
    assert (2 * grid.size < e_set.size) == (nodes == 32)
    return solver, np.random.default_rng(seed).uniform(-10, 10, 3)


class TestFactoredStep:
    """The per-step triangular-pentagonal QR against the dense stacked QR."""

    @staticmethod
    def assert_matches_oracle(solver, y):
        b = solver._target(np.array([y]))
        fit, ref = solver.solve_rhs(b), dense_qr_fit(solver, b)
        assert np.max(np.abs(fit.coeffs - ref.coeffs)) <= 1e-10 * np.max(np.abs(ref.coeffs))
        assert (fit.iterations, fit.converged, fit.reweighted) == \
            (ref.iterations, ref.converged, ref.reweighted)
        return fit

    @pytest.mark.parametrize("nodes,seed,reg", dense_qr_cases())
    def test_matches_dense_qr(self, nodes, seed, reg):
        solver, ys = dense_qr_solver(nodes, seed, reg)
        for y in ys:
            self.assert_matches_oracle(solver, y)

    @pytest.mark.parametrize("nodes,seed,reg", dense_qr_cases())
    def test_real_fit_matches_complex_fit(self, nodes, seed, reg):
        # every point-mass target is conjugate-symmetric on the mirror-symmetric
        # grid, so the best real coefficients are the best complex ones
        solver, ys = dense_qr_solver(nodes, seed, reg)
        for y in ys:
            b = solver._target(np.array([y]))
            fit, ref = solver.solve_rhs(b), complex_qr_fit(solver, b)
            assert fit.coeffs.dtype == np.float64
            mass, ref_mass = np.sum(np.abs(fit.coeffs)), np.sum(np.abs(ref.coeffs))
            assert abs(mass - ref_mass) <= 1e-6 * ref_mass
            assert (fit.iterations, fit.converged, fit.reweighted) == \
                (ref.iterations, ref.converged, ref.reweighted)
            # i b is conjugate-antisymmetric: no real coefficients fit it, and
            # the residual, measured on the complex system, says so
            assert solver.solve_rhs(1j * b).residual > solver.eta

    def test_matches_dense_qr_through_convergence(self, enlarged_grid):
        e_set = generate_jittered_grid(0.5, 0.15, [[-20.0, 20.0]], seed=0)
        solver = bal.BalayageSolver(e_set, enlarged_grid, eta=1e-5, max_irls=200)
        fit = self.assert_matches_oracle(solver, np.random.default_rng(0).uniform(-10, 10, 3)[1])
        assert fit.converged and fit.iterations < 200

    def test_zero_pivot_raises(self):
        # half of this l1 weight underflows, so D = 0 and the rows of the
        # triangle below the k < n rows of R have no pivot
        grid = geo.build_grid(geo.enlarge(QUARTER_BAND, EPS), 32)
        e_set = generate_jittered_grid(0.5, 0.15, [[-20.0, 20.0]], seed=0)
        solver = bal.BalayageSolver(e_set, grid, eta=1e-5, reg=5e-324)
        with pytest.raises(np.linalg.LinAlgError, match="singular"):
            solver.solve([2.31])


@st.composite
def symmetric_sets(draw):
    """Jittered sets on [0.25, 20] joined with their reflections, so sorted
    in ascending order point i and point -1 - i are mirror images."""
    delta = draw(st.floats(0.4, 0.6))
    jitter = draw(st.floats(0.0, 0.2))
    seed = draw(st.integers(0, 2**31 - 1))
    return symmetrize(generate_jittered_grid(delta, jitter, [[0.25, 20.0]], seed=seed))


class TestSymmetryProperties:
    # the sweep at the default l1 weight, which the CLI and the one-shot helpers use
    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(symmetric_sets(), st.floats(0.1, 10.0))
    def test_conjugation_symmetry_on_symmetric_sets(self, e_set, y):
        grid = geo.build_grid(geo.enlarge(QUARTER_BAND, EPS), 384)
        solver = bal.BalayageSolver(e_set, grid, eta=1e-5)
        sol_pos, sol_neg = solver.solve([y]), solver.solve([-y])
        assert np.max(np.abs(sol_neg.coeffs - np.conj(sol_pos.coeffs[::-1]))) <= 1e-6
        # at any one grid node the fit gives |sum_x a_x e_x| >= 1 - residual
        for sol in (sol_pos, sol_neg):
            assert sol.l1_mass >= 1.0 - sol.fit_residual


class TestBalayageConstant:
    def test_centers_on_set_give_unit_mass(self, half_grid_set, enlarged_grid):
        ys = half_grid_set.points[5:10]
        k = bal.balayage_constant(half_grid_set, enlarged_grid, ys)
        assert k.value == pytest.approx(1.0)

    def test_stable_under_resampling(self, solver):
        rng = np.random.default_rng(0)
        values = []
        for _ in range(3):
            ys = rng.uniform(-10, 10, size=(25, 1))
            values.append(bal.balayage_constant(
                solver.sampling_set, solver.grid, ys, solver=solver).value)
        ref = np.mean(values)
        assert all(abs(v - ref) <= 0.1 * ref for v in values)

    def test_invariant_under_relabeling(self, enlarged_grid, half_grid_set):
        ys = np.array([[0.13], [4.2], [-7.9]])
        base = bal.balayage_constant(half_grid_set, enlarged_grid, ys, eta=1e-5).value
        rng = np.random.default_rng(1)
        perm = rng.permutation(half_grid_set.size)
        shuffled = SamplingSet(dim=1, points=half_grid_set.points[perm],
                               window=half_grid_set.window)
        other = bal.balayage_constant(shuffled, enlarged_grid, ys, eta=1e-5).value
        assert other == pytest.approx(base, rel=1e-3)

    def test_infeasible_center_propagates(self, enlarged_grid):
        sparse = generate_jittered_grid(4.0, 0.0, [[-20.0, 20.0]], seed=0)
        band = geo.SpectrumSet.box([0.5])
        grid = geo.build_grid(geo.enlarge(band, 0.05), 384)
        with pytest.raises(bal.BalayageInfeasibleError) as err:
            bal.balayage_constant(sparse, grid, [[0.13]], eta=1e-3)
        assert err.value.y[0] == pytest.approx(0.13)


class TestFundamentalIdentity:
    def test_interior_residual_small(self, half_grid_set, enlarged_grid, window, solver):
        rng = np.random.default_rng(1)
        ys = rng.uniform(-10, 10, size=(25, 1))
        for trial in range(3):
            poly = spc.random_trig_polynomial(QUARTER_BAND, 5, seed=100 + trial)
            res = bal.fundamental_identity_residual(poly, half_grid_set, enlarged_grid,
                                                    window, ys, solver=solver)
            assert res <= 1e-2

    def test_exact_on_the_set(self, half_grid_set, enlarged_grid, window, solver):
        poly = spc.random_trig_polynomial(QUARTER_BAND, 5, seed=0)
        ys = half_grid_set.points[::10]
        res = bal.fundamental_identity_residual(poly, half_grid_set, enlarged_grid,
                                                window, ys, solver=solver)
        assert res <= 1e-12

    def test_zero_polynomial(self, half_grid_set, enlarged_grid, window, solver):
        poly = spc.TrigPolynomial(frequencies=[0.1], coefficients=[0.0],
                                  spectrum=QUARTER_BAND)
        res = bal.fundamental_identity_residual(poly, half_grid_set, enlarged_grid,
                                                window, [[0.13]], solver=solver)
        assert res == 0.0


class TestLpBound:
    def gaussian(self, nodes, center, width):
        return np.exp(-(((nodes - center) / width) ** 2))

    def test_zero_function(self, half_grid_set, enlarged_grid, window, solver):
        nodes = np.linspace(-5, 5, 41).reshape(-1, 1)
        wts = np.full(41, 0.25)
        rep = bal.lp_balayage_bound(half_grid_set, enlarged_grid, window,
                                    nodes, wts, np.zeros(41), p=2.0, solver=solver)
        assert rep.lhs == 0.0 and rep.ratio == 0.0

    def test_scaling_homogeneity(self, half_grid_set, enlarged_grid, window, solver):
        nodes = np.linspace(-5, 5, 41).reshape(-1, 1)
        wts = np.full(41, 0.25)
        k = self.gaussian(nodes[:, 0], 0.4, 1.3)
        p = 3.0
        base = bal.lp_balayage_bound(half_grid_set, enlarged_grid, window,
                                     nodes, wts, k, p=p, solver=solver)
        doubled = bal.lp_balayage_bound(half_grid_set, enlarged_grid, window,
                                        nodes, wts, 2.0 * k, p=p, solver=solver)
        assert doubled.lhs == pytest.approx(2.0**p * base.lhs, rel=1e-12)
        assert doubled.ratio == pytest.approx(base.ratio, rel=1e-12)

    def test_ratio_stable_over_gaussian_family(self, half_grid_set, enlarged_grid,
                                               window, solver):
        nodes = np.linspace(-6, 6, 49).reshape(-1, 1)
        wts = np.full(49, 0.25)
        rng = np.random.default_rng(3)
        ratios = []
        for _ in range(10):
            k = self.gaussian(nodes[:, 0], rng.uniform(-1, 1), rng.uniform(0.8, 2.0))
            rep = bal.lp_balayage_bound(half_grid_set, enlarged_grid, window,
                                        nodes, wts, k, p=2.0, solver=solver)
            ratios.append(rep.ratio)
        mean = np.mean(ratios)
        assert all(abs(r - mean) <= 0.2 * mean for r in ratios)

    def test_p_must_exceed_one(self, half_grid_set, enlarged_grid, window):
        with pytest.raises(ValueError):
            bal.lp_balayage_bound(half_grid_set, enlarged_grid, window,
                                  [[0.0]], [1.0], [1.0], p=1.0)
