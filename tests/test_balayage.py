import numpy as np
import pytest

from nusample import balayage as bal
from nusample import geometry as geo
from nusample import spectral as spc
from nusample.sampling import SamplingSet, generate_jittered_grid

QUARTER_BAND = geo.SpectrumSet.box([0.25])
EPS = 0.05 * QUARTER_BAND.diameter()

# measured once for the eps=1 window at 801 profile nodes and frozen; the
# construction is deterministic, so regressions show up as a breach here
DECAY_CONSTANT_EPS1 = 1.31e-3


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
        assert window.spectral_profile_at([1.01 * EPS]) == 0.0
        assert window.spectral_profile_at([-2.0 * EPS]) == 0.0

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
        assert win.spectral_profile_at([[0.505, 0.0]]) == 0.0
        assert win.l2_norm > 0

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
            bal.solve_balayage(sparse, grid, [0.13], eta=1e-3)

    def test_two_spike_target_is_additive(self, half_grid_set, enlarged_grid, solver):
        y1, y2 = np.array([0.13]), np.array([-3.71])
        b = solver._target(y1) + solver._target(y2)
        # the plain least-squares core is exactly linear in the target
        plain = bal.BalayageSolver(half_grid_set, enlarged_grid, eta=1e-6, reg=0.0)
        combined, _ = plain.solve_rhs(b)
        separate = plain.solve(y1).coeffs + plain.solve(y2).coeffs
        # rounding scale is set by the truncated pseudo-inverse norm (~1/cutoff)
        assert np.max(np.abs(combined - separate)) <= 1e-6
        # with the l1 polish, coefficients may redistribute along near-null
        # directions, but the fitted exponential sums must still agree
        combined_l1, _ = solver.solve_rhs(b)
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

    def test_solution_json(self, solver):
        data = solver.solve([0.13]).to_json()
        assert set(data) == {"y", "coeffs_re", "coeffs_im", "fit_residual", "l1_mass"}
        assert len(data["coeffs_re"]) == solver.sampling_set.size


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

    def test_threaded_batch_matches_serial(self, solver):
        ys = np.array([[0.13], [4.2], [-7.9], [2.22], [-0.61]])
        serial = bal.balayage_constant(solver.sampling_set, solver.grid, ys,
                                       solver=solver).value
        fresh = bal.BalayageSolver(solver.sampling_set, solver.grid, eta=1e-6)
        threaded = bal.balayage_constant(fresh.sampling_set, fresh.grid, ys,
                                         solver=fresh, max_workers=4).value
        assert threaded == pytest.approx(serial, rel=1e-12)

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
