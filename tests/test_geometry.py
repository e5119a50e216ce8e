import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nusample import geometry as geo
from nusample.sampling import SamplingSet


def lattice_2d(step, extent):
    ax = step * np.arange(-int(extent / step), int(extent / step) + 1)
    gx, gy = np.meshgrid(ax, ax, indexing="ij")
    return np.stack([gx.ravel(), gy.ravel()], axis=1)


class TestLambdaNorm:
    def test_box_is_weighted_sup_norm(self):
        box = geo.SpectrumSet.box([1.0, 1.0])
        assert geo.lambda_norm(box, [0.5, -0.3]) == pytest.approx(0.5)

    def test_origin(self):
        for spec in (geo.SpectrumSet.box([1.0]), geo.SpectrumSet.ball(2.0, 2),
                     geo.SpectrumSet.polytope([[1.0, 0.5], [-1.0, -0.5], [0.0, 1.0], [0.0, -1.0]])):
            assert geo.lambda_norm(spec, np.zeros(spec.dim)) == 0.0

    def test_ball_is_scaled_euclidean(self):
        ball = geo.SpectrumSet.ball(1.0, 2)
        assert geo.lambda_norm(ball, [3.0, 4.0]) == pytest.approx(5.0)

    def test_homogeneity(self):
        rng = np.random.default_rng(0)
        specs = [geo.SpectrumSet.box([0.7, 1.3]), geo.SpectrumSet.ball(0.8, 2),
                 geo.SpectrumSet.polytope([[1.0, 0.0], [-1.0, 0.0], [0.5, 1.0], [-0.5, -1.0]])]
        for spec in specs:
            for _ in range(50):
                g = rng.normal(size=2)
                t = rng.normal()
                lhs = geo.lambda_norm(spec, t * g)
                rhs = abs(t) * geo.lambda_norm(spec, g)
                assert lhs == pytest.approx(rhs, abs=1e-12, rel=1e-12)


class TestPolar:
    def test_box_gives_cross_polytope(self):
        box = geo.SpectrumSet.box([1.0, 1.0])
        polar = geo.polar_set(box)
        assert polar.shape == "polytope"
        pts = np.random.default_rng(1).uniform(-1.5, 1.5, size=(1000, 2))
        expected = np.abs(pts).sum(axis=1) <= 1.0
        assert np.array_equal(polar.contains(pts, tol=0.0), expected)

    def test_unit_ball_self_polar(self):
        ball = geo.SpectrumSet.ball(1.0, 2)
        polar = geo.polar_set(ball)
        assert polar.shape == "ball" and polar.radius == pytest.approx(1.0)

    def test_scaling_law_exact(self):
        box = geo.SpectrumSet.box([1.0, 1.0])
        lhs = geo.polar_set(geo.scale(box, 0.25))
        rhs = geo.scale(geo.polar_set(box), 4.0)

        def ordered(v):
            v = np.round(v, 12)
            return v[np.lexsort((v[:, 1], v[:, 0]))]

        assert np.array_equal(ordered(lhs.vertices), ordered(rhs.vertices))

    def test_gauge_duality_of_polytope(self):
        verts = np.array([[1.0, 0.2], [-1.0, -0.2], [0.3, 1.1], [-0.3, -1.1]])
        spec = geo.SpectrumSet.polytope(verts)
        polar = geo.polar_set(spec)
        pts = np.random.default_rng(2).uniform(-2, 2, size=(500, 2))
        by_support = np.max(pts @ verts.T, axis=1) <= 1.0 + 1e-9
        assert np.array_equal(polar.contains(pts, tol=1e-9), by_support)

    def test_bipolar_membership(self):
        rng = np.random.default_rng(3)
        for spec in (geo.SpectrumSet.box([0.8, 1.4]), geo.SpectrumSet.ball(0.6, 2)):
            double = geo.polar_set(geo.polar_set(spec))
            pts = rng.uniform(-2, 2, size=(500, 2))
            assert np.array_equal(double.contains(pts, tol=1e-9), spec.contains(pts, tol=1e-9))


class TestScale:
    def test_box(self):
        out = geo.scale(geo.SpectrumSet.box([1.0, 1.0]), 0.25)
        assert np.allclose(out.half_widths, [0.25, 0.25])

    def test_ball(self):
        assert geo.scale(geo.SpectrumSet.ball(2.0, 2), 0.5).radius == pytest.approx(1.0)

    def test_polytope_componentwise(self):
        verts = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 2.0], [0.0, -2.0]])
        out = geo.scale(geo.SpectrumSet.polytope(verts), 0.5)
        assert np.allclose(np.sort(out.vertices, axis=0), np.sort(0.5 * verts, axis=0))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            geo.scale(geo.SpectrumSet.box([1.0]), 0.0)


class TestCovering:
    def setup_method(self):
        self.cross = geo.polar_set(geo.SpectrumSet.box([1.0, 1.0]))  # l1 unit ball

    def test_integer_lattice_covers_unit_cell(self):
        pts = lattice_2d(1.0, 3.0)
        # oracle: every grid point of the region is within l1 distance 1 of a
        # lattice point (brute force over the same grid)
        grid = geo._region_grid([[-1, 1], [-1, 1]], 0.05)
        dists = np.abs(grid[:, None, :] - pts[None, :, :]).sum(axis=2).min(axis=1)
        assert np.all(dists <= 1.0 + 1e-12)
        e_set = SamplingSet(dim=2, points=pts, window=[[-3, 3], [-3, 3]])
        rep = geo.covering_check(e_set, self.cross, [[-1, 1], [-1, 1]], 0.05)
        assert rep.covered and rep.witnesses.shape[0] == 0

    def test_even_lattice_fails_near_cell_corner(self):
        pts = lattice_2d(2.0, 4.0)
        # oracle: the l1 distance from (1,1) to the nearest even lattice point is 2
        assert np.abs(pts - np.array([1.0, 1.0])).sum(axis=1).min() == pytest.approx(2.0)
        e_set = SamplingSet(dim=2, points=pts, window=[[-4, 4], [-4, 4]])
        rep = geo.covering_check(e_set, self.cross, [[-1, 1], [-1, 1]], 0.05)
        assert not rep.covered
        corner = np.abs(rep.witnesses - 1.0).sum(axis=1).min()
        assert corner < 0.2

    def test_singleton_region(self):
        e_set = SamplingSet(dim=2, points=np.zeros((1, 2)), window=[[-1, 1], [-1, 1]])
        rep = geo.covering_check(e_set, self.cross, [[0, 0], [0, 0]], 0.5)
        assert rep.covered and rep.n_grid == 1

    def test_empty_set_returns_all_witnesses(self):
        rep = geo.covering_check(np.empty((0, 2)), self.cross, [[-1, 1], [-1, 1]], 0.5)
        assert not rep.covered and rep.witnesses.shape[0] == rep.n_grid

    def test_monotonicity_under_supersets(self):
        pts = lattice_2d(1.0, 3.0)
        base = SamplingSet(dim=2, points=pts, window=[[-3, 3], [-3, 3]])
        extra = np.vstack([pts, [[0.5, 0.5], [-0.25, 0.75]]])
        sup = SamplingSet(dim=2, points=extra, window=[[-3, 3], [-3, 3]])
        assert geo.covering_check(base, self.cross, [[-1, 1], [-1, 1]], 0.1).covered
        assert geo.covering_check(sup, self.cross, [[-1, 1], [-1, 1]], 0.1).covered

    def test_membership_tolerance_reaches_past_the_box(self):
        # p - y = 1 + 1e-13 lies outside the unit interval but within the
        # membership tolerance, so p counts as covered
        rep = geo.covering_check([-1e-13], geo.SpectrumSet.box([1.0]), [[1.0, 1.0]], 0.5)
        assert rep.covered and rep.n_grid == 1

    def test_points_of_wrong_dim_rejected(self):
        line = np.linspace(-3.0, 3.0, 40)
        with pytest.raises(ValueError, match="sampling points have dim 1, body has dim 2"):
            geo.covering_check(line, self.cross, [[-1, 1], [-1, 1]], 0.1)
        with pytest.raises(ValueError, match="sampling points have dim 1, body has dim 2"):
            geo.covering_check(line[:39, None], self.cross, [[-1, 1], [-1, 1]], 0.1)
        with pytest.raises(ValueError, match="sampling points have dim 2, body has dim 1"):
            geo.covering_check(lattice_2d(1.0, 2.0), geo.SpectrumSet.box([1.0]), [[-1, 1]], 0.1)


def _polar_body(kind, dim, sizes, tilt):
    """Polar of a box, ball or symmetric polytope spectrum with the given sizes."""
    if kind == "box":
        return geo.SpectrumSet.box(sizes[:dim]).polar()
    if kind == "ball":
        return geo.SpectrumSet.ball(sizes[0], dim).polar()
    if dim == 1:
        return geo.SpectrumSet.polytope([[sizes[0]], [-sizes[0]]]).polar()
    angles = tilt + np.pi / 3.0 * np.arange(3)
    half = sizes[:, None] * np.stack([np.cos(angles), np.sin(angles)], axis=1)
    return geo.SpectrumSet.polytope(np.vstack([half, -half])).polar()


@st.composite
def covering_cases(draw):
    """A polar body, a region, a resolution and a jittered set around the region
    that covers it or not; lattice sets (no jitter) put grid points on body
    boundaries."""
    dim = draw(st.sampled_from([1, 2]))
    kind = draw(st.sampled_from(["box", "ball", "polytope"]))
    sizes = np.array(draw(st.lists(st.floats(0.5, 1.5), min_size=3, max_size=3)))
    body = _polar_body(kind, dim, sizes, draw(st.floats(0.0, np.pi)))
    lo = np.array(draw(st.lists(st.floats(-3.0, 0.0), min_size=dim, max_size=dim)))
    width = np.array(draw(st.lists(st.floats(0.0, 3.0), min_size=dim, max_size=dim)))
    region = np.stack([lo, lo + width], axis=1)
    resolution = draw(st.sampled_from([0.1, 0.125, 0.25]) | st.floats(0.08, 0.5))
    delta = draw(st.floats(0.4, 1.5))
    jitter = draw(st.sampled_from([0.0, 0.2, 0.45]))
    keep = draw(st.sampled_from([1.0, 0.6]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    axes = [delta * np.arange(np.floor((a - 2.5) / delta), np.ceil((b + 2.5) / delta) + 1)
            for a, b in region]
    pts = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=1)
    pts = pts + jitter * delta * rng.uniform(-1.0, 1.0, pts.shape)
    pts = pts[rng.random(pts.shape[0]) < keep]
    return pts, body, region, resolution


def _all_pairs_witnesses(pts, body, region, resolution):
    """Grid points p with p - y outside the body for every sampling point y."""
    grid = geo._region_grid(region, resolution)
    diff = (grid[:, None, :] - pts[None, :, :]).reshape(-1, body.dim)
    hit = body.contains(diff).reshape(grid.shape[0], pts.shape[0])
    return grid, grid[~hit.any(axis=1)]


class TestCoveringProperties:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(covering_cases())
    def test_matches_all_pairs_definition(self, case):
        pts, body, region, resolution = case
        grid, witnesses = _all_pairs_witnesses(pts, body, region, resolution)
        rep = geo.covering_check(pts, body, region, resolution)
        assert rep.n_grid == grid.shape[0]
        assert rep.covered == (witnesses.shape[0] == 0)
        assert np.array_equal(rep.witnesses, witnesses)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(covering_cases(), st.integers(0, 2**32 - 1))
    def test_adding_points_never_uncovers(self, case, seed):
        pts, body, region, resolution = case
        rng = np.random.default_rng(seed)
        subset = pts[rng.random(pts.shape[0]) < 0.5]
        fewer = geo.covering_check(subset, body, region, resolution)
        more = geo.covering_check(pts, body, region, resolution)
        assert {tuple(w) for w in more.witnesses} <= {tuple(w) for w in fewer.witnesses}
        assert fewer.covered <= more.covered


class TestBuildGrid:
    def test_unit_box_1d(self):
        grid = geo.build_grid(geo.SpectrumSet.box([0.5]), 64)
        assert grid.size == 64
        assert np.allclose(grid.weights, 1.0 / 64)
        assert grid.weights.sum() == pytest.approx(1.0)

    def test_disc_area_within_two_percent(self):
        spec = geo.SpectrumSet.ball(1.0, 2)
        grid = geo.build_grid(spec, 64)
        # midpoint-rule oracle computed independently on the ambient grid
        ax = np.linspace(-1, 1, 65)
        mid = 0.5 * (ax[:-1] + ax[1:])
        gx, gy = np.meshgrid(mid, mid, indexing="ij")
        cell = (ax[1] - ax[0]) ** 2
        oracle = cell * np.count_nonzero(gx**2 + gy**2 <= 1.0 + 1e-12)
        assert grid.weights.sum() == pytest.approx(oracle)
        assert abs(grid.weights.sum() - np.pi) / np.pi < 0.02

    def test_square_counts(self):
        grid = geo.build_grid(geo.SpectrumSet.box([1.0, 1.0]), 32)
        assert grid.size == 1024
        assert grid.weights.sum() == pytest.approx(4.0)

    def test_membership_invariant(self):
        spec = geo.SpectrumSet.ball(0.7, 2)
        grid = geo.build_grid(spec, 48)
        assert np.all(spec.contains(grid.nodes))

    def test_thin_diamond_still_yields_nodes(self):
        # a symmetric convex body always catches a midpoint node, however thin
        thin = geo.SpectrumSet.polytope([[1.0, 0.0], [-1.0, 0.0], [0.0, 0.01], [0.0, -0.01]])
        grid = geo.build_grid(thin, 2)
        assert grid.size >= 1

    def test_too_few_nodes_rejected(self):
        with pytest.raises(ValueError):
            geo.build_grid(geo.SpectrumSet.box([1.0]), 1)


class TestValidation:
    def test_zero_half_width_rejected(self):
        with pytest.raises(ValueError):
            geo.SpectrumSet.box([1.0, 0.0])

    def test_asymmetric_polytope_rejected(self):
        with pytest.raises(ValueError):
            geo.SpectrumSet.polytope([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])

    def test_degenerate_polytope_rejected(self):
        with pytest.raises(ValueError):
            geo.SpectrumSet.polytope([[1.0, 1.0], [-1.0, -1.0]])

    def test_enlarge_contains_neighbourhood_samples(self):
        rng = np.random.default_rng(4)
        for spec in (geo.SpectrumSet.box([0.4, 0.9]), geo.SpectrumSet.ball(0.5, 2),
                     geo.SpectrumSet.polytope([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])):
            big = geo.enlarge(spec, 0.1)
            inside = rng.uniform(-1, 1, size=(2000, 2))
            inside = inside[spec.contains(inside)]
            shift = rng.normal(size=(inside.shape[0], 2))
            shift = 0.1 * shift / np.linalg.norm(shift, axis=1, keepdims=True)
            assert np.all(big.contains(inside + shift, tol=1e-9))


def test_json_roundtrip():
    specs = [geo.SpectrumSet.box([0.5, 1.5]), geo.SpectrumSet.ball(2.0, 1),
             geo.SpectrumSet.polytope([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])]
    for spec in specs:
        data = json.loads(json.dumps(spec.to_json()))
        back = geo.SpectrumSet.from_json(data)
        pts = np.random.default_rng(5).uniform(-2, 2, size=(200, spec.dim))
        assert np.array_equal(back.contains(pts), spec.contains(pts))
