import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import ConvexHull

from nusample import geometry as geo
from nusample.sampling import SamplingSet


def volume(spec) -> float:
    """Lebesgue measure of a spectrum: closed forms for balls and segments,
    the convex hull's area for a 2-d polytope (a 2-d box among them)."""
    if spec.shape == "ball":
        return 2.0 * spec.radius if spec.dim == 1 else float(np.pi * spec.radius**2)
    if spec.dim == 1:
        return 2.0 * float(np.max(np.abs(spec.vertices)))
    return float(ConvexHull(spec.vertices).volume)


def _region_axes(region, resolution):
    """The covering grid by its definition: each axis runs from lo in steps
    of ``resolution`` up to hi."""
    region = np.asarray(region, dtype=float).reshape(-1, 2)
    return [np.arange(lo, hi + resolution / 2.0, resolution) for lo, hi in region]


def _region_grid(region, resolution):
    """The covering grid's cells in grid (C) order."""
    axes = _region_axes(region, resolution)
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(axes))


def lattice_2d(step, extent):
    ax = step * np.arange(-int(extent / step), int(extent / step) + 1)
    gx, gy = np.meshgrid(ax, ax, indexing="ij")
    return np.stack([gx.ravel(), gy.ravel()], axis=1)


# one body of each shape in 1-d and in 2-d, for the gauge properties
GAUGE_BODIES = [geo.SpectrumSet.box([0.7]), geo.SpectrumSet.box([0.7, 1.3]),
                geo.SpectrumSet.ball(0.8, 1), geo.SpectrumSet.ball(0.8, 2),
                geo.SpectrumSet.polytope([[0.6], [-0.6]]),
                geo.SpectrumSet.polytope([[1.0, 0.0], [-1.0, 0.0], [0.5, 1.0], [-0.5, -1.0]])]
# coordinates and scale factors away from the subnormal range, where a
# product would lose relative precision
COORDS = st.one_of(st.just(0.0), st.floats(1e-6, 1e3), st.floats(-1e3, -1e-6))
SCALES = st.one_of(st.floats(1e-3, 1e3), st.floats(-1e3, -1e-3))


@st.composite
def body_and_frequencies(draw, count):
    """A body and ``count`` frequency points of its dimension."""
    body = draw(st.sampled_from(GAUGE_BODIES))
    points = [np.array(draw(st.lists(COORDS, min_size=body.dim, max_size=body.dim)))
              for _ in range(count)]
    return body, *points


class TestLambdaNorm:
    def test_box_is_weighted_sup_norm(self):
        box = geo.SpectrumSet.box([1.0, 1.0])
        assert box.gauge([0.5, -0.3])[0] == pytest.approx(0.5)

    def test_origin(self):
        for spec in (geo.SpectrumSet.box([1.0]), geo.SpectrumSet.ball(2.0, 2),
                     geo.SpectrumSet.polytope([[1.0, 0.5], [-1.0, -0.5], [0.0, 1.0], [0.0, -1.0]])):
            assert spec.gauge(np.zeros(spec.dim))[0] == 0.0

    def test_ball_is_scaled_euclidean(self):
        ball = geo.SpectrumSet.ball(1.0, 2)
        assert ball.gauge([3.0, 4.0])[0] == pytest.approx(5.0)

    def test_homogeneity(self):
        rng = np.random.default_rng(0)
        specs = [geo.SpectrumSet.box([0.7, 1.3]), geo.SpectrumSet.ball(0.8, 2),
                 geo.SpectrumSet.polytope([[1.0, 0.0], [-1.0, 0.0], [0.5, 1.0], [-0.5, -1.0]])]
        for spec in specs:
            for _ in range(50):
                g = rng.normal(size=2)
                t = rng.normal()
                lhs = spec.gauge(t * g)[0]
                rhs = abs(t) * spec.gauge(g)[0]
                assert lhs == pytest.approx(rhs, abs=1e-12, rel=1e-12)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(body_and_frequencies(1), SCALES)
    def test_absolute_homogeneity_property(self, case, t):
        body, g = case
        lhs = body.gauge(t * g)[0]
        rhs = abs(t) * body.gauge(g)[0]
        assert abs(lhs - rhs) <= 1e-12 * rhs

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(body_and_frequencies(2))
    def test_triangle_inequality_property(self, case):
        body, g, h = case
        lhs = body.gauge(g + h)[0]
        assert lhs <= (body.gauge(g)[0] + body.gauge(h)[0]) * (1 + 1e-12)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.floats(1e-3, 1e3), COORDS)
    def test_segment_is_its_box(self, m, x):
        # the polytope [-m, m] and the box of half-width m are one body
        box, segment = geo.SpectrumSet.box([m]), geo.SpectrumSet.polytope([[m], [-m]])
        assert box.gauge(x) == segment.gauge(x)
        assert box.boundary_distance(x) == segment.boundary_distance(x)
        assert np.array_equal(box.polar().vertices, segment.polar().vertices)


class TestPolar:
    def test_box_gives_cross_polytope(self):
        box = geo.SpectrumSet.box([1.0, 1.0])
        polar = box.polar()
        assert polar.shape == "polytope"
        pts = np.random.default_rng(1).uniform(-1.5, 1.5, size=(1000, 2))
        expected = np.abs(pts).sum(axis=1) <= 1.0
        assert np.array_equal(polar.contains(pts, tol=0.0), expected)

    def test_unit_ball_self_polar(self):
        ball = geo.SpectrumSet.ball(1.0, 2)
        polar = ball.polar()
        assert polar.shape == "ball" and polar.radius == pytest.approx(1.0)

    def test_scaling_law_exact(self):
        box = geo.SpectrumSet.box([1.0, 1.0])
        lhs = box.scaled(0.25).polar()
        rhs = box.polar().scaled(4.0)

        def ordered(v):
            v = np.round(v, 12)
            return v[np.lexsort((v[:, 1], v[:, 0]))]

        assert np.array_equal(ordered(lhs.vertices), ordered(rhs.vertices))

    def test_gauge_duality_of_polytope(self):
        verts = np.array([[1.0, 0.2], [-1.0, -0.2], [0.3, 1.1], [-0.3, -1.1]])
        spec = geo.SpectrumSet.polytope(verts)
        polar = spec.polar()
        pts = np.random.default_rng(2).uniform(-2, 2, size=(500, 2))
        by_support = np.max(pts @ verts.T, axis=1) <= 1.0 + 1e-9
        assert np.array_equal(polar.contains(pts, tol=1e-9), by_support)

    def test_bipolar_membership(self):
        rng = np.random.default_rng(3)
        for spec in (geo.SpectrumSet.box([0.8, 1.4]), geo.SpectrumSet.ball(0.6, 2)):
            double = spec.polar().polar()
            pts = rng.uniform(-2, 2, size=(500, 2))
            assert np.array_equal(double.contains(pts, tol=1e-9), spec.contains(pts, tol=1e-9))


def qhull_system(vertices):
    """Half-space form A x <= b of a 2-d polytope from scipy's ConvexHull."""
    eq = ConvexHull(vertices).equations
    return eq[:, :2], -eq[:, 2]


@st.composite
def symmetric_polygons(draw):
    """Vertex lists of symmetric 2-d polygons: random half vertices and
    their negations, with some vertices repeated, or with points added on
    hull edges (each with its negation, on the opposite edge)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    half = rng.normal(size=(draw(st.integers(1, 6)), 2)) * draw(st.floats(0.1, 10.0))
    v = np.vstack([half, -half])
    if np.linalg.matrix_rank(v, tol=1e-12) < 2:
        v = np.vstack([v, [[0.0, 1.0], [0.0, -1.0]]])
    extra = draw(st.sampled_from(["none", "repeated", "on-edge"]))
    if extra == "repeated":
        v = np.vstack([v, v[rng.integers(0, v.shape[0], 3)]])
    elif extra == "on-edge":
        corners = v[ConvexHull(v).vertices]   # counterclockwise
        k = rng.integers(0, corners.shape[0], 2)
        t = rng.uniform(0.1, 0.9, (2, 1))
        on_edge = t * corners[k] + (1 - t) * np.roll(corners, -1, axis=0)[k]
        v = np.vstack([v, on_edge, -on_edge])
    return rng.permutation(v), rng


class TestHull:
    """The numpy hull against scipy's ConvexHull: gauge, boundary distance
    and polar body."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(symmetric_polygons())
    def test_matches_convex_hull(self, case):
        v, rng = case
        spec = geo.SpectrumSet.polytope(v)
        a, b = qhull_system(v)
        pts = rng.normal(size=(50, 2)) * np.max(np.abs(v))
        gauge = np.max((pts @ a.T) / b, axis=1)
        assert np.allclose(spec.gauge(pts), gauge, rtol=1e-12, atol=0.0)
        for p in pts[:10] * (0.9 * rng.random((10, 1)) / gauge[:10, None]):
            assert spec.boundary_distance(p) == pytest.approx(
                np.min(b - a @ p), rel=1e-10, abs=1e-12 * np.max(b))
        # the polar's gauge is the support function of the vertices
        support = np.max(pts @ v.T, axis=1)
        assert np.allclose(spec.polar().gauge(pts), support, rtol=1e-10, atol=0.0)

    def test_normals_are_unit_and_outward(self):
        a, b = geo.SpectrumSet.polytope(HEXAGON)._hull_system
        assert a.shape == (6, 2)
        assert np.allclose(np.linalg.norm(a, axis=1), 1.0, rtol=0, atol=1e-15)
        # every vertex inside every half-plane, two vertices on each edge
        slack = b - np.asarray(HEXAGON) @ a.T
        assert np.all(slack >= -1e-15) and np.all(np.sum(slack <= 1e-15, axis=0) == 2)

    def test_collinear_vertices_are_degenerate(self):
        line = geo.SpectrumSet(dim=2, shape="polytope",
                               vertices=np.array([[1.0, 2.0], [-1.0, -2.0], [0.5, 1.0]]))
        with pytest.raises(ValueError, match="degenerate polytope"):
            line._hull_system


class TestScale:
    def test_box(self):
        out = geo.SpectrumSet.box([1.0, 1.0]).scaled(0.25)
        assert np.allclose(out.bounding_box(), [[-0.25, 0.25], [-0.25, 0.25]])

    def test_ball(self):
        assert geo.SpectrumSet.ball(2.0, 2).scaled(0.5).radius == pytest.approx(1.0)

    def test_polytope_componentwise(self):
        verts = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 2.0], [0.0, -2.0]])
        out = geo.SpectrumSet.polytope(verts).scaled(0.5)
        assert np.allclose(np.sort(out.vertices, axis=0), np.sort(0.5 * verts, axis=0))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            geo.SpectrumSet.box([1.0]).scaled(0.0)


@st.composite
def enlargement_cases(draw):
    """A 1-d or 2-d box or ball, or a symmetric 2-d polygon, an eps from 0
    to twice the body's size, and a generator for points."""
    dim = draw(st.sampled_from([1, 2]))
    kind = draw(st.sampled_from(["box", "ball", "polytope"] if dim == 2 else ["box", "ball"]))
    if kind == "polytope":
        v, rng = draw(symmetric_polygons())
        body = geo.SpectrumSet.polytope(v)
    else:
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        sizes = draw(st.lists(st.floats(0.1, 10.0), min_size=dim, max_size=dim))
        body = (geo.SpectrumSet.box(sizes) if kind == "box"
                else geo.SpectrumSet.ball(sizes[0], dim))
    eps = draw(st.just(0.0) | st.floats(1e-3, 2.0)) * np.max(body.bounding_box())
    return body, eps, rng


HEXAGON = [[0.5, 0.2], [-0.5, -0.2], [0.1, 0.55], [-0.1, -0.55], [0.45, -0.35], [-0.45, 0.35]]
SEGMENT = [[0.8], [-0.8]]


def _counterclockwise(vertices):
    v = np.asarray(vertices, dtype=float)
    return v[np.argsort(np.arctan2(v[:, 1], v[:, 0]))]


class TestMeasures:
    """Volume, boundary distance, diameter and enlargement against closed forms."""

    def test_box_volume_is_product_of_widths(self):
        assert volume(geo.SpectrumSet.box([0.5])) == pytest.approx(1.0)
        assert volume(geo.SpectrumSet.box([0.3, 1.5])) == pytest.approx(0.6 * 3.0)

    def test_ball_volume(self):
        assert volume(geo.SpectrumSet.ball(0.7, 1)) == pytest.approx(1.4)
        assert volume(geo.SpectrumSet.ball(0.7, 2)) == pytest.approx(np.pi * 0.7**2)

    def test_polytope_volume_is_shoelace_area(self):
        x, y = _counterclockwise(HEXAGON).T
        shoelace = 0.5 * abs(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))
        assert shoelace == pytest.approx(0.8025)
        assert volume(geo.SpectrumSet.polytope(HEXAGON)) == pytest.approx(shoelace, rel=1e-12)
        assert volume(geo.SpectrumSet.polytope(SEGMENT)) == pytest.approx(1.6)

    @pytest.mark.parametrize("spec", [
        geo.SpectrumSet.box([0.5]), geo.SpectrumSet.box([0.3, 1.5]),
        geo.SpectrumSet.ball(0.7, 1), geo.SpectrumSet.ball(0.7, 2),
        geo.SpectrumSet.polytope(SEGMENT), geo.SpectrumSet.polytope(HEXAGON)])
    def test_volume_scales_as_power_of_dimension(self, spec):
        for rho in (0.5, 3.0):
            assert volume(spec.scaled(rho)) == pytest.approx(rho**spec.dim * volume(spec),
                                                              rel=1e-12)

    def test_ball_boundary_distance(self):
        ball = geo.SpectrumSet.ball(1.5, 2)
        for p in ([0.0, 0.0], [0.3, -0.4], [1.2, 0.5]):
            assert ball.boundary_distance(p) == pytest.approx(1.5 - np.linalg.norm(p))
        assert geo.SpectrumSet.ball(1.5, 1).boundary_distance([-0.5]) == pytest.approx(1.0)

    def test_polytope_boundary_distance_is_nearest_facet(self):
        v = _counterclockwise(HEXAGON)
        edges = np.roll(v, -1, axis=0) - v
        normals = np.stack([edges[:, 1], -edges[:, 0]], axis=1)   # outward
        normals /= np.linalg.norm(normals, axis=1, keepdims=True)
        poly = geo.SpectrumSet.polytope(HEXAGON)
        for p in np.random.default_rng(6).uniform(-0.15, 0.15, size=(20, 2)):
            nearest = np.min(np.sum((v - p) * normals, axis=1))
            assert poly.boundary_distance(p) == pytest.approx(nearest, rel=1e-12)
        assert geo.SpectrumSet.polytope(SEGMENT).boundary_distance([0.3]) == pytest.approx(0.5)

    def test_diameter(self):
        assert geo.SpectrumSet.ball(0.7, 1).diameter() == pytest.approx(1.4)
        assert geo.SpectrumSet.ball(0.7, 2).diameter() == pytest.approx(1.4)
        for verts in (HEXAGON, SEGMENT):
            v = np.asarray(verts)
            widest = np.max(np.linalg.norm(v[:, None, :] - v[None, :, :], axis=2))
            assert widest == pytest.approx(2.0 * np.max(np.linalg.norm(v, axis=1)))
            assert geo.SpectrumSet.polytope(verts).diameter() == pytest.approx(widest)

    def test_segment_enlarged_by_eps(self):
        out = geo.SpectrumSet.polytope(SEGMENT).enlarged(0.1)
        assert out.shape == "polytope"
        assert np.allclose(np.sort(out.vertices[:, 0]), [-0.9, 0.9], rtol=0, atol=1e-15)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(enlargement_cases())
    def test_enlarged_holds_the_eps_neighbourhood(self, case):
        body, eps, rng = case
        big = body.enlarged(eps)
        # points of the body: on its boundary, at its vertices, and inside
        d = rng.normal(size=(200, body.dim))
        inside = d / body.gauge(d)[:, None]
        inside = np.vstack([inside, inside * rng.random((200, 1))]
                           + ([] if body.vertices is None else [body.vertices]))
        shift = rng.normal(size=inside.shape)
        shift *= eps * rng.random((inside.shape[0], 1)) ** 0.1 / np.linalg.norm(
            shift, axis=1, keepdims=True)
        assert np.all(big.contains(inside + shift, tol=1e-9))

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=2), st.floats(0.0, 1e3))
    def test_box_enlarged_by_eps_exactly(self, h, eps):
        out = geo.SpectrumSet.box(h).enlarged(eps).bounding_box()
        assert np.array_equal(out, np.stack([-(np.array(h) + eps), np.array(h) + eps], axis=1))


class TestCovering:
    def setup_method(self):
        self.cross = geo.SpectrumSet.box([1.0, 1.0]).polar()  # l1 unit ball

    def test_integer_lattice_covers_unit_cell(self):
        pts = lattice_2d(1.0, 3.0)
        # oracle: every grid point of the region is within l1 distance 1 of a
        # lattice point (brute force over the same grid)
        grid = _region_grid([[-1, 1], [-1, 1]], 0.05)
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

    @pytest.mark.parametrize("region,message", [
        ([[1.0, 0.0], [0.0, 1.0]], r"region axis 0 has bounds \[1.0, 0.0\]"),
        ([[-1.0, 1.0], [0.5, -0.5]], r"region axis 1 has bounds \[0.5, -0.5\]"),
        ([[-1.0, np.nan], [-1.0, 1.0]], r"region axis 0 has bounds \[-1.0, nan\]"),
        ([[-1.0, 1.0], [-np.inf, 1.0]], r"region axis 1 has bounds \[-inf, 1.0\]"),
    ], ids=["reversed-x", "reversed-y", "nan-bound", "infinite-bound"])
    def test_bad_region_rejected(self, region, message):
        e_set = SamplingSet(dim=2, points=np.zeros((1, 2)), window=[[-1, 1], [-1, 1]])
        with pytest.raises(ValueError, match=message):
            geo.covering_check(e_set, self.cross, region, 0.5)
        with pytest.raises(ValueError, match=message):
            geo.covering_check(np.empty((0, 2)), self.cross, region, 0.5)

    @pytest.mark.parametrize("resolution", [0.0, -0.5, np.nan, np.inf])
    def test_bad_resolution_rejected(self, resolution):
        with pytest.raises(ValueError, match=f"resolution must be positive and finite, got {resolution}"):
            geo.covering_check(np.zeros((1, 2)), self.cross, [[-1, 1], [-1, 1]], resolution)

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
    grid = _region_grid(region, resolution)
    diff = (grid[:, None, :] - pts[None, :, :]).reshape(-1, body.dim)
    hit = body.contains(diff).reshape(grid.shape[0], pts.shape[0])
    return grid, grid[~hit.any(axis=1)]


@st.composite
def stressed_covering_cases(draw):
    """Cases that press on the inscribed-box pass of the covering check:
    regions offset near +-1e6, where rounding y -+ inner errs by up to 6e-11;
    regions many translates wide; and thin tilted rhombi, whose inscribed box
    is small.  Bodies are a whole number of grid steps wide, and on-grid sets
    put their points on grid cells, so cells fall on body boundaries."""
    dim = draw(st.sampled_from([1, 2]))
    kind = draw(st.sampled_from(["box", "ball", "rhombus"] if dim == 2 else ["box", "ball"]))
    resolution = draw(st.sampled_from([0.01, 0.05, 0.1]))
    size = draw(st.integers(1, 3)) * resolution
    if kind == "box":
        body = geo.SpectrumSet.box([size] * dim)
    elif kind == "ball":
        body = geo.SpectrumSet.ball(size, dim)
    else:
        tilt = draw(st.floats(0.0, np.pi))
        u = np.array([np.cos(tilt), np.sin(tilt)])
        v = draw(st.floats(0.02, 0.2)) * np.array([-u[1], u[0]])
        body = geo.SpectrumSet.polytope(3.0 * size * np.array([u, -u, v, -v]))
    offset = draw(st.sampled_from([0.0, 1e6, -1e6])) + draw(st.floats(-1.0, 1.0))
    lo = offset + np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=dim, max_size=dim)))
    steps = draw(st.lists(st.integers(0, 30 if dim == 2 else 400), min_size=dim, max_size=dim))
    region = np.stack([lo, lo + resolution * np.array(steps)], axis=1)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    on_grid = draw(st.booleans())
    if on_grid:   # every k-th grid cell
        k = draw(st.integers(2, 4))
        axes = [ax[::k] for ax in _region_axes(region, resolution)]
    else:         # a lattice around the region, dense or sparse
        half = body.bounding_box()[:, 1]
        delta = draw(st.floats(0.5, 3.0)) * np.min(half)
        axes = [a + delta * np.arange(np.floor(-2.0 * h / delta), np.ceil((b - a + 2.0 * h) / delta) + 1)
                for (a, b), h in zip(region, half)]
    pts = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=1)
    if not on_grid:
        pts = pts + draw(st.sampled_from([0.0, 0.2, 0.45])) * size * rng.uniform(-1.0, 1.0, pts.shape)
    return pts, body, region, resolution


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

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(stressed_covering_cases())
    def test_matches_all_pairs_definition_under_stress(self, case):
        pts, body, region, resolution = case
        grid, witnesses = _all_pairs_witnesses(pts, body, region, resolution)
        rep = geo.covering_check(pts, body, region, resolution)
        assert rep.n_grid == grid.shape[0]
        assert rep.covered == (witnesses.shape[0] == 0)
        assert np.array_equal(rep.witnesses, witnesses)

    @pytest.mark.parametrize("offset", [1e6, -1e6])
    @pytest.mark.parametrize("dim,size,every", [(1, 1, 2), (1, 2, 3), (2, 1, 2), (2, 1, 3)])
    def test_cells_on_body_boundaries_at_large_offsets(self, offset, dim, size, every):
        # near 1e6 the distance between grid cells ``size`` steps of 0.01 apart
        # rounds to either side of the body's half-width, and y + inner rounds
        # by up to 6e-11, so pass 1 must leave the ulps of y out of its box
        resolution = 0.01
        lo = offset + np.array([0.37, -0.61])[:dim]
        region = np.stack([lo, lo + resolution * (200 if dim == 1 else 30)], axis=1)
        body = geo.SpectrumSet.box([size * resolution] * dim)
        axes = [ax[::every] for ax in _region_axes(region, resolution)]
        pts = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=1)
        grid, witnesses = _all_pairs_witnesses(pts, body, region, resolution)
        rep = geo.covering_check(pts, body, region, resolution)
        assert witnesses.shape[0] > 0
        assert np.array_equal(rep.witnesses, witnesses)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_body_narrower_than_coordinate_ulps(self, dim):
        # the inscribed box shrinks to below zero width: pass 1 marks nothing
        # and the membership test alone decides
        region = np.array([[1e6, 1e6 + 1e-9]] * dim)
        pts = np.array([[1e6] * dim, [1e6 + 1e-9] * dim])
        body = geo.SpectrumSet.box([1e-10] * dim)
        grid, witnesses = _all_pairs_witnesses(pts, body, region, 1e-10)
        rep = geo.covering_check(pts, body, region, 1e-10)
        assert 0 < witnesses.shape[0] < grid.shape[0]
        assert np.array_equal(rep.witnesses, witnesses)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(covering_cases() | stressed_covering_cases())
    def test_inscribed_box_pass_marks_only_passing_cells(self, case):
        # each cell that pass 1 marks for a point y passes the membership
        # test for y, and a point that is itself a cell marks that cell
        pts, body, region, resolution = case
        axes = _region_axes(region, resolution)
        cells = _region_grid(region, resolution)
        for y in pts:
            marked = geo._surely_covered(axes, y[None, :], body).ravel()
            assert np.all(body.contains(cells[marked] - y))
            assert marked[np.all(cells == y, axis=1)].all()

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
            big = spec.enlarged(0.1)
            inside = rng.uniform(-1, 1, size=(2000, 2))
            inside = inside[spec.contains(inside)]
            shift = rng.normal(size=(inside.shape[0], 2))
            shift = 0.1 * shift / np.linalg.norm(shift, axis=1, keepdims=True)
            assert np.all(big.contains(inside + shift, tol=1e-9))
