import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nusample import geometry as geo
from nusample import spectral as spc

UNIT_BAND = geo.SpectrumSet.box([0.5])


def pw_inner(f, g) -> complex:
    """Weighted spectral inner product sum_k w_k F_k conj(G_k) of two signals
    on the same grid: the same nodes and weights."""
    if not (np.array_equal(f.grid.nodes, g.grid.nodes)
            and np.array_equal(f.grid.weights, g.grid.weights)):
        raise ValueError("grid mismatch in pw_inner")
    return complex(np.sum(f.grid.weights * f.coeffs * np.conj(g.coeffs)))


def flat_signal(nodes=512):
    grid = geo.build_grid(UNIT_BAND, nodes)
    return spc.BandlimitedSignal(grid=grid, coeffs=np.ones(grid.size, dtype=complex))


class TestEvaluate:
    def test_flat_spectrum_at_origin_gives_volume(self):
        f = flat_signal()
        assert spc.evaluate(f, 0.0) == pytest.approx(1.0)

    def test_discrete_sinc_zero_at_one(self):
        f = flat_signal(512)
        assert abs(spc.evaluate(f, 1.0)) <= 1e-2

    def test_single_node_spike_is_pure_exponential(self):
        grid = geo.build_grid(UNIT_BAND, 64)
        k = 17
        coeffs = np.zeros(grid.size, dtype=complex)
        coeffs[k] = 1.0 / grid.weights[k]
        f = spc.BandlimitedSignal(grid=grid, coeffs=coeffs)
        for x in (0.0, 0.3, -2.7):
            expected = np.exp(2j * np.pi * x * grid.nodes[k, 0])
            assert spc.evaluate(f, x) == pytest.approx(expected)

    def test_linearity(self):
        grid = geo.build_grid(UNIT_BAND, 64)
        f = spc.random_coeff_signal(grid, 0)
        g = spc.random_coeff_signal(grid, 1)
        a, b = 1.3 - 0.2j, -0.7 + 2.1j
        combo = spc.BandlimitedSignal(grid=grid, coeffs=a * f.coeffs + b * g.coeffs)
        x = 0.37
        assert spc.evaluate(combo, x) == pytest.approx(
            a * spc.evaluate(f, x) + b * spc.evaluate(g, x))

    def test_matches_discrete_fourier_inversion_at_integers(self):
        n = 256
        grid = geo.build_grid(UNIT_BAND, n)
        f = spc.random_coeff_signal(grid, 3)
        # midpoint nodes are (k + 1/2)/n - 1/2, so integer-time evaluation is an
        # inverse DFT with a half-node and half-band phase twist
        inv = np.fft.ifft(f.coeffs)
        for m in range(-n // 4, n // 4 + 1, 7):
            phase = np.exp(2j * np.pi * m * (0.5 / n - 0.5))
            expected = inv[m % n] * phase
            assert spc.evaluate(f, float(m)) == pytest.approx(expected, abs=1e-10)


@st.composite
def exp_axis_cases(draw):
    """Points and 1-d nodes for the factored exponential builder: a lattice
    origin + k * step with n nodes (n = 1, primes and squares among them) and
    a step of either sign, taken in order, as a shuffled subset, or jittered
    off the lattice.  The point set may be empty."""
    n = draw(st.one_of(st.sampled_from([1, 2, 4, 7, 9, 16, 97, 121, 127, 256]),
                       st.integers(1, 300)))
    step = draw(st.floats(0.1, 8.0)) / n * draw(st.sampled_from([1.0, -1.0]))
    nodes = draw(st.floats(-3.0, 3.0)) + step * np.arange(n)
    layout = draw(st.sampled_from(["lattice", "shuffled", "off"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if layout == "shuffled":   # the two first nodes stay, so the step is the smallest gap
        keep = rng.random(n) < 0.7
        keep[:2] = True
        nodes = rng.permutation(nodes[keep])
    elif layout == "off":
        nodes = nodes + rng.uniform(-0.3, 0.3, n) * abs(step)
    x = rng.uniform(-10.0, 10.0, draw(st.integers(0, 40)))
    return x, nodes, layout, draw(st.sampled_from([1, -1]))


@st.composite
def exp_grid_cases(draw):
    """Points and 2-d nodes: a box, ball or polytope grid from build_grid,
    taken whole, as a shuffled subset, or jittered off the lattice.  The
    point set may be empty."""
    kind = draw(st.sampled_from(["box", "ball", "polytope"]))
    size = draw(st.floats(0.2, 2.0))
    if kind == "box":
        spec = geo.SpectrumSet.box([size, draw(st.floats(0.5, 2.0)) * size])
    elif kind == "ball":
        spec = geo.SpectrumSet.ball(size)
    else:
        radii = np.array(draw(st.lists(st.floats(0.6, 1.0), min_size=3, max_size=3)))
        angles = draw(st.floats(0.0, np.pi)) + np.pi / 3.0 * np.arange(3)
        half = size * radii[:, None] * np.stack([np.cos(angles), np.sin(angles)], axis=1)
        spec = geo.SpectrumSet.polytope(np.vstack([half, -half]))
    nodes = geo.build_grid(spec, draw(st.integers(3, 24))).nodes
    layout = draw(st.sampled_from(["lattice", "shuffled", "off"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if layout == "shuffled":
        nodes = rng.permutation(nodes[rng.random(nodes.shape[0]) < 0.7])
    elif layout == "off":
        nodes = nodes + rng.uniform(-0.3, 0.3, nodes.shape) * np.ptp(nodes, axis=0) / 24
    x = rng.uniform(-10.0, 10.0, (draw(st.integers(0, 40)), 2))
    return x, nodes, layout, draw(st.sampled_from([1, -1]))


def lattice_indices_by_unique(nodes):
    """The lattice test on the smallest gap, by np.unique: per axis the step is
    the smallest gap between the distinct coordinates, every coordinate lies
    within 16 ulps of the axis scale of origin + index * step, and no two
    nodes share a flat index."""
    origin = nodes.min(axis=0)
    steps = np.ones(nodes.shape[1])
    idx = np.empty(nodes.shape, dtype=np.int64)
    for a, col in enumerate(nodes.T):
        tol = 16 * np.finfo(float).eps * np.max(np.abs(col))
        coords = np.unique(col)
        if coords.size > 1:
            gap = np.min(np.diff(coords))
            if gap <= tol:
                return None
            span = coords[-1] - coords[0]
            steps[a] = span / np.rint(span / gap)
        idx[:, a] = np.rint((col - origin[a]) / steps[a])
        if np.max(np.abs(origin[a] + idx[:, a] * steps[a] - col)) > tol:
            return None
    flat = np.ravel_multi_index(idx.T, idx.max(axis=0) + 1)
    if np.unique(flat).size != flat.size:
        return None
    return idx, origin, steps


@st.composite
def lattice_node_sets(draw):
    """Nodes of a 1-d or 2-d box, ball or polytope grid from build_grid:
    whole, a shuffled subset, jittered, with nodes repeated, or with a node
    moved next to another by a few ulps of the axis scale, within the
    lattice tolerance (4 ulps) or beyond it (64 ulps)."""
    dim = draw(st.sampled_from([1, 2]))
    kind = draw(st.sampled_from(["box", "ball", "polytope"]))
    size = draw(st.floats(0.2, 2.0))
    if kind == "box":
        spec = geo.SpectrumSet.box([size, draw(st.floats(0.5, 2.0)) * size][:dim])
    elif kind == "ball":
        spec = geo.SpectrumSet.ball(size, dim)
    elif dim == 1:
        spec = geo.SpectrumSet.polytope([[size], [-size]])
    else:
        spec = geo.SpectrumSet.polytope([[size, 0.2 * size], [-size, -0.2 * size],
                                         [0.3 * size, size], [-0.3 * size, -size]])
    nodes = geo.build_grid(spec, draw(st.integers(2, 30 if dim == 2 else 600))).nodes
    layout = draw(st.sampled_from(["grid", "shuffled", "jittered", "repeated",
                                   "near-4", "near-64"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    subset = None
    if layout == "shuffled":   # a nonempty subset in random order, its size log-uniform
        pick = rng.permutation(nodes.shape[0])[:int(np.ceil(nodes.shape[0] ** rng.random()))]
        subset = lattice_indices_by_unique(nodes)[0][pick]
        subset -= subset.min(axis=0)
        subset //= np.maximum(np.gcd.reduce(subset, axis=0), 1)
        nodes = nodes[pick]
    elif layout == "jittered":
        nodes = nodes + rng.uniform(-0.2, 0.2, nodes.shape) * np.ptp(nodes, axis=0) / 30
    elif layout == "repeated":
        nodes = rng.permutation(np.vstack([nodes, nodes[rng.integers(0, nodes.shape[0], 3)]]))
    elif layout.startswith("near"):
        ulps = int(layout.split("-")[1])
        near = nodes[rng.integers(0, nodes.shape[0])].copy()
        axis = rng.integers(0, dim)
        near[axis] += ulps * np.finfo(float).eps * np.max(np.abs(nodes[:, axis]))
        nodes = np.vstack([nodes, near])
    # a shuffled subset also carries its lattice indices: those in the full
    # grid, less their minimum, over the gcd of their gaps along each axis
    return nodes, layout, subset


class TestLatticeIndices:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(lattice_node_sets())
    def test_matches_unique_definition(self, case):
        nodes, layout, subset = case
        got, expect = spc._lattice_indices(nodes), lattice_indices_by_unique(nodes)
        if layout == "grid":
            assert expect is not None
        if layout in ("repeated", "near-4"):
            assert expect is None
        if subset is not None:
            # every subset of a lattice is one, though gaps of 2 and 3 steps
            # miss the step of the smallest gap: 5 / rint(5 / 2) = 2.5
            assert got is not None and np.array_equal(got[0], subset)
        if expect is not None:
            for g, e in zip(got, expect):
                assert np.array_equal(g, e)
        elif subset is None:
            assert got is None

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.floats(-2.0, 2.0), st.floats(1e-3, 1.0), st.integers(1, 4),
           st.lists(st.integers(0, 60), max_size=40), st.randoms(use_true_random=False))
    def test_step_is_gcd_of_gaps(self, origin, step, multiple, more, order):
        # nodes at 0, 2 and 5 steps, and more, of a lattice of step * multiple
        k = np.unique(np.concatenate([[0, 2, 5], more])) * multiple
        order.shuffle(k)
        nodes = origin + step * k.astype(float)
        got = spc._lattice_indices(nodes[:, None])
        assert got is not None
        assert np.array_equal(got[0][:, 0], k // multiple)
        assert got[2][0] == pytest.approx(step * multiple, rel=1e-12)
        x = np.linspace(-10.0, 10.0, 41)
        expect = spc._exp_matrix(x[:, None], nodes[:, None])
        assert np.all(np.abs(spc.exp_table(x, nodes) - expect) <= 1e-12)


class TestExpTable:
    # every entry has modulus 1, so the bounds below are relative

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(exp_axis_cases())
    def test_matches_dense_builder(self, case):
        x, nodes, layout, sign = case
        lattice = spc._lattice_indices(nodes[:, None])
        if layout != "off":
            assert lattice is not None
        elif nodes.size > 2:
            assert lattice is None     # the dense fallback
        got = spc.exp_table(x, nodes, sign=sign)
        expect = spc._exp_matrix(sign * x[:, None], nodes[:, None])
        assert got.shape == expect.shape
        assert np.all(np.abs(got - expect) <= 1e-12)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(exp_grid_cases())
    def test_matches_dense_builder_2d(self, case):
        x, nodes, layout, sign = case
        lattice = spc._lattice_indices(nodes) if nodes.size else None
        if layout == "lattice":
            assert lattice is not None
        elif layout == "off" and nodes.shape[0] > 2:
            assert lattice is None
        got = spc.exp_table(x, nodes, sign=sign)
        expect = spc._exp_matrix(sign * x, nodes)
        assert got.shape == expect.shape == (x.shape[0], nodes.shape[0])
        assert np.all(np.abs(got - expect) <= 1e-12)

    def test_lattice_box_past_int64_builds_dense(self):
        # a gap of 20 ulps on both axes is a lattice step, and the box of
        # about 1e14 steps per axis holds more cells than an int64 counts
        a = np.array([0.0, 1.0, 1.0 + 20 * np.finfo(float).eps])
        nodes = np.stack([a, a], axis=1)
        assert spc._lattice_indices(nodes) is not None
        x = np.random.default_rng(0).uniform(-10.0, 10.0, (7, 2))
        assert np.all(np.abs(spc.exp_table(x, nodes) - spc._exp_matrix(x, nodes)) <= 1e-12)

    # the reconstruct benchmark's 1,024 and 2,047 difference columns at |x| <= 640,
    # frame bounds at 4,096 nodes, and the balayage system of 81 points by 384
    @pytest.mark.parametrize("half,origin,n", [(640.0, -0.5, 1024), (640.0, -1.0, 2047),
                                               (80.0, -0.5, 4096), (20.0, -0.2625, 384)])
    @pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                        reason="no extended precision for the reference")
    def test_factored_table_matches_long_double_reference(self, half, origin, n):
        # each entry is off by about eps times its phase 2 pi x (origin + k step),
        # the rounding of that phase: measured at most 1.05 eps times the largest
        # phase here, and 2.54 for a builder taking one exponential per column
        x = np.random.default_rng(n).uniform(-half, half, 400)
        step = -2.0 * origin / n
        a, b = spc._exp_factors(x, origin, step, n)
        got = spc._factored_table(x.size, [(np.arange(n), a, b)])
        turns = x.astype(np.longdouble)[:, None] * (
            np.longdouble(origin) + np.arange(n, dtype=np.longdouble) * np.longdouble(step))
        turns -= np.rint(turns)
        expect = np.exp(1j * (2 * np.pi * turns.astype(float)))
        phase = 2 * np.pi * np.max(np.abs(x)) * max(abs(origin), abs(origin + (n - 1) * step))
        assert np.max(np.abs(got - expect)) <= 4 * np.finfo(float).eps * phase

    def test_sparse_lattice_subset_builds_dense(self, monkeypatch):
        # three nodes on a lattice of step 1e-6: the two factor tables would
        # hold 2,001 columns where the dense table holds 3
        def no_factors(*args):
            raise AssertionError("factor tables built for 3 nodes")
        monkeypatch.setattr(spc, "_exp_factors", no_factors)
        x = np.linspace(-5.0, 5.0, 1000)
        nodes = np.array([0.0, 1e-6, 1.0])
        assert spc._lattice_indices(nodes[:, None]) is not None
        got = spc.exp_table(x, nodes)
        assert np.all(np.abs(got - spc._exp_matrix(x[:, None], nodes[:, None])) <= 1e-12)


@st.composite
def exp_sum_cases(draw):
    """Points, nodes and complex coefficients for the factored exponential
    sum: a 1-d or 2-d box, ball or polytope grid from build_grid, taken
    whole, as a shuffled subset, jittered off the lattice, or as a sparse
    lattice subset of three nodes (the dense product).  The point set may be
    empty."""
    dim = draw(st.sampled_from([1, 2]))
    kind = draw(st.sampled_from(["box", "ball", "polytope"]))
    size = draw(st.floats(0.2, 2.0))
    if kind == "box":
        spec = geo.SpectrumSet.box([size, draw(st.floats(0.5, 2.0)) * size][:dim])
    elif kind == "ball":
        spec = geo.SpectrumSet.ball(size, dim)
    elif dim == 1:
        spec = geo.SpectrumSet.polytope([[size], [-size]])
    else:
        radii = np.array(draw(st.lists(st.floats(0.6, 1.0), min_size=3, max_size=3)))
        angles = draw(st.floats(0.0, np.pi)) + np.pi / 3.0 * np.arange(3)
        half = size * radii[:, None] * np.stack([np.cos(angles), np.sin(angles)], axis=1)
        spec = geo.SpectrumSet.polytope(np.vstack([half, -half]))
    nodes = geo.build_grid(spec, draw(st.integers(8, 40 if dim == 2 else 300))).nodes
    layout = draw(st.sampled_from(["lattice", "shuffled", "off", "sparse"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if layout == "shuffled":
        nodes = rng.permutation(nodes[rng.random(nodes.shape[0]) < 0.7])
    elif layout == "off":
        nodes = nodes + rng.uniform(-0.3, 0.3, nodes.shape) * np.ptp(nodes, axis=0) / 40
    elif layout == "sparse":   # the first two nodes keep a lattice step between them
        nodes = nodes[[0, 1, rng.integers(2, nodes.shape[0])]]
    coeffs = rng.standard_normal(nodes.shape[0]) + 1j * rng.standard_normal(nodes.shape[0])
    x = rng.uniform(-10.0, 10.0, (draw(st.integers(0, 40)), dim))
    return x, nodes, coeffs, layout, draw(st.sampled_from([1, -1]))


class TestExpSum:
    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(exp_sum_cases())
    def test_matches_dense_product(self, case):
        x, nodes, coeffs, layout, sign = case
        factored = spc._lattice_split(x, nodes, sign)[2] is not None
        if layout == "lattice":
            assert factored
        elif layout == "sparse":
            assert spc._lattice_indices(nodes) is not None and not factored
        got = spc.exp_sum(x, nodes, coeffs, sign=sign)
        expect = spc._exp_matrix(sign * x, nodes) @ coeffs
        assert got.shape == expect.shape == (x.shape[0],)
        scale = np.max(np.abs(expect), initial=0.0)
        assert np.all(np.abs(got - expect) <= 1e-12 * scale)


def _sparse_lattice(cells_per_node: float, nodes: int, dim: int, seed: int):
    """``nodes`` distinct nodes drawn from a lattice box of about
    ``cells_per_node * nodes`` cells spanning [0.37, 1.37] per axis, its
    corners kept so that the span is fixed."""
    rng = np.random.default_rng(seed)
    side = int(round((cells_per_node * nodes) ** (1.0 / dim)))
    cells = np.stack(np.meshgrid(*[np.arange(side)] * dim, indexing="ij"), -1).reshape(-1, dim)
    pick = np.concatenate([[0, cells.shape[0] - 1],
                           rng.choice(np.arange(1, cells.shape[0] - 1), nodes - 2, replace=False)])
    return 0.37 + cells[rng.permutation(pick)] / (side - 1)


def _box_cells_per_node(nodes: np.ndarray) -> float:
    """Cells of the factor split's box over the node count, on a lattice."""
    idx = spc._lattice_indices(nodes)[0]
    return np.prod([np.prod(spc._factor_columns(int(n) + 1)) for n in idx.max(axis=0)]) / len(idx)


class TestExpSumSparseSubsets:
    """exp_sum contracts the factor split's box up to 32 cells per node and
    takes the dense product past it; both match the dense product."""

    @pytest.mark.parametrize("dim, nodes, cells_per_node, dense", [
        (1, 300, 20.0, False), (1, 300, 60.0, True), (1, 2100, 476.0, True),
        (2, 120, 20.0, False), (2, 120, 60.0, True), (2, 120, 500.0, True)])
    def test_matches_dense_product_on_each_side(self, dim, nodes, cells_per_node, dense):
        nodes = _sparse_lattice(cells_per_node, nodes, dim, seed=dim)
        assert spc._lattice_indices(nodes) is not None
        assert (_box_cells_per_node(nodes) > spc._BOX_CELLS_PER_NODE) == dense
        assert (spc._lattice_split(np.zeros((1, dim)), nodes, 1)[2] is None) == dense
        rng = np.random.default_rng(5)
        x = rng.uniform(-10.0, 10.0, (70, dim))
        c = rng.standard_normal(len(nodes)) + 1j * rng.standard_normal(len(nodes))
        for sign in (1, -1):
            got = spc.exp_sum(x, nodes, c, sign=sign)
            expect = spc._exp_matrix(sign * x, nodes) @ c
            assert np.all(np.abs(got - expect) <= 1e-12 * np.max(np.abs(expect)))

    @pytest.mark.parametrize("spec", [geo.SpectrumSet.box([0.5]), geo.SpectrumSet.ball(0.5, 1),
                                      geo.SpectrumSet.box([0.5, 0.3]), geo.SpectrumSet.ball(0.5, 2),
                                      geo.SpectrumSet.polytope([[0.5, 0.0], [0.1, 0.4], [-0.3, 0.3],
                                                                [-0.5, 0.0], [-0.1, -0.4],
                                                                [0.3, -0.3]])],
                             ids=["box-1d", "ball-1d", "box-2d", "ball-2d", "hexagon"])
    @pytest.mark.parametrize("n", [5, 40, 300])
    def test_build_grid_grids_contract_the_box(self, spec, n):
        nodes = geo.build_grid(spec, n).nodes
        x = np.random.default_rng(n).uniform(-10.0, 10.0, (30, spec.dim))
        assert spc._lattice_split(x, nodes, 1)[2] is not None
        c = np.ones(len(nodes), dtype=complex)
        got = spc.exp_sum(x, nodes, c)
        assert np.all(np.abs(got - spc._exp_matrix(x, nodes) @ c) <= 1e-12 * len(nodes))


class TestLatticeSums:
    """lattice_sums and box_gram against sums of the dense table."""

    @pytest.mark.parametrize("shape, columns", [
        ((50,), 1), ((50,), 2), ((50,), 3), ((3,), 3),
        ((4, 30), 1), ((2, 64), 3), ((5, 9), 2), ((3, 40), 3)])
    @pytest.mark.parametrize("rows", [1, 64, 65, 200])
    def test_matches_dense_sums(self, shape, columns, rows):
        dim = len(shape)
        rng = np.random.default_rng(rows + columns)
        x = rng.uniform(-10.0, 10.0, (rows, dim))
        w = rng.standard_normal((rows, columns)) + 1j * rng.standard_normal((rows, columns))
        origin, steps = np.array([-0.7, 0.3])[:dim], np.array([0.013, 0.021])[:dim]
        m = np.indices(shape).reshape(dim, -1).T
        expect = (w.T @ spc._exp_matrix(x, origin + m * steps)).reshape(columns, *shape)
        got = spc.lattice_sums(x, w, origin, steps, shape)
        assert got.shape == expect.shape
        assert np.all(np.abs(got - expect) <= 1e-12 * np.max(np.abs(expect)))

    @pytest.mark.parametrize("spec, n", [(geo.SpectrumSet.box([0.5]), 2),
                                         (geo.SpectrumSet.box([0.5]), 300),
                                         (geo.SpectrumSet.box([0.5, 0.3]), 17)])
    def test_box_gram_matches_dense_gram(self, spec, n):
        nodes = geo.build_grid(spec, n).nodes
        x = np.random.default_rng(n).uniform(-10.0, 10.0, (40, spec.dim))
        e = spc._exp_matrix(x, nodes)
        got = spc.box_gram(x, nodes)
        if spc._lattice_split(x, nodes, 1)[2] is None:   # 2 nodes: the dense rule
            assert got is None
        else:
            assert np.all(np.abs(got - e @ e.conj().T) <= 1e-12 * len(nodes))

    def test_box_gram_needs_a_full_box(self):
        x = np.random.default_rng(0).uniform(-10.0, 10.0, (5, 2))
        nodes = geo.build_grid(geo.SpectrumSet.ball(0.5, 2), 12).nodes
        assert spc._lattice_split(x, nodes, 1)[2] is not None
        assert spc.box_gram(x, nodes) is None
        assert spc.box_gram(x, nodes + np.linspace(0.0, 1e-3, len(nodes))[:, None]) is None


def _no_build(*args):
    raise AssertionError("a table was built past the entry limit")


_X = np.linspace(-5.0, 5.0, 6)
_LATTICE = geo.build_grid(UNIT_BAND, 64).nodes
_OFF_LATTICE = np.random.default_rng(0).uniform(-0.5, 0.5, (20, 1))
# each call of a limited result, and the (rows, columns) of that result
LIMITED = {
    "exp_table on a lattice": (lambda: spc.exp_table(_X, _LATTICE), (6, 64)),
    "exp_table off a lattice": (lambda: spc.exp_table(_X, _OFF_LATTICE), (6, 20)),
    "exp_sum off a lattice": (lambda: spc.exp_sum(_X, _OFF_LATTICE, np.ones(20)), (6, 20)),
    "box_gram": (lambda: spc.box_gram(_X, _LATTICE), (6, 6)),
}


class TestEntryLimit:
    """exp_table, exp_sum's dense product and box_gram build a result of at
    most _MAX_ENTRIES entries, and past it raise before building anything."""

    @pytest.mark.parametrize("case", sorted(LIMITED))
    def test_raises_past_the_limit_and_builds_nothing(self, case, monkeypatch):
        call, (rows, cols) = LIMITED[case]
        expect = call()
        monkeypatch.setattr(spc, "_MAX_ENTRIES", rows * cols)
        assert np.array_equal(call(), expect)   # exactly at the limit
        monkeypatch.setattr(spc, "_MAX_ENTRIES", rows * cols - 1)
        monkeypatch.setattr(spc, "_exp_factors", _no_build)
        monkeypatch.setattr(spc, "_exp_matrix", _no_build)
        with pytest.raises(ValueError, match=f"^a {rows} x {cols} table exceeds the limit "
                                             f"of {rows * cols - 1} entries$"):
            call()

    def test_factored_sum_is_not_limited(self, monkeypatch):
        # on lattice nodes exp_sum forms no (points, nodes) table
        c = np.arange(64.0)
        expect = spc.exp_table(_X, _LATTICE) @ c
        monkeypatch.setattr(spc, "_MAX_ENTRIES", 1)
        assert np.all(np.abs(spc.exp_sum(_X, _LATTICE, c) - expect) <= 1e-12 * np.sum(c))


class TestBuilderMemo:
    """The lattice and factor-table memos of the exponential builder never
    serve a stale result: every answer equals the one built from scratch."""

    @staticmethod
    def clear():
        spc._lattice_memo.clear()
        spc._factor_memo.clear()

    def test_sequence_matches_cleared_memos(self):
        rng = np.random.default_rng(11)
        x = rng.uniform(-20.0, 20.0, 50)
        nodes = np.arange(-40, 41) * 0.0125
        c = rng.standard_normal(nodes.size) + 1j * rng.standard_normal(nodes.size)
        # each call changes one input of the last: points, nodes, sign, origin,
        # step, column count, then back to a built pair
        few = nodes[:-30]
        calls = [(x, nodes, 1), (x + 1e-9, nodes, 1), (x, nodes, 1), (x, nodes, -1),
                 (x, nodes + 0.003, -1), (x, nodes, -1), (x, few, -1), (x, nodes, -1),
                 (x, few, -1), (x, few[0] + 1.5 * (few - few[0]), -1), (x, few, -1),
                 (x, few, 1), (x[:20], few, 1), (x, nodes, 1),
                 (x, np.stack([nodes, -nodes], 1), 1), (x, nodes, 1)]
        for points, g, sign in calls:
            pts = points if g.ndim == 1 else np.stack([points, points[::-1]], 1)
            cc = c if len(g) == len(c) else np.ones(len(g))
            table, total = spc.exp_table(pts, g, sign), spc.exp_sum(pts, g, cc, sign)
            self.clear()
            assert np.array_equal(table, spc.exp_table(pts, g, sign))
            assert np.array_equal(total, spc.exp_sum(pts, g, cc, sign))

    def test_factor_tables_match_cleared_memo(self):
        x = np.linspace(-30.0, 30.0, 61)
        args = [(x, 0.25, 0.01, 100), (x, 0.25, 0.01, 100), (x, -0.25, 0.01, 100),
                (x, -0.25, 0.02, 100), (x, -0.25, 0.02, 101), (x[1:], -0.25, 0.02, 101),
                (x, -0.25, 0.02, 100), (x, 0.25, 0.01, 100)]
        for a in args:
            got = spc._exp_factors(*a)
            self.clear()
            fresh = spc._exp_factors(*a)
            assert all(np.array_equal(g, f) for g, f in zip(got, fresh))
        assert spc._exp_factors(*args[-1]) is fresh   # a repeat returns the kept pair

    def test_factor_tables_are_kept_per_axis(self):
        self.clear()
        x = np.linspace(-30.0, 30.0, 61)
        first = spc._exp_factors(x, 0.25, 0.01, 100, 0)
        second = spc._exp_factors(x[::-1], -0.25, 0.02, 50, 1)
        assert spc._exp_factors(x, 0.25, 0.01, 100, 0) is first
        assert spc._exp_factors(x[::-1], -0.25, 0.02, 50, 1) is second
        again = spc._exp_factors(x, 0.25, 0.01, 100, 1)   # the other axis's slot
        assert again is not first and all(map(np.array_equal, again, first))
        assert spc._exp_factors(x[::-1], -0.25, 0.02, 50, 1) is not second

    def test_kept_arrays_are_read_only(self):
        nodes = geo.build_grid(UNIT_BAND, 64).nodes
        lattice = spc._lattice_indices(nodes)
        tables = spc._exp_factors(np.linspace(-5.0, 5.0, 11), -0.5, 1 / 64, 64)
        for a in (*lattice, *tables):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0
        assert spc._lattice_indices(nodes.copy()) is lattice

    def test_lattice_memo_holds_at_most_its_bound(self):
        self.clear()
        arrays = [np.arange(k + 2, dtype=float)[:, None] for k in range(3 * spc._LATTICE_MEMO_SIZE)]
        first = spc._lattice_indices(arrays[0])
        for a in arrays:
            spc._lattice_indices(a)
            assert len(spc._lattice_memo) <= spc._LATTICE_MEMO_SIZE
        assert len(spc._lattice_memo) == spc._LATTICE_MEMO_SIZE
        last = spc._lattice_indices(arrays[-1])
        assert spc._lattice_indices(arrays[-1]) is last
        again = spc._lattice_indices(arrays[0])   # first in, first out
        assert again is not first and all(np.array_equal(a, b) for a, b in zip(again, first))


class TestRandomSignal:
    def test_unit_norm(self):
        f = spc.random_pw_signal(UNIT_BAND, 128, seed=0)
        assert f.norm() == pytest.approx(1.0, abs=1e-12)

    def test_seed_determinism(self):
        a = spc.random_pw_signal(UNIT_BAND, 64, seed=5)
        b = spc.random_pw_signal(UNIT_BAND, 64, seed=5)
        c = spc.random_pw_signal(UNIT_BAND, 64, seed=6)
        assert np.array_equal(a.coeffs, b.coeffs)
        assert not np.array_equal(a.coeffs, c.coeffs)


class TestInnerProduct:
    def test_self_inner_is_norm_squared(self):
        f = spc.random_pw_signal(UNIT_BAND, 64, seed=0)
        assert pw_inner(f, f).real == pytest.approx(f.norm_sq())
        assert pw_inner(f, f).imag == pytest.approx(0.0, abs=1e-15)

    def test_disjoint_spikes_orthogonal(self):
        grid = geo.build_grid(UNIT_BAND, 64)
        a = np.zeros(grid.size, dtype=complex)
        b = np.zeros(grid.size, dtype=complex)
        a[3] = 1.0
        b[40] = 1.0
        fa = spc.BandlimitedSignal(grid=grid, coeffs=a)
        fb = spc.BandlimitedSignal(grid=grid, coeffs=b)
        assert pw_inner(fa, fb) == 0.0

    def test_conjugate_symmetry(self):
        grid = geo.build_grid(UNIT_BAND, 64)
        f = spc.random_coeff_signal(grid, 1)
        g = spc.random_coeff_signal(grid, 2)
        assert pw_inner(f, g) == pytest.approx(np.conj(pw_inner(g, f)))

    def test_cauchy_schwarz(self):
        grid = geo.build_grid(UNIT_BAND, 64)
        for s in range(20):
            f = spc.random_coeff_signal(grid, 2 * s)
            g = spc.random_coeff_signal(grid, 2 * s + 1)
            lhs = abs(pw_inner(f, g)) ** 2
            assert lhs <= f.norm_sq() * g.norm_sq() * (1 + 1e-12)

    def test_grid_mismatch_rejected(self):
        f = spc.random_pw_signal(UNIT_BAND, 64, seed=0)
        g = spc.random_pw_signal(UNIT_BAND, 65, seed=0)
        with pytest.raises(ValueError, match="grid mismatch"):
            pw_inner(f, g)


class TestTrigPolynomial:
    def test_single_character_unimodular(self):
        p = spc.TrigPolynomial(frequencies=[0.2], coefficients=[1.0], spectrum=UNIT_BAND)
        v = spc.eval_trigpoly(p, 1.7)
        assert abs(v) == pytest.approx(1.0)
        assert v == pytest.approx(np.exp(2j * np.pi * 1.7 * 0.2))

    def test_symmetric_pair_at_origin(self):
        p = spc.TrigPolynomial(frequencies=[0.25, -0.25], coefficients=[1.0, 1.0],
                               spectrum=UNIT_BAND)
        assert spc.eval_trigpoly(p, 0.0) == pytest.approx(2.0)

    def test_sup_bounded_by_coefficient_mass(self):
        p = spc.random_trig_polynomial(UNIT_BAND, 7, seed=0)
        xs = np.linspace(-20, 20, 4001).reshape(-1, 1)
        sup = np.max(np.abs(spc.eval_trigpoly(p, xs)))
        assert sup <= np.sum(np.abs(p.coefficients)) * (1 + 1e-12)

    def test_frequencies_validated(self):
        with pytest.raises(ValueError, match="outside"):
            spc.TrigPolynomial(frequencies=[0.7], coefficients=[1.0], spectrum=UNIT_BAND)

    def test_random_generator_stays_inside(self):
        disc = geo.SpectrumSet.ball(0.3, 2)
        p = spc.random_trig_polynomial(disc, 12, seed=4)
        assert np.all(disc.contains(p.frequencies))
