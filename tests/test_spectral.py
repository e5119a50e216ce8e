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
