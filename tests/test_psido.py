import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nusample import balayage as bal
from nusample import frames
from nusample import geometry as geo
from nusample import psido
from nusample import spectral as spc
from nusample.sampling import SamplingSet, generate_jittered_grid, symmetrize
from nusample.timefreq import UniformGrid
from test_frames import CountingNumpy

QUARTER_BAND = geo.SpectrumSet.box([0.25])


def gaussian_factor(width=0.5, half=1.0):
    return psido.SpectralFactor.from_callable(
        lambda g: np.exp(-((g / width) ** 2)), -half, half)


def symbol_value(symbol, y, gamma) -> complex:
    """s(y, g) at one point, from the per-term factors: s = U^T B."""
    u, b = symbol.factors([y], [gamma])
    return complex((u.T @ b)[0, 0])


def a_l2_norm(term) -> float:
    """||a_j|| by the exact-support route: Parseval on the iterated box
    convolution."""
    w = term.eps / term.order
    n = 2001
    grid = np.linspace(-w, w, n)
    dg = grid[1] - grid[0]
    prof = np.ones(n)
    for _ in range(term.order - 1):
        prof = np.convolve(prof, np.ones(n)) * dg
    # profile of the transform of sinc(2wy)^order, scaled so a(0)=amplitude
    scale = abs(term.amplitude) / (prof.sum() * dg)
    return float(np.sqrt(np.sum((scale * prof) ** 2) * dg))


def b_l2_norm(factor) -> float:
    """||b_j|| by the trapezoid rule on the stored nodes."""
    return float(np.sqrt(np.trapezoid(np.abs(factor.values) ** 2, factor.nodes)))


def l2_bound(symbol) -> float:
    """Triangle-inequality bound sum_j ||a_j|| ||b_j|| on the symbol norm."""
    return float(sum(a_l2_norm(t) * b_l2_norm(t.b) for t in symbol.terms))


@pytest.fixture(scope="module")
def two_term_symbol():
    return psido.KNSymbol(
        terms=[psido.symbol_term(0.1, 0.1, gaussian_factor(0.5), order=8),
               psido.symbol_term(-0.1, 0.1, gaussian_factor(0.4), order=8, amplitude=0.7)],
        spectrum=QUARTER_BAND)


class _FlatTimeFactor:
    """Term stand-in with a == 1 everywhere (hard truncation on any grid)."""

    lam = 0.0
    eps = 0.1
    order = 8
    amplitude = 1.0 + 0.0j
    b = psido.SpectralFactor(nodes=np.linspace(-1, 1, 11), values=np.ones(11))

    def a_at(self, y):
        return np.ones_like(np.asarray(y, dtype=float), dtype=complex)


class TestSymbolEval:
    def test_empty_symbol_zero(self):
        s = psido.KNSymbol(terms=[], spectrum=QUARTER_BAND)
        assert symbol_value(s, 0.3, 0.1) == 0.0

    def test_single_term_flat_frequency(self):
        flat_b = psido.SpectralFactor(nodes=np.linspace(-1, 1, 5), values=np.ones(5))
        term = psido.symbol_term(0.0, 0.1, flat_b, order=8)
        s = psido.KNSymbol(terms=[term], spectrum=QUARTER_BAND)
        for y in (0.0, 1.7, -20.3):
            assert symbol_value(s, y, 0.2) == pytest.approx(complex(term.a_at(y)))

    def test_linear_in_terms(self, two_term_symbol):
        t1, t2 = two_term_symbol.terms
        s1 = psido.KNSymbol(terms=[t1], spectrum=QUARTER_BAND)
        s2 = psido.KNSymbol(terms=[t2], spectrum=QUARTER_BAND)
        y, g = 0.7, -0.3
        assert symbol_value(two_term_symbol, y, g) == pytest.approx(
            symbol_value(s1, y, g) + symbol_value(s2, y, g))


class TestApplyKs:
    def test_flat_symbol_is_windowed_transform(self):
        s = psido.KNSymbol(terms=[_FlatTimeFactor()], spectrum=QUARTER_BAND)
        grid = UniformGrid.symmetric(10.0, 0.25)
        t = grid.nodes
        f = np.exp(-((t / 2.0) ** 2)) * np.exp(2j * np.pi * 0.05 * t)
        gamma = np.linspace(-0.4, 0.4, 33)
        out = psido.apply_ks(s, f, grid, gamma)
        oracle = np.array([(f * np.exp(-2j * np.pi * t * g)).sum() * grid.step
                           for g in gamma])
        assert np.max(np.abs(out - oracle)) <= 1e-3 * np.max(np.abs(oracle))

    def test_zero_signal(self, two_term_symbol):
        grid = UniformGrid.symmetric(10.0, 0.25)
        out = psido.apply_ks(two_term_symbol, np.zeros(grid.count), grid,
                             np.linspace(-0.5, 0.5, 11))
        assert not np.any(out)

    def test_linear_in_signal(self, two_term_symbol):
        grid = UniformGrid.symmetric(10.0, 0.25)
        rng = np.random.default_rng(0)
        f = rng.standard_normal(grid.count) + 1j * rng.standard_normal(grid.count)
        g = rng.standard_normal(grid.count) + 1j * rng.standard_normal(grid.count)
        gamma = np.linspace(-0.5, 0.5, 21)
        a, b = 1.3 - 0.4j, -0.2 + 2.2j
        lhs = psido.apply_ks(two_term_symbol, a * f + b * g, grid, gamma)
        rhs = (a * psido.apply_ks(two_term_symbol, f, grid, gamma)
               + b * psido.apply_ks(two_term_symbol, g, grid, gamma))
        assert np.allclose(lhs, rhs, atol=1e-12)

    def test_modulation_intertwining(self):
        # for a one-term symbol with flat frequency factor, modulating the
        # signal by lam0 shifts the operator output in frequency
        flat_b = psido.SpectralFactor(nodes=np.linspace(-2, 2, 5), values=np.ones(5))
        term = psido.symbol_term(0.0, 0.1, flat_b, order=8)
        s = psido.KNSymbol(terms=[term], spectrum=QUARTER_BAND)
        grid = UniformGrid.symmetric(12.0, 0.25)
        t = grid.nodes
        f = np.exp(-((t / 2.5) ** 2)).astype(complex)
        lam0 = 0.05
        gamma = np.linspace(-0.2, 0.2, 17)
        shifted = psido.apply_ks(s, f * np.exp(2j * np.pi * lam0 * t), grid, gamma)
        base = psido.apply_ks(s, f, grid, gamma - lam0)
        assert np.max(np.abs(shifted - base)) <= 1e-10


class TestHsNorm:
    def test_single_term_factorizes(self, two_term_symbol):
        term = two_term_symbol.terms[0]
        s1 = psido.KNSymbol(terms=[term], spectrum=QUARTER_BAND)
        ygrid = UniformGrid.symmetric(150.0, 0.5)
        gamma = np.linspace(-1.0, 1.0, 401)
        gw = np.full(gamma.size, gamma[1] - gamma[0])
        measured = psido.hs_norm(s1, ygrid, gamma, gw)
        # separability oracle on the same quadratures: the modulus-one phase
        # factor drops out and the double integral factors exactly
        a_part = np.sqrt(np.sum(np.abs(term.a_at(ygrid.nodes)) ** 2) * ygrid.step)
        b_part = np.sqrt(np.sum(np.abs(term.b.at(gamma)) ** 2 * gw))
        assert measured == pytest.approx(a_part * b_part, rel=1e-12)
        assert measured == pytest.approx(a_l2_norm(term) * b_l2_norm(term.b), rel=1e-3)

    def test_zero_symbol(self):
        s = psido.KNSymbol(terms=[], spectrum=QUARTER_BAND)
        ygrid = UniformGrid.symmetric(10.0, 0.5)
        assert psido.hs_norm(s, ygrid, [0.0, 0.1], [0.1, 0.1]) == 0.0

    def test_complex_terms_match_double_quadrature(self):
        terms = [psido.symbol_term(lam, 0.1, psido.SpectralFactor.from_callable(
                     lambda g, c=c: np.exp(-(g / 0.6) ** 2) * np.exp(1j * c * g) + 0.2j * c,
                     -1.0, 1.0, 129), order=order, amplitude=amp)
                 for lam, c, order, amp in [(0.05, 2.0, 4, 0.8 - 0.6j),
                                            (-0.1, -3.0, 6, -0.3 + 1.1j),
                                            (0.12, 0.5, 8, 1j)]]
        s = psido.KNSymbol(terms=terms, spectrum=QUARTER_BAND)
        ygrid = UniformGrid.symmetric(60.0, 0.5)
        gamma = np.sort(np.random.default_rng(1).uniform(-1.0, 1.0, 97))
        gw = np.random.default_rng(2).uniform(0.01, 0.03, gamma.size)
        y = ygrid.nodes
        dense = sum(np.outer(t.a_at(y) * np.exp(-2j * np.pi * y * t.lam), t.b.at(gamma))
                    for t in terms)
        expect = np.sqrt(np.sum(np.abs(dense) ** 2 * gw[None, :]) * ygrid.step)
        assert psido.hs_norm(s, ygrid, gamma, gw) == pytest.approx(expect, rel=1e-12)

    def test_triangle_inequality(self, two_term_symbol):
        t1, t2 = two_term_symbol.terms
        ygrid = UniformGrid.symmetric(150.0, 0.5)
        gamma = np.linspace(-1.0, 1.0, 201)
        gw = np.full(gamma.size, gamma[1] - gamma[0])
        whole = psido.hs_norm(two_term_symbol, ygrid, gamma, gw)
        parts = (psido.hs_norm(psido.KNSymbol(terms=[t1], spectrum=QUARTER_BAND), ygrid, gamma, gw)
                 + psido.hs_norm(psido.KNSymbol(terms=[t2], spectrum=QUARTER_BAND), ygrid, gamma, gw))
        assert whole <= parts * (1 + 1e-12)
        assert whole <= l2_bound(two_term_symbol) * (1 + 1e-3)


class TestValidation:
    def test_well_formed_symbol_passes(self, two_term_symbol):
        report = psido.validate_symbol_class(two_term_symbol)
        assert report.ok
        assert all(t.ball_inside and t.leakage_ok for t in report.terms)
        assert report.uniform_bound < np.inf

    def test_boundary_modulation_fails(self):
        term = psido.symbol_term(0.25, 0.1, gaussian_factor(), order=8)
        report = psido.validate_symbol_class(
            psido.KNSymbol(terms=[term], spectrum=QUARTER_BAND))
        assert not report.ok
        assert not report.terms[0].ball_inside

    def test_hard_truncation_fails_leakage(self):
        report = psido.validate_symbol_class(
            psido.KNSymbol(terms=[_FlatTimeFactor()], spectrum=QUARTER_BAND))
        assert not report.ok
        assert not report.terms[0].leakage_ok


@pytest.fixture(scope="module")
def context():
    e_set = symmetrize(generate_jittered_grid(0.5, 0.0, [[-20.0, 20.0]], seed=0))
    eps = 0.05 * QUARTER_BAND.diameter()
    egrid = geo.build_grid(QUARTER_BAND.enlarged(eps), 384)
    window = bal.ingham_window(eps, dim=1)
    ys = np.random.default_rng(5).uniform(-10, 10, size=(25, 1))
    k_hat = bal.balayage_constant(e_set, egrid, ys, eta=1e-5)
    lower = 1.0 / (k_hat.value * window.l2_norm) ** 2
    bessel = frames.frame_bounds(e_set, geo.build_grid(QUARTER_BAND, 256)).upper
    return e_set, lower, bessel


class TestFrameCheck:

    def _random_signal(self, grid, seed):
        rng = np.random.default_rng(seed)
        env = np.exp(-((grid.nodes / 8.0) ** 2))
        return env * (rng.standard_normal(grid.count)
                      + 1j * rng.standard_normal(grid.count))

    def test_zero_signal_special_case(self, two_term_symbol, context):
        e_set, lower, bessel = context
        grid = UniformGrid.symmetric(12.0, 0.25)
        chk = psido.psido_frame_check(two_term_symbol, np.zeros(grid.count), grid,
                                      e_set, [0.0, 0.1], [0.05, 0.05],
                                      lower_const=lower, bessel_bound=bessel)
        assert chk.lhs == chk.mid == chk.rhs == 0.0
        assert chk.lower_ok and chk.upper_ok

    def test_zero_symbol(self, context):
        e_set, lower, bessel = context
        empty = psido.KNSymbol(terms=[], spectrum=QUARTER_BAND)
        grid = UniformGrid.symmetric(12.0, 0.25)
        chk = psido.psido_frame_check(empty, self._random_signal(grid, 0), grid,
                                      e_set, [0.0, 0.1], [0.05, 0.05],
                                      lower_const=lower, bessel_bound=bessel)
        assert chk.mid == 0.0 and chk.lhs == 0.0

    def test_chain_holds_over_random_signals(self, two_term_symbol, context):
        e_set, lower, bessel = context
        grid = UniformGrid.symmetric(12.0, 0.25)
        gamma = np.linspace(-0.7, 0.7, 141)
        gw = np.full(gamma.size, gamma[1] - gamma[0])
        for seed in range(5):
            chk = psido.psido_frame_check(two_term_symbol,
                                          self._random_signal(grid, 100 + seed), grid,
                                          e_set, gamma, gw,
                                          lower_const=lower, bessel_bound=bessel)
            assert chk.lower_ok and chk.upper_ok


def fresh_symbol(symbol):
    """A symbol with the same terms and no cached tables."""
    return psido.KNSymbol(terms=symbol.terms, spectrum=symbol.spectrum)


def chain(chk):
    return chk.lhs, chk.mid, chk.rhs


class TestCheckTables:
    """The frame-check tables a symbol keeps between signals."""

    GRID = UniformGrid.symmetric(12.0, 0.25)
    GAMMA = np.linspace(-0.7, 0.7, 141)
    GW = np.full(141, GAMMA[1] - GAMMA[0])

    def check(self, symbol, f, e_set, lower, bessel, grid=GRID, gamma=GAMMA, gw=GW):
        return psido.psido_frame_check(symbol, f, grid, e_set, gamma, gw,
                                       lower_const=lower, bessel_bound=bessel)

    def signal(self, seed, grid=GRID):
        return TestFrameCheck()._random_signal(grid, seed)

    def test_reused_symbol_matches_fresh_symbol_bitwise(self, two_term_symbol, context):
        e_set, lower, bessel = context
        symbol = fresh_symbol(two_term_symbol)
        for seed in range(6):
            f = self.signal(seed)
            assert chain(self.check(symbol, f, e_set, lower, bessel)) == chain(
                self.check(fresh_symbol(symbol), f, e_set, lower, bessel))
        # the public pieces read the same entry
        f = self.signal(9)
        assert np.array_equal(psido.apply_ks(symbol, f, self.GRID, self.GAMMA),
                              psido.apply_ks(fresh_symbol(symbol), f, self.GRID, self.GAMMA))
        assert psido.hs_norm(symbol, self.GRID, self.GAMMA, self.GW) == psido.hs_norm(
            fresh_symbol(symbol), self.GRID, self.GAMMA, self.GW)

    def test_each_key_part_rebuilds(self, two_term_symbol, context, monkeypatch):
        e_set, lower, bessel = context
        counter = CountingNumpy()
        monkeypatch.setattr(spc, "np", counter)
        monkeypatch.setattr(psido, "np", counter)
        symbol = fresh_symbol(two_term_symbol)
        fewer = SamplingSet(dim=1, points=e_set.points[1:], window=e_set.window)
        grid = UniformGrid.symmetric(12.0, 0.125)
        terms = len(symbol.terms)

        def grid_tables(y, gamma):   # U, and the kernel from its two factor tables
            return terms * y.count + gamma.size * spc._FACTOR_EXPONENTIALS

        def point_tables(x, gamma):   # U_x, and the phases from their two factor tables
            return x.size * (terms + spc._FACTOR_EXPONENTIALS)

        # each change rebuilds the tables of the roles whose key it is part of
        changes = [("grid", {"grid": grid}, grid_tables(grid, self.GAMMA)),
                   ("points", {"e_set": fewer}, point_tables(fewer.points, self.GAMMA)),
                   ("gamma", {"gamma": self.GAMMA * 0.9},
                    grid_tables(self.GRID, self.GAMMA) + point_tables(e_set.points, self.GAMMA)),
                   ("weights", {"gw": 1.5 * self.GW}, 0)]
        for part, change, exponentials in changes:
            kwargs = {"e_set": e_set, **change}
            f = self.signal(3, kwargs.get("grid", self.GRID))
            self.check(symbol, self.signal(3), e_set, lower, bessel)   # the base tables
            counter.exponentials = 0
            got = self.check(symbol, f, lower=lower, bessel=bessel, **kwargs)
            assert counter.exponentials == exponentials, part
            expect = self.check(fresh_symbol(symbol), f, lower=lower, bessel=bessel, **kwargs)
            assert chain(got) == chain(expect), part

    def test_public_pieces_off_the_key_match_fresh_symbol(self, two_term_symbol, context):
        e_set, lower, bessel = context
        symbol = fresh_symbol(two_term_symbol)
        self.check(symbol, self.signal(0), e_set, lower, bessel)   # the kept entry
        grid = UniformGrid.symmetric(12.0, 0.125)
        for g, gamma, gw in ((grid, self.GAMMA, self.GW), (self.GRID, 0.9 * self.GAMMA, self.GW),
                             (self.GRID, self.GAMMA, 1.5 * self.GW)):
            f = self.signal(1, g)
            assert np.array_equal(psido.apply_ks(symbol, f, g, gamma),
                                  psido.apply_ks(fresh_symbol(symbol), f, g, gamma))
            assert psido.hs_norm(symbol, g, gamma, gw) == psido.hs_norm(
                fresh_symbol(symbol), g, gamma, gw)

    def test_cached_arrays_are_read_only(self, two_term_symbol, context):
        e_set, lower, bessel = context
        symbol = fresh_symbol(two_term_symbol)
        self.check(symbol, self.signal(0), e_set, lower, bessel)
        # (U, B, kernel) of the grid role and (U_x, phases) of the points role
        arrays = [a for _, tables in symbol._tables.values() for a in tables]
        assert sorted(symbol._tables) == ["grid", "points"] and len(arrays) == 5
        for a in arrays + [symbol.terms[0].b.nodes, symbol.terms[0].b.values]:
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0.0
        assert isinstance(symbol.terms, tuple)

    def test_factor_copies_its_samples(self):
        values = np.ones(5)
        factor = psido.SpectralFactor(nodes=np.linspace(-1, 1, 5), values=values)
        values[0] = 7.0
        assert factor.values[0] == 1.0


def dense_apply_ks(symbol, f, f_grid, gamma):
    """The operator one term at a time, each with its own dense kernel
    exp(-2 pi i y (g + l_j))."""
    y = f_grid.nodes
    out = np.zeros(gamma.size, dtype=complex)
    for term in symbol.terms:
        kernel = np.exp(-2j * np.pi * np.outer(y, gamma + term.lam))
        out += term.b.at(gamma) * ((term.a_at(y) * f) @ kernel)
    return out * f_grid.step


def dense_symbol(symbol, y, gamma):
    """s(y, g) as a sum of one outer product per term."""
    return sum(np.outer(t.a_at(y) * np.exp(-2j * np.pi * y * t.lam), t.b.at(gamma))
               for t in symbol.terms)


def dense_mid(symbol, kf, sampling_set, gamma, gw):
    """Sampled energy of the symbol slices against a dense phase table."""
    x = sampling_set.points[:, 0]
    phases = np.exp(-2j * np.pi * np.outer(x, gamma))
    inner = (dense_symbol(symbol, x, gamma) * phases) @ (gw * kf)
    return float(np.sum(np.abs(inner) ** 2))


@st.composite
def gamma_cases(draw):
    """Sorted gamma nodes in [-0.7, 0.7], on a uniform grid or drawn at random
    (off any lattice), with their trapezoid-like weights and a trial signal."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(3, 120))
    if draw(st.booleans()):
        gamma = np.linspace(-0.7, 0.7, n)
    else:
        gamma = np.sort(rng.uniform(-0.7, 0.7, n))
    gw = np.gradient(gamma)
    return gamma, gw, rng.standard_normal(97) + 1j * rng.standard_normal(97)


class TestDenseFormulas:
    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(gamma_cases())
    def test_apply_ks_matches_dense(self, two_term_symbol, case):
        gamma, _, f = case
        grid = UniformGrid.symmetric(12.0, 0.25)
        expect = dense_apply_ks(two_term_symbol, f, grid, gamma)
        got = psido.apply_ks(two_term_symbol, f, grid, gamma)
        assert np.linalg.norm(got - expect) <= 1e-12 * np.linalg.norm(expect)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(gamma_cases())
    def test_frame_check_matches_dense(self, two_term_symbol, context, case):
        gamma, gw, f = case
        e_set, lower, bessel = context
        grid = UniformGrid.symmetric(12.0, 0.25)
        chk = psido.psido_frame_check(two_term_symbol, f, grid, e_set, gamma, gw,
                                      lower_const=lower, bessel_bound=bessel)
        kf = dense_apply_ks(two_term_symbol, f, grid, gamma)
        kf_norm_sq = float(np.sum(gw * np.abs(kf) ** 2))
        f_norm_sq = float(np.sum(np.abs(f) ** 2) * grid.step)
        s_yg = dense_symbol(two_term_symbol, grid.nodes, gamma)
        hs_sq = np.sum(np.abs(s_yg) ** 2 * gw) * grid.step
        assert chk.lhs == pytest.approx(lower * kf_norm_sq**2 / f_norm_sq, rel=1e-12)
        assert chk.mid == pytest.approx(dense_mid(two_term_symbol, kf, e_set, gamma, gw),
                                        rel=1e-12)
        assert chk.rhs == pytest.approx(bessel * hs_sq * kf_norm_sq, rel=1e-12)
