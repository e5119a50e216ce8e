import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import pdist

from nusample import sampling as sp


def separation(sampling_set) -> float:
    """Minimum pairwise Euclidean distance; undefined for fewer than 2 points."""
    if sampling_set.size < 2:
        raise ValueError("undefined separation: need at least 2 points")
    return float(pdist(sampling_set.points).min())


def brute_min_gap(points):
    pts = np.atleast_2d(points)
    best = np.inf
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            best = min(best, float(np.linalg.norm(pts[i] - pts[j])))
    return best


class TestSeparation:
    def test_min_gap(self):
        e = sp.SamplingSet(dim=1, points=[0.0, 0.5, 1.3], window=[[0.0, 2.0]])
        assert separation(e) == pytest.approx(0.5)

    def test_uniform_grid(self):
        e = sp.generate_jittered_grid(0.7, 0.0, [[-5, 5]], seed=0)
        assert separation(e) == pytest.approx(0.7)
        assert 0.7 - 1e-9 <= separation(e) < 0.71

    def test_jittered_lower_bound_vs_brute_force(self):
        e = sp.generate_jittered_grid(0.5, 0.1, [[-10, 10]], seed=7)
        assert e.size >= 40
        oracle = brute_min_gap(e.points)
        assert separation(e) == pytest.approx(oracle)
        assert oracle >= 0.5 - 2 * 0.1

    def test_undefined_for_single_point(self):
        e = sp.SamplingSet(dim=1, points=[0.0], window=[[-1, 1]])
        with pytest.raises(ValueError, match="undefined separation"):
            separation(e)


class TestDensity:
    def count_oracle(self, points, center, r):
        return int(np.sum(np.linalg.norm(points - center, axis=1) <= r / 2 + 1e-12))

    def test_integer_grid_density_one(self):
        e = sp.generate_jittered_grid(1.0, 0.0, [[-50, 50]], seed=0)
        rep = sp.lower_beurling_density(e, [20.0])
        entry = rep.entries[0]
        # counting oracle over the same admissible-center grid as the report
        lo = -50.0 + 10.0
        centers = lo + entry.center_step * np.arange(0, int(80 / entry.center_step) + 1)
        oracle = min(self.count_oracle(e.points, np.array([c]), 20.0) for c in centers)
        assert entry.min_count == oracle
        assert entry.density == pytest.approx(1.0, abs=0.1)
        assert rep.estimate == entry.density

    def test_spacing_two_halves_density(self):
        e = sp.generate_jittered_grid(2.0, 0.0, [[-50, 50]], seed=0)
        rep = sp.lower_beurling_density(e, [20.0])
        assert rep.entries[0].density == pytest.approx(0.5, abs=0.05)

    def test_empty_set_zero(self):
        e = sp.SamplingSet(dim=1, points=np.empty((0, 1)), window=[[-50, 50]])
        rep = sp.lower_beurling_density(e, [5.0, 10.0])
        assert all(entry.density == 0.0 for entry in rep.entries)

    def test_oversized_radius_skipped(self):
        e = sp.generate_jittered_grid(1.0, 0.0, [[-5, 5]], seed=0)
        rep = sp.lower_beurling_density(e, [4.0, 100.0])
        assert rep.skipped == [100.0]
        assert len(rep.entries) == 1

    def test_monotone_under_added_points(self):
        e = sp.generate_jittered_grid(2.0, 0.0, [[-30, 30]], seed=0)
        denser = sp.SamplingSet(dim=1, points=np.vstack([e.points, [[0.3], [1.1], [-7.7]]]),
                                window=e.window)
        for r in (6.0, 12.0):
            base = sp.lower_beurling_density(e, [r]).entries[0].min_count
            more = sp.lower_beurling_density(denser, [r]).entries[0].min_count
            assert more >= base


class TestJitteredGrid:
    def test_zero_jitter_exact(self):
        e = sp.generate_jittered_grid(0.5, 0.0, [[-2, 2]], seed=1)
        assert np.allclose(sorted(e.points[:, 0]), np.arange(-4, 5) * 0.5)

    def test_window_edge_tolerance_matches_the_set(self):
        # the window ends 5e-10 below the node 3000, which is outside the
        # set's absolute tolerance although 5e-13 of a step
        e = sp.generate_jittered_grid(1000.0, 0.0, [[0.0, 2999.9999999995]], seed=0)
        assert np.array_equal(e.points[:, 0], [0.0, 1000.0, 2000.0])
        # and a node within that tolerance past either edge is kept, also
        # where the tolerance is more than 1e-12 of a step
        e = sp.generate_jittered_grid(0.25, 0.0, [[-1.0 + 5e-13, 1.0 - 5e-13]], seed=0)
        assert np.array_equal(e.points[:, 0], 0.25 * np.arange(-4, 5))

    def test_determinism(self):
        a = sp.generate_jittered_grid(0.5, 0.1, [[-10, 10]], seed=7)
        b = sp.generate_jittered_grid(0.5, 0.1, [[-10, 10]], seed=7)
        assert np.array_equal(a.points, b.points)

    def test_distinct_seeds_differ(self):
        a = sp.generate_jittered_grid(0.5, 0.1, [[-10, 10]], seed=7)
        b = sp.generate_jittered_grid(0.5, 0.1, [[-10, 10]], seed=8)
        assert not np.array_equal(a.points, b.points)

    def test_jitter_bound_enforced(self):
        with pytest.raises(ValueError):
            sp.generate_jittered_grid(0.5, 0.25, [[-10, 10]], seed=0)
        with pytest.raises(ValueError):
            sp.generate_jittered_grid(0.5, -0.1, [[-10, 10]], seed=0)

    def test_two_dimensional(self):
        e = sp.generate_jittered_grid(1.0, 0.2, [[-3, 3], [-2, 2]], seed=2)
        assert e.dim == 2 and e.size == 7 * 5
        assert separation(e) >= 1.0 - 2 * 0.2 - 1e-12

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.floats(0.2, 2.0), st.floats(0.2, 2.0), st.integers(0, 8), st.integers(0, 8),
           st.floats(0.05, 0.95), st.floats(0.05, 0.95), st.floats(0.0, 0.49),
           st.integers(0, 2**32 - 1))
    def test_per_axis_steps_match_meshgrid(self, a, b, n_t, n_f, frac_t, frac_f, share, seed):
        # the lattice a Z x b Z in [-T, T] x [-F, F], the extents kept off the
        # lattice so that the node count per axis is 2 floor(T / a) + 1
        t_ext, f_ext = (n_t + frac_t) * a, (n_f + frac_f) * b
        jitter = share * min(a, b)
        e = sp.generate_jittered_grid([a, b], jitter, [[-t_ext, t_ext], [-f_ext, f_ext]], seed)
        s = a * np.arange(-n_t, n_t + 1)
        sig = b * np.arange(-n_f, n_f + 1)
        ss, gg = np.meshgrid(s, sig, indexing="ij")
        pts = np.stack([ss.ravel(), gg.ravel()], axis=1)
        if jitter > 0:
            pts = pts + np.random.default_rng(seed).uniform(-jitter, jitter, size=pts.shape)
        assert np.array_equal(e.points, pts)
        assert np.array_equal(e.window, [[-t_ext - jitter, t_ext + jitter],
                                         [-f_ext - jitter, f_ext + jitter]])

    def test_per_axis_jitter_bound_is_half_the_smallest_step(self):
        window = [[-3.0, 3.0], [-2.0, 2.0]]
        assert sp.generate_jittered_grid([0.5, 0.3], 0.149, window, seed=0).size == 13 * 13
        with pytest.raises(ValueError, match="jitter"):
            sp.generate_jittered_grid([0.5, 0.3], 0.15, window, seed=0)
        with pytest.raises(ValueError, match="jitter"):
            sp.generate_jittered_grid([0.5, 0.3], -0.01, window, seed=0)
        with pytest.raises(ValueError, match="delta"):
            sp.generate_jittered_grid([0.5, 0.0], 0.0, window, seed=0)


class TestSymmetrize:
    def test_basic(self):
        e = sp.SamplingSet(dim=1, points=[1.0, 2.0], window=[[0.0, 2.0]])
        out = sp.symmetrize(e)
        assert np.allclose(sorted(out.points[:, 0]), [-2, -1, 1, 2])

    def test_already_symmetric_unchanged_as_set(self):
        e = sp.SamplingSet(dim=1, points=[-1.5, 0.0, 1.5], window=[[-2, 2]])
        out = sp.symmetrize(e)
        assert np.array_equal(np.sort(out.points, axis=0), np.sort(e.points, axis=0))

    def test_origin_fixed_point(self):
        e = sp.SamplingSet(dim=1, points=[0.0], window=[[-1, 1]])
        assert sp.symmetrize(e).size == 1

    def test_idempotent(self):
        e = sp.SamplingSet(dim=1, points=[0.3, 1.7, -0.4], window=[[-2, 2]])
        once = sp.symmetrize(e)
        twice = sp.symmetrize(once)
        assert np.array_equal(once.points, twice.points)

    def test_separation_never_increases(self):
        e = sp.SamplingSet(dim=1, points=[0.4, 1.0, 2.2], window=[[0, 3]])
        assert separation(sp.symmetrize(e)) <= separation(e) + 1e-15


class TestValidation:
    def test_duplicates_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            sp.SamplingSet(dim=1, points=[0.0, 0.0, 1.0], window=[[-1, 2]])
        # apart in input order, adjacent only once sorted
        with pytest.raises(ValueError, match="duplicate"):
            sp.SamplingSet(dim=1, points=[0.5, -0.25, 1.0, 0.75, -0.25], window=[[-1, 2]])
        with pytest.raises(ValueError, match="duplicate"):
            sp.SamplingSet(dim=2, points=[[0.0, 1.0], [1.0, 0.0], [0.5, 0.5], [1.0, 0.0]],
                           window=[[-1, 2], [-1, 2]])
        # rows sharing one coordinate are distinct points
        shared = sp.SamplingSet(dim=2, points=[[0.0, 1.0], [0.0, 0.5], [1.0, 0.5], [0.5, 0.5]],
                                window=[[-1, 2], [-1, 2]])
        assert shared.size == 4

    def test_point_outside_window_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            sp.SamplingSet(dim=1, points=[0.0, 5.0], window=[[-1, 1]])


def test_serialization_roundtrips(tmp_path):
    e = sp.generate_jittered_grid(0.5, 0.1, [[-3, 3]], seed=0)
    csv_path = tmp_path / "points.csv"
    with open(csv_path, "w") as fh:
        fh.write("x0\n")
        for p in e.points:
            fh.write(f"{float(p[0])!r}\n")
    loaded = sp.SamplingSet.from_csv(csv_path, window=e.window)
    assert np.allclose(np.sort(loaded.points, axis=0), np.sort(e.points, axis=0))
