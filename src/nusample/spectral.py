"""Discretized Paley-Wiener space.

Bandlimited signals are stored frequency-first: a complex coefficient vector
on a spectral quadrature grid.  Time-domain values are always derived through
the inverse-transform quadrature

    f(x) = sum_k w_k F(g_k) exp(2 pi i x . g_k),

so quadrature error is the one controlled approximation in the model.
Trigonometric polynomials (finite character sums with frequencies inside the
spectrum) are kept separate because their time evaluation is exact.

Every table of sampled exponentials exp(+-2 pi i x . g) in the package comes
from :func:`exp_table`: on lattice nodes it multiplies per-axis tables, each
the product of two tables of about sqrt(n) columns (the chirp-z split, exact
up to rounding); other nodes, and lattice subsets so sparse that the factor
tables would hold more columns than there are nodes, get the dense
:func:`_exp_matrix`, which is also the reference the builder is tested
against.  Where only the table's product with a coefficient vector is
needed, as in time evaluation, :func:`exp_sum` contracts the coefficients
with the same factor tables one at a time (the factored sums of the ACT
method of Feichtinger, Groechenig and Strohmer) and never forms the table.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import SpectralGrid, SpectrumSet, as_points, build_grid

_LATTICE_ULPS = 16


def _exp_matrix(points: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """Dense E[x, k] = exp(2 pi i x . g_k), one exponential per entry."""
    return np.exp(2j * np.pi * (points @ nodes.T))


def _factor_columns(n: int) -> tuple[int, int]:
    """Column counts (ceil(n/J), J), with J = ceil(sqrt(n)), of the two
    tables :func:`_exp_factors` builds for n lattice steps."""
    j_count = math.isqrt(n - 1) + 1
    return -(-n // j_count), j_count


def _exp_factors(x: np.ndarray, origin: float, step: float, n: int):
    """Two factor tables of exp(2 pi i x (origin + k step)) for k < n.

    With J = ceil(sqrt(n)) and k = J q + j (j < J), the entry for k is
    A[:, q] * B[:, j] with A = exp(2 pi i x J step q) and
    B = exp(2 pi i x (origin + j step)).  Returns (A, B), shapes
    (len(x), ceil(n/J)) and (len(x), J).
    """
    q_count, j_count = _factor_columns(n)
    q = np.arange(q_count)
    a = np.exp(2j * np.pi * np.outer(x, j_count * step * q))
    b = np.exp(2j * np.pi * np.outer(x, origin + step * np.arange(j_count)))
    return a, b


def _gcd_step(gaps: np.ndarray, tol: float) -> float:
    """The greatest common divisor of positive gaps, each within ``tol`` of
    its true value, by Euclid's algorithm: a gap counts as a multiple of the
    step when its remainder lies within the rounding carried through the
    quotients.  Starts from the smallest gap, so on a full lattice axis the
    step is that gap."""
    step, err = gaps.min(), tol
    while True:
        q = np.rint(gaps / step)
        rem = np.abs(gaps - q * step)
        off = np.flatnonzero(rem > tol + q * err)
        if not off.size:
            return step
        # gcd(step, gap) = gcd(step, remainder), and the remainder is at most step / 2
        step, err = rem[off[0]], tol + q[off[0]] * err


def _lattice_indices(nodes: np.ndarray):
    """Integer lattice coordinates of the nodes, or None off a lattice.

    The nodes lie on a regular lattice when along every axis each coordinate
    equals origin + index * step to within a few ulps of the axis scale, with
    origin the smallest coordinate and step the greatest common divisor of
    the gaps between distinct coordinates (:func:`_gcd_step`), and no two
    nodes share an index.  Returns (indices, origin, steps) with nonnegative
    integer indices of shape (nodes, dim).  Gaps and shared indices are found
    by sorting and comparing neighbours, so no table over the lattice box is
    made: a sparse subset makes the box arbitrarily larger than the node
    count.
    """
    origin = nodes.min(axis=0)
    steps = np.ones(nodes.shape[1])
    idx = np.empty(nodes.shape, dtype=np.int64)
    for a, col in enumerate(nodes.T):
        tol = _LATTICE_ULPS * np.finfo(float).eps * np.max(np.abs(col))
        coords = np.sort(col)
        gaps = np.diff(coords)
        gaps = gaps[gaps > 0]
        if gaps.size:
            gap = _gcd_step(gaps, 2 * tol)
            if gap <= tol:
                return None
            span = coords[-1] - coords[0]
            steps[a] = span / np.rint(span / gap)
        idx[:, a] = np.rint((col - origin[a]) / steps[a])
        if np.max(np.abs(origin[a] + idx[:, a] * steps[a] - col)) > tol:
            return None
    # rows in lexicographic order, not flat indices, which overflow on a box
    # of more than 2**63 cells
    rows = idx[np.lexsort(idx.T)]
    if np.any(np.all(rows[1:] == rows[:-1], axis=1)):
        return None
    return idx, origin, steps


def _lattice_split(points, nodes, sign: int):
    """The signed points x (m, dim), the nodes g (n, dim), and the lattice of
    :func:`_lattice_indices`, or None where the dense product is used: off a
    lattice, and on lattice subsets so sparse that the factor tables of
    :func:`_exp_factors` would hold more columns than there are nodes."""
    g = np.asarray(nodes, dtype=float)
    g = g[:, None] if g.ndim == 1 else g
    x = sign * np.asarray(points, dtype=float).reshape(-1, g.shape[1])
    lattice = _lattice_indices(g) if g.size else None
    if lattice is not None and sum(sum(_factor_columns(int(n) + 1))
                                   for n in lattice[0].max(axis=0)) > g.shape[0]:
        lattice = None
    return x, g, lattice


def exp_table(points, nodes, sign: int = 1) -> np.ndarray:
    """exp(sign 2 pi i x . g_k), shape (points, nodes); ``nodes`` is (n, dim)
    and ``points`` (m, dim), either flat when dim is 1.

    Nodes on a lattice, in any order and any subset of its box (see
    :func:`_lattice_indices`), multiply one table per axis built from the
    factors of :func:`_exp_factors`; other nodes, and lattice subsets so
    sparse that the factors hold more columns than there are nodes, fall back
    to :func:`_exp_matrix`.  Put the lattice side of a product in ``nodes``.
    """
    x, g, lattice = _lattice_split(points, nodes, sign)
    if lattice is None:
        return _exp_matrix(x, g)
    idx, origin, steps = lattice
    table = None
    for a, k in enumerate(idx.T):
        fa, fb = _exp_factors(x[:, a], origin[a], steps[a], int(k.max()) + 1)
        if np.array_equal(k, np.arange(k.size)):   # ascending axis: a view, no gather
            part = (fa[:, :, None] * fb[:, None, :]).reshape(
                x.shape[0], fa.shape[1] * fb.shape[1])[:, :k.size]
        else:
            q, j = np.divmod(k, fb.shape[1])
            part = fa[:, q] * fb[:, j]
        table = part if table is None else table * part
    return table


def exp_sum(points, nodes, coeffs, sign: int = 1) -> np.ndarray:
    """``exp_table(points, nodes, sign) @ coeffs`` for a coefficient vector
    (n,), without the (points, nodes) table.

    On lattice nodes the coefficients are scattered into the box of the
    factor split, with axes (q_1, j_1, q_2, j_2, ...) where lattice index
    k_a = J_a q_a + j_a, and the sum over the box is contracted one factor
    table at a time: the last factor by one matrix product, each remaining
    one row by row (one small matrix-vector product per point).  Nodes
    where :func:`exp_table` takes the dense table take its product here.
    """
    x, g, lattice = _lattice_split(points, nodes, sign)
    if lattice is None:
        return _exp_matrix(x, g) @ coeffs
    idx, origin, steps = lattice
    factors, at = [], []
    for a, k in enumerate(idx.T):
        fa, fb = _exp_factors(x[:, a], origin[a], steps[a], int(k.max()) + 1)
        factors += [fa, fb]
        at += np.divmod(k, fb.shape[1])
    box = np.zeros([f.shape[1] for f in factors], dtype=complex)
    box[tuple(at)] = coeffs
    out = factors[-1] @ box.reshape(-1, box.shape[-1]).T   # (points, rest of the box)
    for f in factors[-2::-1]:
        rows = out.reshape(x.shape[0], out.shape[1] // f.shape[1], f.shape[1])
        out = np.matmul(rows, f[:, :, None])[..., 0]
    return out[:, 0]


@dataclass(frozen=True, eq=False)
class BandlimitedSignal:
    """Spectral coefficient vector over a grid; one coefficient per node."""

    grid: SpectralGrid
    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=complex)
        object.__setattr__(self, "coeffs", c)
        if c.shape != (self.grid.size,):
            raise ValueError("coefficient length does not match grid size")

    def norm_sq(self) -> float:
        return float(np.sum(self.grid.weights * np.abs(self.coeffs) ** 2))

    def norm(self) -> float:
        return float(np.sqrt(self.norm_sq()))


def _character_sum(x, freqs: np.ndarray, coeffs: np.ndarray, dim: int):
    """sum_k c_k exp(2 pi i x . l_k) at a single point (a complex scalar) or
    at the rows of an (m, dim) array (an (m,) vector)."""
    vals = exp_sum(as_points(x, dim), freqs, coeffs)
    if np.ndim(x) == 0 or (np.ndim(x) == 1 and dim > 1):
        return complex(vals[0])
    return vals


def evaluate(signal: BandlimitedSignal, x) -> complex | np.ndarray:
    """Time-domain value(s) sum_k w_k F_k exp(2 pi i x . g_k) at a point or
    the rows of an (m, dim) array."""
    return _character_sum(x, signal.grid.nodes, signal.grid.weights * signal.coeffs,
                          signal.grid.spectrum.dim)


def random_pw_signal(spectrum: SpectrumSet, nodes: int, seed: int) -> BandlimitedSignal:
    """Complex-normal coefficients on a fresh grid, normalized to unit norm."""
    return random_coeff_signal(build_grid(spectrum, nodes), seed)


def random_coeff_signal(grid: SpectralGrid, seed: int) -> BandlimitedSignal:
    """Unit-norm random signal on an existing grid."""
    rng = np.random.default_rng(seed)
    c = rng.standard_normal(grid.size) + 1j * rng.standard_normal(grid.size)
    sig = BandlimitedSignal(grid=grid, coeffs=c)
    return BandlimitedSignal(grid=grid, coeffs=c / sig.norm())


@dataclass(frozen=True, eq=False)
class TrigPolynomial:
    """Finite character sum sum_j c_j exp(2 pi i x . l_j), l_j in the spectrum."""

    frequencies: np.ndarray   # (m, dim)
    coefficients: np.ndarray  # (m,) complex
    spectrum: SpectrumSet

    def __post_init__(self):
        freqs = as_points(self.frequencies, self.spectrum.dim)
        coefs = np.asarray(self.coefficients, dtype=complex)
        object.__setattr__(self, "frequencies", freqs)
        object.__setattr__(self, "coefficients", coefs)
        if coefs.shape != (freqs.shape[0],):
            raise ValueError("coefficient/frequency length mismatch")
        if not np.all(self.spectrum.contains(freqs)):
            raise ValueError("trig polynomial frequency outside the spectrum")


def eval_trigpoly(poly: TrigPolynomial, x) -> complex | np.ndarray:
    """Exact evaluation (no quadrature)."""
    return _character_sum(x, poly.frequencies, poly.coefficients, poly.spectrum.dim)


def random_trig_polynomial(spectrum: SpectrumSet, n_terms: int, seed: int) -> TrigPolynomial:
    """Random frequencies uniform over the spectrum, complex-normal coefficients."""
    rng = np.random.default_rng(seed)
    bbox = spectrum.bounding_box()
    freqs = np.empty((0, spectrum.dim))
    while freqs.shape[0] < n_terms:
        cand = rng.uniform(bbox[:, 0], bbox[:, 1], size=(4 * n_terms, spectrum.dim))
        cand = cand[spectrum.contains(cand)]
        freqs = np.vstack([freqs, cand])[:n_terms]
    coefs = rng.standard_normal(n_terms) + 1j * rng.standard_normal(n_terms)
    return TrigPolynomial(frequencies=freqs, coefficients=coefs, spectrum=spectrum)
