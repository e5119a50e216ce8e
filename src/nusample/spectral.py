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
up to rounding), which a running product along their columns fills from 3
exponentials per point; other nodes, and lattice subsets so sparse that the
factor tables would hold more columns than there are nodes or their split's
box more than 32 cells per node, get the dense :func:`_exp_matrix`, which is
also the reference the builder is tested against.  Sums against the
exponentials never form the table, and only this module knows the split:
:func:`exp_sum` (time evaluation), :func:`lattice_sums` (Toeplitz kernels)
and :func:`box_gram` (full-box frame bounds) are the factored sums of the
ACT method of Feichtinger, Groechenig and Strohmer.

The builder remembers its inputs, the lattice of each of the last 8 node
arrays (:func:`_lattice_indices`) and the last factor pair of each lattice
axis (:func:`_exp_factors`), so repeated calls on one sampling set and one
grid (frame bounds, analyses, a reconstruction) build nothing twice.
Remembered arrays are read-only; a miss rebuilds them with the same
arithmetic, so no result depends on what was built before.

The package's one size rule is here: :func:`exp_table`, the dense product of
:func:`exp_sum` and :func:`box_gram` raise ``ValueError`` before building a
result of more than 2**24 entries (256 MiB of complex128).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import SpectralGrid, SpectrumSet, as_points, build_grid

_LATTICE_ULPS = 16
_LATTICE_MEMO_SIZE = 8
_lattice_memo: dict = {}   # (dtype, shape, bytes) of a node array -> its _lattice_indices
_factor_memo: dict = {}    # axis -> (key, (A, B)) of its last _exp_factors build
# the factor split's box is used up to this many cells per node and sparser
# lattice subsets take the dense table; chosen against a gathered table, since
# removed, it errs dense: at 200 points on one core, exp_sum's contraction cost
# a fifth to a third of the dense product at 32 and as much at 130-250, and
# exp_table's factored table stayed the cheaper up to 512
_BOX_CELLS_PER_NODE = 32
_MAX_ENTRIES = 2**24   # per table or Gram of exp_table, exp_sum or box_gram
_FACTOR_EXPONENTIALS = 3   # per point of one _exp_factors pair
# rows per block of the lattice sums: with numpy's OpenBLAS 0.3.31, products
# over 128 rows or fewer were bitwise equal at 1 and 2 threads, longer ones not
_SUM_ROWS = 64


def _exp_matrix(points: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """Dense E[x, k] = exp(2 pi i x . g_k), one exponential per entry."""
    return np.exp(2j * np.pi * (points @ nodes.T))


def _check_entries(rows: int, cols: int) -> None:
    """Raise ValueError when a (rows, cols) result passes :data:`_MAX_ENTRIES`."""
    if rows * cols > _MAX_ENTRIES:
        raise ValueError(f"a {rows} x {cols} table exceeds the limit of {_MAX_ENTRIES} entries")


def _factor_columns(n: int) -> tuple[int, int]:
    """Column counts (ceil(n/J), J), with J = ceil(sqrt(n)), of the two
    tables :func:`_exp_factors` builds for n lattice steps."""
    j_count = math.isqrt(n - 1) + 1
    return -(-n // j_count), j_count


def _exp_factors(x: np.ndarray, origin: float, step: float, n: int, axis: int = 0):
    """Two factor tables of exp(2 pi i x (origin + k step)) for k < n.

    With J = ceil(sqrt(n)) and k = J q + j (j < J), the entry for k is
    A[:, q] * B[:, j] with A[:, q] = exp(2 pi i x J step)^q and B[:, j] =
    exp(2 pi i x origin) exp(2 pi i x step)^j, each filled from its first
    column by one in-place running product: 3 exponentials per point, for
    any n.  Returns (A, B), shapes (len(x), ceil(n/J)) and (len(x), J),
    read-only: the last pair built for the lattice ``axis`` is returned
    again while the bytes of x, origin, step and n are the same.
    """
    key = (x.tobytes(), origin, step, n)
    kept = _factor_memo.get(axis)
    if kept is not None and kept[0] == key:
        return kept[1]
    q_count, j_count = _factor_columns(n)
    a, b = (np.repeat(np.exp(2j * np.pi * x * ratio)[:, None], cols, axis=1)
            for ratio, cols in ((j_count * step, q_count), (step, j_count)))
    a[:, 0], b[:, 0] = 1.0, np.exp(2j * np.pi * x * origin)
    for table in (a, b):
        np.cumprod(table, axis=1, out=table)
        table.flags.writeable = False
    _factor_memo[axis] = key, (a, b)
    return _factor_memo[axis][1]


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
    count.  The result, read-only, is kept for the last 8 node arrays.
    """
    key = (nodes.dtype.str, nodes.shape, nodes.tobytes())
    if key not in _lattice_memo:
        if len(_lattice_memo) >= _LATTICE_MEMO_SIZE:
            del _lattice_memo[next(iter(_lattice_memo))]
        _lattice_memo[key] = _find_lattice(nodes)
    return _lattice_memo[key]


def _find_lattice(nodes: np.ndarray):
    """:func:`_lattice_indices` without the memo."""
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
    for a in (idx, origin, steps):
        a.flags.writeable = False
    return idx, origin, steps


def _lattice_split(points, nodes, sign: int):
    """The signed points x (m, dim), the nodes g (n, dim), and the lattice of
    :func:`_lattice_indices`, or None where the dense product is used: off a
    lattice, and on lattice subsets so sparse that the factor tables of
    :func:`_exp_factors` would hold more columns than there are nodes, or
    their split's box more than 32 cells per node."""
    g = np.asarray(nodes, dtype=float)
    g = g[:, None] if g.ndim == 1 else g
    x = sign * np.asarray(points, dtype=float).reshape(-1, g.shape[1])
    # one node is too sparse for the factor tables (2 columns per axis), so it
    # skips the lattice search and its memo
    lattice = _lattice_indices(g) if g.shape[0] > 1 else None
    cols = [_factor_columns(int(n) + 1) for n in lattice[0].max(axis=0)] if lattice else []
    if (sum(map(sum, cols)) > g.shape[0]
            or math.prod(map(math.prod, cols)) > _BOX_CELLS_PER_NODE * g.shape[0]):
        lattice = None
    return x, g, lattice


def _axis_factors(x: np.ndarray, lattice) -> list:
    """(k, A, B) per axis of a lattice from :func:`_lattice_split`: the
    nodes' indices along the axis and the factor tables of
    :func:`_exp_factors` at the points' coordinates on it."""
    idx, origin, steps = lattice
    return [(k, *_exp_factors(x[:, a], origin[a], steps[a], int(k.max()) + 1, a))
            for a, k in enumerate(idx.T)]


def _factored_table(points: int, axes: list) -> np.ndarray:
    """The (points, nodes) table of the per-axis factors of
    :func:`_axis_factors`: on each axis the entry of node k = J q + j is
    A[:, q] * B[:, j], and the axes multiply."""
    table = None
    for k, fa, fb in axes:
        if np.array_equal(k, np.arange(k.size)):   # ascending axis: a view, no gather
            part = (fa[:, :, None] * fb[:, None, :]).reshape(
                points, fa.shape[1] * fb.shape[1])[:, :k.size]
        else:
            q, j = np.divmod(k, fb.shape[1])
            part = fa[:, q]   # a gathered copy, so the product goes in place
            part *= fb[:, j]
        table = part if table is None else table * part
    return table


def exp_table(points, nodes, sign: int = 1) -> np.ndarray:
    """exp(sign 2 pi i x . g_k), shape (points, nodes); ``nodes`` is (n, dim)
    and ``points`` (m, dim), either flat when dim is 1.

    Nodes on a lattice, in any order and any subset of its box (see
    :func:`_lattice_indices`), multiply one table per axis built from the
    factors of :func:`_exp_factors`; other nodes, and lattice subsets too
    sparse for the factors (see :func:`_lattice_split`), fall back to
    :func:`_exp_matrix`.  Put the lattice side of a product in ``nodes``.
    Raises ValueError past 2**24 entries.
    """
    x, g, lattice = _lattice_split(points, nodes, sign)
    _check_entries(x.shape[0], g.shape[0])
    if lattice is None:
        return _exp_matrix(x, g)
    return _factored_table(x.shape[0], _axis_factors(x, lattice))


def exp_sum(points, nodes, coeffs, sign: int = 1) -> np.ndarray:
    """``exp_table(points, nodes, sign) @ coeffs`` for a coefficient vector
    (n,), without the (points, nodes) table.

    On lattice nodes the coefficients are scattered into the box of the
    factor split, with axes (q_1, j_1, q_2, j_2, ...) where lattice index
    k_a = J_a q_a + j_a, and the sum over the box is contracted one factor
    table at a time: the last factor by one matrix product, each remaining
    one row by row (one small matrix-vector product per point).  Nodes where
    :func:`exp_table` takes the dense table take its product here, and
    raise ValueError where that table would pass 2**24 entries.
    """
    x, g, lattice = _lattice_split(points, nodes, sign)
    if lattice is None:
        _check_entries(x.shape[0], g.shape[0])
        return _exp_matrix(x, g) @ coeffs
    axes = _axis_factors(x, lattice)
    factors = [f for _, fa, fb in axes for f in (fa, fb)]
    box = np.zeros([f.shape[1] for f in factors], dtype=complex)
    box[tuple(i for k, _, fb in axes for i in np.divmod(k, fb.shape[1]))] = coeffs
    out = factors[-1] @ box.reshape(-1, box.shape[-1]).T   # (points, rest of the box)
    for f in factors[-2::-1]:
        rows = out.reshape(x.shape[0], out.shape[1] // f.shape[1], f.shape[1])
        out = np.matmul(rows, f[:, :, None])[..., 0]
    return out[:, 0]


def lattice_sums(points, weights, origin, steps, shape) -> np.ndarray:
    """sum_x w[x, c] exp(2 pi i x . (origin + m * steps)) for every column c
    of the (points, columns) ``weights`` and every m in the lattice box
    ``shape``, shape (columns, *shape), without the (points, box) table.

    The weights take a Khatri-Rao (row-wise Kronecker) product with the
    table of every axis but the last and with the factor A of the last axis
    (see :func:`_exp_factors`), and the product is summed against its factor
    B, so the last axis costs tables of about sqrt(n) columns.  The sum over
    the points runs in fixed blocks of 64 rows, because OpenBLAS blocks a
    long inner dimension differently at different thread counts.
    """
    x = np.asarray(points, dtype=float).reshape(-1, len(shape))
    lead = np.asarray(weights)
    for a, n in enumerate(shape[:-1]):
        table = _factored_table(x.shape[0], [(np.arange(n), *_exp_factors(
            x[:, a], origin[a], steps[a], n, a))])
        lead = (lead[:, :, None] * table[:, None, :]).reshape(x.shape[0], -1)
    fa, fb = _exp_factors(x[:, -1], origin[-1], steps[-1], shape[-1], len(shape) - 1)
    lead = (lead[:, :, None] * fa[:, None, :]).reshape(x.shape[0], -1)
    sums = lead[:_SUM_ROWS].T @ fb[:_SUM_ROWS]
    for s in range(_SUM_ROWS, x.shape[0], _SUM_ROWS):
        sums += lead[s:s + _SUM_ROWS].T @ fb[s:s + _SUM_ROWS]
    return sums.reshape(-1, fa.shape[1] * fb.shape[1])[:, :shape[-1]].reshape(-1, *shape)


def box_gram(points, nodes) -> np.ndarray | None:
    """G[x, y] = sum_k exp(2 pi i (x - y) . g_k) over the nodes, for every
    pair of points, or None unless the nodes fill a lattice box.

    On a box G is the Hadamard product over the axes of G_a, the same sum
    over the n_a nodes of axis a.  With the factor tables (A, B) of
    :func:`_exp_factors`, node k = J q + j has the entry A[:, q] * B[:, j],
    so the rows q < Q - 1 of the split are full and sum to
    (A' A'^H) * (B B^H), A' without its last column, and the last row holds
    the first n_a - (Q - 1) J columns of B.  Each axis thus costs products
    over about sqrt(n_a) columns, whatever the node count.  Raises
    ValueError when G would pass 2**24 entries.
    """
    x, g, lattice = _lattice_split(points, nodes, 1)
    # distinct indices, so the box is full iff it has as many cells as nodes
    if lattice is None or math.prod(int(n) + 1 for n in lattice[0].max(axis=0)) != g.shape[0]:
        return None
    _check_entries(x.shape[0], x.shape[0])
    gram = None
    for k, fa, fb in _axis_factors(x, lattice):
        n = int(k.max()) + 1
        rows, last, tail = fa[:, :-1], fa[:, -1], fb[:, :n - (fa.shape[1] - 1) * fb.shape[1]]
        part = ((rows @ rows.conj().T) * (fb @ fb.conj().T)
                + np.outer(last, last.conj()) * (tail @ tail.conj().T))
        gram = part if gram is None else gram * part
    return gram


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
