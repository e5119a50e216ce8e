"""Pseudo-differential operators with separable Kohn-Nirenberg symbols.

Symbols here are finite sums

    s(y, g) = sum_j a_j(y) b_j(g) exp(-2 pi i y . l_j)

where each a_j has a transform supported exactly in a closed ball around the
origin whose translate around l_j stays inside the spectrum.  The time
factors a_j are iterated self-convolutions of a box profile, which gives a
closed form a_j(y) = amplitude * sinc(2 w y)^order, exact spectral support
[-order*w, order*w], and time decay |y|^(-order) -- fast enough that the
support condition can be re-verified numerically by transform leakage on a
truncated grid.

The operator acts as (K_s f-hat)(g) = integral s(y, g) f(y) exp(-2 pi i y g) dy,
a Hilbert-Schmidt operator whose norm equals the symbol's L2 norm; for one
separable term that norm factors as ||a|| * ||b||.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .frames import InequalityCheck
from .geometry import SpectrumSet
from .sampling import SamplingSet
from .spectral import exp_sum, exp_table
from .timefreq import UniformGrid, interp_complex


def _frozen(a: np.ndarray) -> np.ndarray:
    """``a`` made read-only, so a table built from it cannot go stale."""
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class SpectralFactor:
    """Frequency factor b(g) stored as samples with linear interpolation;
    the samples are a read-only copy of the ones given."""

    nodes: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        n = _frozen(np.array(self.nodes, dtype=float).ravel())
        v = _frozen(np.array(self.values, dtype=complex).ravel())
        object.__setattr__(self, "nodes", n)
        object.__setattr__(self, "values", v)
        if n.shape != v.shape:
            raise ValueError("node/value length mismatch")

    @classmethod
    def from_callable(cls, fn, lo: float, hi: float, n: int = 513) -> "SpectralFactor":
        nodes = np.linspace(lo, hi, n)
        return cls(nodes=nodes, values=np.asarray(fn(nodes), dtype=complex))

    def at(self, gamma) -> np.ndarray:
        return interp_complex(np.asarray(gamma, dtype=float), self.nodes, self.values)


@dataclass(frozen=True, eq=False)
class SymbolTerm:
    """One separable term a(y) b(g) exp(-2 pi i y l)."""

    lam: float            # modulation frequency l_j
    eps: float            # spectral support radius of a_j
    order: int            # box self-convolution order (time decay |y|^-order)
    amplitude: complex
    b: SpectralFactor

    def a_at(self, y) -> np.ndarray:
        w = self.eps / self.order
        return self.amplitude * np.sinc(2.0 * w * np.asarray(y, dtype=float)) ** self.order


@dataclass(frozen=True, eq=False)
class KNSymbol:
    """Finite separable Kohn-Nirenberg symbol tied to a spectrum.

    The symbol keeps one entry of frame-check tables, everything
    :func:`psido_frame_check` needs that does not depend on the signal: the
    factors on the signal grid and at the sample points, the (gamma x y)
    kernel, the (points x gamma) phases and the Hilbert-Schmidt norm.  Its key
    is the signal grid and the bytes of the sample points, the gamma nodes and
    the gamma weights; a check under another key replaces it.  The terms are
    a tuple and every cached array is read-only, so the entry cannot go stale.
    """

    terms: tuple
    spectrum: SpectrumSet
    _tables: tuple | None = field(default=None, init=False, repr=False)  # (key, entry)

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(self.terms))

    def factors(self, y_nodes, gamma_nodes) -> tuple[np.ndarray, np.ndarray]:
        """Per-term factors (U, B) with U[j] = a_j(y) exp(-2 pi i y l_j) and
        B[j] = b_j(g), shapes (terms, n_y) and (terms, n_gamma); s = U^T B."""
        y = np.asarray(y_nodes, dtype=float).ravel()
        g = np.asarray(gamma_nodes, dtype=float).ravel()
        u = np.empty((len(self.terms), y.size), dtype=complex)
        b = np.empty((len(self.terms), g.size), dtype=complex)
        for j, term in enumerate(self.terms):
            u[j] = term.a_at(y) * np.exp(-2j * np.pi * y * term.lam)
            b[j] = term.b.at(g)
        return u, b

    def _entry(self, grid: UniformGrid, gamma: np.ndarray, weights=None) -> dict | None:
        """The cached check tables if their key holds ``grid``, the nodes
        ``gamma`` and, when given, the weights ``weights``; else None."""
        if self._tables is None:
            return None
        (g, gb, _, wb), entry = self._tables
        if g == grid and gb == gamma.tobytes() and (
                weights is None or wb == weights.tobytes()):
            return entry
        return None

    def _check_tables(self, grid: UniformGrid, x: np.ndarray, gamma: np.ndarray,
                      weights: np.ndarray) -> dict:
        """The frame-check tables of this setting, built when the key changes."""
        key = (grid, gamma.tobytes(), x.tobytes(), weights.tobytes())
        if self._tables is None or self._tables[0] != key:
            u, b = self.factors(grid.nodes, gamma)
            u_x, b_x = self.factors(x, gamma)
            entry = {"u": u, "b": b, "kernel": exp_table(gamma, grid.nodes, sign=-1),
                     "u_x": u_x, "b_x": b_x, "phases": exp_table(x, gamma, sign=-1)}
            for a in entry.values():
                _frozen(a)
            entry["hs"] = _hs_norm(u, b, weights, grid.step)
            object.__setattr__(self, "_tables", (key, entry))
        return self._tables[1]


def symbol_term(lam: float, eps: float, b: SpectralFactor, order: int = 8,
                amplitude: complex = 1.0) -> SymbolTerm:
    if eps <= 0:
        raise ValueError("eps must be positive")
    if order < 2:
        raise ValueError("order must be at least 2")
    return SymbolTerm(lam=float(lam), eps=float(eps), order=int(order),
                      amplitude=complex(amplitude), b=b)


def apply_ks(symbol: KNSymbol, f_values, f_grid: UniformGrid,
             gamma_nodes) -> np.ndarray:
    """(K_s f-hat)(g) = integral s(y, g) f(y) exp(-2 pi i y g) dy per node.

    One kernel exp(-2 pi i y g) serves all terms: term j's modulation is
    folded into its weight vector a_j(y) exp(-2 pi i y l_j) f(y), so the
    quadrature is one product of the (terms, y) weights with the kernel.  The
    kernel is factored along the uniform y axis, so any gamma nodes work.
    The weights and the kernel are the symbol's cached check tables (see
    :class:`KNSymbol`) when their key holds this grid and these gamma nodes,
    so a frame check pays only the product per signal.
    """
    f = np.asarray(f_values, dtype=complex)
    gnodes = np.asarray(gamma_nodes, dtype=float).ravel()
    entry = symbol._entry(f_grid, gnodes)
    if entry is None:
        u, b = symbol.factors(f_grid.nodes, gnodes)
        kernel = exp_table(gnodes, f_grid.nodes, sign=-1)   # (n_gamma, n_y)
    else:
        u, b, kernel = entry["u"], entry["b"], entry["kernel"]
    return np.sum(b * ((u * f) @ kernel.T), axis=0) * f_grid.step


def _hs_norm(u: np.ndarray, b: np.ndarray, gw: np.ndarray, step: float) -> float:
    total = np.sum((u @ u.conj().T) * ((b * gw) @ b.conj().T)).real
    return float(np.sqrt(max(total, 0.0) * step))


def hs_norm(symbol: KNSymbol, y_grid: UniformGrid, gamma_nodes, gamma_weights) -> float:
    """Hilbert-Schmidt norm by double quadrature of |s|^2 over time x frequency,
    taken through the terms x terms Gram matrices of s = U^T B (see
    :meth:`KNSymbol.factors`): ||s||^2 = step Re sum_jk (U U^H)_jk (B W B^H)_jk.
    Read from the symbol's cached check tables when their key holds this
    grid and these gamma nodes and weights."""
    gnodes = np.asarray(gamma_nodes, dtype=float).ravel()
    gw = np.asarray(gamma_weights, dtype=float)
    entry = symbol._entry(y_grid, gnodes, gw)
    if entry is not None:
        return entry["hs"]
    return _hs_norm(*symbol.factors(y_grid.nodes, gnodes), gw, y_grid.step)


@dataclass(frozen=True)
class TermValidation:
    index: int
    ball_inside: bool
    boundary_margin: float       # distance from the ball to the spectrum boundary
    leakage: float               # relative transform mass outside the support ball
    leakage_ok: bool


@dataclass(frozen=True)
class SymbolValidation:
    terms: list
    uniform_bound: float
    ok: bool
    failures: list


def validate_symbol_class(symbol: KNSymbol) -> SymbolValidation:
    """Check the separable-class conditions term by term.

    Ball containment of the modulation ball inside the spectrum is geometric
    and exact; spectral support of each time factor is exact by construction
    and re-verified by measuring transform leakage outside the ball (below
    1e-8 of the peak passes) from a truncated time grid sized to the factor's
    polynomial decay; the uniform bound on sum_j |a_j b_j| is evaluated on the
    stored product grid.
    """
    reports = []
    failures = []
    for j, term in enumerate(symbol.terms):
        margin = symbol.spectrum.boundary_distance([term.lam]) - term.eps
        ball_ok = margin >= -1e-12
        # grid long enough that truncation alone cannot fake sub-tolerance leakage
        w = term.eps / term.order
        reach = 1.2 * (10.0 ** (9.0 / term.order)) / (2.0 * np.pi * w)
        step = min(1.0, 0.25 / term.eps)
        n = int(np.ceil(reach / step))
        y = step * np.arange(-n, n + 1)
        a = term.a_at(y)
        peak = abs(np.sum(a) * step)            # transform value at 0 (the maximum)
        nyquist = 0.5 / step
        probe = np.linspace(term.eps * 1.05, 0.8 * nyquist, 64)
        leak = np.max(np.abs(exp_sum(probe, y, a, sign=-1) * step)) / peak
        leak_ok = leak < 1e-8
        reports.append(TermValidation(index=j, ball_inside=bool(ball_ok),
                                      boundary_margin=float(margin),
                                      leakage=float(leak), leakage_ok=bool(leak_ok)))
        if not ball_ok:
            failures.append((j, "modulation ball leaves the spectrum"))
        if not leak_ok:
            failures.append((j, f"transform leakage {leak:.2e} outside the support ball"))
    ys = np.linspace(-20.0, 20.0, 401)
    gs = np.linspace(-2.0, 2.0, 201)
    total = np.zeros((ys.size, gs.size))
    for term in symbol.terms:
        total += np.abs(np.outer(term.a_at(ys), term.b.at(gs)))
    bound = float(total.max())
    return SymbolValidation(terms=reports, uniform_bound=bound,
                            ok=not failures, failures=failures)


def psido_frame_check(symbol: KNSymbol, f_values, f_grid: UniformGrid,
                      sampling_set: SamplingSet, gamma_nodes, gamma_weights,
                      lower_const: float, bessel_bound: float) -> InequalityCheck:
    """Frame-type inequality data for the operator output of one signal.

    lhs = A ||K_s f-hat||^4 / ||f||^2 with A = 1/(K ||h||_2)^2 assembled from
    the measured balayage constant and window norm (passed as lower_const);
    mid = sampled energy of the inner products of K_s f-hat against the
    conjugated symbol slices times sampled exponentials; rhs = B ||s||^2
    ||K_s f-hat||^2 with B the upper (Bessel) frame bound of the set over the
    base spectrum and ||s|| the Hilbert-Schmidt norm.  The zero signal gives
    the all-zero chain.

    Everything that does not depend on the signal is built once per symbol
    and setting and kept on the symbol (see :class:`KNSymbol`), keyed on
    ``f_grid`` and the bytes of the sample points, the gamma nodes and the
    gamma weights; each further signal under the same key costs two small
    products, with results bitwise equal to those of a fresh symbol.
    """
    f = np.asarray(f_values, dtype=complex)
    gnodes = np.asarray(gamma_nodes, dtype=float).ravel()
    gw = np.asarray(gamma_weights, dtype=float)
    if not np.any(f):
        return InequalityCheck.of(0.0, 0.0, 0.0)
    tables = symbol._check_tables(f_grid, sampling_set.points[:, 0], gnodes, gw)
    kf = apply_ks(symbol, f, f_grid, gnodes)
    kf_norm_sq = float(np.sum(gw * np.abs(kf) ** 2))
    f_norm_sq = float(np.sum(np.abs(f) ** 2) * f_grid.step)
    lhs = lower_const * kf_norm_sq**2 / f_norm_sq
    # inner[x] = sum_g s(x, g) exp(-2 pi i x g) gw kf(g), one product per term
    inner = np.sum(tables["u_x"] * ((tables["b_x"] * (gw * kf)) @ tables["phases"].T), axis=0)
    mid = float(np.sum(np.abs(inner) ** 2))
    hs = hs_norm(symbol, f_grid, gnodes, gw)
    rhs = bessel_bound * hs**2 * kf_norm_sq
    return InequalityCheck.of(lhs, mid, rhs)
