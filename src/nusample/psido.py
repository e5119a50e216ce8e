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

    The symbol keeps the tables its operator functions read that do not
    depend on the signal, one entry per role, each keyed on exactly what it
    depends on: the *grid* role holds the factors (U, B) on the signal grid
    and the (gamma x y) kernel, keyed on the grid and the bytes of the gamma
    nodes; the *points* role holds the time factors U_x at the sample points
    and the (points x gamma) phases, keyed on the bytes of the points and of
    the gamma nodes.  A call under another key replaces that role's entry.
    The terms are a tuple and every kept array is read-only, so an entry
    cannot go stale.
    """

    terms: tuple
    spectrum: SpectrumSet
    _tables: dict = field(default_factory=dict, init=False, repr=False)  # role: (key, tables)

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

    def _kept(self, role: str, key: tuple, build) -> tuple:
        """The read-only tables of ``role``, rebuilt by ``build()`` when the
        role's key is not ``key``."""
        kept = self._tables.get(role)
        if kept is None or kept[0] != key:
            kept = self._tables[role] = key, tuple(_frozen(a) for a in build())
        return kept[1]

    def _grid_tables(self, grid: UniformGrid, gamma: np.ndarray) -> tuple:
        """(U, B, kernel) with kernel[k, i] = exp(-2 pi i g_k y_i)."""
        return self._kept("grid", (grid, gamma.tobytes()), lambda: (
            *self.factors(grid.nodes, gamma), exp_table(gamma, grid.nodes, sign=-1)))

    def _point_tables(self, x: np.ndarray, gamma: np.ndarray) -> tuple:
        """(U_x, phases) with phases[m, k] = exp(-2 pi i x_m g_k)."""
        return self._kept("points", (x.tobytes(), gamma.tobytes()), lambda: (
            self.factors(x, gamma)[0], exp_table(x, gamma, sign=-1)))


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
    The factors and the kernel are the symbol's grid tables (see
    :class:`KNSymbol`), so a further signal on this grid and these gamma
    nodes pays only the product.
    """
    f = np.asarray(f_values, dtype=complex)
    u, b, kernel = symbol._grid_tables(f_grid, np.asarray(gamma_nodes, dtype=float).ravel())
    return np.sum(b * ((u * f) @ kernel.T), axis=0) * f_grid.step


def hs_norm(symbol: KNSymbol, y_grid: UniformGrid, gamma_nodes, gamma_weights) -> float:
    """Hilbert-Schmidt norm by double quadrature of |s|^2 over time x frequency,
    taken through the terms x terms Gram matrices of s = U^T B (see
    :meth:`KNSymbol.factors`): ||s||^2 = step Re sum_jk (U U^H)_jk (B W B^H)_jk.
    U and B are the symbol's grid tables; the two small products are taken
    on every call, so the weights key nothing."""
    u, b, _ = symbol._grid_tables(y_grid, np.asarray(gamma_nodes, dtype=float).ravel())
    gw = np.asarray(gamma_weights, dtype=float)
    total = np.sum((u @ u.conj().T) * ((b * gw) @ b.conj().T)).real
    return float(np.sqrt(max(total, 0.0) * y_grid.step))


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
    u, b = symbol.factors(np.linspace(-20.0, 20.0, 401), np.linspace(-2.0, 2.0, 201))
    bound = float((np.abs(u).T @ np.abs(b)).max())
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

    Everything that does not depend on the signal is kept on the symbol (see
    :class:`KNSymbol`): B, the kernel and the factors on ``f_grid`` in its
    grid tables, U_x and the phases at the sample points in its point tables.
    A further signal under the same keys costs two small products and the
    norm's two terms x terms products, with results bitwise equal to those
    of a fresh symbol.
    """
    f = np.asarray(f_values, dtype=complex)
    gnodes = np.asarray(gamma_nodes, dtype=float).ravel()
    gw = np.asarray(gamma_weights, dtype=float)
    if not np.any(f):
        return InequalityCheck.of(0.0, 0.0, 0.0)
    kf = apply_ks(symbol, f, f_grid, gnodes)
    kf_norm_sq = float(np.sum(gw * np.abs(kf) ** 2))
    f_norm_sq = float(np.sum(np.abs(f) ** 2) * f_grid.step)
    lhs = lower_const * kf_norm_sq**2 / f_norm_sq
    # inner[x] = sum_g s(x, g) exp(-2 pi i x g) gw kf(g), one product per term
    b = symbol._grid_tables(f_grid, gnodes)[1]
    u_x, phases = symbol._point_tables(sampling_set.points[:, 0], gnodes)
    inner = np.sum(u_x * ((b * (gw * kf)) @ phases.T), axis=0)
    mid = float(np.sum(np.abs(inner) ** 2))
    hs = hs_norm(symbol, f_grid, gnodes, gw)
    rhs = bessel_bound * hs**2 * kf_norm_sq
    return InequalityCheck.of(lhs, mid, rhs)
