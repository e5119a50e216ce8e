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

from dataclasses import dataclass

import numpy as np

from .frames import InequalityCheck
from .geometry import SpectrumSet
from .sampling import SamplingSet
from .spectral import exp_sum, exp_table
from .timefreq import UniformGrid, interp_complex


@dataclass(frozen=True, eq=False)
class SpectralFactor:
    """Frequency factor b(g) stored as samples with linear interpolation."""

    nodes: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        n = np.asarray(self.nodes, dtype=float).ravel()
        v = np.asarray(self.values, dtype=complex).ravel()
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
    """Finite separable Kohn-Nirenberg symbol tied to a spectrum."""

    terms: list
    spectrum: SpectrumSet

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
    """
    f = np.asarray(f_values, dtype=complex)
    u, b = symbol.factors(f_grid.nodes, gamma_nodes)
    kernel = exp_table(gamma_nodes, f_grid.nodes, sign=-1)   # (n_gamma, n_y)
    return np.sum(b * ((u * f) @ kernel.T), axis=0) * f_grid.step


def hs_norm(symbol: KNSymbol, y_grid: UniformGrid, gamma_nodes, gamma_weights) -> float:
    """Hilbert-Schmidt norm by double quadrature of |s|^2 over time x frequency,
    taken through the terms x terms Gram matrices of s = U^T B (see
    :meth:`KNSymbol.factors`): ||s||^2 = step Re sum_jk (U U^H)_jk (B W B^H)_jk."""
    u, b = symbol.factors(y_grid.nodes, gamma_nodes)
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
    x = sampling_set.points[:, 0]
    u, b = symbol.factors(x, gnodes)
    phases = exp_table(x, gnodes, sign=-1)                   # (n_x, n_gamma)
    inner = np.sum(u * ((b * (gw * kf)) @ phases.T), axis=0)
    mid = float(np.sum(np.abs(inner) ** 2))
    hs = hs_norm(symbol, f_grid, gnodes, gw)
    rhs = bessel_bound * hs**2 * kf_norm_sq
    return InequalityCheck.of(lhs, mid, rhs)
