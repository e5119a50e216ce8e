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

import csv
import json
import os
from dataclasses import dataclass

import numpy as np

from .frames import _SLACK
from .geometry import SpectrumSet
from .sampling import SamplingSet
from .spectral import exp_table
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

    def l2_norm(self) -> float:
        # trapezoid on the stored nodes
        return float(np.sqrt(np.trapezoid(np.abs(self.values) ** 2, self.nodes)))


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

    def a_l2_norm(self) -> float:
        """Exact-support route: Parseval on the iterated box convolution."""
        w = self.eps / self.order
        n = 2001
        grid = np.linspace(-w, w, n)
        dg = grid[1] - grid[0]
        prof = np.ones(n)
        for _ in range(self.order - 1):
            prof = np.convolve(prof, np.ones(n)) * dg
        # profile of the transform of sinc(2wy)^order, scaled so a(0)=amplitude
        scale = abs(self.amplitude) / (prof.sum() * dg)
        return float(np.sqrt(np.sum((scale * prof) ** 2) * dg))

    def to_json(self, profile_path: str) -> dict:
        return {"lambda": self.lam, "eps": self.eps, "order": self.order,
                "amplitude_re": complex(self.amplitude).real,
                "amplitude_im": complex(self.amplitude).imag,
                "b_profile": profile_path}


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

    def eval_matrix(self, y_nodes, gamma_nodes) -> np.ndarray:
        """s(y, g) on the product grid, shape (n_y, n_gamma)."""
        u, b = self.factors(y_nodes, gamma_nodes)
        return u.T @ b

    def l2_bound(self) -> float:
        """Triangle-inequality bound sum_j ||a_j|| ||b_j|| on the symbol norm."""
        return float(sum(t.a_l2_norm() * t.b.l2_norm() for t in self.terms))


def symbol_eval(symbol: KNSymbol, y: float, gamma: float) -> complex:
    """Pointwise finite-sum evaluation."""
    return complex(symbol.eval_matrix([y], [gamma])[0, 0])


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
        leak = np.max(np.abs((exp_table(probe, y, sign=-1) @ a) * step)) / peak
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


@dataclass(frozen=True)
class PsidoCheck:
    lhs: float
    mid: float
    rhs: float
    lower_ok: bool
    upper_ok: bool


def psido_frame_check(symbol: KNSymbol, f_values, f_grid: UniformGrid,
                      sampling_set: SamplingSet, gamma_nodes, gamma_weights,
                      lower_const: float, bessel_bound: float) -> PsidoCheck:
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
        return PsidoCheck(0.0, 0.0, 0.0, True, True)
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
    return PsidoCheck(lhs=lhs, mid=mid, rhs=rhs,
                      lower_ok=bool(lhs <= mid * (1.0 + _SLACK)),
                      upper_ok=bool(mid <= rhs * (1.0 + _SLACK)))


# -- serialization -------------------------------------------------------------


def symbol_save(symbol: KNSymbol, path, profile_prefix: str = "term") -> None:
    """JSON description with per-term frequency profiles in CSV side files."""
    base = os.path.dirname(os.fspath(path))
    terms = []
    for j, term in enumerate(symbol.terms):
        prof = f"{profile_prefix}{j}_b.csv"
        with open(os.path.join(base, prof), "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["gamma", "re", "im"])
            for g, v in zip(term.b.nodes, term.b.values):
                writer.writerow([g, v.real, v.imag])
        terms.append(term.to_json(prof))
    with open(path, "w") as fh:
        json.dump({"spectrum": symbol.spectrum.to_json(), "terms": terms}, fh, sort_keys=True)


def symbol_load(path) -> KNSymbol:
    base = os.path.dirname(os.fspath(path))
    with open(path) as fh:
        data = json.load(fh)
    spectrum = SpectrumSet.from_json(data["spectrum"])
    terms = []
    for td in data["terms"]:
        rows = []
        with open(os.path.join(base, td["b_profile"]), newline="") as fh:
            reader = csv.reader(fh)
            next(reader)
            for row in reader:
                rows.append([float(c) for c in row])
        arr = np.asarray(rows)
        b = SpectralFactor(nodes=arr[:, 0], values=arr[:, 1] + 1j * arr[:, 2])
        terms.append(SymbolTerm(lam=td["lambda"], eps=td["eps"], order=td["order"],
                                amplitude=td["amplitude_re"] + 1j * td["amplitude_im"], b=b))
    return KNSymbol(terms=terms, spectrum=spectrum)
