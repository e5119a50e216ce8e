"""Command-line front end.

    nusample <command> --config <file.json> --out <dir> [--seed S]

Each command runs one experiment from a JSON configuration (schema 1) and
returns an :class:`Outcome`; it opens no file and prints nothing.  :func:`main`
alone times the run, writes a deterministic ``report.json`` (embedding the
config hash) plus plot-ready CSV into the output directory, and maps failures
to exit codes.  Timestamps and run facts live in a separate ``meta.json`` so
reports stay byte-identical for identical configs and seeds.

Exit codes: 0 = claims confirmed (or no prediction applicable), 1 = claim
violated or numerical failure (balayage infeasible, not a frame; the report
then holds ``{"error": ...}``), 2 = usage or configuration error.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import balayage as bal
from . import frames, geometry, psido, sampling, spectral
from . import timefreq as tfm

SCHEMA_VERSION = 1


class ConfigError(Exception):
    pass


def _load_config(path) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if cfg.get("schema") != SCHEMA_VERSION:
        raise ConfigError(f"config schema must be {SCHEMA_VERSION}")
    return cfg


def _config_hash(cfg: dict) -> str:
    return hashlib.sha256(json.dumps(cfg, sort_keys=True).encode()).hexdigest()


def _sampling_set(cfg: dict, seed_override: int | None = None) -> sampling.SamplingSet:
    spec = cfg["sampling"]
    kind = spec.get("kind", "points")
    if kind == "points":
        return sampling.SamplingSet(dim=spec["dim"],
                                    points=np.asarray(spec["points"], dtype=float),
                                    window=np.asarray(spec["window"], dtype=float))
    if kind == "jittered":
        seed = seed_override if seed_override is not None else spec.get("seed", 0)
        return sampling.generate_jittered_grid(spec["delta"], spec.get("jitter", 0.0),
                                               spec["window"], seed)
    if kind == "csv":
        path = spec["path"]
        if not os.path.exists(path):
            raise ConfigError(f"referenced file does not exist: {path}")
        return sampling.SamplingSet.from_csv(path, window=spec.get("window"))
    raise ConfigError(f"unknown sampling kind {kind!r}")


def _write_json(out_dir: Path, name: str, payload: dict) -> None:
    with open(out_dir / name, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _write_csv(out_dir: Path, name: str, header: list, rows) -> None:
    with open(out_dir / name, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


@dataclass
class Outcome:
    """What one command found: the report, the exit code, CSV tables as file
    name -> (header, rows), run facts for ``meta.json`` that stay out of the
    deterministic report (such as solver counters), and a stderr message."""

    report: dict
    code: int = 0
    tables: dict = field(default_factory=dict)
    meta: dict = field(default_factory=dict)
    message: str | None = None


# -- commands -------------------------------------------------------------------


def cmd_covering(cfg: dict, seed: int | None) -> Outcome:
    spectrum = geometry.SpectrumSet.from_json(cfg["spectrum"])
    e_set = _sampling_set(cfg, seed)
    result = frames.covering_frame_experiment(
        spectrum, e_set, rho=cfg["rho"],
        region=cfg["region"], resolution=cfg["resolution"],
        grid_nodes=cfg.get("grid_nodes", 64), margin=cfg.get("subspace_margin", 5.0),
        spacing=cfg.get("subspace_spacing"))
    return Outcome({
        "covered": result.covering.covered,
        "witness_count": int(result.covering.witnesses.shape[0]),
        "witnesses": result.covering.witnesses[:100].tolist(),
        "rho_ok": result.rho_ok,
        "frame_report": result.report.to_json(),
        "prediction_applies": result.prediction_applies,
        "frame_confirmed": result.frame_confirmed,
    }, int(result.prediction_applies and not result.frame_confirmed))


def cmd_frame_bounds(cfg: dict, seed: int | None) -> Outcome:
    spectrum = geometry.SpectrumSet.from_json(cfg["spectrum"])
    e_set = _sampling_set(cfg, seed)
    grid = geometry.build_grid(spectrum, cfg.get("grid_nodes", 512))
    sub_cfg = cfg.get("subspace")
    subspace = None
    if sub_cfg:
        subspace = frames.interior_taper_subspace(
            grid, e_set.window, margin=sub_cfg.get("margin", 10.0),
            spacing=sub_cfg.get("spacing"))
    report_fb = frames.frame_bounds(e_set, grid, subspace=subspace)
    base_seed = seed if seed is not None else cfg.get("seed", 0)
    rows = []
    for t in range(cfg.get("trials", 50)):
        if subspace is not None:
            sig = frames.random_subspace_signal(grid, subspace, base_seed + t)
        else:
            sig = spectral.random_coeff_signal(grid, base_seed + t)
        energy = float(np.sum(np.abs(frames.analysis(sig, e_set).values) ** 2))
        rows.append([t, energy / sig.norm_sq()])
    return Outcome({"frame_report": report_fb.to_json()},
                   tables={"rayleigh.csv": (["trial", "rayleigh"], rows)})


def cmd_reconstruct(cfg: dict, seed: int | None) -> Outcome:
    spectrum = geometry.SpectrumSet.from_json(cfg["spectrum"])
    e_set = _sampling_set(cfg, seed)
    base_seed = seed if seed is not None else cfg.get("seed", 0)
    truth = spectral.random_pw_signal(spectrum, cfg.get("grid_nodes", 33), base_seed)
    samples = frames.analysis(truth, e_set)
    final = frames.reconstruct(samples, truth.grid, tol=cfg.get("tol", 1e-8),
                               max_iter=cfg.get("max_iter", 200))
    err_num = np.sqrt(float(np.sum(truth.grid.weights *
                                   np.abs(final.signal.coeffs - truth.coeffs) ** 2)))
    rel_err = err_num / truth.norm()
    return Outcome(
        {"relative_error": rel_err, "iterations": final.iterations,
         "residual": final.residual, "converged": final.converged},
        0 if final.converged else 1,
        tables={"error_curve.csv": (["iteration", "residual"],
                                    list(enumerate(final.history, start=1)))},
        meta={"solver": {"method": final.method, "iterations": final.iterations,
                         "converged": final.converged}},
        message=None if final.converged else "unconverged")


def cmd_identity(cfg: dict, seed: int | None) -> Outcome:
    spectrum = geometry.SpectrumSet.from_json(cfg["spectrum"])
    e_set = _sampling_set(cfg, seed)
    eps = cfg.get("eps") or bal.default_enlargement(spectrum)
    grid = geometry.build_grid(geometry.enlarge(spectrum, eps),
                               cfg.get("enlarged_nodes", 384))
    window = bal.ingham_window(eps, dim=spectrum.dim)
    base_seed = seed if seed is not None else cfg.get("seed", 0)
    rng = np.random.default_rng(base_seed)
    n_y = cfg.get("n_y", 25)
    y_half = cfg.get("y_half", 10.0)
    ys = rng.uniform(-y_half, y_half, size=(n_y, spectrum.dim))
    solver = bal.BalayageSolver(e_set, grid, eta=cfg.get("eta", 1e-5), reg=cfg.get("reg", 1e-8))
    tol = cfg.get("tolerance", 1e-2)
    residuals = []
    rows = []
    for t in range(cfg.get("trials", 5)):
        poly = spectral.random_trig_polynomial(spectrum, cfg.get("poly_terms", 5),
                                               base_seed + 100 + t)
        residuals.append(bal.fundamental_identity_residual(poly, e_set, grid, window, ys,
                                                           solver=solver))
    for y in ys:
        sol = solver.solve(y)
        rows.append([float(y[0]), sol.fit_residual, sol.l1_mass])
    return Outcome(
        {"identity_residuals": residuals, "max_residual": max(residuals), "tolerance": tol},
        0 if max(residuals) <= tol else 1,
        tables={"solves.csv": (["y", "residual", "l1_mass"], rows)})


def cmd_stft(cfg: dict, seed: int | None) -> Outcome:
    refine = cfg.get("refine", 1)
    f, grid, g0, tf = tfm.gaussian_identity_fixture("isometry", refine=refine)
    iso = tfm.isometry_check(f, grid, g0, tf).deviation
    v = tfm.stft(f, grid, g0, tf)
    xs, ws = (a.ravel().tolist() for a in np.meshgrid(tf.time.nodes, tf.freq.nodes,
                                                       indexing="ij"))
    tables = {
        "tfm.csv": (["x", "omega", "re", "im"],
                    list(zip(xs, ws, v.real.ravel().tolist(), v.imag.ravel().tolist()))),
        "spectrogram.csv": (["x", "omega", "magnitude"],
                            # hypot rounds as the scalar complex abs; np.abs may not
                            list(zip(xs, ws, np.hypot(v.real, v.imag).ravel().tolist()))),
    }
    f, grid, g0, tf = tfm.gaussian_identity_fixture("tf_identity", refine=refine)
    tf_dev = tfm.tf_identity_check(f, grid, g0, tf, spectral_half=2.5)
    f, grid, g0, tf = tfm.gaussian_identity_fixture("closed_form", refine=refine)
    closed_dev = tfm.stft_fourier_closed_form(f, grid, g0, tf)
    tol_iso = cfg.get("isometry_tol", 1e-3)
    tol_tf = cfg.get("tf_identity_tol", 1e-3)
    tol_closed = cfg.get("closed_form_tol", 1e-2)
    ok = iso <= tol_iso and tf_dev <= tol_tf and closed_dev <= tol_closed
    return Outcome({
        "isometry_deviation": iso,
        "tf_identity_deviation": tf_dev,
        "closed_form_deviation": closed_dev,
        "tolerances": {"isometry": tol_iso, "tf_identity": tol_tf, "closed_form": tol_closed},
        "all_ok": bool(ok),
    }, 0 if ok else 1, tables=tables)


def cmd_gabor(cfg: dict, seed: int | None) -> Outcome:
    step = cfg.get("step", 0.1)
    grid = tfm.UniformGrid.symmetric(cfg.get("time_half", 8.0), step)
    g0 = tfm.gaussian_window(step=step)
    base_seed = seed if seed is not None else cfg.get("seed", 0)
    lattice = tfm.phase_lattice(cfg.get("a", 0.5), cfg.get("b", 0.5),
                                 cfg.get("time_extent", 5.0), cfg.get("freq_extent", 3.0),
                                 jitter=cfg.get("jitter", 0.0), seed=base_seed)
    t = grid.nodes
    f_vals = (np.exp(-np.pi * (t - 0.3) ** 2) * np.exp(2j * np.pi * 0.2 * t)
              + 0.5 * np.exp(-np.pi * (t + 0.5) ** 2))
    tol = cfg.get("error_tol", 1e-3)
    result = tfm.gabor_reconstruct(f_vals, grid, g0, lattice,
                                    cond_threshold=cfg.get("cond_threshold", 1e8))
    return Outcome({
        "reconstruction_error": result.error,
        "iterations": result.iterations,
        "condition": result.condition,
        "tolerance": tol,
    }, 0 if result.error <= tol else 1)


def cmd_psido(cfg: dict, seed: int | None) -> Outcome:
    spectrum = geometry.SpectrumSet.from_json(cfg["spectrum"])
    e_set = _sampling_set(cfg, seed)
    terms = []
    for td in cfg["terms"]:
        b = psido.SpectralFactor.from_callable(
            lambda g, w=td.get("b_width", 0.5): np.exp(-(g / w) ** 2),
            -td.get("b_half", 1.0), td.get("b_half", 1.0))
        terms.append(psido.symbol_term(td["lambda"], td["eps"], b,
                                       order=td.get("order", 8),
                                       amplitude=td.get("amplitude", 1.0)))
    symbol = psido.KNSymbol(terms=terms, spectrum=spectrum)
    validation = psido.validate_symbol_class(symbol)
    if not validation.ok:
        return Outcome({"validation_failures": [list(f) for f in validation.failures]}, 1,
                       message=f"symbol validation failed: {validation.failures}")
    eps = cfg.get("eps") or bal.default_enlargement(spectrum)
    egrid = geometry.build_grid(geometry.enlarge(spectrum, eps),
                                cfg.get("enlarged_nodes", 384))
    window = bal.ingham_window(eps, dim=1)
    base_seed = seed if seed is not None else cfg.get("seed", 0)
    ys = np.random.default_rng(base_seed).uniform(-10.0, 10.0, size=(cfg.get("n_k", 25), 1))
    k_hat = bal.balayage_constant(e_set, egrid, ys, eta=cfg.get("eta", 1e-5))
    lower_const = 1.0 / (k_hat.value * window.l2_norm) ** 2
    lam_grid = geometry.build_grid(spectrum, cfg.get("grid_nodes", 256))
    bessel = frames.frame_bounds(e_set, lam_grid).upper
    f_grid = tfm.UniformGrid.symmetric(cfg.get("f_half", 12.0), cfg.get("f_step", 0.25))
    gamma = np.linspace(-cfg.get("gamma_half", 0.7), cfg.get("gamma_half", 0.7),
                        cfg.get("gamma_nodes", 141))
    gw = np.full(gamma.size, gamma[1] - gamma[0])
    trials = []
    envelope = np.exp(-((f_grid.nodes / 8.0) ** 2))
    for t in range(cfg.get("trials", 10)):
        rng_t = np.random.default_rng(base_seed + 200 + t)
        f_vals = envelope * (rng_t.standard_normal(f_grid.count)
                             + 1j * rng_t.standard_normal(f_grid.count))
        chk = psido.psido_frame_check(symbol, f_vals, f_grid, e_set, gamma, gw,
                                      lower_const=lower_const, bessel_bound=bessel)
        trials.append({"lhs": chk.lhs, "mid": chk.mid, "rhs": chk.rhs,
                       "lower_ok": chk.lower_ok, "upper_ok": chk.upper_ok})
    ok = all(t["lower_ok"] and t["upper_ok"] for t in trials)
    return Outcome({
        "balayage_constant": k_hat.value,
        "lower_const": lower_const,
        "bessel_bound": bessel,
        "trials": trials,
        "all_ok": bool(ok),
    }, 0 if ok else 1)


_COMMANDS = {
    "covering": cmd_covering,
    "frame-bounds": cmd_frame_bounds,
    "reconstruct": cmd_reconstruct,
    "identity": cmd_identity,
    "stft": cmd_stft,
    "gabor": cmd_gabor,
    "psido": cmd_psido,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="nusample",
                                     description="non-uniform sampling experiments")
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--seed", type=int, default=None,
                        help="override the config seed")
    args = parser.parse_args(argv)
    out_dir = Path(args.out)
    try:
        cfg = _load_config(args.config)
        out_dir.mkdir(parents=True, exist_ok=True)
        started = time.time()
        outcome = _COMMANDS[args.command](cfg, args.seed)
    except (bal.BalayageInfeasibleError, frames.NotAFrameError) as exc:
        prefix = "balayage infeasible: " if isinstance(exc, bal.BalayageInfeasibleError) else ""
        outcome = Outcome({"error": str(exc)}, 1, message=f"{prefix}{exc}")
    except KeyError as exc:
        print(f"config error: missing field {exc}", file=sys.stderr)
        return 2
    except np.linalg.LinAlgError:
        raise   # a numerical failure, not a bad config value
    except (ConfigError, ValueError, TypeError) as exc:   # unreadable, out of range, wrong type
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    if outcome.message is not None:
        print(outcome.message, file=sys.stderr)
    for name, (header, rows) in outcome.tables.items():
        _write_csv(out_dir, name, header, rows)
    _write_json(out_dir, "report.json", {**outcome.report, "config_hash": _config_hash(cfg)})
    _write_json(out_dir, "meta.json", {
        "written_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "elapsed_seconds": time.time() - started,
        **outcome.meta,
    })
    return outcome.code


if __name__ == "__main__":
    sys.exit(main())
