"""Command-line front end.

    nusample <command> --config <file.json> --out <dir> [--threads N] [--seed S]

Each command reads a JSON configuration (schema 1), runs one experiment, and
writes a deterministic ``report.json`` (embedding the config hash) plus
plot-ready CSV into the output directory.  Timestamps live in a separate
``meta.json`` so reports stay byte-identical for identical configs and seeds.

Exit codes: 0 = claims confirmed (or no prediction applicable),
1 = numerical failure / claim violated, 2 = usage or configuration error.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import sys
import time
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


def _require(cfg: dict, key: str):
    if key not in cfg:
        raise ConfigError(f"missing config field {key!r}")
    return cfg[key]


def _spectrum(cfg: dict) -> geometry.SpectrumSet:
    return geometry.SpectrumSet.from_json(_require(cfg, "spectrum"))


def _sampling_set(cfg: dict, seed_override: int | None = None) -> sampling.SamplingSet:
    spec = _require(cfg, "sampling")
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


def _finish(out_dir: Path, cfg: dict, report: dict, started: float) -> None:
    report["config_hash"] = _config_hash(cfg)
    _write_json(out_dir, "report.json", report)
    _write_json(out_dir, "meta.json", {
        "written_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "elapsed_seconds": time.time() - started,
    })


# -- commands -------------------------------------------------------------------


def cmd_covering(cfg: dict, out_dir: Path, threads: int | None, seed: int | None) -> int:
    started = time.time()
    spectrum = _spectrum(cfg)
    e_set = _sampling_set(cfg, seed)
    result = frames.covering_frame_experiment(
        spectrum, e_set, rho=_require(cfg, "rho"),
        region=_require(cfg, "region"), resolution=_require(cfg, "resolution"),
        grid_nodes=cfg.get("grid_nodes", 64), margin=cfg.get("subspace_margin", 5.0),
        spacing=cfg.get("subspace_spacing"))
    report = {
        "covered": result.covering.covered,
        "witness_count": int(result.covering.witnesses.shape[0]),
        "witnesses": result.covering.witnesses[:100].tolist(),
        "rho_ok": result.rho_ok,
        "frame_report": result.report.to_json(),
        "prediction_applies": result.prediction_applies,
        "frame_confirmed": result.frame_confirmed,
    }
    _finish(out_dir, cfg, report, started)
    if result.prediction_applies and not result.frame_confirmed:
        return 1
    return 0


def cmd_frame_bounds(cfg: dict, out_dir: Path, threads: int | None, seed: int | None) -> int:
    started = time.time()
    spectrum = _spectrum(cfg)
    e_set = _sampling_set(cfg, seed)
    grid = geometry.build_grid(spectrum, cfg.get("grid_nodes", 512))
    sub_cfg = cfg.get("subspace")
    subspace = None
    if sub_cfg:
        subspace = frames.interior_taper_subspace(
            grid, e_set.window, margin=sub_cfg.get("margin", 10.0),
            spacing=sub_cfg.get("spacing"))
    report_fb = frames.frame_bounds(e_set, grid, subspace=subspace)
    trials = cfg.get("trials", 50)
    base_seed = seed if seed is not None else cfg.get("seed", 0)
    rows = []
    for t in range(trials):
        if subspace is not None:
            sig = frames.random_subspace_signal(grid, subspace, base_seed + t)
        else:
            sig = spectral.random_coeff_signal(grid, base_seed + t)
        energy = float(np.sum(np.abs(frames.analysis(sig, e_set).values) ** 2))
        rows.append([t, energy / sig.norm_sq()])
    _write_csv(out_dir, "rayleigh.csv", ["trial", "rayleigh"], rows)
    _finish(out_dir, cfg, {"frame_report": report_fb.to_json()}, started)
    return 0


def cmd_reconstruct(cfg: dict, out_dir: Path, threads: int | None, seed: int | None) -> int:
    started = time.time()
    spectrum = _spectrum(cfg)
    e_set = _sampling_set(cfg, seed)
    nodes = cfg.get("grid_nodes", 33)
    base_seed = seed if seed is not None else cfg.get("seed", 0)
    truth = spectral.random_pw_signal(spectrum, nodes, base_seed)
    samples = frames.analysis(truth, e_set)
    tol = cfg.get("tol", 1e-8)
    max_iter = cfg.get("max_iter", 200)
    final = frames.reconstruct(samples, truth.grid, tol=tol, max_iter=max_iter)
    err_num = np.sqrt(float(np.sum(truth.grid.weights *
                                   np.abs(final.signal.coeffs - truth.coeffs) ** 2)))
    rel_err = err_num / truth.norm()
    _write_csv(out_dir, "error_curve.csv", ["iteration", "residual"],
               list(enumerate(final.history, start=1)))
    _finish(out_dir, cfg, {
        "relative_error": rel_err,
        "iterations": final.iterations,
        "residual": final.residual,
        "converged": final.converged,
    }, started)
    if not final.converged:
        print("unconverged", file=sys.stderr)
        return 1
    return 0


def cmd_identity(cfg: dict, out_dir: Path, threads: int | None, seed: int | None) -> int:
    started = time.time()
    spectrum = _spectrum(cfg)
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
    eta = cfg.get("eta", 1e-5)
    solver = bal.BalayageSolver(e_set, grid, eta=eta, reg=cfg.get("reg", 1e-8))
    tol = cfg.get("tolerance", 1e-2)
    residuals = []
    rows = []
    try:
        for t in range(cfg.get("trials", 5)):
            poly = spectral.random_trig_polynomial(spectrum, cfg.get("poly_terms", 5),
                                                   base_seed + 100 + t)
            res = bal.fundamental_identity_residual(poly, e_set, grid, window, ys,
                                                    solver=solver, max_workers=threads)
            residuals.append(res)
        for y in ys:
            sol = solver.solve(y)
            rows.append([float(y[0]), sol.fit_residual, sol.l1_mass])
    except bal.BalayageInfeasibleError as exc:
        print(f"balayage infeasible: {exc}", file=sys.stderr)
        _finish(out_dir, cfg, {"error": str(exc)}, started)
        return 1
    _write_csv(out_dir, "solves.csv", ["y", "residual", "l1_mass"], rows)
    _finish(out_dir, cfg, {
        "identity_residuals": residuals,
        "max_residual": max(residuals),
        "tolerance": tol,
    }, started)
    return 0 if max(residuals) <= tol else 1


def cmd_stft(cfg: dict, out_dir: Path, threads: int | None, seed: int | None) -> int:
    started = time.time()
    refine = cfg.get("refine", 1)
    f, grid, g0, tf = tfm.gaussian_identity_fixture("isometry", refine=refine)
    iso = tfm.isometry_check(f, grid, g0, tf).deviation
    v = tfm.stft(f, grid, g0, tf)
    tfm.stft_to_csv(v, tf, out_dir / "tfm.csv")
    tfm.spectrogram_to_csv(v, tf, out_dir / "spectrogram.csv")
    f, grid, g0, tf = tfm.gaussian_identity_fixture("tf_identity", refine=refine)
    tf_dev = tfm.tf_identity_check(f, grid, g0, tf, spectral_half=2.5)
    f, grid, g0, tf = tfm.gaussian_identity_fixture("closed_form", refine=refine)
    closed_dev = tfm.stft_fourier_closed_form(f, grid, g0, tf)
    tol_iso = cfg.get("isometry_tol", 1e-3)
    tol_tf = cfg.get("tf_identity_tol", 1e-3)
    tol_closed = cfg.get("closed_form_tol", 1e-2)
    ok = iso <= tol_iso and tf_dev <= tol_tf and closed_dev <= tol_closed
    _finish(out_dir, cfg, {
        "isometry_deviation": iso,
        "tf_identity_deviation": tf_dev,
        "closed_form_deviation": closed_dev,
        "tolerances": {"isometry": tol_iso, "tf_identity": tol_tf, "closed_form": tol_closed},
        "all_ok": bool(ok),
    }, started)
    return 0 if ok else 1


def cmd_gabor(cfg: dict, out_dir: Path, threads: int | None, seed: int | None) -> int:
    started = time.time()
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
    try:
        result = tfm.gabor_reconstruct(f_vals, grid, g0, lattice,
                                        cond_threshold=cfg.get("cond_threshold", 1e8))
    except frames.NotAFrameError as exc:
        print(str(exc), file=sys.stderr)
        _finish(out_dir, cfg, {"error": str(exc)}, started)
        return 1
    _finish(out_dir, cfg, {
        "reconstruction_error": result.error,
        "iterations": result.iterations,
        "condition": result.condition,
        "tolerance": tol,
    }, started)
    return 0 if result.error <= tol else 1


def cmd_psido(cfg: dict, out_dir: Path, threads: int | None, seed: int | None) -> int:
    started = time.time()
    spectrum = _spectrum(cfg)
    e_set = _sampling_set(cfg, seed)
    terms = []
    for td in _require(cfg, "terms"):
        b = psido.SpectralFactor.from_callable(
            lambda g, w=td.get("b_width", 0.5): np.exp(-(g / w) ** 2),
            -td.get("b_half", 1.0), td.get("b_half", 1.0))
        terms.append(psido.symbol_term(td["lambda"], td["eps"], b,
                                       order=td.get("order", 8),
                                       amplitude=td.get("amplitude", 1.0)))
    symbol = psido.KNSymbol(terms=terms, spectrum=spectrum)
    validation = psido.validate_symbol_class(symbol)
    if not validation.ok:
        print(f"symbol validation failed: {validation.failures}", file=sys.stderr)
        _finish(out_dir, cfg, {"validation_failures": [list(f) for f in validation.failures]},
                started)
        return 1
    eps = cfg.get("eps") or bal.default_enlargement(spectrum)
    egrid = geometry.build_grid(geometry.enlarge(spectrum, eps),
                                cfg.get("enlarged_nodes", 384))
    window = bal.ingham_window(eps, dim=1)
    base_seed = seed if seed is not None else cfg.get("seed", 0)
    rng = np.random.default_rng(base_seed)
    ys = rng.uniform(-10.0, 10.0, size=(cfg.get("n_k", 25), 1))
    try:
        k_hat = bal.balayage_constant(e_set, egrid, ys, eta=cfg.get("eta", 1e-5),
                                      max_workers=threads)
    except bal.BalayageInfeasibleError as exc:
        print(f"balayage infeasible: {exc}", file=sys.stderr)
        _finish(out_dir, cfg, {"error": str(exc)}, started)
        return 1
    lower_const = 1.0 / (k_hat.value * window.l2_norm) ** 2
    lam_grid = geometry.build_grid(spectrum, cfg.get("grid_nodes", 256))
    bessel = frames.frame_bounds(e_set, lam_grid).upper
    f_grid = tfm.UniformGrid.symmetric(cfg.get("f_half", 12.0), cfg.get("f_step", 0.25))
    gamma = np.linspace(-cfg.get("gamma_half", 0.7), cfg.get("gamma_half", 0.7),
                        cfg.get("gamma_nodes", 141))
    gw = np.full(gamma.size, gamma[1] - gamma[0])
    trials = []
    t_nodes = f_grid.nodes
    envelope = np.exp(-((t_nodes / 8.0) ** 2))
    for t in range(cfg.get("trials", 10)):
        rng_t = np.random.default_rng(base_seed + 200 + t)
        f_vals = envelope * (rng_t.standard_normal(f_grid.count)
                             + 1j * rng_t.standard_normal(f_grid.count))
        chk = psido.psido_frame_check(symbol, f_vals, f_grid, e_set, gamma, gw,
                                      lower_const=lower_const, bessel_bound=bessel)
        trials.append({"lhs": chk.lhs, "mid": chk.mid, "rhs": chk.rhs,
                       "lower_ok": chk.lower_ok, "upper_ok": chk.upper_ok})
    ok = all(t["lower_ok"] and t["upper_ok"] for t in trials)
    _finish(out_dir, cfg, {
        "balayage_constant": k_hat.value,
        "lower_const": lower_const,
        "bessel_bound": bessel,
        "trials": trials,
        "all_ok": bool(ok),
    }, started)
    return 0 if ok else 1


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
    parser.add_argument("--threads", type=int, default=None,
                        help="worker cap for batch solves (default: NUSAMPLE_THREADS or 1)")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the config seed")
    args = parser.parse_args(argv)
    threads = args.threads
    if threads is None:
        env = os.environ.get("NUSAMPLE_THREADS")
        threads = int(env) if env else None
    try:
        cfg = _load_config(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        return _COMMANDS[args.command](cfg, out_dir, threads, args.seed)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except KeyError as exc:
        print(f"config error: missing field {exc}", file=sys.stderr)
        return 2
    except np.linalg.LinAlgError:
        raise   # a numerical failure, not a bad config value
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
