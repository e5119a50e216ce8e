"""Command-line front end.

    nusample <command> --config <file.json> --out <dir> [--seed S]

Each command runs one experiment from a JSON configuration (schema 1) and
returns an :class:`Outcome`; it opens no file and prints nothing.  :func:`main`
alone times the run, writes a deterministic ``report.json`` (embedding the
config hash) plus plot-ready CSV into the output directory, and maps failures
to exit codes.  Timestamps and run facts live in a separate ``meta.json`` so
reports stay byte-identical for identical configs and seeds.

Each command declares the config fields it reads, with their defaults, where
it is defined (:data:`FIELDS`); a field it does not declare is a
configuration error, caught before any work.

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
    if not isinstance(cfg, dict) or cfg.get("schema") != SCHEMA_VERSION:
        raise ConfigError(f"config schema must be {SCHEMA_VERSION}")
    return cfg


def _config_hash(cfg: dict) -> str:
    return hashlib.sha256(json.dumps(cfg, sort_keys=True).encode()).hexdigest()


# -- declared fields --------------------------------------------------------------

REQUIRED = object()   # a field with no default
NUMBER = object()     # a number field with no default
INTEGER = object()    # an integer field with no default


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_integer(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class Count:
    """A field holding a number of trials, terms or centers: an integer >= 1,
    so that no command passes by checking nothing; ``default`` when left
    out."""

    default: int

    def resolve(self, value, where: str) -> int:
        if isinstance(value, bool) or not isinstance(value, int) or value < 1:
            raise ValueError(f"{where} must be an integer >= 1, got {value!r}")
        return value


@dataclass(frozen=True)
class Section:
    """A JSON object with declared fields: a command's config, or a field
    holding objects of its own.

    ``fields`` maps each name to its default, to REQUIRED, to NUMBER, to
    INTEGER, to a Count or to a Section.  A field whose default is an int,
    and an INTEGER field, takes only an integer; one whose default is any
    other number, and a NUMBER field, takes only a number.  A string or a
    bool there, or a float in an integer field, is a config error.
    With ``by_kind`` it maps each value of the object's ``kind`` field to such
    a map instead, the first kind being the default.  A ``many``
    section holds a list of objects; an ``optional`` one may be left out and
    then reads None.
    """

    fields: dict
    by_kind: bool = False
    many: bool = False
    optional: bool = False

    def resolve(self, data, where: str):
        """``data`` with each declared field it leaves out set to its default.
        A field that is not declared, or a required one left out, is a config
        error (the latter a ``KeyError``, reported as a missing field)."""
        if self.many:
            one = Section(self.fields)
            return [one.resolve(item, f"{where}[{i}]") for i, item in enumerate(data)]
        if not isinstance(data, dict):
            raise ConfigError(f"{where} must be a JSON object")
        fields = self.fields
        if self.by_kind:
            kind = data.get("kind", next(iter(fields)))
            if kind not in fields:
                raise ConfigError(f"unknown {where} kind {kind!r}")
            fields = {"kind": kind, **fields[kind]}
        for name in data:
            if name not in fields:
                raise ConfigError(f"unknown field {name!r}"
                                  + ("" if where == "config" else f" in {where}"))
        out = {}
        for name, decl in fields.items():
            section = isinstance(decl, Section)
            if isinstance(decl, Count):
                out[name] = decl.resolve(data.get(name, decl.default), name)
            elif name in data:
                value = data[name]
                if section:
                    value = decl.resolve(value, name)
                elif (decl is INTEGER or _is_integer(decl)) and not _is_integer(value):
                    raise ConfigError(f"{name} must be an integer, got {value!r}")
                elif (decl is NUMBER or _is_number(decl)) and not _is_number(value):
                    raise ConfigError(f"{name} must be a number, got {value!r}")
                out[name] = value
            elif decl in (REQUIRED, NUMBER, INTEGER) or (section and not decl.optional):
                raise KeyError(name)
            else:
                out[name] = None if section else decl
        return out


SAMPLING = Section({
    "points": {"dim": INTEGER, "points": REQUIRED, "window": REQUIRED},
    "jittered": {"delta": NUMBER, "window": REQUIRED, "jitter": 0.0, "seed": 0},
    "csv": {"path": REQUIRED},   # the window is the bounding box of the points
}, by_kind=True)

# each command's config fields, filled in by :func:`command`
FIELDS: dict = {}
_COMMANDS: dict = {}


def command(name: str, **fields):
    """Register ``fn(cfg) -> Outcome`` as command ``name`` reading ``fields``
    (besides ``schema``); ``cfg`` arrives resolved, every field present."""
    def register(fn):
        FIELDS[name] = Section({"schema": REQUIRED, **fields})
        _COMMANDS[name] = fn
        return fn
    return register


def _sampling_set(spec: dict) -> sampling.SamplingSet:
    kind = spec["kind"]
    if kind == "points":
        return sampling.SamplingSet(dim=spec["dim"],
                                    points=np.asarray(spec["points"], dtype=float),
                                    window=np.asarray(spec["window"], dtype=float))
    if kind == "jittered":
        return sampling.generate_jittered_grid(spec["delta"], spec["jitter"],
                                               spec["window"], spec["seed"])
    path = spec["path"]
    if not os.path.exists(path):
        raise ConfigError(f"referenced file does not exist: {path}")
    return sampling.SamplingSet.from_csv(path)


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


def _balayage_meta(sols) -> dict:
    """IRLS counters of the solved centers, summed, for ``meta.json``."""
    return {"balayage": {"centers": len(sols),
                         "iterations": sum(s.iterations for s in sols),
                         "converged": sum(s.converged for s in sols),
                         "reweighted": sum(s.reweighted for s in sols)}}


@command("covering", spectrum=REQUIRED, sampling=SAMPLING, rho=NUMBER, region=REQUIRED,
         resolution=NUMBER, grid_nodes=64, subspace_margin=5.0)
def cmd_covering(cfg: dict) -> Outcome:
    spectrum = geometry.SpectrumSet.from_json(cfg["spectrum"])
    e_set = _sampling_set(cfg["sampling"])
    result = frames.covering_frame_experiment(
        spectrum, e_set, rho=cfg["rho"], region=cfg["region"], resolution=cfg["resolution"],
        grid_nodes=cfg["grid_nodes"], margin=cfg["subspace_margin"])
    return Outcome({
        "covered": result.covering.covered,
        "witness_count": int(result.covering.witnesses.shape[0]),
        "witnesses": result.covering.witnesses[:100].tolist(),
        "rho_ok": result.rho_ok,
        "frame_report": result.report.to_json(),
        "prediction_applies": result.prediction_applies,
        "frame_confirmed": result.frame_confirmed,
    }, int(result.prediction_applies and not result.frame_confirmed))


@command("frame-bounds", spectrum=REQUIRED, sampling=SAMPLING, grid_nodes=512,
         subspace=Section({"margin": 10.0}, optional=True), seed=0, trials=50)
def cmd_frame_bounds(cfg: dict) -> Outcome:
    spectrum = geometry.SpectrumSet.from_json(cfg["spectrum"])
    e_set = _sampling_set(cfg["sampling"])
    grid = geometry.build_grid(spectrum, cfg["grid_nodes"])
    subspace = None if cfg["subspace"] is None else frames.interior_taper_subspace(
        grid, e_set.window, margin=cfg["subspace"]["margin"])
    report_fb = frames.frame_bounds(e_set, grid, subspace=subspace)
    rows = []
    for t in range(cfg["trials"]):
        if subspace is not None:
            sig = frames.random_subspace_signal(grid, subspace, cfg["seed"] + t)
        else:
            sig = spectral.random_coeff_signal(grid, cfg["seed"] + t)
        energy = float(np.sum(np.abs(frames.analysis(sig, e_set).values) ** 2))
        rows.append([t, energy / sig.norm_sq()])
    return Outcome({"frame_report": report_fb.to_json()},
                   tables={"rayleigh.csv": (["trial", "rayleigh"], rows)})


@command("reconstruct", spectrum=REQUIRED, sampling=SAMPLING, grid_nodes=33, seed=0,
         tol=1e-8, max_iter=200)
def cmd_reconstruct(cfg: dict) -> Outcome:
    spectrum = geometry.SpectrumSet.from_json(cfg["spectrum"])
    e_set = _sampling_set(cfg["sampling"])
    truth = spectral.random_pw_signal(spectrum, cfg["grid_nodes"], cfg["seed"])
    samples = frames.analysis(truth, e_set)
    final = frames.reconstruct(samples, truth.grid, tol=cfg["tol"], max_iter=cfg["max_iter"])
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


@command("identity", spectrum=REQUIRED, sampling=SAMPLING, enlarged_nodes=384, seed=0,
         n_y=Count(25), y_half=10.0, eta=1e-5, tolerance=1e-2, trials=Count(5),
         poly_terms=Count(5))
def cmd_identity(cfg: dict) -> Outcome:
    spectrum = geometry.SpectrumSet.from_json(cfg["spectrum"])
    e_set = _sampling_set(cfg["sampling"])
    eps = bal.default_enlargement(spectrum)
    grid = geometry.build_grid(geometry.enlarge(spectrum, eps), cfg["enlarged_nodes"])
    window = bal.ingham_window(eps, dim=spectrum.dim)
    rng = np.random.default_rng(cfg["seed"])
    ys = rng.uniform(-cfg["y_half"], cfg["y_half"], size=(cfg["n_y"], spectrum.dim))
    solver = bal.BalayageSolver(e_set, grid, eta=cfg["eta"])
    residuals = []
    for t in range(cfg["trials"]):
        poly = spectral.random_trig_polynomial(spectrum, cfg["poly_terms"], cfg["seed"] + 100 + t)
        residuals.append(bal.fundamental_identity_residual(poly, e_set, grid, window, ys,
                                                           solver=solver))
    sols = solver.solve_many(ys)
    tol = cfg["tolerance"]
    return Outcome(
        {"identity_residuals": residuals, "max_residual": max(residuals), "tolerance": tol},
        0 if max(residuals) <= tol else 1,
        tables={"solves.csv": (["y", "residual", "l1_mass"],
                               [[float(s.y[0]), s.fit_residual, s.l1_mass] for s in sols])},
        meta=_balayage_meta(sols))


@command("stft", isometry_tol=1e-3, tf_identity_tol=1e-3, closed_form_tol=1e-2)
def cmd_stft(cfg: dict) -> Outcome:
    f, grid, g0, tf = tfm.gaussian_identity_fixture("isometry")
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
    f, grid, g0, tf = tfm.gaussian_identity_fixture("tf_identity")
    tf_dev = tfm.tf_identity_check(f, grid, g0, tf, spectral_half=2.5)
    f, grid, g0, tf = tfm.gaussian_identity_fixture("closed_form")
    closed_dev = tfm.stft_fourier_closed_form(f, grid, g0, tf)
    tol_iso, tol_tf, tol_closed = (cfg["isometry_tol"], cfg["tf_identity_tol"],
                                   cfg["closed_form_tol"])
    ok = iso <= tol_iso and tf_dev <= tol_tf and closed_dev <= tol_closed
    return Outcome({
        "isometry_deviation": iso,
        "tf_identity_deviation": tf_dev,
        "closed_form_deviation": closed_dev,
        "tolerances": {"isometry": tol_iso, "tf_identity": tol_tf, "closed_form": tol_closed},
        "all_ok": bool(ok),
    }, 0 if ok else 1, tables=tables)


@command("gabor", step=0.1, time_half=8.0, seed=0, a=0.5, b=0.5, time_extent=5.0,
         freq_extent=3.0, jitter=0.0, error_tol=1e-3, cond_threshold=1e8)
def cmd_gabor(cfg: dict) -> Outcome:
    grid = tfm.UniformGrid.symmetric(cfg["time_half"], cfg["step"])
    g0 = tfm.gaussian_window(step=cfg["step"])
    lattice = tfm.phase_lattice(cfg["a"], cfg["b"], cfg["time_extent"], cfg["freq_extent"],
                                 jitter=cfg["jitter"], seed=cfg["seed"])
    t = grid.nodes
    f_vals = (np.exp(-np.pi * (t - 0.3) ** 2) * np.exp(2j * np.pi * 0.2 * t)
              + 0.5 * np.exp(-np.pi * (t + 0.5) ** 2))
    result = tfm.gabor_reconstruct(f_vals, grid, g0, lattice,
                                    cond_threshold=cfg["cond_threshold"])
    return Outcome({
        "reconstruction_error": result.error,
        "iterations": result.iterations,
        "condition": result.condition,
        "tolerance": cfg["error_tol"],
    }, 0 if result.error <= cfg["error_tol"] else 1)


@command("psido", spectrum=REQUIRED, sampling=SAMPLING,
         terms=Section({"lambda": NUMBER, "eps": NUMBER, "b_width": 0.5, "b_half": 1.0,
                        "order": 8, "amplitude": 1.0}, many=True),
         seed=0, n_k=Count(25), eta=1e-5, trials=Count(10))
def cmd_psido(cfg: dict) -> Outcome:
    spectrum = geometry.SpectrumSet.from_json(cfg["spectrum"])
    e_set = _sampling_set(cfg["sampling"])
    terms = []
    for td in cfg["terms"]:
        b = psido.SpectralFactor.from_callable(
            lambda g, w=td["b_width"]: np.exp(-(g / w) ** 2), -td["b_half"], td["b_half"])
        terms.append(psido.symbol_term(td["lambda"], td["eps"], b, order=td["order"],
                                       amplitude=td["amplitude"]))
    symbol = psido.KNSymbol(terms=terms, spectrum=spectrum)
    validation = psido.validate_symbol_class(symbol)
    if not validation.ok:
        return Outcome({"validation_failures": [list(f) for f in validation.failures]}, 1,
                       message=f"symbol validation failed: {validation.failures}")
    eps = bal.default_enlargement(spectrum)
    egrid = geometry.build_grid(geometry.enlarge(spectrum, eps), 384)
    window = bal.ingham_window(eps, dim=1)
    ys = np.random.default_rng(cfg["seed"]).uniform(-10.0, 10.0, size=(cfg["n_k"], 1))
    solver = bal.BalayageSolver(e_set, egrid, eta=cfg["eta"])
    k_hat = bal.balayage_constant(e_set, egrid, ys, solver=solver)
    lower_const = 1.0 / (k_hat.value * window.l2_norm) ** 2
    bessel = frames.frame_bounds(e_set, geometry.build_grid(spectrum, 256)).upper
    f_grid = tfm.UniformGrid.symmetric(12.0, 0.25)
    gamma = np.linspace(-0.7, 0.7, 141)
    gw = np.full(gamma.size, gamma[1] - gamma[0])
    trials = []
    envelope = np.exp(-((f_grid.nodes / 8.0) ** 2))
    for t in range(cfg["trials"]):
        rng_t = np.random.default_rng(cfg["seed"] + 200 + t)
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
    }, 0 if ok else 1, meta=_balayage_meta(solver.solve_many(ys)))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="nusample",
                                     description="non-uniform sampling experiments")
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--seed", type=int, default=None,
                        help="override every seed the config reads")
    args = parser.parse_args(argv)
    out_dir = Path(args.out)
    try:
        raw = _load_config(args.config)
        cfg = FIELDS[args.command].resolve(raw, "config")
        if args.seed is not None:   # every seed the command reads
            for section in (cfg, cfg.get("sampling") or {}):
                if "seed" in section:
                    section["seed"] = args.seed
        out_dir.mkdir(parents=True, exist_ok=True)
        started = time.time()
        outcome = _COMMANDS[args.command](cfg)
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
    _write_json(out_dir, "report.json", {**outcome.report, "config_hash": _config_hash(raw)})
    _write_json(out_dir, "meta.json", {
        "written_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "elapsed_seconds": time.time() - started,
        **outcome.meta,
    })
    return outcome.code


if __name__ == "__main__":
    sys.exit(main())
