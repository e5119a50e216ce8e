"""Command-line front end.

    nusample <command> --config <file.json> --out <dir> [--seed S]

Each command runs one experiment from a JSON configuration (schema 1) and
returns an :class:`Outcome`; it opens no file and prints nothing.  :func:`main`
alone times the run, writes a deterministic ``report.json`` (embedding the
config hash) plus plot-ready CSV into the output directory, and maps failures
to exit codes.  Timestamps and run facts live in a separate ``meta.json`` so
reports stay byte-identical for identical configs and seeds.

Each command declares the config fields it reads where it is defined
(:data:`FIELDS`), each by its default or, when it has none, by the JSON type
it must hold; a list holds numbers, or lists of them, at any depth.  The
spectrum and the sampling set are :class:`Section` objects tagged by their
``shape`` and ``kind``, which they must state; a spectrum states its ``dim``
too.  A value of another type, a field the command does not declare and a
required field left out are configuration errors, caught before any work.

Exit codes: 0 = claims confirmed (or no prediction applicable), 1 = claim
violated or numerical failure (balayage infeasible, not a frame; the report
then holds ``{"error": ...}``), 2 = usage or configuration error, including
a table or Gram past the 2**24 entries :mod:`~nusample.spectral` allows.
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

_TYPE_NAMES = {int: "an integer", float: "a number", str: "a string", list: "a list",
               dict: "a JSON object"}


def _checked(value, decl, name: str):
    """``value`` if it holds the type ``decl`` declares: ``decl`` itself when
    it is a type, else the type of the default ``decl``.  A bool is never a
    number and an int is one; an integer field whose default is at least 1
    takes only integers >= 1, so that no command passes by checking nothing.
    A list holds numbers or lists of them, at any depth, each entry named by
    its place, as in ``region[0][1]``."""
    kind = decl if isinstance(decl, type) else type(decl)
    ok = (isinstance(value, (int, float) if kind is float else kind)
          and not isinstance(value, bool))
    if kind is int and decl is not int and decl >= 1 and not (ok and value >= 1):
        raise ConfigError(f"{name} must be an integer >= 1, got {value!r}")
    if not ok:
        raise ConfigError(f"{name} must be {_TYPE_NAMES[kind]}, got {value!r}")
    if kind is list:
        for i, item in enumerate(value):
            _checked(item, list if isinstance(item, list) else float, f"{name}[{i}]")
    return value


@dataclass(frozen=True)
class Section:
    """A JSON object with declared fields: a command's config, or a field
    holding objects of its own.

    ``fields`` maps each name to its default, to a Section, or, for a field
    that has no default, to the JSON type it must hold (``int``, ``float``,
    ``str``, ``list`` or ``dict``); every value is checked against the type
    of its declaration (see :func:`_checked`).  With a ``tag`` it maps each
    value of the object's field of that name, which every such object
    states, to such a map instead.  A ``many`` section holds a non-empty list
    of objects; an ``optional`` one may be left out and then reads None.
    """

    fields: dict
    tag: str | None = None
    many: bool = False
    optional: bool = False

    def resolve(self, data, where: str):
        """``data`` with each declared field it leaves out set to its default.
        A field that is not declared, or a required one left out, is a config
        error."""
        if self.many:
            if not isinstance(data, list) or not data:
                raise ConfigError(f"{where} must be a non-empty list, got {data!r}")
            one = Section(self.fields)
            return [one.resolve(item, f"{where}[{i}]") for i, item in enumerate(data)]
        _checked(data, dict, where)
        fields = self.fields
        if self.tag is not None:
            if self.tag not in data:
                raise ConfigError(f"missing field {self.tag!r}")
            value = _checked(data[self.tag], str, self.tag)
            if value not in fields:
                raise ConfigError(f"unknown {where} {self.tag} {value!r}")
            fields = {self.tag: value, **fields[value]}
        for name in data:
            if name not in fields:
                raise ConfigError(f"unknown field {name!r}"
                                  + ("" if where == "config" else f" in {where}"))
        out = {}
        for name, decl in fields.items():
            section = isinstance(decl, Section)
            if name in data:
                value = data[name]
                out[name] = decl.resolve(value, name) if section else _checked(value, decl, name)
            elif isinstance(decl, type) or (section and not decl.optional):
                raise ConfigError(f"missing field {name!r}")
            else:
                out[name] = None if section else decl
        return out


SAMPLING = Section({
    "points": {"dim": int, "points": list, "window": list},
    "jittered": {"delta": float, "window": list, "jitter": 0.0, "seed": 0},
    "csv": {"path": str},   # the window is the bounding box of the points
}, tag="kind")
# a ball needs its dim; a box and a polytope state theirs, which must be the set's
SPECTRUM = Section({"box": {"half_widths": list, "dim": int}, "ball": {"radius": float, "dim": int},
                    "polytope": {"vertices": list, "dim": int}}, tag="shape")

# each command's config fields, filled in by :func:`command`
FIELDS: dict = {}
_COMMANDS: dict = {}


def command(name: str, **fields):
    """Register ``fn(cfg) -> Outcome`` as command ``name`` reading ``fields``
    (besides ``schema``); ``cfg`` arrives resolved, every field present."""
    def register(fn):
        FIELDS[name] = Section({"schema": int, **fields})
        _COMMANDS[name] = fn
        return fn
    return register


def _spectrum(spec: dict) -> geometry.SpectrumSet:
    shape = spec["shape"]
    if shape == "ball":
        return geometry.SpectrumSet.ball(spec["radius"], spec["dim"])
    spectrum = (geometry.SpectrumSet.box(spec["half_widths"]) if shape == "box"
                else geometry.SpectrumSet.polytope(spec["vertices"]))
    if spec["dim"] != spectrum.dim:
        raise ConfigError(f"spectrum dim {spec['dim']!r} differs from the dimension "
                          f"{spectrum.dim} of its {shape}")
    return spectrum


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
    if not os.path.isfile(path):
        raise ConfigError(f"referenced path is not a file: {path}")
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


@command("covering", spectrum=SPECTRUM, sampling=SAMPLING, rho=float, region=list,
         resolution=float, grid_nodes=64, subspace_margin=5.0)
def cmd_covering(cfg: dict) -> Outcome:
    spectrum = _spectrum(cfg["spectrum"])
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


@command("frame-bounds", spectrum=SPECTRUM, sampling=SAMPLING, grid_nodes=512,
         subspace=Section({"margin": 10.0}, optional=True), seed=0, trials=50)
def cmd_frame_bounds(cfg: dict) -> Outcome:
    spectrum = _spectrum(cfg["spectrum"])
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


@command("reconstruct", spectrum=SPECTRUM, sampling=SAMPLING, grid_nodes=33, seed=0,
         tol=1e-8, max_iter=200)
def cmd_reconstruct(cfg: dict) -> Outcome:
    spectrum = _spectrum(cfg["spectrum"])
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
                         "converged": final.converged, "rank": final.rank}},
        message=None if final.converged else "unconverged")


@command("identity", spectrum=SPECTRUM, sampling=SAMPLING, enlarged_nodes=384, seed=0,
         n_y=25, y_half=10.0, eta=1e-5, tolerance=1e-2, trials=5, poly_terms=5)
def cmd_identity(cfg: dict) -> Outcome:
    spectrum = _spectrum(cfg["spectrum"])
    e_set = _sampling_set(cfg["sampling"])
    eps = bal.default_enlargement(spectrum)
    grid = geometry.build_grid(spectrum.enlarged(eps), cfg["enlarged_nodes"])
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
    # one column per coordinate of the center: y in 1-d, y1 ... yd above
    y_cols = ["y"] if spectrum.dim == 1 else [f"y{a + 1}" for a in range(spectrum.dim)]
    return Outcome(
        {"identity_residuals": residuals, "max_residual": max(residuals), "tolerance": tol},
        0 if max(residuals) <= tol else 1,
        tables={"solves.csv": ([*y_cols, "residual", "l1_mass"],
                               [[*s.y.tolist(), s.residual, s.l1_mass] for s in sols])},
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


@command("psido", spectrum=SPECTRUM, sampling=SAMPLING,
         terms=Section({"lambda": float, "eps": float, "b_width": 0.5, "b_half": 1.0,
                        "order": 8, "amplitude": 1.0}, many=True),
         seed=0, n_k=25, eta=1e-5, trials=10)
def cmd_psido(cfg: dict) -> Outcome:
    spectrum = _spectrum(cfg["spectrum"])
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
    egrid = geometry.build_grid(spectrum.enlarged(eps), 384)
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
    except np.linalg.LinAlgError:
        raise   # a numerical failure, not a bad config value
    # unreadable, out of range, wrong type, or a table past spectral's entry limit
    except (ConfigError, ValueError) as exc:
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
