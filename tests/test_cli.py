import json
from pathlib import Path

import numpy as np
import pytest

from nusample import cli, frames, geometry
from nusample import timefreq as tfm

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
EMPTY_POINTS = {"kind": "points", "dim": 1, "points": [], "window": [[-20.0, 20.0]]}


def run(command, config, out):
    return cli.main([command, "--config", str(config), "--out", str(out)])


@pytest.mark.parametrize("command,config", [
    ("covering", "covering.json"),
    ("frame-bounds", "frame_bounds.json"),
    ("reconstruct", "reconstruct.json"),
    ("identity", "identity.json"),
    ("stft", "stft.json"),
    ("gabor", "gabor.json"),
    ("psido", "psido.json"),
])
def test_shipped_configs_pass(tmp_path, command, config):
    out = tmp_path / command
    assert run(command, CONFIG_DIR / config, out) == 0
    report = json.loads((out / "report.json").read_text())
    assert "config_hash" in report
    meta = json.loads((out / "meta.json").read_text())
    if command in ("identity", "psido"):
        # every IRLS result passes the feasibility check, so the reported
        # masses are the reweighted ones, not the least-squares start
        assert meta["balayage"]["reweighted"] == meta["balayage"]["centers"] == 25


def test_reports_are_deterministic(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert run("covering", CONFIG_DIR / "covering.json", out_a) == 0
    assert run("covering", CONFIG_DIR / "covering.json", out_b) == 0
    assert (out_a / "report.json").read_bytes() == (out_b / "report.json").read_bytes()


def test_csv_outputs_have_headers(tmp_path):
    out = tmp_path / "fb"
    run("frame-bounds", CONFIG_DIR / "frame_bounds.json", out)
    assert (out / "rayleigh.csv").read_text().splitlines()[0] == "trial,rayleigh"

    out2 = tmp_path / "rec"
    run("reconstruct", CONFIG_DIR / "reconstruct.json", out2)
    assert (out2 / "error_curve.csv").read_text().splitlines()[0] == "iteration,residual"

    out3 = tmp_path / "ident"
    run("identity", CONFIG_DIR / "identity.json", out3)
    assert (out3 / "solves.csv").read_text().splitlines()[0] == "y,residual,l1_mass"

    out4 = tmp_path / "stft"
    run("stft", CONFIG_DIR / "stft.json", out4)
    rows = (out4 / "tfm.csv").read_text().splitlines()
    _, _, _, tf = tfm.gaussian_identity_fixture("isometry")
    assert rows[0] == "x,omega,re,im"
    assert len(rows) == 1 + tf.time.nodes.size * tf.freq.nodes.size
    assert (out4 / "spectrogram.csv").read_text().startswith("x,omega,magnitude")


def test_identity_writes_every_center_coordinate(tmp_path):
    # a 2-d ball spectrum: solves.csv has one column per coordinate of y
    cfg = json.loads((CONFIG_DIR / "identity.json").read_text())
    cfg.update(enlarged_nodes=24, y_half=3.0, n_y=4, trials=1,
               spectrum={"dim": 2, "radius": 0.25, "shape": "ball"})
    cfg["sampling"].update(delta=0.5, window=[[-4.0, 4.0], [-4.0, 4.0]])
    config = tmp_path / "identity_2d.json"
    config.write_text(json.dumps(cfg))
    assert run("identity", config, tmp_path / "out") == 0
    header, *rows = (tmp_path / "out" / "solves.csv").read_text().splitlines()
    assert header == "y1,y2,residual,l1_mass"
    ys = np.random.default_rng(cfg["seed"]).uniform(-3.0, 3.0, size=(4, 2))
    assert [[float(v) for v in row.split(",")[:2]] for row in rows] == ys.tolist()


def test_malformed_json_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run("covering", bad, tmp_path / "out") == 2


def test_wrong_schema_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"schema": 99}))
    assert run("covering", bad, tmp_path / "out") == 2


def test_non_object_config_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps([1, 2]))
    assert run("covering", bad, tmp_path / "out") == 2


def test_missing_field_exits_2(tmp_path):
    cfg = json.loads((CONFIG_DIR / "covering.json").read_text())
    del cfg["spectrum"]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(cfg))
    assert run("covering", bad, tmp_path / "out") == 2


def test_missing_points_file_exits_2(tmp_path):
    cfg = json.loads((CONFIG_DIR / "covering.json").read_text())
    cfg["sampling"] = {"kind": "csv", "path": str(tmp_path / "nope.csv")}
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(cfg))
    assert run("covering", bad, tmp_path / "out") == 2


@pytest.mark.parametrize("edit,message", [
    (lambda cfg: cfg["sampling"].update(jitter=0.6), "jitter"),
    (lambda cfg: cfg.update(resolution=-0.05), "resolution must be positive"),
    (lambda cfg: cfg.update(region=[[-10.0, 10.0], [-10.0, 10.0]]), "region dimension"),
    (lambda cfg: cfg.update(resolution="abc"), "resolution must be a number, got 'abc'"),
    (lambda cfg: cfg.update(rho=True), "rho must be a number, got True"),
    (lambda cfg: cfg.update(sampling=EMPTY_POINTS), "empty sampling set"),
    (lambda cfg: cfg["sampling"].update(kind="grid"), "unknown sampling kind 'grid'"),
    (lambda cfg: cfg.update(region=[[10.0, -10.0]]), "region axis 0 has bounds [10.0, -10.0]"),
    (lambda cfg: cfg.update(resolution=float("nan")), "resolution must be positive and finite, got nan"),
    (lambda cfg: cfg.update(resolution=float("inf")), "resolution must be positive and finite, got inf"),
    (lambda cfg: cfg.update(grid_nodes=64.5), "grid_nodes must be an integer >= 1, got 64.5"),
    (lambda cfg: cfg["sampling"].update(seed=1.5), "seed must be an integer, got 1.5"),
    (lambda cfg: cfg.update(sampling={**EMPTY_POINTS, "dim": True, "points": [[0.0], [1.0]]}),
     "dim must be an integer, got True"),
    (lambda cfg: cfg.update(sampling={**EMPTY_POINTS, "dim": 0, "window": []}),
     "sampling set dim must be at least 1, got 0"),
    (lambda cfg: cfg.update(spectrum=3), "spectrum must be a JSON object, got 3"),
    (lambda cfg: cfg.update(region="x"), "region must be a list, got 'x'"),
    (lambda cfg: cfg.update(sampling={"kind": "csv", "path": 5}), "path must be a string, got 5"),
    (lambda cfg: cfg.update(sampling={"kind": "csv", "path": str(CONFIG_DIR)}),
     f"config error: referenced path is not a file: {CONFIG_DIR}"),
    (lambda cfg: cfg.update(schema=True), "schema must be an integer, got True"),
    (lambda cfg: cfg["spectrum"].update(dim=2),
     "spectrum dim 2 differs from the dimension 1 of its box"),
    (lambda cfg: cfg["spectrum"].update(no_such_field=0),
     "config error: unknown field 'no_such_field' in spectrum"),
    (lambda cfg: cfg.update(spectrum={"dim": 1, "shape": "ball", "radius": 1.0,
                                      "half_widths": [1.0]}),
     "config error: unknown field 'half_widths' in spectrum"),
    (lambda cfg: cfg["spectrum"].update(shape=[]), "shape must be a string, got []"),
    (lambda cfg: cfg["sampling"].update(kind=[]), "kind must be a string, got []"),
    # a bool would otherwise run as 1, and a string fail with Python's message
    (lambda cfg: cfg.update(spectrum={"shape": "ball", "radius": True, "dim": 1}),
     "config error: radius must be a number, got True"),
    (lambda cfg: cfg.update(spectrum={"shape": "ball", "radius": "x", "dim": 1}),
     "config error: radius must be a number, got 'x'"),
    (lambda cfg: cfg["spectrum"].update(dim=True),
     "config error: dim must be an integer, got True"),
    (lambda cfg: cfg["spectrum"].update(half_widths=[True]),
     "config error: half_widths[0] must be a number, got True"),
    (lambda cfg: cfg["spectrum"].update(half_widths="abc"),
     "config error: half_widths must be a list, got 'abc'"),
    (lambda cfg: cfg.update(spectrum={"shape": "polytope", "vertices": [[0.5], ["x"]]}),
     "config error: vertices[1][0] must be a number, got 'x'"),
    # every list field holds numbers, or lists of them, at any depth
    (lambda cfg: cfg.update(region=[[True, 10.0]]),
     "config error: region[0][0] must be a number, got True"),
    (lambda cfg: cfg["sampling"].update(window=[[-20.0, True]]),
     "config error: window[0][1] must be a number, got True"),
    (lambda cfg: cfg.update(sampling={**EMPTY_POINTS, "points": [[0.0], [True]]}),
     "config error: points[1][0] must be a number, got True"),
    (lambda cfg: cfg.update(region=[{"lo": -10.0, "hi": 10.0}]),
     "config error: region[0] must be a number, got {'lo': -10.0, 'hi': 10.0}"),
    (lambda cfg: cfg.update(spectrum={"shape": "polytope", "dim": 2,
                                      "vertices": [[0.5], [-0.5]]}),
     "config error: spectrum dim 2 differs from the dimension 1 of its polytope"),
    # a spectrum states its dim, and a tagged section its tag
    (lambda cfg: cfg["spectrum"].pop("dim"), "config error: missing field 'dim'\n"),
    (lambda cfg: cfg.update(sampling={"dim": 1, "points": [[0.0], [1.0]],
                                      "window": [[-20.0, 20.0]]}),
     "config error: missing field 'kind'\n"),
], ids=["jitter-above-half-delta", "negative-resolution", "region-dim-mismatch",
        "string-resolution", "boolean-rho", "empty-points", "unknown-sampling-kind",
        "reversed-region", "nan-resolution", "infinite-resolution", "fractional-grid-nodes",
        "fractional-sampling-seed", "boolean-points-dim", "zero-points-dim",
        "integer-spectrum", "string-region", "integer-csv-path", "directory-csv-path", "boolean-schema", "spectrum-dim-mismatch", "stray-spectrum-field",
        "ball-with-half-widths", "list-spectrum-shape", "list-sampling-kind",
        "boolean-radius", "string-radius", "boolean-spectrum-dim", "boolean-half-width",
        "string-half-widths", "string-vertex", "boolean-region-bound",
        "boolean-window-bound", "boolean-point", "object-region-axis",
        "polytope-dim-mismatch", "box-without-dim", "points-without-kind"])
def test_bad_config_value_exits_2(tmp_path, capsys, edit, message):
    cfg = json.loads((CONFIG_DIR / "covering.json").read_text())
    edit(cfg)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(cfg))
    assert run("covering", bad, tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and message in err
    assert "Traceback" not in err
    assert not (tmp_path / "out" / "report.json").exists()


@pytest.mark.parametrize("jitter", [0.25, 0.3])
def test_gabor_jitter_of_half_a_step_exits_2(tmp_path, capsys, jitter):
    # jitter >= min(a, b)/2 could merge two phase-space nodes
    cfg = json.loads((CONFIG_DIR / "gabor.json").read_text())
    cfg.update(a=0.5, b=0.6, jitter=jitter)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(cfg))
    assert run("gabor", bad, tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: jitter must lie in [0, 0.25)") and f"got {jitter}" in err
    assert not (tmp_path / "out" / "report.json").exists()


@pytest.mark.parametrize("step", [0.0, -0.1])
def test_gabor_nonpositive_step_exits_2(tmp_path, capsys, step):
    cfg = json.loads((CONFIG_DIR / "gabor.json").read_text())
    cfg["step"] = step
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(cfg))
    assert run("gabor", bad, tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: step must be positive, got {step}")
    assert not (tmp_path / "out" / "report.json").exists()


@pytest.mark.parametrize("command", ["identity", "psido"])
def test_one_point_balayage_exits_1(tmp_path, capsys, command):
    # a lattice step past the window leaves one point, whose IRLS steps take
    # the narrowest panel; the sweep is infeasible, which is no traceback
    cfg = json.loads((CONFIG_DIR / f"{command}.json").read_text())
    cfg["sampling"]["delta"] = 1e9
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(cfg))
    assert run(command, bad, tmp_path / "out") == 1
    err = capsys.readouterr().err
    assert err.startswith("balayage infeasible:") and "Traceback" not in err


@pytest.mark.parametrize("command,config,name,value", [
    ("psido", "psido.json", "trials", 0),
    ("psido", "psido.json", "trials", -2),
    ("identity", "identity.json", "trials", 0),
    ("identity", "identity.json", "poly_terms", 0),
    ("identity", "identity.json", "poly_terms", 2.5),
    ("identity", "identity.json", "trials", True),
    ("identity", "identity.json", "n_y", 0),
    ("psido", "psido.json", "n_k", 0),
    ("frame-bounds", "frame_bounds.json", "trials", 0),
    ("reconstruct", "reconstruct.json", "max_iter", 0),
], ids=["psido-no-trials", "psido-negative-trials", "identity-no-trials",
        "identity-zero-polynomial", "identity-fractional-terms", "identity-boolean-trials",
        "identity-no-centers", "psido-no-centers", "frame-bounds-no-trials",
        "reconstruct-no-iterations"])
def test_bad_count_exits_2(tmp_path, capsys, command, config, name, value):
    # a count of 0 would check nothing: no trial, no center, the zero polynomial,
    # or no CG step
    cfg = json.loads((CONFIG_DIR / config).read_text())
    cfg[name] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(cfg))
    assert run(command, bad, tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert err == f"config error: {name} must be an integer >= 1, got {value!r}\n"
    assert not (tmp_path / "out" / "report.json").exists()


@pytest.mark.parametrize("command,config,place,name,value", [
    ("gabor", "gabor.json", "top", "step", True),
    ("identity", "identity.json", "top", "eta", "1e-5"),
    ("identity", "identity.json", "sampling", "delta", False),
    ("psido", "psido.json", "terms", "lambda", "0.1"),
    ("psido", "psido.json", "terms", "eps", True),
], ids=["gabor-boolean-step", "identity-string-eta", "identity-boolean-delta",
        "psido-string-lambda", "psido-boolean-eps"])
def test_non_number_exits_2(tmp_path, capsys, command, config, place, name, value):
    # a bool would otherwise run as 0 or 1, and a string fail deep in the numerics
    cfg = json.loads((CONFIG_DIR / config).read_text())
    target = cfg if place == "top" else cfg["terms"][0] if place == "terms" else cfg[place]
    target[name] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(cfg))
    assert run(command, bad, tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert err == f"config error: {name} must be a number, got {value!r}\n"
    assert not (tmp_path / "out" / "report.json").exists()


@pytest.mark.parametrize("terms,message", [
    ([], "terms must be a non-empty list, got []"),
    (5, "terms must be a non-empty list, got 5"),
], ids=["no-terms", "integer-terms"])
def test_bad_terms_exits_2(tmp_path, capsys, terms, message):
    # with no term the symbol is 0 and every inequality reads 0 <= 0 <= 0
    cfg = json.loads((CONFIG_DIR / "psido.json").read_text())
    cfg["terms"] = terms
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(cfg))
    assert run("psido", bad, tmp_path / "out") == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not (tmp_path / "out" / "report.json").exists()


def test_empty_sampling_set_frame_bounds_exits_2(tmp_path, capsys):
    cfg = json.loads((CONFIG_DIR / "frame_bounds.json").read_text())
    cfg["sampling"] = EMPTY_POINTS
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(cfg))
    assert run("frame-bounds", bad, tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "empty sampling set" in err


@pytest.mark.parametrize("command,config,nodes,rows", [
    ("frame-bounds", "frame_bounds.json", 262144, 76),   # its subspace kept: 76 shifts
    ("covering", "covering.json", 2097152, 16),          # 16 shifts; 2**20 nodes fit exactly
])
def test_table_past_entry_limit_exits_2(tmp_path, capsys, command, config, nodes, rows):
    cfg = json.loads((CONFIG_DIR / config).read_text())
    cfg["grid_nodes"] = nodes
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(cfg))
    assert run(command, bad, tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert err == f"config error: a {rows} x {nodes} table exceeds the limit of 16777216 entries\n"
    assert not (tmp_path / "out" / "report.json").exists()


@pytest.mark.parametrize("command,config", [("frame-bounds", "frame_bounds.json"),
                                            ("covering", "covering.json")])
def test_bounds_past_4096_nodes_match_4096(tmp_path, command, config):
    # frame-bounds keeps its subspace; 16,384 nodes need the samples x nodes table
    reports = []
    for nodes in (4096, 16384):
        cfg = json.loads((CONFIG_DIR / config).read_text())
        cfg["grid_nodes"] = nodes
        path = tmp_path / f"{nodes}.json"
        path.write_text(json.dumps(cfg))
        assert run(command, path, tmp_path / str(nodes)) == 0
        reports.append(json.loads((tmp_path / str(nodes) / "report.json").read_text()))
    small, large = reports
    assert large["frame_report"]["node_count"] == 16384
    for bound in ("lower", "upper"):
        assert abs(large["frame_report"][bound] - small["frame_report"][bound]) <= 1e-9
    if command == "covering":
        assert large["frame_confirmed"] is True


def test_unknown_command_exits_2(tmp_path):
    with pytest.raises(SystemExit) as err:
        cli.main(["frobnicate", "--config", "x", "--out", str(tmp_path)])
    assert err.value.code == 2


def test_zero_tolerance_trips_exit_1(tmp_path):
    cfg = json.loads((CONFIG_DIR / "stft.json").read_text())
    cfg["isometry_tol"] = 0.0
    strict = tmp_path / "strict.json"
    strict.write_text(json.dumps(cfg))
    assert run("stft", strict, tmp_path / "out") == 1


def test_unconverged_reconstruction_exits_1(tmp_path, capsys):
    cfg = json.loads((CONFIG_DIR / "reconstruct.json").read_text())
    cfg["max_iter"] = 1
    cfg["tol"] = 1e-14
    hard = tmp_path / "hard.json"
    hard.write_text(json.dumps(cfg))
    assert run("reconstruct", hard, tmp_path / "out") == 1
    assert "unconverged" in capsys.readouterr().err


def _not_a_frame(*args, **kwargs):
    raise frames.NotAFrameError("not a frame at this scale: forced")


@pytest.mark.parametrize("command,config,edit,message", [
    ("gabor", "gabor.json", {"cond_threshold": 1.0}, "not a frame at this scale"),
    ("identity", "identity.json", {"eta": 1e-14, "n_y": 2, "trials": 1},
     "balayage infeasible: "),
    ("reconstruct", "reconstruct.json", {}, "not a frame at this scale: forced"),
], ids=["gabor-not-a-frame", "identity-infeasible", "reconstruct-not-a-frame"])
def test_numerical_failure_exits_1_with_error_report(tmp_path, capsys, monkeypatch,
                                                     command, config, edit, message):
    if command == "reconstruct":   # forced: which sets break CG depends on solver numerics
        monkeypatch.setattr(frames, "reconstruct", _not_a_frame)
    cfg = json.loads((CONFIG_DIR / config).read_text())
    cfg.update(edit)
    failing = tmp_path / "failing.json"
    failing.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert run(command, failing, out) == 1
    err = capsys.readouterr().err
    assert err.startswith(message) and "Traceback" not in err
    report = json.loads((out / "report.json").read_text())
    assert set(report) == {"error", "config_hash"}
    assert report["error"] in err


def test_reconstruct_meta_reports_solver(tmp_path):
    out = tmp_path / "rec"
    assert run("reconstruct", CONFIG_DIR / "reconstruct.json", out) == 0
    report = json.loads((out / "report.json").read_text())
    meta = json.loads((out / "meta.json").read_text())
    assert set(report) == {"relative_error", "iterations", "residual", "converged",
                           "config_hash"}
    assert meta["solver"] == {"method": "toeplitz-fft", "iterations": report["iterations"],
                              "converged": True, "rank": None}


def test_reconstruct_with_fewer_samples_than_nodes_solves_directly(tmp_path):
    # 51 samples, 64 nodes: the weighted table has rank 36, on which CG on the
    # sampled-sinc Gram stopped unconverged at its 200-step cap
    cfg = json.loads((CONFIG_DIR / "reconstruct.json").read_text())
    cfg["grid_nodes"] = 64
    config = tmp_path / "config.json"
    config.write_text(json.dumps(cfg))
    out = tmp_path / "rec"
    assert run("reconstruct", config, out) == 0
    report = json.loads((out / "report.json").read_text())
    meta = json.loads((out / "meta.json").read_text())
    assert report["converged"] is True and report["residual"] <= cfg["tol"]
    assert meta["solver"] == {"method": "direct", "iterations": 0, "converged": True,
                              "rank": 36}
    assert (out / "error_curve.csv").read_text() == "iteration,residual\n"


def test_covering_control_with_no_prediction_passes(tmp_path):
    cfg = json.loads((CONFIG_DIR / "covering.json").read_text())
    cfg["sampling"] = {"kind": "jittered", "delta": 3.0, "jitter": 0.0,
                       "window": [[-20.0, 20.0]], "seed": 0}
    control = tmp_path / "control.json"
    control.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert run("covering", control, out) == 0
    report = json.loads((out / "report.json").read_text())
    assert not report["covered"] and not report["prediction_applies"]


def test_undersampled_frame_bounds_flagged(tmp_path):
    cfg = json.loads((CONFIG_DIR / "frame_bounds.json").read_text())
    cfg["sampling"]["delta"] = 2.0
    cfg["trials"] = 5
    under = tmp_path / "under.json"
    under.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert run("frame-bounds", under, out) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["frame_report"]["lower"] == 0.0
    assert report["frame_report"]["condition"] is None   # infinite


def test_seed_override_changes_jittered_set(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert cli.main(["covering", "--config", str(CONFIG_DIR / "covering.json"),
                     "--out", str(out_a), "--seed", "11"]) == 0
    assert cli.main(["covering", "--config", str(CONFIG_DIR / "covering.json"),
                     "--out", str(out_b), "--seed", "12"]) == 0
    rep_a = json.loads((out_a / "report.json").read_text())
    rep_b = json.loads((out_b / "report.json").read_text())
    assert rep_a["frame_report"] != rep_b["frame_report"]


def _unknown_field_cases():
    """Each shipped config with each place that takes fields: the top level,
    and ``sampling``, ``spectrum``, ``subspace`` and the first ``terms`` entry
    where it has them."""
    for path in sorted(CONFIG_DIR.glob("*.json")):
        cfg = json.loads(path.read_text())
        for place in ("top", "sampling", "spectrum", "subspace", "terms"):
            if place == "top" or place in cfg:
                yield pytest.param(path, place, id=f"{path.stem}-{place}")


@pytest.mark.parametrize("config,place", _unknown_field_cases())
def test_unknown_field_exits_2(tmp_path, capsys, config, place):
    cfg = json.loads(config.read_text())
    target = cfg if place == "top" else cfg["terms"][0] if place == "terms" else cfg[place]
    target["no_such_field"] = 0
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert run(config.stem.replace("_", "-"), bad, out) == 2
    assert capsys.readouterr().err.startswith("config error: unknown field 'no_such_field'")
    assert not (out / "report.json").exists()


def test_csv_points_with_header_and_comment_run(tmp_path):
    points = tmp_path / "points.csv"
    points.write_text("x\n# a jittered unit grid\n"
                      + "".join(f"{k + 0.1 * (-1) ** k}\n" for k in range(-20, 21)))
    cfg = json.loads((CONFIG_DIR / "covering.json").read_text())
    cfg["sampling"] = {"kind": "csv", "path": str(points)}
    good = tmp_path / "csv.json"
    good.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert run("covering", good, out) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["frame_report"]["sample_count"] == 41


def test_csv_points_with_a_bad_row_exit_2(tmp_path, capsys):
    # only the first row may be a header: a later typo is an error, not a
    # point dropped in silence
    points = tmp_path / "points.csv"
    points.write_text("x\n-1.0\n0.0\n1.O\n2.0\n")
    cfg = json.loads((CONFIG_DIR / "covering.json").read_text())
    cfg["sampling"] = {"kind": "csv", "path": str(points)}
    bad = tmp_path / "csv.json"
    bad.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert run("covering", bad, out) == 2
    assert capsys.readouterr().err == (
        f"config error: {points} line 4: row ['1.O'] is not numeric\n")
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("error", [KeyError, TypeError])
def test_program_errors_propagate(tmp_path, monkeypatch, error):
    # a KeyError or TypeError a command raises is a fault of the program, not
    # a configuration error
    def broken(cfg):
        raise error("spectrum")

    monkeypatch.setitem(cli._COMMANDS, "covering", broken)
    with pytest.raises(error):
        run("covering", CONFIG_DIR / "covering.json", tmp_path / "out")
    assert not (tmp_path / "out" / "report.json").exists()


DIAMOND = [[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]


def test_spectrum_section_builds_each_shape():
    specs = [geometry.SpectrumSet.box([0.5, 1.5]), geometry.SpectrumSet.ball(2.0, 1),
             geometry.SpectrumSet.polytope(DIAMOND)]
    documents = [{"dim": 2, "shape": "box", "half_widths": [0.5, 1.5]},
                 {"dim": 1, "shape": "ball", "radius": 2.0},
                 {"dim": 2, "shape": "polytope", "vertices": DIAMOND}]
    for spec, data in zip(specs, documents):
        back = cli._spectrum(cli.SPECTRUM.resolve(data, "spectrum"))
        pts = np.random.default_rng(5).uniform(-2, 2, size=(200, spec.dim))
        assert np.array_equal(back.contains(pts), spec.contains(pts))


@pytest.mark.parametrize("data,message", [
    ({"dim": 2, "shape": "box", "half_widths": [1.0]},
     "spectrum dim 2 differs from the dimension 1 of its box"),
    ({"dim": 1, "shape": "polytope", "vertices": DIAMOND},
     "spectrum dim 1 differs from the dimension 2 of its polytope"),
], ids=["box", "polytope"])
def test_spectrum_dim_must_match_the_set(data, message):
    with pytest.raises(cli.ConfigError, match=message):
        cli._spectrum(cli.SPECTRUM.resolve(data, "spectrum"))


def test_psido_symbol_outside_spectrum_exits_1(tmp_path, capsys):
    cfg = json.loads((CONFIG_DIR / "psido.json").read_text())
    cfg["terms"][0]["lambda"] = 0.2
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert run("psido", bad, out) == 1
    assert capsys.readouterr().err.startswith("symbol validation failed")
    report = json.loads((out / "report.json").read_text())
    assert set(report) == {"validation_failures", "config_hash"}
    assert report["validation_failures"]


@pytest.mark.parametrize("command,edit", [
    ("identity", {"n_y": 4, "trials": 1}),
    ("psido", {"n_k": 4, "trials": 1}),
])
def test_balayage_counters_in_meta(tmp_path, command, edit):
    cfg = json.loads((CONFIG_DIR / f"{command}.json").read_text())
    cfg.update(edit)
    small = tmp_path / "small.json"
    small.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert run(command, small, out) == 0
    counters = json.loads((out / "meta.json").read_text())["balayage"]
    assert set(counters) == {"centers", "iterations", "converged", "reweighted"}
    assert counters["centers"] == 4
    assert 0 <= counters["converged"] <= counters["centers"]
    assert 0 <= counters["reweighted"] <= counters["centers"]
    assert 0 <= counters["iterations"] <= 20 * counters["centers"]   # max_irls steps each
    assert "balayage" not in json.loads((out / "report.json").read_text())


def test_seed_flag_sets_every_seed_the_command_reads(tmp_path):
    cfg = json.loads((CONFIG_DIR / "frame_bounds.json").read_text())
    cfg["trials"] = 3
    cfg["sampling"]["jitter"] = 0.2
    base = tmp_path / "base.json"
    base.write_text(json.dumps(cfg))
    cfg["seed"] = cfg["sampling"]["seed"] = 7
    seeded = tmp_path / "seeded.json"
    seeded.write_text(json.dumps(cfg))
    assert cli.main(["frame-bounds", "--config", str(base), "--out", str(tmp_path / "flag"),
                     "--seed", "7"]) == 0
    assert run("frame-bounds", seeded, tmp_path / "config") == 0
    assert run("frame-bounds", base, tmp_path / "base") == 0

    def result(out):
        report = json.loads((tmp_path / out / "report.json").read_text())
        return report["frame_report"], (tmp_path / out / "rayleigh.csv").read_text()

    assert result("flag") == result("config")   # both the set and the trial signals
    assert result("flag") != result("base")
