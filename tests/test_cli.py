import json
from pathlib import Path

import pytest

from nusample import cli

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


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
    assert (out / "meta.json").exists()


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


def test_malformed_json_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run("covering", bad, tmp_path / "out") == 2


def test_wrong_schema_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"schema": 99}))
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
], ids=["jitter-above-half-delta", "negative-resolution", "region-dim-mismatch"])
def test_bad_config_value_exits_2(tmp_path, capsys, edit, message):
    cfg = json.loads((CONFIG_DIR / "covering.json").read_text())
    edit(cfg)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(cfg))
    assert run("covering", bad, tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and message in err
    assert "Traceback" not in err


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
