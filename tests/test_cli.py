"""End-to-end CLI: subcommands, outputs, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from gridsac.cli import main
from gridsac.grid_model import bundled_case, serialize_case, with_loads
from gridsac.sac import SacAgent, SacConfig, save_checkpoint

from conftest import make_three_bus

CASE3 = "src/gridsac/cases/case3.json"
SRC = Path(__file__).resolve().parent.parent / "src"


def write_spec(tmp_path, **kw):
    doc = {"base_case_path": CASE3, "output_dir": str(tmp_path / "snaps"),
           "n_snapshots": 6, "setpoint_jitter": 0.02, "seed": 4}
    doc.update(kw)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc))
    return path


def micro_run_doc(snap_dir, run_id="cli-run"):
    return {
        "run_id": run_id,
        "sac": {"batch_size": 32, "start_steps": 32, "n_epochs": 1,
                "n_episodes": 5, "random_seed": 11},
        "case_path": CASE3,
        "snapshot_dir": str(snap_dir),
        "seed": 1,
    }


def test_solve_success(capsys):
    assert main(["solve", CASE3]) == 0
    out = capsys.readouterr().out
    assert "converged: True" in out
    assert "no violations" in out


def test_solve_reports_violations(tmp_path, capsys):
    heavy = with_loads(bundled_case("case3"), {3: 1.8})
    path = tmp_path / "heavy.json"
    path.write_text(serialize_case(heavy))
    assert main(["solve", str(path)]) == 0
    out = capsys.readouterr().out
    assert "voltage violation" in out


def test_solve_missing_file_is_data_error(capsys):
    assert main(["solve", "nope.json"]) == 2


def test_solve_bad_case_is_data_error(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"base_mva": 100')
    assert main(["solve", str(path)]) == 2


def test_solve_divergence_is_numerical_error(tmp_path, capsys):
    heavy = with_loads(bundled_case("case3"), {3: 60.0})
    path = tmp_path / "heavy.json"
    path.write_text(serialize_case(heavy))
    assert main(["solve", str(path)]) == 3
    assert "converged: False" in capsys.readouterr().out


def test_solve_without_q_limits_holds_the_setpoint(tmp_path, capsys):
    # Generator 2 has no reactive headroom: with limits its bus leaves the
    # 1.03 setpoint, without them it holds it.
    path = tmp_path / "tight.json"
    path.write_text(serialize_case(make_three_bus(q_max_2=0.0)))
    bus2 = lambda out: next(line.split()[1] for line in out.splitlines()
                            if line.split()[:1] == ["2"])
    assert main(["solve", str(path)]) == 0
    assert float(bus2(capsys.readouterr().out)) < 1.03
    assert main(["solve", str(path), "--no-q-limits"]) == 0
    assert bus2(capsys.readouterr().out) == "1.03000"


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["definitely-not-a-command"])
    assert exc.value.code == 1


def test_generate_snapshots_cli(tmp_path, capsys):
    spec = write_spec(tmp_path)
    assert main(["generate-snapshots", str(spec)]) == 0
    assert len(list((tmp_path / "snaps").glob("*.json"))) == 6


def test_generate_snapshots_bad_spec(tmp_path):
    spec = write_spec(tmp_path, n_snapshots=0)
    assert main(["generate-snapshots", str(spec)]) == 2


def _run_cli(*args):
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-m", "gridsac.cli", *args],
                          capture_output=True, text=True, env=env, timeout=120)


@pytest.mark.parametrize("key, edit", [("seeed", lambda doc: doc.update(seeed=4)),
                                       ("n_snapshots", lambda doc: doc.pop("n_snapshots"))],
                         ids=["unknown", "missing"])
def test_generate_snapshots_spec_with_unknown_or_missing_key(tmp_path, key, edit):
    spec = write_spec(tmp_path)
    doc = json.loads(spec.read_text())
    edit(doc)
    spec.write_text(json.dumps(doc))
    proc = _run_cli("generate-snapshots", str(spec))
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:")
    assert "Traceback" not in proc.stderr
    assert key in proc.stderr


@pytest.mark.parametrize("command, key, value", [
    ("generate-snapshots", "n_snapshots", "3"),
    ("train", "train_fraction", "0.8"),
    ("train", "batch_size", "64"),
])
def test_config_value_of_the_wrong_json_type_is_a_data_error(tmp_path, command, key, value):
    if command == "generate-snapshots":
        path = write_spec(tmp_path, **{key: value})
    else:
        doc = micro_run_doc(tmp_path / "snaps")
        (doc["sac"] if key in doc["sac"] else doc)[key] = value
        path = tmp_path / "run.json"
        path.write_text(json.dumps(doc))
    proc = _run_cli(command, str(path))
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:")
    assert "Traceback" not in proc.stderr
    assert f"key {key} must be" in proc.stderr


def test_solve_case_with_underflowing_impedance_names_the_file(tmp_path, capsys):
    doc = json.loads(serialize_case(bundled_case("case3")))
    doc["branches"][0].update(r=0.0, x=1e-200)
    path = tmp_path / "tiny_x.json"
    path.write_text(json.dumps(doc))
    assert main(["solve", str(path)]) == 2
    err = capsys.readouterr().err
    assert str(path) in err
    assert "zero series impedance" in err


def test_train_evaluate_retrain_pipeline(tmp_path, capsys):
    spec = write_spec(tmp_path)
    assert main(["generate-snapshots", str(spec)]) == 0
    snap_dir = tmp_path / "snaps"

    run_cfg = tmp_path / "run.json"
    run_cfg.write_text(json.dumps(micro_run_doc(snap_dir)))
    assert main(["train", str(run_cfg), "--out", str(tmp_path / "runs")]) == 0
    checkpoint = tmp_path / "runs" / "cli-run" / "checkpoints" / "final.json"
    assert checkpoint.exists()
    out = capsys.readouterr().out
    assert "valid_control_fraction" in out

    assert main(["evaluate", str(checkpoint), str(snap_dir)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["n_snapshots"] == 6

    campaign_cfg = tmp_path / "campaign.json"
    campaign_cfg.write_text(json.dumps({
        "runs": [micro_run_doc(snap_dir, "c-a"), micro_run_doc(snap_dir, "c-b")],
        "output_dir": str(tmp_path / "campaign"),
        "selection_metric": "SolvedFraction",
        "split_seed": 5,
    }))
    assert main(["campaign", str(campaign_cfg)]) == 0
    out = capsys.readouterr().out
    assert "best run: c-a" in out
    registry = tmp_path / "campaign" / "registry"
    assert (registry / "registry.json").exists()

    assert main(["retrain", str(registry), str(snap_dir)]) == 0
    reg_doc = json.loads((registry / "registry.json").read_text())
    assert len(reg_doc["entries"]) == 3  # both campaign runs plus the retrain


def test_evaluate_missing_checkpoint(tmp_path):
    assert main(["evaluate", str(tmp_path / "none.json"), "snaps"]) == 2


def test_evaluate_refuses_checkpoint_trained_with_lr_decay(tmp_path, capsys):
    path = tmp_path / "ck.json"
    save_checkpoint(path, SacAgent.create(4, 2, SacConfig()), None)
    doc = json.loads(path.read_text())
    doc["config"]["lr_decay_enabled"] = True
    path.write_text(json.dumps(doc))
    assert main(["evaluate", str(path), "snaps"]) == 2
    assert "lr_decay_enabled" in capsys.readouterr().err


def test_evaluate_refuses_checkpoint_with_unknown_config_key(tmp_path, capsys):
    path = tmp_path / "ck.json"
    save_checkpoint(path, SacAgent.create(4, 2, SacConfig()), None)
    doc = json.loads(path.read_text())
    doc["config"]["entropy_cap"] = 0.1
    path.write_text(json.dumps(doc))
    assert main(["evaluate", str(path), "snaps"]) == 2
    assert "entropy_cap" in capsys.readouterr().err


def test_campaign_all_failures_numerical_exit(tmp_path):
    campaign_cfg = tmp_path / "campaign.json"
    campaign_cfg.write_text(json.dumps({
        "runs": [micro_run_doc(tmp_path / "missing", "a")],
        "output_dir": str(tmp_path / "campaign"),
    }))
    assert main(["campaign", str(campaign_cfg)]) == 3


def test_evaluate_on_truncated_snapshot_is_data_error(tmp_path):
    # A snapshot torn mid-write is caught when the directory is loaded.
    checkpoint = tmp_path / "ck.json"
    save_checkpoint(checkpoint, SacAgent.create(4, 2, SacConfig()), None)
    snaps = tmp_path / "snaps"
    snaps.mkdir()
    text = serialize_case(bundled_case("case3"))
    for k in range(3):
        (snaps / f"snap_{k:06d}.json").write_text(text)
    (snaps / "snap_000001.json").write_text(text[:len(text) // 2])
    proc = _run_cli("evaluate", str(checkpoint), str(snaps))
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:")
    assert "Traceback" not in proc.stderr
    assert "line" in proc.stderr
    assert "snap_000001.json" in proc.stderr
