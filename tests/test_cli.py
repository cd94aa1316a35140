"""End-to-end CLI: subcommands, outputs, exit codes."""

import json

import pytest

from gridsac.cli import main
from gridsac.grid_model import bundled_case, serialize_case, with_loads
from gridsac.sac import SacAgent, SacConfig, save_checkpoint

CASE3 = "src/gridsac/cases/case3.json"


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


def test_campaign_all_failures_numerical_exit(tmp_path):
    campaign_cfg = tmp_path / "campaign.json"
    campaign_cfg.write_text(json.dumps({
        "runs": [micro_run_doc(tmp_path / "missing", "a")],
        "output_dir": str(tmp_path / "campaign"),
    }))
    assert main(["campaign", str(campaign_cfg)]) == 3
