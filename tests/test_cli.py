"""End-to-end CLI: subcommands, outputs, exit codes."""

import json
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

from gridsac.cli import main
from gridsac.grid_model import bundled_case, serialize_case, with_loads
from gridsac.harness import EvaluationReport
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


@pytest.mark.parametrize("key, value", [("setpoint_jitter", float("nan")),
                                        ("setpoint_jitter", float("inf")),
                                        ("load_scale_high", float("inf"))],
                         ids=["jitter-nan", "jitter-inf", "high-inf"])
def test_generate_snapshots_spec_with_a_non_finite_value_is_a_data_error(tmp_path, key, value):
    spec = write_spec(tmp_path, **{key: value})
    proc = _run_cli("generate-snapshots", str(spec))
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:")
    assert "Traceback" not in proc.stderr
    assert key in proc.stderr
    assert not (tmp_path / "snaps").exists()


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


def _assert_data_error(proc, *fragments):
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:")
    assert "Traceback" not in proc.stderr
    for fragment in fragments:
        assert fragment in proc.stderr


@pytest.mark.parametrize("name, edit, fragment", [
    ("monitored.json", lambda d: d.update(monitored_buses=5), "key monitored_buses"),
    ("bus_id.json", lambda d: d["buses"][1].update(id=2.7), "key id"),
    ("overflow.json", lambda d: d["buses"][1].update(p_load=10 ** 400), "key p_load"),
], ids=["integer-monitored-buses", "float-bus-id", "overflowing-p_load"])
def test_solve_case_with_a_value_of_the_wrong_json_type_is_a_data_error(
        tmp_path, name, edit, fragment):
    doc = json.loads(serialize_case(bundled_case("case3")))
    edit(doc)
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    _assert_data_error(_run_cli("solve", str(path)), str(path), fragment)


@pytest.mark.parametrize("key, listed, fragment", [
    ("monitored_buses", [1, 2, 3, 2], "monitored_buses lists 2 more than once"),
    ("monitored_branches", [3, 1, 3], "monitored_branches lists 3 more than once"),
], ids=["bus", "branch"])
def test_solve_case_with_a_repeated_monitored_id_is_a_data_error(tmp_path, key, listed,
                                                                 fragment):
    # A repeated id would count its voltage or flow violation twice.
    doc = json.loads(serialize_case(bundled_case("case3")))
    doc[key] = listed
    path = tmp_path / "repeated.json"
    path.write_text(json.dumps(doc))
    _assert_data_error(_run_cli("solve", str(path)), str(path), fragment)


@pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["nan", "inf"])
def test_train_with_a_non_finite_target_entropy_is_a_data_error(tmp_path, value):
    # With snapshots in place, only the config value can stop the run.
    assert main(["generate-snapshots", str(write_spec(tmp_path))]) == 0
    doc = micro_run_doc(tmp_path / "snaps")
    doc["sac"]["target_entropy"] = value
    path = tmp_path / "run.json"
    path.write_text(json.dumps(doc))
    _assert_data_error(_run_cli("train", str(path), "--out", str(tmp_path / "runs")),
                       "target_entropy")


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


@pytest.mark.parametrize("edit, fragment", [
    (lambda text: json.dumps({**json.loads(text), "networks": 5}), ""),
    (lambda text: json.dumps({**json.loads(text), "normalizer": {"mean": ["x"] * 12,
                                                                  "scale": [1.0] * 12}}), "'x'"),
    (lambda text: json.dumps({**json.loads(text), "normalizer": {"mean": [0.0] * 3,
                                                                  "scale": [1.0] * 3}}),
     "state_dim 12"),
    (lambda text: text[:len(text) // 2], "line 1"),
], ids=["networks-not-an-object", "string-normalizer-mean", "short-normalizer", "truncated"])
def test_evaluate_malformed_checkpoint_is_a_data_error_naming_it(tmp_path, edit, fragment):
    path = tmp_path / "ck.json"
    # the state and action dimensions of case3, so only the edit is at fault
    save_checkpoint(path, SacAgent.create(12, 2, SacConfig()), None)
    path.write_text(edit(path.read_text()))
    snaps = tmp_path / "snaps"
    snaps.mkdir()
    (snaps / "snap_000000.json").write_text(serialize_case(bundled_case("case3")))
    _assert_data_error(_run_cli("evaluate", str(path), str(snaps)), f"error: {path}: ", fragment)


def test_retrain_on_truncated_registry_is_a_data_error(tmp_path):
    registry = tmp_path / "registry"
    registry.mkdir()
    (registry / "registry.json").write_text('{"best": "a", "entries": [')
    _assert_data_error(_run_cli("retrain", str(registry), str(tmp_path / "snaps")))


@pytest.mark.parametrize("doc, fragment", [
    ([], "RegistryFile must be a JSON object"),
    ({}, "missing RegistryFile keys: best_run_id, entries"),
    ("x", "RegistryFile must be a JSON object"),
], ids=["list", "empty-object", "string"])
def test_retrain_on_a_registry_of_another_shape_is_a_data_error_naming_it(tmp_path, doc,
                                                                          fragment):
    registry = tmp_path / "registry"
    registry.mkdir()
    (registry / "registry.json").write_text(json.dumps(doc))
    _assert_data_error(_run_cli("retrain", str(registry), str(tmp_path / "snaps")),
                       f"error: {registry / 'registry.json'}: ", fragment)


def _registry_entry(run_id):
    return {"run_id": run_id, "checkpoint_path": f"{run_id}.json", "metrics_path": "m.csv",
            "report": {f.name: 0 for f in fields(EvaluationReport)}}


@pytest.mark.parametrize("doc, fragment", [
    ({"best_run_id": "a", "entries": [{**_registry_entry("a"), "report": {"n_snapshots": 3}}]},
     "missing EvaluationReport keys: valid_control_fraction"),
    ({"best_run_id": "b", "entries": [_registry_entry("a")]}, "best_run_id 'b' names no entry"),
], ids=["report-missing-keys", "dangling-best"])
def test_retrain_on_a_malformed_registry_is_a_data_error_naming_it(tmp_path, doc, fragment):
    registry = tmp_path / "registry"
    registry.mkdir()
    (registry / "registry.json").write_text(json.dumps(doc))
    _assert_data_error(_run_cli("retrain", str(registry), str(tmp_path / "snaps")),
                       f"error: {registry / 'registry.json'}: ", fragment)


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


@pytest.mark.parametrize("key, literal", [("p_load", "NaN"), ("q_load", "Infinity")])
def test_non_finite_snapshot_value_is_a_data_error_naming_the_file(tmp_path, key, literal):
    doc = json.loads(serialize_case(bundled_case("case3")))
    doc["buses"][1][key] = float(literal)
    snaps = tmp_path / "snaps"
    snaps.mkdir()
    path = snaps / "snapshot_00000.json"
    path.write_text(json.dumps(doc))
    assert f'"{key}": {literal}' in path.read_text()
    checkpoint = tmp_path / "ck.json"
    save_checkpoint(checkpoint, SacAgent.create(4, 2, SacConfig()), None)
    for args in (("solve", str(path)), ("evaluate", str(checkpoint), str(snaps))):
        _assert_data_error(_run_cli(*args), f"error: {path}: ", f"{key} not finite")
