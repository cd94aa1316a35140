"""Snapshot generation, splits, campaign mechanics, registry, retraining."""

import hashlib
import json
import os
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from gridsac import environment, harness
from gridsac.grid_model import (V_SET_MAX, V_SET_MIN, CaseError, load_case,
                                plant_setpoints, serialize_case, with_generation,
                                with_loads, with_plant_setpoints)
from gridsac.harness import (CampaignConfig, CampaignError, EvaluationReport,
                             ModelRegistry, RegistryEntry, RunConfig,
                             SelectionMetric, SnapshotGenSpec, _selection_key,
                             config_from_file, evaluate, generate_snapshots,
                             load_snapshots, periodic_retrain, run_campaign,
                             snapshot_paths, split_snapshots)
from gridsac.power_flow import SolverOptions, audit_violations, solve_newton_raphson
from gridsac.sac import SacAgent, SacConfig, save_checkpoint

from conftest import singular_jacobian_from_second_step

CASE3 = "src/gridsac/cases/case3.json"
CASE14 = "src/gridsac/cases/case14.json"


def spec_for(tmp_path, case=CASE3, n=8, **kw):
    defaults = dict(load_scale_low=0.8, load_scale_high=1.2,
                    setpoint_jitter=0.02, seed=42)
    defaults.update(kw)
    return SnapshotGenSpec(base_case_path=case, output_dir=str(tmp_path / "snaps"),
                           n_snapshots=n, **defaults)


def micro_sac(**kw):
    base = dict(batch_size=32, max_episode_steps=10, start_steps=32,
                n_epochs=1, random_seed=11, n_episodes=8)
    base.update(kw)
    return SacConfig(**base)


def micro_campaign(tmp_path, snap_dir, run_ids=("a",), seeds=None, **sac_kw):
    seeds = seeds or [11] * len(run_ids)
    runs = [RunConfig(run_id=rid, sac=micro_sac(random_seed=s, **sac_kw),
                      case_path=CASE3, snapshot_dir=str(snap_dir), seed=1)
            for rid, s in zip(run_ids, seeds)]
    return CampaignConfig(runs=runs, output_dir=str(tmp_path / "campaign"),
                          split_seed=5)


# --- snapshot generation -------------------------------------------------------

def test_identity_spec_reproduces_base_case(tmp_path):
    spec = spec_for(tmp_path, n=3, load_scale_low=1.0, load_scale_high=1.0,
                    setpoint_jitter=0.0)
    out = generate_snapshots(spec)
    base = load_case(CASE3)
    for case in load_snapshots(out):
        assert case == base


def test_generation_deterministic_under_seed(tmp_path):
    spec_a = spec_for(tmp_path / "a", n=6, seed=9)
    spec_b = spec_for(tmp_path / "b", n=6, seed=9)
    generate_snapshots(spec_a)
    generate_snapshots(spec_b)
    texts_a = [p.read_text() for p in snapshot_paths(tmp_path / "a" / "snaps")]
    texts_b = [p.read_text() for p in snapshot_paths(tmp_path / "b" / "snaps")]
    assert texts_a == texts_b
    spec_c = spec_for(tmp_path / "c", n=6, seed=10)
    generate_snapshots(spec_c)
    texts_c = [p.read_text() for p in snapshot_paths(tmp_path / "c" / "snaps")]
    assert texts_c != texts_a


def test_generated_snapshots_all_solvable(tmp_path):
    out = generate_snapshots(spec_for(tmp_path, n=10, load_scale_high=1.2))
    for case in load_snapshots(out):
        assert solve_newton_raphson(case).converged


def _directory_digest(paths):
    digest = hashlib.sha256()
    for path in paths:
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


# Each digest covers every file's name, a NUL byte and its bytes, in name
# order. They were computed while candidates were still solved one at a time
# by solve_newton_raphson; any change to drawing, solving or writing that
# alters a file fails here.
@pytest.mark.parametrize("spec_kw, digest", [
    (dict(seed=7), "fe46bafa0104e92fda9ff4123b0344270f34a645d6fa49cb44cbb6dd2327a921"),
    (dict(seed=13, load_scale_low=0.5, load_scale_high=2.6, retries_per_snapshot=20),
     "6d3be7d886304d57adb2bd800479a17a349bc8403abfefe179d58e2d0a34f77f"),
], ids=["default", "wide-loads-with-retries"])
def test_generated_case14_snapshots_keep_their_bytes(tmp_path, monkeypatch, spec_kw, digest):
    drawn = []
    drawer = harness._snapshot_drawer

    def counting_drawer(base, spec):
        draw = drawer(base, spec)
        return lambda rng: drawn.append(1) or draw(rng)

    monkeypatch.setattr(harness, "_snapshot_drawer", counting_drawer)
    out = generate_snapshots(spec_for(tmp_path, case=CASE14, n=40, **spec_kw))
    assert _directory_digest(snapshot_paths(out)) == digest
    # the wide load range makes candidates fail, so retries run
    assert (len(drawn) > 40) == (spec_kw["seed"] == 13)


# The draw branches the digests above leave out: one load factor for every
# bus, setpoints jittered past V_SET_MIN and V_SET_MAX, and case3. Computed,
# like those, before the draws became one rng.uniform call per vector.
@pytest.mark.parametrize("case, spec_kw, digest", [
    (CASE14, dict(seed=7, per_load_scaling=False),
     "08414cc40bdcbff48f827113b84621b997196074f0ba78405e31cbddd1d30535"),
    (CASE14, dict(seed=7, setpoint_jitter=0.2),
     "b2c696592a4c1a7f52e3fb119a9c60fcdab59524027fad5536288bd91e0d6c7c"),
    (CASE3, dict(seed=7), "9f9fac4b5d0c173458d7b3a7a7997420380c5e19a537abc00dd55973c98e82b8"),
], ids=["global-scaling", "clipped-setpoints", "case3"])
def test_generated_snapshots_keep_their_bytes_on_every_draw_branch(tmp_path, case, spec_kw,
                                                                   digest):
    out = generate_snapshots(spec_for(tmp_path, case=case, n=40, **spec_kw))
    assert _directory_digest(snapshot_paths(out)) == digest
    if spec_kw.get("setpoint_jitter") == 0.2:
        v_set = {g.v_set for c in load_snapshots(out) for g in c.generators}
        assert {V_SET_MIN, V_SET_MAX} <= v_set


def reference_drawer(base, spec):
    """The drawer as it was before one rng.uniform call per vector: one
    scalar draw per load factor and per jitter, clipped with np.clip."""
    total_before = sum(b.p_load for b in base.buses)
    nominal_setpoints = tuple(zip(base.plant_order, plant_setpoints(base)))

    def draw(rng):
        if spec.per_load_scaling:
            factors = {b.id: rng.uniform(spec.load_scale_low, spec.load_scale_high)
                       for b in base.buses}
        else:
            f = rng.uniform(spec.load_scale_low, spec.load_scale_high)
            factors = {b.id: f for b in base.buses}
        p_load = {b.id: b.p_load * factors[b.id] for b in base.buses}
        q_load = {b.id: b.q_load * factors[b.id] for b in base.buses}
        total_after = sum(p_load.values())
        ratio = total_after / total_before if total_before > 0 else 1.0
        p_gen = {g.id: float(np.clip(g.p_gen * ratio, g.p_min, g.p_max))
                 for g in base.generators}
        setpoints = {pid: float(np.clip(nominal + rng.uniform(-spec.setpoint_jitter,
                                                               spec.setpoint_jitter),
                                        V_SET_MIN, V_SET_MAX))
                     for pid, nominal in nominal_setpoints}
        case = with_loads(base, p_load, q_load)
        case = with_generation(case, p_gen)
        return with_plant_setpoints(case, setpoints)
    return draw


def _signed_zero_dispatch(case):
    """``case`` with a generator at p_gen -0.0 and p_min 0.0, which np.clip
    leaves at -0.0."""
    g = case.generators[-1]
    return replace(case, generators=(*case.generators[:-1],
                                     replace(g, p_gen=-0.0, p_min=0.0)))


@pytest.mark.parametrize("case", [CASE3, CASE14])
@pytest.mark.parametrize("per_load_scaling", [True, False], ids=["per-load", "global"])
@pytest.mark.parametrize("low, high", [(0.8, 1.2), (0.5, 2.6), (1.0, 1.0)])
@pytest.mark.parametrize("jitter", [0.02, 0.2, 0.0])
def test_drawer_draws_what_the_scalar_drawer_drew(tmp_path, case, per_load_scaling, low,
                                                  high, jitter):
    spec = spec_for(tmp_path, case=case, load_scale_low=low, load_scale_high=high,
                    per_load_scaling=per_load_scaling, setpoint_jitter=jitter)
    for base in (load_case(case), _signed_zero_dispatch(load_case(case))):
        draw, reference = harness._snapshot_drawer(base, spec), reference_drawer(base, spec)
        for seed in (0, 1):
            rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            for _ in range(10):
                assert serialize_case(draw(rng)) == serialize_case(reference(ref_rng))


def test_retry_budget_exhaustion_names_the_index(tmp_path):
    spec = spec_for(tmp_path, case=CASE14, n=40, seed=1, load_scale_low=0.5,
                    load_scale_high=2.6, retries_per_snapshot=2)
    with pytest.raises(CaseError, match=r"within 2 retries \(index 13\)$"):
        generate_snapshots(spec)
    # the snapshots before the failing index are written
    assert len(snapshot_paths(spec.output_dir)) == 13


def test_generation_scales_loads_and_dispatch(tmp_path):
    out = generate_snapshots(spec_for(tmp_path, n=12, load_scale_low=1.1,
                                      load_scale_high=1.2, setpoint_jitter=0.0))
    base = load_case(CASE3)
    for case in load_snapshots(out):
        assert sum(b.p_load for b in case.buses) > sum(b.p_load for b in base.buses)
        # non-slack dispatch follows the load upward, within limits
        assert case.generator_by_id[2].p_gen >= base.generator_by_id[2].p_gen


def test_global_scaling_mode_uses_one_factor(tmp_path):
    out = generate_snapshots(spec_for(tmp_path, n=5, per_load_scaling=False,
                                      setpoint_jitter=0.0))
    base = load_case(CASE3)
    for case in load_snapshots(out):
        ratios = {b.p_load / base.bus_by_id[b.id].p_load
                  for b in case.buses if base.bus_by_id[b.id].p_load}
        assert len({round(r, 12) for r in ratios}) == 1


def test_violation_fraction_band_for_heavy_jitter(tmp_path):
    # regression band measured once on the bundled 14-bus case with
    # jitter 0.05 (observed 0.457): strictly inside (0, 1)
    out = generate_snapshots(spec_for(tmp_path, case=CASE14, n=120,
                                      setpoint_jitter=0.05, seed=99))
    cases = load_snapshots(out)
    frac = np.mean([audit_violations(c, solve_newton_raphson(c)).any for c in cases])
    assert 0.25 <= frac <= 0.65


def test_spec_validation():
    with pytest.raises(ValueError):
        SnapshotGenSpec(base_case_path=CASE3, output_dir="x", n_snapshots=0)
    with pytest.raises(ValueError):
        SnapshotGenSpec(base_case_path=CASE3, output_dir="x", n_snapshots=1,
                        load_scale_low=1.5, load_scale_high=1.2)


@pytest.mark.parametrize("key", ["load_scale_low", "load_scale_high", "setpoint_jitter"])
@pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["nan", "inf"])
def test_spec_refuses_non_finite_draw_bounds(key, value):
    with pytest.raises(ValueError, match=f"^{key} must be finite"):
        SnapshotGenSpec(base_case_path=CASE3, output_dir="x", n_snapshots=1, **{key: value})


# --- split -----------------------------------------------------------------------

def test_split_disjoint_exhaustive_deterministic(tmp_path):
    out = generate_snapshots(spec_for(tmp_path, n=10))
    paths = snapshot_paths(out)
    train, test = split_snapshots(paths, 0.8, seed=3)
    assert len(train) == 8 and len(test) == 2
    assert set(train) | set(test) == set(paths)
    assert set(train) & set(test) == set()
    train2, test2 = split_snapshots(paths, 0.8, seed=3)
    assert train == train2 and test == test2
    train3, _ = split_snapshots(paths, 0.8, seed=4)
    assert train != train3


def test_split_always_leaves_both_sides(tmp_path):
    out = generate_snapshots(spec_for(tmp_path, n=3))
    train, test = split_snapshots(snapshot_paths(out), 0.9, seed=0)
    assert len(train) >= 1 and len(test) >= 1


# --- selection rule ----------------------------------------------------------------

def fake_report(solved, reward=0.0, mlr=0.0):
    return EvaluationReport(
        n_snapshots=10, valid_control_fraction=solved, reduced_fraction=solved,
        non_degrading_fraction=solved, mean_loss_reduction_pct=mlr,
        mean_episode_reward=reward, violation_snapshots=0, violations_resolved=0,
        violations_mitigated=0, mean_latency_s=0.0, max_latency_s=0.0,
        p95_latency_s=0.0)


def fake_result(run_id, solved, reward=0.0, mlr=0.0):
    return RegistryEntry(run_id=run_id, checkpoint_path="x", metrics_path="y",
                         report=fake_report(solved, reward, mlr))


def test_selection_prefers_higher_metric_then_reduction_then_id():
    a = fake_result("a", solved=0.5, mlr=1.0)
    b = fake_result("b", solved=0.7, mlr=0.0)
    c = fake_result("c", solved=0.7, mlr=2.0)
    d = fake_result("d", solved=0.7, mlr=2.0)
    ranked = sorted([a, b, c, d],
                    key=lambda r: _selection_key(SelectionMetric.SOLVED_FRACTION, r))
    assert [r.run_id for r in ranked] == ["c", "d", "b", "a"]
    by_reward = sorted([fake_result("a", 0.0, reward=5.0),
                        fake_result("b", 1.0, reward=-2.0)],
                       key=lambda r: _selection_key(SelectionMetric.MEAN_TEST_REWARD, r))
    assert by_reward[0].run_id == "a"


# --- campaign ------------------------------------------------------------------------

def test_single_run_campaign_selects_it(tmp_path):
    out = generate_snapshots(spec_for(tmp_path, n=8))
    best = run_campaign(micro_campaign(tmp_path, out, run_ids=("only",)))
    assert best.run_id == "only"
    assert Path(best.checkpoint_path).exists()
    assert Path(best.metrics_path).exists()
    doc = json.loads((tmp_path / "campaign" / "registry" / "registry.json").read_text())
    assert doc["selection_metric"] == "SolvedFraction"


def test_identical_runs_tie_broken_by_run_id(tmp_path):
    out = generate_snapshots(spec_for(tmp_path, n=8))
    best = run_campaign(micro_campaign(tmp_path, out, run_ids=("b", "a"),
                                       seeds=[11, 11]))
    assert best.run_id == "a"
    reg = ModelRegistry(Path(tmp_path / "campaign") / "registry")
    reports = {e.run_id: e.report for e in reg.entries()}
    # identical configs give identical metrics apart from wall-clock latency
    from dataclasses import asdict
    strip = lambda r: {k: v for k, v in asdict(r).items() if "latency" not in k}
    assert strip(reports["a"]) == strip(reports["b"])


def test_campaign_deterministic_end_to_end(tmp_path):
    selections = []
    metrics = []
    for k in range(2):
        root = tmp_path / f"rep{k}"
        out = generate_snapshots(spec_for(root, n=8))
        best = run_campaign(micro_campaign(root, out, run_ids=("x", "y"),
                                           seeds=[11, 13]))
        selections.append(best.run_id)
        metrics.append(Path(best.metrics_path).read_bytes())
    assert selections[0] == selections[1]
    assert metrics[0] == metrics[1]


def test_campaign_excludes_failed_run(tmp_path, caplog):
    out = generate_snapshots(spec_for(tmp_path, n=8))
    config = micro_campaign(tmp_path, out, run_ids=("good", "bad"), seeds=[11, 11])
    config.runs[1].case_path = str(tmp_path / "missing_case.json")
    best = run_campaign(config)
    assert best.run_id == "good"
    reg = ModelRegistry(Path(config.output_dir) / "registry")
    assert [e.run_id for e in reg.entries()] == ["good"]


def test_run_rejects_snapshots_from_other_grid(tmp_path):
    out = generate_snapshots(spec_for(tmp_path, n=8))
    config = micro_campaign(tmp_path, out, run_ids=("mismatched",))
    config.runs[0].case_path = CASE14
    with pytest.raises(CampaignError):
        run_campaign(config)


def test_campaign_fails_only_if_all_fail(tmp_path):
    config = micro_campaign(tmp_path, tmp_path / "missing", run_ids=("a", "b"),
                            seeds=[11, 13])
    with pytest.raises(CampaignError):
        run_campaign(config)


def test_campaign_parallel_workers_match_sequential(tmp_path):
    out_a = generate_snapshots(spec_for(tmp_path / "sq", n=8))
    seq = run_campaign(micro_campaign(tmp_path / "sq", out_a, run_ids=("x", "y"),
                                      seeds=[11, 13]))
    out_b = generate_snapshots(spec_for(tmp_path / "par", n=8))
    par_cfg = micro_campaign(tmp_path / "par", out_b, run_ids=("x", "y"),
                             seeds=[11, 13])
    par_cfg.max_workers = 2
    par = run_campaign(par_cfg)
    assert par.run_id == seq.run_id
    assert (Path(par.metrics_path).read_bytes() == Path(seq.metrics_path).read_bytes())


def test_campaign_config_validation(tmp_path):
    with pytest.raises(ValueError):
        CampaignConfig(runs=[], output_dir="x")
    run = RunConfig(run_id="a", sac=micro_sac(), case_path=CASE3, snapshot_dir="s")
    with pytest.raises(ValueError, match="unique"):
        CampaignConfig(runs=[run, run], output_dir="x")
    other = replace(run, run_id="b", train_fraction=0.7)
    with pytest.raises(ValueError, match="train fraction"):
        CampaignConfig(runs=[run, other], output_dir="x")


# --- config files ------------------------------------------------------------------

RUN_DOC = {"run_id": "a", "case_path": CASE3, "snapshot_dir": "s"}
CONFIG_DOCS = {
    RunConfig: RUN_DOC,
    CampaignConfig: {"runs": [RUN_DOC], "output_dir": "out"},
    SnapshotGenSpec: {"base_case_path": CASE3, "output_dir": "out", "n_snapshots": 3},
}


def _config_file(tmp_path, doc):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


def test_config_files_leave_defaults_to_the_dataclasses(tmp_path):
    run = config_from_file(RunConfig, _config_file(tmp_path, RUN_DOC))
    assert run == RunConfig(run_id="a", case_path=CASE3, snapshot_dir="s")
    campaign = config_from_file(CampaignConfig, _config_file(
        tmp_path, {"runs": [{**RUN_DOC, "sac": {"batch_size": 64}}], "output_dir": "out",
                   "selection_metric": "MeanTestReward"}))
    assert campaign == CampaignConfig(
        runs=[replace(run, sac=SacConfig(batch_size=64))], output_dir="out",
        selection_metric=SelectionMetric.MEAN_TEST_REWARD)
    spec = config_from_file(SnapshotGenSpec, _config_file(tmp_path, CONFIG_DOCS[SnapshotGenSpec]))
    assert spec == SnapshotGenSpec(base_case_path=CASE3, output_dir="out", n_snapshots=3)


def test_each_config_gets_its_own_default_sac_config(tmp_path):
    # RunConfig.sac has a default_factory, called once per instance read.
    path = _config_file(tmp_path, RUN_DOC)
    first, second = config_from_file(RunConfig, path), config_from_file(RunConfig, path)
    campaign = config_from_file(CampaignConfig, _config_file(
        tmp_path, {"runs": [RUN_DOC, {**RUN_DOC, "run_id": "b"}], "output_dir": "out"}))
    sacs = [first.sac, second.sac, *(run.sac for run in campaign.runs)]
    assert all(sac == SacConfig() for sac in sacs)
    assert len({id(sac) for sac in sacs}) == len(sacs)


@pytest.mark.parametrize("cls", list(CONFIG_DOCS), ids=lambda cls: cls.__name__)
def test_config_file_with_an_unknown_key_is_refused(tmp_path, cls):
    # A misspelt optional key (train_fracton) used to be dropped silently.
    path = _config_file(tmp_path, {**CONFIG_DOCS[cls], "train_fracton": 0.7})
    with pytest.raises(ValueError, match=f"unknown {cls.__name__} keys: train_fracton"):
        config_from_file(cls, path)


@pytest.mark.parametrize("cls", list(CONFIG_DOCS), ids=lambda cls: cls.__name__)
def test_config_file_with_a_missing_key_is_refused(tmp_path, cls):
    doc = dict(CONFIG_DOCS[cls])
    del doc["output_dir" if cls is not RunConfig else "snapshot_dir"]
    with pytest.raises(ValueError, match=f"missing {cls.__name__} keys: "):
        config_from_file(cls, _config_file(tmp_path, doc))


@pytest.mark.parametrize("cls, key, value", [
    (SnapshotGenSpec, "n_snapshots", "3"),
    (SnapshotGenSpec, "n_snapshots", 3.0),
    (SnapshotGenSpec, "seed", True),
    (SnapshotGenSpec, "per_load_scaling", 1),
    (SnapshotGenSpec, "load_scale_low", "0.8"),
    (SnapshotGenSpec, "output_dir", None),
    (RunConfig, "train_fraction", "0.8"),
    (RunConfig, "run_id", 7),
    (CampaignConfig, "runs", RUN_DOC),
    (CampaignConfig, "max_workers", None),
    (CampaignConfig, "selection_metric", 3),
])
def test_config_file_with_a_value_of_the_wrong_json_type_is_refused(tmp_path, cls, key, value):
    path = _config_file(tmp_path, {**CONFIG_DOCS[cls], key: value})
    with pytest.raises(ValueError, match=f"{cls.__name__} key {key} must be"):
        config_from_file(cls, path)


def test_config_file_takes_an_integer_for_a_float_field(tmp_path):
    spec = config_from_file(SnapshotGenSpec, _config_file(
        tmp_path, {**CONFIG_DOCS[SnapshotGenSpec], "load_scale_high": 2}))
    assert spec.load_scale_high == 2


def test_run_file_with_retired_sac_keys_loads(tmp_path):
    # written while entropy_max and lr_decay_rate were still SAC config fields
    path = _config_file(tmp_path, {**RUN_DOC, "sac": {"batch_size": 64, "entropy_max": 1.0,
                                                      "lr_decay_rate": 0.5}})
    run = config_from_file(RunConfig, path)
    assert run.sac == SacConfig(batch_size=64)


def test_campaign_file_refuses_an_unknown_key_in_a_run(tmp_path):
    path = _config_file(tmp_path, {"runs": [{**RUN_DOC, "train_fracton": 0.7}],
                                   "output_dir": "out"})
    with pytest.raises(ValueError, match="unknown RunConfig keys: train_fracton"):
        config_from_file(CampaignConfig, path)


# --- evaluate ----------------------------------------------------------------------

def checkpoint_of_fresh_agent(tmp_path, state_dim=12, action_dim=2, **kw):
    agent = SacAgent.create(state_dim, action_dim, micro_sac(**kw))
    path = tmp_path / "agent.json"
    save_checkpoint(path, agent, None)
    return path


def test_evaluate_empty_set_rejected(tmp_path):
    ck = checkpoint_of_fresh_agent(tmp_path)
    with pytest.raises(ValueError, match="empty"):
        evaluate(ck, [])


def test_evaluate_dimension_mismatch_rejected(tmp_path):
    ck = checkpoint_of_fresh_agent(tmp_path, state_dim=99)
    out = generate_snapshots(spec_for(tmp_path, n=2))
    with pytest.raises(ValueError, match="dimensions"):
        evaluate(ck, out)


def test_evaluate_report_fields(tmp_path):
    ck = checkpoint_of_fresh_agent(tmp_path)
    out = generate_snapshots(spec_for(tmp_path, n=6))
    report = evaluate(ck, out)
    assert report.n_snapshots == 6
    assert 0.0 <= report.valid_control_fraction <= 1.0
    assert 0.0 <= report.non_degrading_fraction <= 1.0
    assert report.mean_latency_s >= 0.0
    assert report.p95_latency_s <= report.max_latency_s
    assert report.violations_resolved + report.violations_mitigated <= max(
        report.violation_snapshots, 1)


def test_evaluate_when_every_first_control_step_diverges(tmp_path, monkeypatch):
    # Base solves (flat start) converge; every warm solve of a control step
    # reports divergence, so each episode ends on its first step.
    ck = checkpoint_of_fresh_agent(tmp_path)
    out = generate_snapshots(spec_for(tmp_path, n=4))
    solve = environment.solve_newton_raphson
    steps = []

    def warm_solves_diverge(case, start=None, opts=SolverOptions(), *, grid=None):
        sol = solve(case, start, opts, grid=grid)
        if opts.flat_start:
            return sol
        steps.append(case)
        return replace(sol, converged=False)

    monkeypatch.setattr(environment, "solve_newton_raphson", warm_solves_diverge)
    report = evaluate(ck, out)
    assert len(steps) == report.n_snapshots == 4
    assert report.valid_control_fraction == 0
    assert report.reduced_fraction == report.non_degrading_fraction == 0
    assert report.mean_loss_reduction_pct == 0
    assert report.violations_resolved == report.violations_mitigated == 0
    assert report.skipped_snapshots == 0


def test_evaluate_when_the_jacobian_turns_singular_mid_episode(tmp_path, monkeypatch):
    patched = singular_jacobian_from_second_step(monkeypatch)
    ck = checkpoint_of_fresh_agent(tmp_path)
    report = evaluate(ck, generate_snapshots(spec_for(tmp_path, n=4)))
    # Each episode's second step meets one singular Jacobian and diverges.
    assert patched["singular"] == report.n_snapshots == 4
    assert report.skipped_snapshots == 0
    assert report.valid_control_fraction == 0
    assert report.mean_episode_reward <= -100.0


# --- registry ------------------------------------------------------------------------

def test_registry_keeps_all_entries(tmp_path):
    reg = ModelRegistry(tmp_path / "reg")
    reg.add(fake_result("one", 0.5))
    reg.add(fake_result("two", 0.9))
    reg.set_best("two")
    # reload from disk
    again = ModelRegistry(tmp_path / "reg")
    assert [e.run_id for e in again.entries()] == ["one", "two"]
    assert again.best().run_id == "two"
    with pytest.raises(ValueError):
        again.add(fake_result("two", 0.1))
    with pytest.raises(ValueError):
        again.set_best("nope")


def test_registry_requires_best(tmp_path):
    reg = ModelRegistry(tmp_path / "reg")
    with pytest.raises(ValueError):
        reg.best()


def test_failed_registry_write_keeps_the_old_best(tmp_path, monkeypatch):
    reg = ModelRegistry(tmp_path / "reg")
    reg.add(fake_result("one", 0.5))
    reg.add(fake_result("two", 0.9))
    reg.set_best("one")

    def crash(src, dst):
        raise OSError("crash before rename")

    monkeypatch.setattr(os, "replace", crash)
    with pytest.raises(OSError):
        reg.set_best("two")
    monkeypatch.undo()
    assert ModelRegistry(tmp_path / "reg").best().run_id == "one"
    assert [p.name for p in (tmp_path / "reg").iterdir()] == ["registry.json"]


# --- periodic retraining -----------------------------------------------------------------

def seeded_registry(tmp_path, snap_dir, solved_metric):
    """Registry with one real checkpoint whose stored metric we control."""
    agent = SacAgent.create(12, 2, micro_sac())
    ck = tmp_path / "base" / "final.json"
    save_checkpoint(ck, agent, None)
    reg = ModelRegistry(tmp_path / "registry")
    reg.add(replace(fake_result("base", solved_metric), checkpoint_path=str(ck)))
    reg.set_best("base")
    return reg


def stub_evaluate(monkeypatch, reg, incumbent, challenger):
    """``harness.evaluate`` keyed by checkpoint: the registry's best model
    scores ``incumbent``, its first retrain scores ``challenger``."""
    reports = {reg.best().checkpoint_path: incumbent,
               str(reg.root / "base-retrain01" / "checkpoints" / "final.json"): challenger}
    monkeypatch.setattr(harness, "evaluate", lambda ck, snapshots: reports[str(ck)])


def test_retrain_zero_episodes_same_metric_keeps_best(tmp_path):
    out = generate_snapshots(spec_for(tmp_path, n=8))
    reg = ModelRegistry(tmp_path / "registry")
    agent = SacAgent.create(12, 2, micro_sac(n_episodes=8))
    ck = tmp_path / "base" / "final.json"
    save_checkpoint(ck, agent, None)
    first_report = evaluate(ck, out)  # what a fresh evaluation would say
    base = RegistryEntry(run_id="base", checkpoint_path=str(ck), metrics_path="m",
                         report=first_report)
    reg.add(base)
    reg.set_best("base")
    best = periodic_retrain(reg, out, sac_overrides={"n_episodes": 0})
    # zero episodes, identical snapshots: metric ties, pointer stays
    assert best.run_id == "base"
    assert ModelRegistry(tmp_path / "registry").best().run_id == "base"
    # but the retrain attempt itself was archived with its checkpoint
    assert len(reg.entries()) == 2


@pytest.mark.parametrize("stored_solved", [-1.0, 1.0])
def test_retrain_without_training_never_moves_best(tmp_path, stored_solved):
    # both models are scored afresh on the same split, so the stored report
    # of the incumbent cannot decide; identical models tie and the incumbent stays
    out = generate_snapshots(spec_for(tmp_path, n=8))
    reg = seeded_registry(tmp_path, out, solved_metric=stored_solved)
    best = periodic_retrain(reg, out, sac_overrides={"n_episodes": 0})
    assert best.run_id == "base"
    again = ModelRegistry(reg.root)
    assert again.best().run_id == "base"
    assert again.best().report == fake_report(stored_solved)  # never rewritten
    assert [e.run_id for e in again.entries()] == ["base", "base-retrain01"]


def test_retrain_improving_moves_best(tmp_path, monkeypatch):
    out = generate_snapshots(spec_for(tmp_path, n=8))
    reg = seeded_registry(tmp_path, out, solved_metric=1.0)  # stale stored score
    stub_evaluate(monkeypatch, reg, incumbent=fake_report(0.2), challenger=fake_report(0.8))
    best = periodic_retrain(reg, out, sac_overrides={"n_episodes": 0})
    assert best.run_id == "base-retrain01"
    assert ModelRegistry(reg.root).best().run_id == "base-retrain01"


def test_retrain_ranks_by_the_registry_metric(tmp_path, monkeypatch):
    out = generate_snapshots(spec_for(tmp_path, n=8))
    reg = seeded_registry(tmp_path, out, solved_metric=0.5)
    reg.selection_metric = SelectionMetric.MEAN_TEST_REWARD
    # the challenger solves more but earns less reward
    stub_evaluate(monkeypatch, reg, incumbent=fake_report(0.2, reward=5.0),
                  challenger=fake_report(0.9, reward=1.0))
    best = periodic_retrain(ModelRegistry(reg.root), out, sac_overrides={"n_episodes": 0})
    assert best.run_id == "base"
    assert ModelRegistry(reg.root).best().run_id == "base"


def test_registry_without_selection_metric_ranks_by_solved_fraction(tmp_path, monkeypatch):
    out = generate_snapshots(spec_for(tmp_path, n=8))
    reg = seeded_registry(tmp_path, out, solved_metric=0.5)
    assert "selection_metric" not in json.loads((reg.root / "registry.json").read_text())
    assert ModelRegistry(reg.root).selection_metric is SelectionMetric.SOLVED_FRACTION
    stub_evaluate(monkeypatch, reg, incumbent=fake_report(0.2, reward=5.0),
                  challenger=fake_report(0.9, reward=1.0))
    best = periodic_retrain(reg.root, out, sac_overrides={"n_episodes": 0})
    assert best.run_id == "base-retrain01"


def test_retrain_override_with_unknown_key_is_refused(tmp_path):
    out = generate_snapshots(spec_for(tmp_path, n=8))
    reg = seeded_registry(tmp_path, out, solved_metric=0.5)
    with pytest.raises(ValueError, match="entropy_cap"):
        periodic_retrain(reg, out, sac_overrides={"entropy_cap": 0.1})


def test_retrain_degrading_keeps_best(tmp_path):
    out = generate_snapshots(spec_for(tmp_path, n=8))
    reg = seeded_registry(tmp_path, out, solved_metric=1.0)  # stored metric perfect
    best = periodic_retrain(reg, out, sac_overrides={"n_episodes": 0})
    assert best.run_id == "base"
    assert len(reg.entries()) == 2  # superseded attempt still on disk


def test_retrain_dimension_mismatch(tmp_path):
    out14 = generate_snapshots(spec_for(tmp_path, case=CASE14, n=4))
    reg = seeded_registry(tmp_path, out14, solved_metric=0.5)  # 3-bus checkpoint
    with pytest.raises(ValueError, match="dimensions .* do not match"):
        periodic_retrain(reg, out14)
    assert not list(reg.root.glob("*-retrain*"))
    assert [e.run_id for e in ModelRegistry(reg.root).entries()] == ["base"]
