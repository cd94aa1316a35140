"""Multi-run orchestration: synthetic snapshots, training campaigns with
best-model selection, evaluation reports, and periodic retraining.

Runs share nothing but the read-only case file and snapshot directory; each
writes its own metrics and checkpoints under the campaign output directory,
and a registry keeps every produced model with its evaluation report.
"""

from __future__ import annotations

import enum
import json
import logging
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .environment import (SUCCESS_LOSS_REDUCTION, DoneReason, GridControlEnv,
                          Normalizer, SnapshotStreamExhausted, extract_state,
                          fit_normalizer, state_dim)
from .grid_model import (CaseError, GridCase, load_case, save_case,
                         with_generation, with_loads, with_plant_setpoints)
from .power_flow import audit_violations, compile_grid, solve_newton_raphson
from .sac import (RunLog, SacAgent, SacConfig, SelectMode, load_checkpoint,
                  train)

logger = logging.getLogger(__name__)

__all__ = [
    "SnapshotGenSpec",
    "RunConfig",
    "CampaignConfig",
    "SelectionMetric",
    "EvaluationReport",
    "RunResult",
    "RegistryEntry",
    "ModelRegistry",
    "CampaignError",
    "generate_snapshots",
    "snapshot_paths",
    "load_snapshots",
    "split_snapshots",
    "run_single",
    "run_campaign",
    "evaluate",
    "periodic_retrain",
]


class CampaignError(Exception):
    """Nothing usable came out of a campaign (all runs failed)."""


class SelectionMetric(str, enum.Enum):
    MEAN_TEST_REWARD = "MeanTestReward"
    SOLVED_FRACTION = "SolvedFraction"


@dataclass
class SnapshotGenSpec:
    """Synthetic stand-in for a live snapshot feed: load scaling plus
    setpoint jitter around a base case."""

    base_case_path: str
    output_dir: str
    n_snapshots: int
    load_scale_low: float = 0.8
    load_scale_high: float = 1.2
    per_load_scaling: bool = True
    setpoint_jitter: float = 0.02
    seed: int = 0
    retries_per_snapshot: int = 20

    def __post_init__(self):
        if not (0 < self.load_scale_low <= self.load_scale_high):
            raise ValueError("need 0 < load_scale_low <= load_scale_high")
        if self.setpoint_jitter < 0:
            raise ValueError("setpoint_jitter must be >= 0")
        if self.n_snapshots < 1:
            raise ValueError("n_snapshots must be positive")


@dataclass
class RunConfig:
    run_id: str
    sac: SacConfig
    case_path: str
    snapshot_dir: str
    train_fraction: float = 0.8
    seed: int = 0

    def __post_init__(self):
        if not (0.0 < self.train_fraction < 1.0):
            raise ValueError("train_fraction must be in (0, 1)")


@dataclass
class CampaignConfig:
    runs: list[RunConfig]
    output_dir: str
    selection_metric: SelectionMetric = SelectionMetric.SOLVED_FRACTION
    split_seed: int = 0
    max_workers: int = 1

    def __post_init__(self):
        if not self.runs:
            raise ValueError("campaign needs at least one run")
        ids = [r.run_id for r in self.runs]
        if len(set(ids)) != len(ids):
            raise ValueError("run_id values must be unique within a campaign")
        fractions = {r.train_fraction for r in self.runs}
        if len(fractions) != 1:
            raise ValueError("all runs must share the train fraction (shared test split)")


@dataclass
class EvaluationReport:
    """Deterministic-policy performance over a snapshot set.

    Latency covers the policy forward pass plus the action mapping only, not
    the power-flow solve.
    """

    n_snapshots: int
    valid_control_fraction: float
    reduced_fraction: float          # episodes ending with >= 0.5% loss reduction
    non_degrading_fraction: float
    mean_loss_reduction_pct: float
    mean_episode_reward: float
    violation_snapshots: int
    violations_resolved: int
    violations_mitigated: int
    mean_latency_s: float
    max_latency_s: float
    p95_latency_s: float
    skipped_snapshots: int = 0


@dataclass
class RunResult:
    run_id: str
    checkpoint_path: str
    metrics_path: str
    report: EvaluationReport


@dataclass
class RegistryEntry:
    run_id: str
    checkpoint_path: str
    metrics_path: str
    report: EvaluationReport


# --- snapshot generation -----------------------------------------------------

def generate_snapshots(spec: SnapshotGenSpec) -> Path:
    """Write ``n_snapshots`` solvable case files derived from the base case.

    Every load is scaled (independently or by one global factor), total
    generation is rescaled proportionally with the slack absorbing the
    residual, and each plant's voltage setpoint is jittered. Snapshots whose
    power flow fails to converge are discarded and redrawn up to the retry
    budget. Deterministic for a fixed seed.
    """
    base = load_case(spec.base_case_path)
    base_sol = solve_newton_raphson(base)
    if not base_sol.converged:
        raise CaseError("base case power flow does not converge")
    out_dir = Path(spec.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(spec.seed)
    width = max(5, len(str(spec.n_snapshots)))
    paths = []
    for k in range(spec.n_snapshots):
        snap = None
        for _ in range(spec.retries_per_snapshot):
            candidate = _draw_snapshot(base, spec, rng)
            if solve_newton_raphson(candidate).converged:
                snap = candidate
                break
        if snap is None:
            raise CaseError(
                f"could not draw a convergent snapshot within "
                f"{spec.retries_per_snapshot} retries (index {k})")
        path = out_dir / f"snapshot_{k:0{width}d}.json"
        save_case(snap, path)
        paths.append(path)
    return out_dir


def _draw_snapshot(base: GridCase, spec: SnapshotGenSpec, rng: np.random.Generator) -> GridCase:
    if spec.per_load_scaling:
        factors = {b.id: rng.uniform(spec.load_scale_low, spec.load_scale_high)
                   for b in base.buses}
    else:
        f = rng.uniform(spec.load_scale_low, spec.load_scale_high)
        factors = {b.id: f for b in base.buses}
    p_load = {b.id: b.p_load * factors[b.id] for b in base.buses}
    q_load = {b.id: b.q_load * factors[b.id] for b in base.buses}
    total_before = sum(b.p_load for b in base.buses)
    total_after = sum(p_load.values())
    ratio = total_after / total_before if total_before > 0 else 1.0
    p_gen = {g.id: float(np.clip(g.p_gen * ratio, g.p_min, g.p_max))
             for g in base.generators}
    setpoints = {}
    for pid in base.plant_order:
        gens = [base.generator_by_id[gid] for gid in base.plant_by_id[pid].generators]
        nominal = float(np.mean([g.v_set for g in gens]))
        setpoints[pid] = float(np.clip(
            nominal + rng.uniform(-spec.setpoint_jitter, spec.setpoint_jitter), 0.9, 1.1))
    case = with_loads(base, p_load, q_load)
    case = with_generation(case, p_gen)
    return with_plant_setpoints(case, setpoints)


def snapshot_paths(snapshot_dir: str | Path) -> list[Path]:
    """Case files of a snapshot directory in lexicographic (time-series) order."""
    paths = sorted(Path(snapshot_dir).glob("*.json"))
    if not paths:
        raise CaseError(f"no snapshot files in {snapshot_dir}")
    return paths


def load_snapshots(snapshot_dir: str | Path) -> list[GridCase]:
    return [load_case(p) for p in snapshot_paths(snapshot_dir)]


def split_snapshots(paths: list[Path], train_fraction: float,
                    seed: int) -> tuple[list[Path], list[Path]]:
    """Shuffled, disjoint, exhaustive train/test split of unique snapshots.

    The split happens before any replication, so no test snapshot can ever
    reach a replay buffer.
    """
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(paths))
    n_train = int(round(train_fraction * len(paths)))
    n_train = min(max(n_train, 1), len(paths) - 1)
    train = [paths[i] for i in order[:n_train]]
    test = [paths[i] for i in order[n_train:]]
    return train, test


def _training_stream(cases: list[GridCase], n_epochs: int, seed: int) -> list[GridCase]:
    """Replicated training episodes: each epoch is an independent shuffle."""
    stream: list[GridCase] = []
    rng = np.random.default_rng(seed)
    for _ in range(n_epochs):
        stream.extend(cases[i] for i in rng.permutation(len(cases)))
    return stream


# --- single run --------------------------------------------------------------

NORMALIZER_SAMPLE = 128


def _fit_run_normalizer(cases: list[GridCase]) -> Normalizer:
    states = []
    for case in cases[:NORMALIZER_SAMPLE]:
        grid = compile_grid(case)
        sol = solve_newton_raphson(case, grid=grid)
        if sol.converged:
            states.append(extract_state(case, sol, grid=grid))
    if len(states) < 2:
        raise CaseError("not enough solvable snapshots to fit the normalizer")
    return fit_normalizer(states)


def run_single(run: RunConfig, output_dir: str | Path,
               train_paths: list[Path] | None = None,
               test_paths: list[Path] | None = None) -> RunResult:
    """Train one agent on the run's train split and evaluate it on the test
    split. Layout: <output_dir>/<run_id>/{metrics.csv, checkpoints/}."""
    out = Path(output_dir) / run.run_id
    out.mkdir(parents=True, exist_ok=True)
    if train_paths is None or test_paths is None:
        train_paths, test_paths = split_snapshots(
            snapshot_paths(run.snapshot_dir), run.train_fraction, run.seed)

    train_cases = [load_case(p) for p in train_paths]
    base_case = load_case(run.case_path)
    first = train_cases[0]
    if (base_case.monitored_buses != first.monitored_buses
            or base_case.monitored_branches != first.monitored_branches
            or base_case.plant_order != first.plant_order):
        raise CaseError(
            f"run {run.run_id}: snapshots in {run.snapshot_dir} do not match "
            f"the grid described by {run.case_path}")
    normalizer = _fit_run_normalizer(train_cases)
    stream = _training_stream(train_cases, run.sac.n_epochs, run.seed)
    env = GridControlEnv(stream, normalizer=normalizer,
                         max_steps=run.sac.max_episode_steps)

    agent = SacAgent.create(state_dim(first), len(first.plant_order), run.sac)

    run_log = RunLog(metrics_path=out / "metrics.csv",
                     checkpoint_dir=out / "checkpoints")
    train(agent, env, run.sac, run_log, normalizer=normalizer)
    checkpoint = out / "checkpoints" / "final.json"
    report = evaluate(checkpoint, test_paths)
    (out / "report.json").write_text(json.dumps(asdict(report), indent=2) + "\n")
    return RunResult(run_id=run.run_id, checkpoint_path=str(checkpoint),
                     metrics_path=str(out / "metrics.csv"), report=report)


# --- evaluation ---------------------------------------------------------------

def evaluate(checkpoint_path: str | Path,
             snapshots: str | Path | list[Path] | list[GridCase]) -> EvaluationReport:
    """Run one deterministic-policy episode per snapshot and summarize.

    Snapshots whose base power flow does not converge are skipped and counted.
    Raises on an empty snapshot set or a checkpoint whose dimensions do not
    match the cases.
    """
    agent, normalizer = load_checkpoint(checkpoint_path)
    if isinstance(snapshots, (str, Path)):
        cases = load_snapshots(snapshots)
    else:
        cases = [c if isinstance(c, GridCase) else load_case(c) for c in snapshots]
    if not cases:
        raise ValueError("empty snapshot set")

    first = cases[0]
    dim = state_dim(first)
    if dim != agent.state_dim or len(first.plant_order) != agent.action_dim:
        raise ValueError(
            f"checkpoint dimensions (state {agent.state_dim}, action {agent.action_dim}) "
            f"do not match case (state {dim}, action {len(first.plant_order)})")

    env = GridControlEnv(iter(cases), normalizer=normalizer,
                         max_steps=agent.config.max_episode_steps)
    latencies: list[float] = []
    solved = 0
    reduced = 0
    non_degrading = 0
    rewards: list[float] = []
    reductions: list[float] = []
    base_violating = 0
    resolved = 0
    mitigated = 0
    evaluated = 0

    while True:
        try:
            state, _, _, _, _ = env.reset()
        except SnapshotStreamExhausted:
            break
        evaluated += 1
        episode = env.episode
        base_report = audit_violations(episode.case, episode.base_solution,
                                       grid=episode.grid)
        base_metric = base_report.delta_v_violation + base_report.delta_p_overflow
        ep_reward = 0.0
        result = None
        for _ in range(env.max_steps):
            t0 = time.perf_counter()
            action = agent.select_action(state, SelectMode.DETERMINISTIC)
            latencies.append(time.perf_counter() - t0)
            result = env.step(action)
            ep_reward += result.reward
            state = result.next_state
            if result.done:
                break
        rewards.append(ep_reward)
        final_report = result.info["violations"]
        delta = result.info["delta_p_loss_frac"]
        is_solved = result.done_reason is DoneReason.SOLVED
        solved += is_solved
        if np.isfinite(delta):
            reductions.append(-delta * 100.0)
            if delta <= -SUCCESS_LOSS_REDUCTION:
                reduced += 1
        else:
            reductions.append(0.0)
        if final_report is not None:
            final_metric = final_report.delta_v_violation + final_report.delta_p_overflow
            if final_metric <= base_metric and np.isfinite(delta) and delta <= 0:
                non_degrading += 1
            if base_report.any:
                base_violating += 1
                if not final_report.any:
                    resolved += 1
                elif final_metric < base_metric:
                    mitigated += 1

    if evaluated == 0:
        raise ValueError("no solvable snapshots to evaluate")
    lat = np.array(latencies)
    return EvaluationReport(
        n_snapshots=evaluated,
        valid_control_fraction=solved / evaluated,
        reduced_fraction=reduced / evaluated,
        non_degrading_fraction=non_degrading / evaluated,
        mean_loss_reduction_pct=float(np.mean(reductions)),
        mean_episode_reward=float(np.mean(rewards)),
        violation_snapshots=base_violating,
        violations_resolved=resolved,
        violations_mitigated=mitigated,
        mean_latency_s=float(lat.mean()),
        max_latency_s=float(lat.max()),
        p95_latency_s=float(np.percentile(lat, 95)),
        skipped_snapshots=env.skipped_snapshots,
    )


# --- campaign ----------------------------------------------------------------

def _selection_key(metric: SelectionMetric, result: RunResult):
    primary = (result.report.valid_control_fraction
               if metric is SelectionMetric.SOLVED_FRACTION
               else result.report.mean_episode_reward)
    # Higher metric, then higher loss reduction, then lexically lower run id.
    return (-primary, -result.report.mean_loss_reduction_pct, result.run_id)


def _execute_run(run: RunConfig, output_dir: str,
                 train_paths: list[str], test_paths: list[str]) -> RunResult:
    return run_single(run, output_dir,
                      [Path(p) for p in train_paths],
                      [Path(p) for p in test_paths])


def run_campaign(config: CampaignConfig) -> RegistryEntry:
    """Train every configured run on the shared split, evaluate on the shared
    test set, and register the best model by the selection metric.

    A failed run is excluded with a logged cause; the campaign raises only if
    every run fails.
    """
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    try:
        paths = snapshot_paths(config.runs[0].snapshot_dir)
    except CaseError as exc:
        raise CampaignError(f"shared snapshot directory unusable: {exc}") from exc
    train_paths, test_paths = split_snapshots(
        paths, config.runs[0].train_fraction, config.split_seed)

    results: list[RunResult] = []
    failures: dict[str, str] = {}
    if config.max_workers > 1:
        with ProcessPoolExecutor(max_workers=config.max_workers) as pool:
            futures = {
                run.run_id: pool.submit(_execute_run, run, str(out),
                                        [str(p) for p in train_paths],
                                        [str(p) for p in test_paths])
                for run in config.runs
            }
            for run_id, fut in futures.items():
                try:
                    results.append(fut.result())
                except Exception as exc:
                    failures[run_id] = repr(exc)
                    logger.error("run %s failed: %r", run_id, exc)
    else:
        for run in config.runs:
            try:
                results.append(run_single(run, out, train_paths, test_paths))
            except Exception as exc:
                failures[run.run_id] = repr(exc)
                logger.error("run %s failed: %r", run.run_id, exc)

    if not results:
        raise CampaignError(f"all runs failed: {failures}")

    results.sort(key=lambda r: _selection_key(config.selection_metric, r))
    registry = ModelRegistry(out / "registry")
    for r in results:
        registry.add(RegistryEntry(run_id=r.run_id, checkpoint_path=r.checkpoint_path,
                                   metrics_path=r.metrics_path, report=r.report))
    best = results[0]
    registry.set_best(best.run_id)
    return registry.best()


# --- registry ----------------------------------------------------------------

class ModelRegistry:
    """Directory-backed model index. Entries are only ever added; superseded
    checkpoints stay on disk with their reports."""

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._path = self.root / "registry.json"
        if self._path.exists():
            self._doc = json.loads(self._path.read_text())
        else:
            self._doc = {"best_run_id": None, "entries": []}

    def _save(self) -> None:
        self._path.write_text(json.dumps(self._doc, indent=2) + "\n")

    def add(self, entry: RegistryEntry) -> None:
        if any(e["run_id"] == entry.run_id for e in self._doc["entries"]):
            raise ValueError(f"registry already has run_id {entry.run_id!r}")
        self._doc["entries"].append({
            "run_id": entry.run_id,
            "checkpoint_path": str(entry.checkpoint_path),
            "metrics_path": str(entry.metrics_path),
            "report": asdict(entry.report),
        })
        self._save()

    def set_best(self, run_id: str) -> None:
        if not any(e["run_id"] == run_id for e in self._doc["entries"]):
            raise ValueError(f"unknown run_id {run_id!r}")
        self._doc["best_run_id"] = run_id
        self._save()

    def entries(self) -> list[RegistryEntry]:
        return [self._entry(e) for e in self._doc["entries"]]

    def best(self) -> RegistryEntry:
        run_id = self._doc["best_run_id"]
        if run_id is None:
            raise ValueError("registry has no best model")
        doc = next(e for e in self._doc["entries"] if e["run_id"] == run_id)
        return self._entry(doc)

    @staticmethod
    def _entry(doc) -> RegistryEntry:
        return RegistryEntry(run_id=doc["run_id"],
                             checkpoint_path=doc["checkpoint_path"],
                             metrics_path=doc["metrics_path"],
                             report=EvaluationReport(**doc["report"]))


# --- periodic retraining -------------------------------------------------------

def periodic_retrain(registry: ModelRegistry | str | Path,
                     new_snapshot_dir: str | Path,
                     sac_overrides: dict | None = None) -> RegistryEntry:
    """Warm-start a new run from the registry's best checkpoint on fresh
    snapshots; the best pointer moves only if the selection metric improves.
    """
    if not isinstance(registry, ModelRegistry):
        registry = ModelRegistry(registry)
    best = registry.best()
    agent, normalizer = load_checkpoint(best.checkpoint_path)
    config = agent.config
    if sac_overrides:
        config = SacConfig(**{**asdict(config), **sac_overrides})
        agent.config = config

    paths = snapshot_paths(new_snapshot_dir)
    train_paths, test_paths = split_snapshots(paths, 0.8, config.random_seed)
    train_cases = [load_case(p) for p in train_paths]
    first = train_cases[0]
    if state_dim(first) != agent.state_dim or len(first.plant_order) != agent.action_dim:
        raise ValueError("checkpoint dimensions incompatible with the new snapshots")

    retrain_index = sum(1 for e in registry.entries()
                        if e.run_id.startswith(best.run_id + "-retrain")) + 1
    run_id = f"{best.run_id}-retrain{retrain_index:02d}"
    out = registry.root / run_id
    out.mkdir(parents=True, exist_ok=True)
    stream = _training_stream(train_cases, config.n_epochs, config.random_seed)
    env = GridControlEnv(stream, normalizer=normalizer,
                         max_steps=config.max_episode_steps)
    run_log = RunLog(metrics_path=out / "metrics.csv", checkpoint_dir=out / "checkpoints")
    train(agent, env, config, run_log, normalizer=normalizer)
    checkpoint = out / "checkpoints" / "final.json"
    report = evaluate(checkpoint, test_paths)
    (out / "report.json").write_text(json.dumps(asdict(report), indent=2) + "\n")
    entry = RegistryEntry(run_id=run_id, checkpoint_path=str(checkpoint),
                          metrics_path=str(out / "metrics.csv"), report=report)
    registry.add(entry)

    old_metric = best.report.valid_control_fraction
    new_metric = report.valid_control_fraction
    if new_metric > old_metric:
        registry.set_best(run_id)
        return entry
    return registry.best()


# --- config file I/O -----------------------------------------------------------

def run_config_from_file(path: str | Path) -> RunConfig:
    doc = json.loads(Path(path).read_text())
    return _run_config(doc)


def _run_config(doc: dict) -> RunConfig:
    sac = SacConfig.from_dict(doc.get("sac", {}))
    return RunConfig(run_id=doc["run_id"], sac=sac, case_path=doc["case_path"],
                     snapshot_dir=doc["snapshot_dir"],
                     train_fraction=doc.get("train_fraction", 0.8),
                     seed=doc.get("seed", 0))


def campaign_config_from_file(path: str | Path) -> CampaignConfig:
    doc = json.loads(Path(path).read_text())
    runs = [_run_config(r) for r in doc["runs"]]
    return CampaignConfig(
        runs=runs,
        output_dir=doc["output_dir"],
        selection_metric=SelectionMetric(doc.get("selection_metric", "SolvedFraction")),
        split_seed=doc.get("split_seed", 0),
        max_workers=doc.get("max_workers", 1),
    )


def snapshot_spec_from_file(path: str | Path) -> SnapshotGenSpec:
    doc = json.loads(Path(path).read_text())
    return SnapshotGenSpec(**doc)
