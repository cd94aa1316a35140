"""Multi-run orchestration: synthetic snapshots, training campaigns with
best-model selection, evaluation reports, and periodic retraining.

Runs share nothing but the read-only case file and snapshot directory; each
writes its own metrics and checkpoints under the campaign output directory,
and a registry keeps every produced model with its evaluation report. A
campaign run and a retrain share one train -> evaluate -> report sequence
(``_train_and_report``) and one ranking rule (``_selection_key``, under the
selection metric the registry records); a retrain scores the incumbent and
its challenger on the same held-out split of the new snapshots.
"""

from __future__ import annotations

import enum
import json
import logging
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import MISSING, asdict, dataclass, field, fields, replace
from functools import partial
from pathlib import Path

import numpy as np

from .environment import (SUCCESS_LOSS_REDUCTION, DoneReason, GridControlEnv,
                          Normalizer, SnapshotStreamExhausted, extract_state,
                          fit_normalizer, state_dim)
from .grid_model import (V_SET_MAX, V_SET_MIN, CaseError, GridCase, load_case,
                         plant_setpoints, save_case, with_generation, with_loads,
                         with_plant_setpoints, write_text_atomic)
# perfbench traces harness.audit_violations by that name, so it stays
# importable here although evaluate reads the audit reset already made.
from .power_flow import (audit_violations, compile_grid,  # noqa: F401
                         solve_newton_raphson)
from .sac import (SacAgent, SacConfig, SelectMode, check_json_types,
                  load_checkpoint, train)

logger = logging.getLogger(__name__)

__all__ = [
    "SnapshotGenSpec",
    "RunConfig",
    "CampaignConfig",
    "SelectionMetric",
    "EvaluationReport",
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
    "config_from_file",
]


class CampaignError(Exception):
    """Nothing usable came out of a campaign (all runs failed)."""


class SelectionMetric(str, enum.Enum):
    MEAN_TEST_REWARD = "MeanTestReward"
    SOLVED_FRACTION = "SolvedFraction"


TRAIN_FRACTION = 0.8    # default share of the snapshots a run trains on


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
    case_path: str
    snapshot_dir: str
    sac: SacConfig = field(default_factory=SacConfig)
    train_fraction: float = TRAIN_FRACTION
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
    setpoints = {pid: float(np.clip(nominal + rng.uniform(-spec.setpoint_jitter,
                                                           spec.setpoint_jitter),
                                    V_SET_MIN, V_SET_MAX))
                 for pid, nominal in zip(base.plant_order, plant_setpoints(base))}
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
               test_paths: list[Path] | None = None) -> RegistryEntry:
    """Train one agent on the run's train split and evaluate it on the test
    split. Layout: <output_dir>/<run_id>/{metrics.csv, checkpoints/, report.json}."""
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
    agent = SacAgent.create(state_dim(first), len(first.plant_order), run.sac)
    return _train_and_report(agent, normalizer, train_cases, test_paths,
                             Path(output_dir) / run.run_id, run.run_id, run.seed)


def _train_and_report(agent: SacAgent, normalizer: Normalizer,
                      train_cases: list[GridCase], test_paths: list[Path],
                      out: Path, run_id: str, seed: int) -> RegistryEntry:
    """Train ``agent`` under its own config on a ``seed``-shuffled stream of
    ``train_cases``, evaluate the final checkpoint on ``test_paths`` and
    write ``<out>/report.json``."""
    config = agent.config
    stream = _training_stream(train_cases, config.n_epochs, seed)
    env = GridControlEnv(stream, normalizer=normalizer,
                         max_steps=config.max_episode_steps)
    train(agent, env, out)
    checkpoint = out / "checkpoints" / "final.json"
    report = evaluate(checkpoint, test_paths)
    write_text_atomic(out / "report.json", json.dumps(asdict(report), indent=2) + "\n")
    return RegistryEntry(run_id=run_id, checkpoint_path=str(checkpoint),
                         metrics_path=str(out / "metrics.csv"), report=report)


# --- evaluation ---------------------------------------------------------------

def evaluate(checkpoint_path: str | Path,
             snapshots: str | Path | list[Path] | list[GridCase]) -> EvaluationReport:
    """Run one deterministic-policy episode per snapshot, each until the env
    reports it done (the env's ``max_steps`` is the checkpoint's
    ``max_episode_steps``), and summarize.

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
        base_report = env.episode.base_report
        base_metric = base_report.delta_v_violation + base_report.delta_p_overflow
        ep_reward = 0.0
        while True:
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

def _selection_key(metric: SelectionMetric, entry: RegistryEntry):
    """Sort key of the best-model rule; the smallest key is the best model."""
    primary = (entry.report.valid_control_fraction
               if metric is SelectionMetric.SOLVED_FRACTION
               else entry.report.mean_episode_reward)
    # Higher metric, then higher loss reduction, then lexically lower run id.
    return (-primary, -entry.report.mean_loss_reduction_pct, entry.run_id)


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

    results: list[RegistryEntry] = []
    failures: dict[str, str] = {}
    if config.max_workers > 1:
        with ProcessPoolExecutor(max_workers=config.max_workers) as pool:
            futures = {run.run_id: pool.submit(run_single, run, out, train_paths, test_paths)
                       for run in config.runs}
        calls = [(run_id, fut.result) for run_id, fut in futures.items()]
    else:
        calls = [(run.run_id, partial(run_single, run, out, train_paths, test_paths))
                 for run in config.runs]
    for run_id, call in calls:
        try:
            results.append(call())
        except Exception as exc:
            failures[run_id] = repr(exc)
            logger.error("run %s failed: %r", run_id, exc)

    if not results:
        raise CampaignError(f"all runs failed: {failures}")

    results.sort(key=lambda r: _selection_key(config.selection_metric, r))
    registry = ModelRegistry(out / "registry")
    registry.selection_metric = config.selection_metric
    for r in results:
        registry.add(r)
    registry.set_best(results[0].run_id)
    return registry.best()


# --- registry ----------------------------------------------------------------

class ModelRegistry:
    """Directory-backed model index. Entries are only ever added; superseded
    checkpoints stay on disk with their reports. ``registry.json`` also
    records the selection metric that ranks its models."""

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._path = self.root / "registry.json"
        if self._path.exists():
            self._doc = json.loads(self._path.read_text())
        else:
            self._doc = {"best_run_id": None, "entries": []}

    def _save(self) -> None:
        write_text_atomic(self._path, json.dumps(self._doc, indent=2) + "\n")

    @property
    def selection_metric(self) -> SelectionMetric:
        """A registry written without one ranks by SolvedFraction."""
        return SelectionMetric(self._doc.get("selection_metric",
                                             SelectionMetric.SOLVED_FRACTION.value))

    @selection_metric.setter
    def selection_metric(self, metric: SelectionMetric) -> None:
        self._doc["selection_metric"] = SelectionMetric(metric).value
        self._save()

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
    snapshots. Incumbent and challenger are both scored on the same held-out
    split of those snapshots and ranked by the registry's selection metric;
    the best pointer moves only if the challenger ranks first. The rescored
    incumbent is not written back.
    """
    if not isinstance(registry, ModelRegistry):
        registry = ModelRegistry(registry)
    best = registry.best()
    agent, normalizer = load_checkpoint(best.checkpoint_path)
    if sac_overrides:
        agent.config = SacConfig.from_dict({**asdict(agent.config), **sac_overrides})
    seed = agent.config.random_seed
    train_paths, test_paths = split_snapshots(
        snapshot_paths(new_snapshot_dir), TRAIN_FRACTION, seed)
    incumbent = replace(best, report=evaluate(best.checkpoint_path, test_paths))

    retrain_index = sum(1 for e in registry.entries()
                        if e.run_id.startswith(best.run_id + "-retrain")) + 1
    run_id = f"{best.run_id}-retrain{retrain_index:02d}"
    challenger = _train_and_report(agent, normalizer,
                                   [load_case(p) for p in train_paths], test_paths,
                                   registry.root / run_id, run_id, seed)
    registry.add(challenger)
    # On a full tie the incumbent sorts first: its run id prefixes the challenger's.
    if min(incumbent, challenger,
           key=lambda e: _selection_key(registry.selection_metric, e)) is challenger:
        registry.set_best(run_id)
    return registry.best()


# --- config file I/O -----------------------------------------------------------

def config_from_file(cls, path: str | Path):
    """A :class:`RunConfig`, :class:`CampaignConfig` or :class:`SnapshotGenSpec`
    from the JSON object in the file at ``path``, whose keys are the field
    names. A field with a default may be left out; an unknown key or a
    missing field without a default is refused with ``ValueError`` naming it."""
    return _config(cls, json.loads(Path(path).read_text()))


# How a config field is built from its JSON value, where it is not the value.
_FIELD_FROM_JSON = {
    "sac": SacConfig.from_dict,
    "runs": lambda docs: [_config(RunConfig, doc) for doc in docs],
    "selection_metric": SelectionMetric,
}


def _config(cls, doc):
    if not isinstance(doc, dict):
        raise ValueError(f"{cls.__name__} must be a JSON object")
    unknown = sorted(doc.keys() - {f.name for f in fields(cls)})
    if unknown:
        raise ValueError(f"unknown {cls.__name__} keys: {', '.join(unknown)}")
    missing = [f.name for f in fields(cls) if f.name not in doc
               and f.default is MISSING and f.default_factory is MISSING]
    if missing:
        raise ValueError(f"missing {cls.__name__} keys: {', '.join(missing)}")
    check_json_types(cls, doc)
    return cls(**{key: _FIELD_FROM_JSON.get(key, lambda v: v)(value)
                  for key, value in doc.items()})
