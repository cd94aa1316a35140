"""The benchmark's three workloads on case14.

Each workload is a closed loop in one process: one agent, no worker pool,
and the next input starts only when the previous one has finished. A
workload is set up from the seed (inputs are generated, written and loaded),
then repeats one fixed unit of work (a ``rep``) until the run's time is up.
Reps within a run do identical work, piece by piece (a training step, an
episode, a snapshot written or read), so the spread between the reps of one
piece is timing noise only. Checks run between reps, outside the timed
region.
"""

from __future__ import annotations

import copy
import csv
import hashlib
import math
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import gridsac.environment as environment
import gridsac.harness as harness
import gridsac.sac as sac
from checks import finite, power_balance_errors
from gridsac.environment import DoneReason, SnapshotStreamExhausted
# Bound at import, before any tracing patch, so checks are never traced.
from gridsac.sac import load_checkpoint
from spans import Patches, perf_counter

HERE = Path(__file__).resolve().parent
CASE14 = HERE.parent / "src" / "gridsac" / "cases" / "case14.json"
CHECKPOINT = HERE / "data" / "control_case14.json"
CHECKPOINT_SHA256 = HERE / "data" / "control_case14.json.sha256"
# Snapshot seed the committed checkpoint was trained on (make_checkpoint.py);
# held-out control snapshots never use it.
CHECKPOINT_TRAIN_SEED = 1414


@dataclass(frozen=True)
class Sizes:
    train_snapshots: int
    train_batch: int
    train_start_steps: int
    control_snapshots: int
    generated_snapshots: int
    setup_repeats: int


# The full size puts one to four seconds of work in each rep, so a 50 s run
# repeats every piece 14 to 60 times; the smoke size only exercises every
# code path.
# Control keeps 400 snapshots for at least 1000 iterations. Training updates
# start at episode ``train_batch``, so the 64 training episodes of
# ``train_snapshots=40`` (an 0.8 train split, two epochs) are half without
# and half with updates.
FULL = Sizes(train_snapshots=40, train_batch=32, train_start_steps=200,
             control_snapshots=400, generated_snapshots=200, setup_repeats=3)
SMOKE = Sizes(train_snapshots=40, train_batch=32, train_start_steps=64,
              control_snapshots=12, generated_snapshots=6, setup_repeats=1)


def derive_seed(seed: int, purpose: str) -> int:
    """Independent 32-bit seed per purpose from the run's seed."""
    tag = int.from_bytes(hashlib.sha256(purpose.encode()).digest()[:4], "little")
    return int(np.random.SeedSequence([seed, tag]).generate_state(1)[0])


@dataclass
class Rep:
    """One repetition of a workload's unit of work.

    ``intervals`` split the timed work behind ``units`` into consecutive
    pieces, ``aux_intervals`` that behind ``aux_units``; piece ``i`` and
    latency ``i`` do the same work in every rep of a run.
    """

    window: tuple[float, float]         # start and end of the rep's timed work
    units: int                          # primary units done
    intervals: np.ndarray               # seconds
    aux_units: int                      # secondary units done
    aux_intervals: np.ndarray           # seconds
    latencies_s: np.ndarray
    success_fraction: float
    attempted: int
    errors: list[str] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return self.window[1] - self.window[0]


class Workload:
    name = ""
    # Spans of the calls a rep times as a whole; left out of the coverage
    # behind ``harness.unattributed_frac``.
    entry_spans: tuple[str, ...] = ()

    def __init__(self, seed: int, sizes: Sizes, workdir: Path):
        self.seed = seed
        self.sizes = sizes
        self.workdir = workdir

    def setup(self) -> None:
        raise NotImplementedError

    def rep(self, k: int, tracer=None) -> Rep:
        """Rep ``k``; a traced rep passes its tracer to mark group ends."""
        raise NotImplementedError

    def final_checks(self) -> list[str]:
        """Checks that need every rep done; run untraced."""
        return []


def _fresh(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    return path


# --- train-case14 ------------------------------------------------------------

class TrainWorkload(Workload):
    """One seeded ``harness.run_single`` on synthetic case14 snapshots.

    With ``updates_per_step=2`` and ``start_steps`` below the run's step
    count, the run has a random-action phase and a policy phase, so SAC
    updates do about half of the work and random actions drive the power
    flow into many Q-limit re-solves.
    """

    name = "train-case14"
    entry_spans = ("harness.run_single",)
    SAMPLE_EVERY = 8      # env steps between solutions kept for the balance check

    def setup(self) -> None:
        self.snap_dir = _fresh(self.workdir / "train_snapshots")
        harness.generate_snapshots(harness.SnapshotGenSpec(
            base_case_path=str(CASE14), output_dir=str(self.snap_dir),
            n_snapshots=self.sizes.train_snapshots,
            seed=derive_seed(self.seed, "train-snapshots")))
        self.config = sac.SacConfig(
            batch_size=self.sizes.train_batch, n_epochs=2, updates_per_step=2,
            start_steps=self.sizes.train_start_steps,
            random_seed=derive_seed(self.seed, "train-sac"))
        self.first_metrics: str | None = None

    def rep(self, k: int, tracer=None) -> Rep:
        steps: list[tuple[float, float]] = []
        converged = [0]
        train_span: list[float] = []
        updates = [0]
        samples = []

        def time_step(fn):
            def step(env, action):
                t0 = perf_counter()
                result = fn(env, action)
                steps.append((t0, perf_counter()))
                if math.isfinite(result.info["p_loss"]):
                    converged[0] += 1
                    if len(steps) % self.SAMPLE_EVERY == 0:
                        samples.append((env._current_case, env._current_solution))
                return result
            return step

        def time_train(fn):
            def train(*args, **kwargs):
                train_span.append(perf_counter())
                try:
                    return fn(*args, **kwargs)
                finally:
                    train_span.append(perf_counter())
            return train

        def count_update(fn):
            def update(agent, buffer):
                updates[0] += 1
                return fn(agent, buffer)
            return update

        run = harness.RunConfig(run_id=f"rep{k}", sac=self.config, case_path=str(CASE14),
                                snapshot_dir=str(self.snap_dir),
                                seed=derive_seed(self.seed, "train-split"))
        out = _fresh(self.workdir / "runs")
        errors: list[str] = []
        result = None
        with Patches() as p:
            p.replace(environment.GridControlEnv, "step", time_step)
            p.replace(harness, "train", time_train)
            p.replace(sac.SacAgent, "update", count_update)
            t0 = perf_counter()
            try:
                result = harness.run_single(run, out)
            except Exception as exc:          # counted as a failure, run goes on
                errors.append(f"run_single raised {exc!r}")
            t1 = perf_counter()
        if result is not None:
            self._check(result, samples, errors)
        shutil.rmtree(out, ignore_errors=True)
        # One piece per training step, from the start of its env step to the
        # start of the next (its replay insert and updates included), within
        # the wall time of the sac.train call.
        train_start, train_end = train_span if len(train_span) == 2 else (t0, t1)
        intervals = np.diff([train_start, *(a for a, _ in steps), train_end])
        return Rep(window=(t0, t1), units=len(steps), intervals=intervals,
                   aux_units=updates[0], aux_intervals=intervals,
                   latencies_s=np.array([b - a for a, b in steps]),
                   success_fraction=converged[0] / max(len(steps), 1),
                   attempted=max(len(steps), 1),
                   errors=errors)

    def _check(self, result, samples, errors: list[str]) -> None:
        """Append what is wrong with a finished run to ``errors``."""
        metrics_text = Path(result.metrics_path).read_text()
        rows = list(csv.DictReader(metrics_text.splitlines()))
        if not rows or not all(finite(float(r["reward"])) for r in rows):
            errors.append("metrics.csv is empty or has a non-finite reward")
        # Reps repeat one seeded run, so they must log identical metrics.
        if self.first_metrics is None:
            self.first_metrics = metrics_text
        elif metrics_text != self.first_metrics:
            errors.append("metrics.csv differs between identical seeded reps")
        agent, normalizer = load_checkpoint(result.checkpoint_path)
        nets = (agent.policy, agent.q1, agent.q2, agent.q1_target, agent.q2_target)
        if not finite(*[w for n in nets for w in n.weights + n.biases],
                      normalizer.mean, normalizer.scale, agent.log_alpha):
            errors.append("final checkpoint has non-finite parameters")
        report = result.report
        if not finite(report.valid_control_fraction, report.mean_episode_reward,
                      report.mean_loss_reduction_pct):
            errors.append("evaluation report has non-finite values")
        for case, sol in samples:
            errors += power_balance_errors(case, sol)


# --- control-case14 ----------------------------------------------------------

class ControlWorkload(Workload):
    """The real-time loop: each held-out snapshot is one episode, each
    control iteration is ``select_action(DETERMINISTIC)`` then
    ``GridControlEnv.step``, under the committed checkpoint. One rep is one
    pass over every snapshot; reps replay the same trajectories, each on
    fresh copies of the loaded snapshots, so no pass finds the per-case
    caches of an earlier one warm.
    """

    name = "control-case14"
    SAMPLE_EVERY = 4      # iterations between solutions kept for the balance check

    def setup(self) -> None:
        digest = hashlib.sha256(CHECKPOINT.read_bytes()).hexdigest()
        if digest != CHECKPOINT_SHA256.read_text().split()[0]:
            raise RuntimeError(f"{CHECKPOINT.name}: sha256 {digest} does not match "
                               f"{CHECKPOINT_SHA256.name}")
        self.agent, self.normalizer = sac.load_checkpoint(CHECKPOINT)
        snap_seed = derive_seed(self.seed, "control-snapshots")
        if snap_seed == CHECKPOINT_TRAIN_SEED:
            snap_seed += 1
        self.snap_dir = _fresh(self.workdir / "control_snapshots")
        harness.generate_snapshots(harness.SnapshotGenSpec(
            base_case_path=str(CASE14), output_dir=str(self.snap_dir),
            n_snapshots=self.sizes.control_snapshots, seed=snap_seed))
        # Only ever copied: each pass gets the snapshots as loaded.
        self.loaded = harness.load_snapshots(self.snap_dir)
        self.reasons: list[str] | None = None
        self.samples: list = []

    def rep(self, k: int, tracer=None) -> Rep:
        agent, max_steps = self.agent, self.agent.config.max_episode_steps
        deterministic = sac.SelectMode.DETERMINISTIC
        keep = k == 0
        cases = copy.deepcopy(self.loaded)
        latencies: list[float] = []
        episode_ends: list[float] = []
        reasons: list[str] = []
        errors: list[str] = []
        attempted = 0
        t0 = perf_counter()
        env = environment.GridControlEnv(iter(cases), normalizer=self.normalizer,
                                         max_steps=max_steps)
        while True:
            try:
                state = env.reset()[0]
            except SnapshotStreamExhausted:
                break
            except Exception as exc:          # counted as a failure, pass ends
                errors.append(f"reset raised {exc!r}")
                break
            attempted += 1
            result = None
            for _ in range(max_steps):
                attempted += 1
                ti = perf_counter()
                try:
                    result = env.step(agent.select_action(state, deterministic))
                except Exception as exc:      # counted as a failure, loop goes on
                    errors.append(f"control iteration raised {exc!r}")
                    result = None
                    break
                latencies.append(perf_counter() - ti)
                if tracer is not None:
                    tracer.mark()
                if not finite(result.reward, result.next_state.values):
                    errors.append("non-finite reward or state")
                if (keep and len(latencies) % self.SAMPLE_EVERY == 0
                        and math.isfinite(result.info["p_loss"])):
                    self.samples.append((env._current_case, env._current_solution))
                state = result.next_state
                if result.done:
                    break
            reasons.append(result.done_reason.value if result is not None else "Error")
            episode_ends.append(perf_counter())
        t1 = perf_counter()
        if self.reasons is None:
            self.reasons, self.skipped = reasons, env.skipped_snapshots
        elif reasons != self.reasons:
            errors.append("a repeated pass took different trajectories")
        solved = reasons.count(DoneReason.SOLVED.value)
        # One piece per episode, its reset's cold base solve included; the
        # last piece also holds the reset that finds the stream exhausted.
        intervals = np.diff([t0, *episode_ends[:-1], t1])
        return Rep(window=(t0, t1), units=len(reasons), intervals=intervals,
                   aux_units=len(latencies), aux_intervals=intervals,
                   latencies_s=np.array(latencies),
                   success_fraction=solved / max(len(reasons), 1), attempted=attempted,
                   errors=errors)

    def final_checks(self) -> list[str]:
        errors = []
        for case, sol in self.samples:
            errors += power_balance_errors(case, sol)
        report = harness.evaluate(CHECKPOINT, self.snap_dir)
        solved = self.reasons.count(DoneReason.SOLVED.value) / len(self.reasons)
        if (report.valid_control_fraction != solved
                or report.n_snapshots != len(self.reasons)
                or report.skipped_snapshots != self.skipped):
            errors.append(f"harness.evaluate solved {report.valid_control_fraction} of "
                          f"{report.n_snapshots}; the control loop solved {solved} "
                          f"of {len(self.reasons)}")
        return errors


# --- snapshots-case14 --------------------------------------------------------

class SnapshotsWorkload(Workload):
    """``harness.generate_snapshots`` into a fresh directory, then
    ``harness.load_snapshots`` back: case validation, JSON serialize and
    parse, file writes beside reads, and cold flat-start solves on a new case
    every time, with no environment and no agent.
    """

    name = "snapshots-case14"
    entry_spans = ("harness.generate_snapshots", "harness.load_snapshots")

    def setup(self) -> None:
        self.spec_seed = derive_seed(self.seed, "generated-snapshots")

    def rep(self, k: int, tracer=None) -> Rep:
        saved: list = []
        saves: list[float] = []
        loads: list[float] = []
        draws = [0]

        def record_save(fn):
            def save_case(case, path):
                fn(case, path)
                saves.append(perf_counter())
                saved.append(case)
            return save_case

        def record_load(fn):
            def load_case(path):
                case = fn(path)
                loads.append(perf_counter())
                return case
            return load_case

        def count_solve(fn):
            def solve(*args, **kwargs):
                draws[0] += 1
                return fn(*args, **kwargs)
            return solve

        out = _fresh(self.workdir / f"generated_{k}")
        spec = harness.SnapshotGenSpec(
            base_case_path=str(CASE14), output_dir=str(out),
            n_snapshots=self.sizes.generated_snapshots, seed=self.spec_seed)
        n = spec.n_snapshots
        errors: list[str] = []
        with Patches() as p:
            p.replace(harness, "save_case", record_save)
            p.replace(harness, "load_case", record_load)
            p.replace(harness, "solve_newton_raphson", count_solve)
            t0 = perf_counter()
            try:
                harness.generate_snapshots(spec)
                t1 = perf_counter()
                n_base_loads = len(loads)
                loaded = harness.load_snapshots(out)
            except Exception as exc:          # counted as a failure, run goes on
                errors.append(f"generating or loading raised {exc!r}")
                t1, n_base_loads, loaded = perf_counter(), len(loads), []
            t2 = perf_counter()
        if loaded != saved:
            errors.append("reloaded snapshots differ from the ones written")
        if k == 0:
            for case in loaded:
                sol = harness.solve_newton_raphson(case)
                errors += (power_balance_errors(case, sol) if sol.converged
                           else ["a generated snapshot does not converge"])
        shutil.rmtree(out, ignore_errors=True)
        # One piece per snapshot written (its draws, solves and save), then
        # one per snapshot read back; each last piece holds the call's tail.
        written = np.diff([t0, *saves[:-1], t1])
        read = np.diff([t1, *loads[n_base_loads:-1], t2])
        return Rep(window=(t0, t2), units=len(saved), intervals=written,
                   aux_units=len(loaded), aux_intervals=read,
                   latencies_s=np.diff([t0, *saves]),
                   success_fraction=len(saved) / max(draws[0] - 1, 1),
                   attempted=2 * n, errors=errors)


WORKLOADS = {w.name: w for w in (TrainWorkload, ControlWorkload, SnapshotsWorkload)}
