"""The control environment: snapshot episodes, states, actions, and reward.

Each episode wraps one quasi-steady-state operating snapshot. An action sets
the voltage command of every plant (applied to all of its generators), the
network is re-solved, and the reward scores violations and the fractional
change of transmission losses against the snapshot's pre-control baseline.
"""

from __future__ import annotations

import enum
import logging
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .grid_model import (GridCase, V_SET_MAX, V_SET_MIN, plant_setpoints,
                         with_plant_setpoints)
from .power_flow import (CompiledGrid, PowerFlowSolution, SolverOptions,
                         ViolationReport, audit_violations, compile_grid,
                         solve_newton_raphson)

logger = logging.getLogger(__name__)

__all__ = [
    "DoneReason",
    "StateVector",
    "Action",
    "StepResult",
    "SnapshotEpisode",
    "Normalizer",
    "SnapshotStreamExhausted",
    "GridControlEnv",
    "compute_reward",
    "check_termination",
    "extract_state",
    "fit_normalizer",
    "state_dim",
    "state_layout",
    "DIVERGENCE_REWARD",
    "SUCCESS_LOSS_REDUCTION",
]

# Episodes terminate successfully at this fractional loss reduction (0.5%).
SUCCESS_LOSS_REDUCTION = 0.005

# Control iterations warm start from the previous solution.
_WARM_START = SolverOptions(flat_start=False)

# Reward assigned when a control action makes the power flow diverge; matches
# the worst regular reward so divergence is never preferred.
DIVERGENCE_REWARD = -100.0


class DoneReason(enum.Enum):
    RUNNING = "Running"
    SOLVED = "Solved"
    DIVERGED = "Diverged"
    MAX_STEPS = "MaxSteps"


class SnapshotStreamExhausted(Exception):
    """No more operating snapshots to start an episode from."""


@dataclass(frozen=True)
class StateVector:
    """Flat observation with a named layout (feature name -> index range)."""

    values: np.ndarray
    layout: dict[str, tuple[int, int]]

    def __len__(self) -> int:
        return int(self.values.size)


@dataclass(frozen=True)
class Action:
    """One voltage setpoint per controllable plant, in canonical plant order."""

    v_set_per_plant: np.ndarray

    def clipped(self) -> "Action":
        return Action(np.clip(np.asarray(self.v_set_per_plant, dtype=float),
                              V_SET_MIN, V_SET_MAX))


@dataclass
class StepResult:
    next_state: StateVector
    reward: float
    done: bool
    done_reason: DoneReason
    info: dict


@dataclass
class SnapshotEpisode:
    """One snapshot under control: the case, its compiled grid (shared by
    every solve, audit and state extraction of the episode), its solved base
    point with its limit audit, and the pre-control loss every step is scored
    against."""

    case: GridCase
    grid: CompiledGrid
    base_solution: PowerFlowSolution
    base_report: ViolationReport
    p_loss_pre: float
    v_set_initial: np.ndarray
    step_count: int = 0
    max_steps: int = 10


@dataclass(frozen=True)
class Normalizer:
    """Frozen per-feature affine standardizer applied to raw states."""

    mean: np.ndarray
    scale: np.ndarray

    def __post_init__(self):
        if np.any(self.scale <= 0):
            raise ValueError("normalizer scale must be positive")

    def transform(self, values: np.ndarray) -> np.ndarray:
        return (np.asarray(values, dtype=float) - self.mean) / self.scale

    @classmethod
    def identity(cls, dim: int) -> "Normalizer":
        return cls(mean=np.zeros(dim), scale=np.ones(dim))


def fit_normalizer(samples: Sequence[StateVector | np.ndarray]) -> Normalizer:
    """Per-feature mean/std affine map from a warmup sample of raw states.

    Features whose standard deviation falls below 1e-6 are clamped to 1e-6 so
    constant features map to zero instead of exploding.
    """
    if len(samples) < 2:
        raise ValueError("need at least 2 samples to fit a normalizer")
    rows = np.stack([s.values if isinstance(s, StateVector) else np.asarray(s, dtype=float)
                     for s in samples])
    mean = rows.mean(axis=0)
    scale = np.maximum(rows.std(axis=0), 1e-6)
    return Normalizer(mean=mean, scale=scale)


def state_layout(case: GridCase) -> dict[str, tuple[int, int]]:
    """Index range of each feature block of the observation."""
    nb = len(case.monitored_buses)
    nl = len(case.monitored_branches)
    return {
        "v_mag": (0, nb),
        "v_ang": (nb, 2 * nb),
        "p_flow": (2 * nb, 2 * nb + nl),
        "q_flow": (2 * nb + nl, 2 * nb + 2 * nl),
    }


def state_dim(case: GridCase) -> int:
    """Length of the observation: the end of the last block of the layout."""
    return max(end for _, end in state_layout(case).values())


def extract_state(case: GridCase, solution: PowerFlowSolution,
                  normalizer: Normalizer | None = None, *,
                  grid: CompiledGrid | None = None) -> StateVector:
    """Observation from a converged solution: monitored bus V and angle, then
    monitored branch P and Q (from side), each block sorted by id.

    ``grid`` is ``case`` compiled by :func:`~gridsac.power_flow.compile_grid`
    (or a case it serves); without it the case is compiled for this call.
    """
    grid = compile_grid(case) if grid is None else grid.check(case)
    buses, branches = grid.state_bus, grid.state_branch
    raw = np.concatenate([
        solution.v_mag[buses],
        solution.v_ang[buses],
        solution.flows.p_from[branches],
        solution.flows.q_from[branches],
    ])
    values = normalizer.transform(raw) if normalizer is not None else raw
    return StateVector(values=values, layout=state_layout(case))


def compute_reward(p_loss: float, p_loss_pre: float, report: ViolationReport) -> float:
    """Piecewise control reward for one iteration.

    With d = (p_loss - p_loss_pre) / p_loss_pre:
      any violation      -> -overflow/10 - voltage_violation/100
      d < 0              -> 50 - d * 1000
      d >= 0.02          -> -100
      otherwise          -> -1 - d * 50
    The violation branch always takes precedence.
    """
    if p_loss_pre <= 0:
        raise ValueError("p_loss_pre must be positive")
    if report.any:
        return -report.delta_p_overflow / 10.0 - report.delta_v_violation / 100.0
    d = (p_loss - p_loss_pre) / p_loss_pre
    if d < 0:
        return 50.0 - d * 1000.0
    if d >= 0.02:
        return -100.0
    return -1.0 - d * 50.0


def check_termination(episode: SnapshotEpisode, converged: bool,
                      report: ViolationReport | None,
                      delta_loss_frac: float) -> tuple[bool, DoneReason]:
    """Episode termination: solver divergence, full success (no violation
    and at least :data:`SUCCESS_LOSS_REDUCTION` of the losses saved), or
    step budget."""
    if not converged:
        return True, DoneReason.DIVERGED
    if report is not None and not report.any and delta_loss_frac <= -SUCCESS_LOSS_REDUCTION:
        return True, DoneReason.SOLVED
    if episode.step_count >= episode.max_steps:
        return True, DoneReason.MAX_STEPS
    return False, DoneReason.RUNNING


class GridControlEnv:
    """Episode lifecycle over a stream of operating snapshots.

    A single instance is not thread safe (it carries the active episode);
    run independent instances for parallel rollouts. All snapshots in one
    stream must share the grid's monitored sets and plant list so state and
    action dimensions stay fixed.
    """

    def __init__(self, snapshots: Iterable[GridCase],
                 normalizer: Normalizer | None = None,
                 max_steps: int = 10):
        self._snapshots: Iterator[GridCase] = iter(snapshots)
        self.normalizer = normalizer
        self.max_steps = max_steps
        self.episode: SnapshotEpisode | None = None
        self._current_case: GridCase | None = None
        self._current_solution: PowerFlowSolution | None = None
        self._current_state: StateVector | None = None
        self._done = True
        self.skipped_snapshots = 0

    @property
    def action_dim(self) -> int:
        self._require_episode()
        return len(self.episode.case.plant_order)

    @property
    def state_dim(self) -> int:
        self._require_episode()
        return len(self._current_state)

    def reset(self) -> tuple[StateVector, float, float, np.ndarray, bool]:
        """Start an episode on the next solvable snapshot.

        Returns (state, reward, p_loss_ini, v_set_ini, done); the reward is
        the base case scored against itself (zero loss delta). Snapshots whose
        base power flow diverges or carries no losses are skipped with a log
        entry. Raises :class:`SnapshotStreamExhausted` when none remain.
        """
        while True:
            case = next(self._snapshots, None)
            if case is None:
                raise SnapshotStreamExhausted(
                    f"snapshot stream exhausted ({self.skipped_snapshots} skipped)")
            grid = compile_grid(case)
            base = solve_newton_raphson(case, grid=grid)
            if not base.converged:
                self.skipped_snapshots += 1
                logger.info("skipping snapshot: base power flow did not converge")
                continue
            if base.p_loss_total <= 0:
                self.skipped_snapshots += 1
                logger.info("skipping snapshot: non-positive base losses")
                continue
            break
        report = audit_violations(case, base, grid=grid)
        self.episode = SnapshotEpisode(
            case=case,
            grid=grid,
            base_solution=base,
            base_report=report,
            p_loss_pre=base.p_loss_total,
            v_set_initial=plant_setpoints(case),
            max_steps=self.max_steps,
        )
        if self.normalizer is None:
            self.normalizer = Normalizer.identity(state_dim(case))
        reward = compute_reward(base.p_loss_total, self.episode.p_loss_pre, report)
        self._current_case = case
        self._current_solution = base
        self._current_state = extract_state(case, base, self.normalizer, grid=grid)
        self._done = False
        return (self._current_state, reward, self.episode.p_loss_pre,
                self.episode.v_set_initial.copy(), False)

    def step(self, action: Action | np.ndarray) -> StepResult:
        """Apply per-plant voltage commands, re-solve, and score the result."""
        self._require_episode()
        if self._done:
            raise RuntimeError("episode finished; call reset()")
        episode = self.episode
        if not isinstance(action, Action):
            action = Action(np.asarray(action, dtype=float))
        v_set = action.clipped().v_set_per_plant
        if v_set.shape != (len(episode.case.plant_order),):
            raise ValueError(
                f"action needs {len(episode.case.plant_order)} setpoints, got {v_set.shape}")

        case = with_plant_setpoints(
            self._current_case, dict(zip(episode.case.plant_order, v_set)))
        sol = solve_newton_raphson(case, start=self._current_solution,
                                   opts=_WARM_START, grid=episode.grid)
        episode.step_count += 1

        if not sol.converged:
            done, reason = check_termination(episode, False, None, 0.0)
            self._done = True
            result = StepResult(
                next_state=self._current_state,
                reward=DIVERGENCE_REWARD,
                done=done,
                done_reason=reason,
                info={"p_loss": float("nan"), "delta_p_loss_frac": float("nan"),
                      "violations": None},
            )
            return result

        report = audit_violations(case, sol, grid=episode.grid)
        p_loss = sol.p_loss_total
        delta_frac = (p_loss - episode.p_loss_pre) / episode.p_loss_pre
        reward = compute_reward(p_loss, episode.p_loss_pre, report)
        done, reason = check_termination(episode, True, report, delta_frac)

        self._current_case = case
        self._current_solution = sol
        self._current_state = extract_state(case, sol, self.normalizer, grid=episode.grid)
        self._done = done
        return StepResult(
            next_state=self._current_state,
            reward=reward,
            done=done,
            done_reason=reason,
            info={"p_loss": p_loss, "delta_p_loss_frac": delta_frac,
                  "violations": report},
        )

    def _require_episode(self) -> None:
        if self.episode is None:
            raise RuntimeError("no active episode; call reset() first")
