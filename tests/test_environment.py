"""Episode lifecycle, state extraction, reward logic, and normalization."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridsac.environment import (Action, DIVERGENCE_REWARD, DoneReason,
                                 GridControlEnv, Normalizer,
                                 SnapshotStreamExhausted,
                                 check_termination, compute_reward,
                                 extract_state, fit_normalizer)
from gridsac.grid_model import serialize_case, with_loads, with_plant_setpoints
from gridsac.power_flow import ViolationReport, solve_newton_raphson


def report_with(overflow=0.0, violation=0.0):
    report = ViolationReport()
    if violation:
        report.voltage_violations.append((1, 1.1, 0.97, 1.07))
        report.delta_v_violation = violation
    if overflow:
        report.thermal_violations.append((1, 1.2, 1.0))
        report.delta_p_overflow = overflow
    return report


# --- reward table -----------------------------------------------------------------

def test_reward_loss_reduction_branch():
    assert compute_reward(0.99, 1.0, ViolationReport()) == pytest.approx(60.0, abs=1e-12)


def test_reward_runaway_loss_branch():
    assert compute_reward(1.03, 1.0, ViolationReport()) == pytest.approx(-100.0, abs=1e-12)


def test_reward_otherwise_branch():
    assert compute_reward(1.01, 1.0, ViolationReport()) == pytest.approx(-1.5, abs=1e-12)


def test_reward_violation_branch_precedence():
    # with violations the loss delta is irrelevant
    report = report_with(overflow=10.0, violation=100.0)
    for p_loss in (0.5, 1.0, 1.5):
        assert compute_reward(p_loss, 1.0, report) == pytest.approx(-2.0, abs=1e-12)


def test_reward_zero_delta_is_minus_one():
    assert compute_reward(1.0, 1.0, ViolationReport()) == pytest.approx(-1.0, abs=1e-12)


def test_reward_requires_positive_baseline():
    with pytest.raises(ValueError):
        compute_reward(1.0, 0.0, ViolationReport())


def test_reward_discontinuity_at_success_boundary():
    # the formula jumps from -1 (delta = 0) to 50 as delta -> 0-; assert the
    # documented discontinuity instead of smoothing it away
    eps = 1e-9
    below = compute_reward(1.0 - eps, 1.0, ViolationReport())
    at = compute_reward(1.0, 1.0, ViolationReport())
    assert below > 49.9
    assert at == pytest.approx(-1.0, abs=1e-12)
    assert below - at > 50.0


@given(st.floats(min_value=0.01, max_value=10.0),
       st.floats(min_value=-0.5, max_value=0.5))
@settings(max_examples=200, deadline=None)
def test_reward_exactly_one_branch_fires(p_loss_pre, delta):
    p_loss = p_loss_pre * (1.0 + delta)
    d = (p_loss - p_loss_pre) / p_loss_pre  # the quotient the formula sees
    clean = compute_reward(p_loss, p_loss_pre, ViolationReport())
    if d < 0:
        expected = 50.0 - d * 1000.0
    elif d >= 0.02:
        expected = -100.0
    else:
        expected = -1.0 - d * 50.0
    assert clean == pytest.approx(expected, rel=1e-9, abs=1e-9)
    # violation branch overrides every loss branch
    viol = compute_reward(p_loss, p_loss_pre, report_with(violation=0.1))
    assert viol == pytest.approx(-0.001, abs=1e-12)


@given(st.floats(min_value=-0.4, max_value=-1e-6),
       st.floats(min_value=-0.4, max_value=-1e-6))
@settings(max_examples=100, deadline=None)
def test_reward_monotone_within_reduction_branch(d1, d2):
    lo, hi = min(d1, d2), max(d1, d2)
    r_lo = compute_reward(1 + lo, 1.0, ViolationReport())
    r_hi = compute_reward(1 + hi, 1.0, ViolationReport())
    assert r_lo >= r_hi  # deeper reduction never scores worse


# --- termination ----------------------------------------------------------------

class _Episode:
    def __init__(self, step_count, max_steps):
        self.step_count = step_count
        self.max_steps = max_steps


def test_termination_solved_at_threshold():
    done, reason = check_termination(_Episode(1, 10), True, ViolationReport(), -0.006)
    assert done and reason is DoneReason.SOLVED


def test_termination_diverged():
    done, reason = check_termination(_Episode(1, 10), False, None, 0.0)
    assert done and reason is DoneReason.DIVERGED


def test_termination_max_steps():
    done, reason = check_termination(_Episode(10, 10), True, ViolationReport(), -0.001)
    assert done and reason is DoneReason.MAX_STEPS


def test_termination_running():
    done, reason = check_termination(_Episode(3, 10), True, report_with(violation=0.1),
                                     -0.02)
    assert not done and reason is DoneReason.RUNNING


# --- state extraction -------------------------------------------------------------

def test_state_layout_two_bus(two_bus):
    sol = solve_newton_raphson(two_bus)
    state = extract_state(two_bus, sol)
    assert len(state) == 2 + 2 + 1 + 1
    assert state.layout == {"v_mag": (0, 2), "v_ang": (2, 4),
                            "p_flow": (4, 5), "q_flow": (5, 6)}


def test_identity_normalizer_passes_raw_values(two_bus):
    sol = solve_newton_raphson(two_bus)
    raw = extract_state(two_bus, sol)
    normed = extract_state(two_bus, sol, Normalizer.identity(6))
    assert np.array_equal(raw.values, normed.values)
    assert raw.values[0] == sol.v_mag[0]
    assert raw.values[4] == sol.flows.p_from[0]


def test_mean_matching_normalizer_zeroes_state(two_bus):
    sol = solve_newton_raphson(two_bus)
    raw = extract_state(two_bus, sol)
    norm = Normalizer(mean=raw.values.copy(), scale=np.full(6, 2.0))
    state = extract_state(two_bus, sol, norm)
    assert np.allclose(state.values, 0.0)


# --- normalizer fitting -------------------------------------------------------------

def test_fit_normalizer_constant_feature_clamped():
    samples = [np.array([1.0, 5.0]), np.array([1.0, 7.0]), np.array([1.0, 9.0])]
    norm = fit_normalizer(samples)
    assert norm.scale[0] == 1e-6
    assert norm.transform(np.array([1.0, 7.0]))[0] == 0.0


def test_fit_normalizer_two_point():
    norm = fit_normalizer([np.array([0.0]), np.array([2.0])])
    out = [norm.transform(np.array([v]))[0] for v in (0.0, 2.0)]
    assert out == [-1.0, 1.0]


def test_fit_normalizer_standardizes_fitting_set():
    rng = np.random.default_rng(0)
    samples = [rng.normal(size=4) * [1, 10, 100, 0.1] for _ in range(50)]
    norm = fit_normalizer(samples)
    transformed = np.stack([norm.transform(s) for s in samples])
    assert np.max(np.abs(transformed.mean(axis=0))) < 1e-9


def test_fit_normalizer_needs_two_samples():
    with pytest.raises(ValueError):
        fit_normalizer([])
    with pytest.raises(ValueError):
        fit_normalizer([np.zeros(3)])


# --- episode lifecycle ----------------------------------------------------------------

def env_on(cases, **kwargs):
    return GridControlEnv(iter(cases), **kwargs)


def test_reset_on_clean_snapshot_scores_minus_one(case3):
    env = env_on([case3])
    state, reward, p_loss_ini, v_set_ini, done = env.reset()
    assert reward == pytest.approx(-1.0, abs=1e-12)
    assert not done
    assert p_loss_ini > 0
    assert v_set_ini.shape == (2,)
    assert np.allclose(v_set_ini, 1.02)
    assert len(state) == 2 * 3 + 2 * 3


def test_reset_on_violating_snapshot_scores_violation_branch(case3):
    # drop the setpoints until bus 3 sags below its limit
    sagging = with_plant_setpoints(case3, {1: 0.98, 2: 0.98})
    sol = solve_newton_raphson(sagging)
    from gridsac.power_flow import audit_violations
    report = audit_violations(sagging, sol)
    assert report.any
    env = env_on([sagging])
    _, reward, _, _, done = env.reset()
    assert reward == pytest.approx(-report.delta_v_violation / 100.0
                                   - report.delta_p_overflow / 10.0, abs=1e-12)
    assert not done


def test_reset_skips_unsolvable_snapshots(case3):
    broken = with_loads(case3, {3: 60.0})  # far beyond transfer capacity
    env = env_on([broken, case3])
    state, reward, *_ = env.reset()
    assert env.skipped_snapshots == 1
    assert reward == pytest.approx(-1.0)


def test_reset_raises_when_stream_exhausted(case3):
    env = env_on([case3])
    env.reset()
    with pytest.raises(SnapshotStreamExhausted):
        env.reset()


def test_noop_action_keeps_baseline_reward(case3):
    env = env_on([case3])
    state, _, _, v_set_ini, _ = env.reset()
    result = env.step(Action(v_set_ini))
    # the solver fixed point is unchanged, so the delta stays ~0
    assert result.info["delta_p_loss_frac"] == pytest.approx(0.0, abs=1e-9)
    assert result.reward == pytest.approx(-1.0, abs=1e-6)
    assert not result.done
    assert result.done_reason is DoneReason.RUNNING


def test_loss_reducing_action_terminates_solved(case3):
    env = env_on([case3])
    env.reset()
    result = env.step(Action(np.array([1.05, 1.05])))
    assert result.done and result.done_reason is DoneReason.SOLVED
    d = result.info["delta_p_loss_frac"]
    assert d < -0.005
    assert result.reward == pytest.approx(50.0 - d * 1000.0, rel=1e-12)


def test_violating_action_scores_violation_branch(case3):
    env = env_on([case3])
    env.reset()
    result = env.step(Action(np.array([0.95, 0.95])))
    report = result.info["violations"]
    assert report.any
    assert result.reward == pytest.approx(
        -report.delta_p_overflow / 10.0 - report.delta_v_violation / 100.0, abs=1e-12)
    assert not result.done


def test_max_steps_termination(case3):
    env = env_on([case3], max_steps=10)
    _, _, _, v_set_ini, _ = env.reset()
    for k in range(10):
        result = env.step(Action(v_set_ini))
    assert result.done and result.done_reason is DoneReason.MAX_STEPS
    with pytest.raises(RuntimeError):
        env.step(Action(v_set_ini))


def test_action_clipped_to_bounds(case3):
    env = env_on([case3])
    env.reset()
    result = env.step(Action(np.array([2.0, 0.0])))  # clipped to [1.1, 0.9]
    applied = env._current_case.generator_by_id
    assert applied[1].v_set == 1.1
    assert applied[2].v_set == 0.9


def test_step_rejects_wrong_action_length(case3):
    env = env_on([case3])
    env.reset()
    with pytest.raises(ValueError):
        env.step(Action(np.array([1.0])))


def test_divergent_action_penalized(case3):
    # a pathological episode: drive the PQ load far beyond feasibility by
    # starting from a snapshot that only just solves, then requesting a
    # setpoint collapse
    heavy = with_loads(case3, {3: 2.45})
    assert solve_newton_raphson(heavy).converged
    env = env_on([heavy])
    env.reset()
    result = env.step(Action(np.array([0.9, 0.9])))
    if result.done_reason is DoneReason.DIVERGED:
        assert result.reward == DIVERGENCE_REWARD
        assert result.done
    else:
        # if the solver still converges the reward must come from the table
        assert result.reward <= 0.0


def test_step_deterministic_and_base_solution_immutable(case3):
    actions = [np.array([1.04, 1.01]), np.array([0.98, 1.0]), np.array([1.06, 1.05])]
    streams = []
    for _ in range(2):
        env = env_on([case3], max_steps=10)
        env.reset()
        base_loss = env.episode.p_loss_pre
        base_vmag = env.episode.base_solution.v_mag.copy()
        rows = []
        for a in actions:
            result = env.step(Action(a.copy()))
            rows.append((result.reward, result.done,
                         result.next_state.values.tobytes()))
        assert env.episode.p_loss_pre == base_loss
        assert np.array_equal(env.episode.base_solution.v_mag, base_vmag)
        streams.append(rows)
    assert streams[0] == streams[1]


def test_step_on_case_leaves_snapshot_text_unchanged(case3):
    before = serialize_case(case3)
    env = env_on([case3])
    env.reset()
    env.step(Action(np.array([1.05, 1.03])))
    assert serialize_case(case3) == before
