"""Agent mechanics: replay, policy sampling, targets, updates, training."""

import copy
import json
import math
import os
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from gridsac.environment import GridControlEnv
from gridsac.grid_model import bundled_case, with_plant_setpoints
from gridsac.neural import forward, network_to_flat
from gridsac.sac import (Batch, ReplayBuffer, SacAgent, SacConfig, SelectMode,
                         Transition, _squashed_gaussian, load_checkpoint,
                         raw_to_setpoints, save_checkpoint, setpoints_to_raw, train)

from conftest import singular_jacobian_from_second_step

STATE_DIM = 6
ACTION_DIM = 2


def make_agent(seed=11, **overrides) -> SacAgent:
    cfg = SacConfig(batch_size=32, random_seed=seed, **overrides)
    return SacAgent.create(STATE_DIM, ACTION_DIM, cfg)


def constant_critic(agent_net, value: float):
    for w in agent_net.weights:
        w[:] = 0.0
    for b in agent_net.biases:
        b[:] = 0.0
    agent_net.biases[-1][:] = value


def zero_policy(agent):
    for w in agent.policy.weights:
        w[:] = 0.0
    for b in agent.policy.biases:
        b[:] = 0.0


def random_batch(rng, n=8) -> Batch:
    return Batch(states=rng.normal(size=(n, STATE_DIM)),
                 actions=rng.uniform(-1, 1, size=(n, ACTION_DIM)),
                 rewards=rng.normal(size=n),
                 next_states=rng.normal(size=(n, STATE_DIM)),
                 dones=np.zeros(n))


# --- config -------------------------------------------------------------------

def test_config_defaults_valid():
    SacConfig()


@pytest.mark.parametrize("kwargs", [
    {"batch_size": 16}, {"batch_size": 500},
    {"max_episode_steps": 5}, {"max_episode_steps": 100},
    {"replay_capacity": 10}, {"n_epochs": 9},
    {"lr_q": 0.01}, {"lr_pi": 5e-5}, {"alpha_init": 0.5},
    {"hidden_layers": 1}, {"hidden_layers": 8},
    {"batch_size": 64, "start_steps": 10},
    {"gamma": 1.2}, {"polyak": -0.1}, {"updates_per_step": 0},
])
def test_config_rejects_out_of_range(kwargs):
    with pytest.raises(ValueError):
        SacConfig(**kwargs)


def test_config_allows_frozen_learning_rates():
    cfg = SacConfig(lr_q=0.0, lr_pi=0.0, lr_alpha=0.0)
    assert cfg.lr_q == 0.0


# --- replay buffer ---------------------------------------------------------------

def transition(k: int) -> Transition:
    return Transition(state=np.full(STATE_DIM, float(k)),
                      action=np.full(ACTION_DIM, 0.1),
                      reward=float(k), next_state=np.full(STATE_DIM, float(k + 1)),
                      done=0.0)


def test_replay_fifo_eviction():
    capacity, extra = 16, 5
    buf = ReplayBuffer(capacity, STATE_DIM, ACTION_DIM)
    for k in range(capacity + extra):
        buf.add(transition(k))
    assert len(buf) == capacity
    stored = [t.reward for t in buf.transitions()]
    # the `extra` oldest entries are gone; the rest are present in order
    assert stored == [float(k) for k in range(extra, capacity + extra)]


def test_replay_sampling_without_replacement():
    buf = ReplayBuffer(100, STATE_DIM, ACTION_DIM)
    for k in range(40):
        buf.add(transition(k))
    rng = np.random.default_rng(0)
    batch = buf.sample(40, rng)
    rewards = sorted(batch.rewards.tolist())
    assert rewards == [float(k) for k in range(40)]  # each exactly once
    with pytest.raises(ValueError):
        buf.sample(41, rng)


def test_replay_clips_actions_to_unit_box():
    buf = ReplayBuffer(4, STATE_DIM, ACTION_DIM)
    buf.add(replace(transition(0), action=np.array([3.0, -7.0])))
    stored = buf.transitions()[0]
    assert np.array_equal(stored.action, np.array([1.0, -1.0]))


# --- action selection ---------------------------------------------------------------

def test_deterministic_midpoint_at_zero_mean():
    agent = make_agent()
    zero_policy(agent)
    action = agent.select_action(np.zeros(STATE_DIM), SelectMode.DETERMINISTIC)
    assert np.array_equal(action.v_set_per_plant, np.array([1.0, 1.0]))


def test_saturated_mean_hits_upper_bound():
    agent = make_agent()
    zero_policy(agent)
    agent.policy.biases[-1][:ACTION_DIM] = 20.0  # mean outputs
    action = agent.select_action(np.zeros(STATE_DIM), SelectMode.DETERMINISTIC)
    assert np.allclose(action.v_set_per_plant, 1.1, atol=1e-9)


def test_stochastic_sequence_reproducible_under_seed():
    seqs = []
    for _ in range(2):
        agent = make_agent(seed=23)
        state = np.linspace(-1, 1, STATE_DIM)
        seqs.append([agent.select_action(state, SelectMode.STOCHASTIC).v_set_per_plant
                     for _ in range(5)])
    assert all(np.array_equal(a, b) for a, b in zip(*seqs))


@pytest.mark.parametrize("k", [0, 1, 7, 123])
def test_stochastic_selection_is_the_mapped_raw_sample(k):
    agent = make_agent(seed=31)
    state = np.linspace(-1, 1, STATE_DIM)
    action = agent.select_action(state, SelectMode.STOCHASTIC, rng=np.random.default_rng(k))
    raw = agent.sample_raw(state, rng=np.random.default_rng(k))
    assert np.array_equal(action.v_set_per_plant, raw_to_setpoints(raw))


def test_deterministic_selection_ignores_rng_state():
    agent = make_agent(seed=7)
    state = np.linspace(-1, 1, STATE_DIM)
    first = agent.select_action(state, SelectMode.DETERMINISTIC)
    agent.rng.standard_normal(1000)  # scramble the generator
    second = agent.select_action(state, SelectMode.DETERMINISTIC)
    assert np.array_equal(first.v_set_per_plant, second.v_set_per_plant)


def test_select_action_rejects_nonfinite_policy():
    agent = make_agent()
    agent.policy.weights[0][0, 0] = np.nan
    with pytest.raises(ArithmeticError):
        agent.select_action(np.ones(STATE_DIM))


def test_setpoint_mapping_roundtrip():
    raw = np.array([-1.0, -0.25, 0.0, 0.7, 1.0])
    v = raw_to_setpoints(raw)
    assert v[0] == pytest.approx(0.9, abs=1e-12)
    assert v[2] == 1.0  # the midpoint is exact
    assert v[-1] == pytest.approx(1.1, abs=1e-12)
    assert np.allclose(setpoints_to_raw(v), raw, atol=1e-12)


# --- log-probability: _squashed_gaussian at the policy's own statistics --------------

def log_prob(agent, states, u):
    """Log-density of the squashed actions tanh(u) under the policy at each
    state, as the update computes it: ``_policy_stats`` feeds
    ``_squashed_gaussian`` with eps = (u - mean) / std."""
    mean, log_std, _, _ = agent._policy_stats(np.atleast_2d(states))
    return _squashed_gaussian(mean, log_std, (u - mean) / np.exp(log_std))[1]


def test_log_prob_standard_normal_at_mode():
    agent = make_agent()
    zero_policy(agent)  # mean 0, log_std 0 everywhere
    (lp,) = log_prob(agent, np.zeros(STATE_DIM), np.zeros(ACTION_DIM))
    per_dim = -0.5 * math.log(2 * math.pi) - math.log(1.0 - 0.0 + 1e-6)
    assert lp == pytest.approx(ACTION_DIM * per_dim, rel=1e-12)


def test_log_prob_exceeds_gaussian_near_saturation():
    agent = make_agent()
    zero_policy(agent)
    u = np.array([3.0, 0.0])
    (lp,) = log_prob(agent, np.zeros(STATE_DIM), u)
    gaussian = float(np.sum(-0.5 * np.log(2 * np.pi) - 0.5 * u ** 2))
    assert lp > gaussian  # the tanh correction concentrates density


def test_log_prob_matches_monte_carlo_density():
    """Histogram oracle: density of a = tanh(u), u ~ N(0,1), against the
    analytic form, as a KL divergence over probability masses."""
    agent = SacAgent.create(1, 1, SacConfig(random_seed=5))
    zero_policy(agent)
    rng = np.random.default_rng(12345)
    samples = np.tanh(rng.standard_normal(1_000_000))
    edges = np.linspace(-0.995, 0.995, 160)
    hist, _ = np.histogram(samples, bins=edges)
    centers = 0.5 * (edges[:-1] + edges[1:])
    width = edges[1] - edges[0]
    keep = hist > 0
    p_hat = hist[keep] / hist[keep].sum()
    u_centers = np.arctanh(centers[keep])[:, None]
    density = np.exp(log_prob(agent, np.zeros((len(u_centers), 1)), u_centers))
    p_model = density * width
    p_model = p_model / p_model.sum()
    kl = float(np.sum(p_hat * np.log(p_hat / p_model)))
    assert kl <= 1e-3


# --- q-target --------------------------------------------------------------------------

def test_q_target_terminal_cutoff():
    agent = make_agent()
    rng = np.random.default_rng(0)
    batch = random_batch(rng)
    batch.dones[:] = 1.0
    y = agent.compute_q_target(batch)
    assert np.array_equal(y, batch.rewards)


def test_q_target_zero_discount():
    agent = make_agent(gamma=0.0)
    batch = random_batch(np.random.default_rng(1))
    y = agent.compute_q_target(batch)
    assert np.array_equal(y, batch.rewards)


def test_q_target_min_over_stub_critics():
    agent = make_agent(gamma=1.0)
    constant_critic(agent.q1_target, 1.0)
    constant_critic(agent.q2_target, 3.0)
    agent.log_alpha = -np.inf  # alpha = 0 disables the entropy term
    batch = random_batch(np.random.default_rng(2))
    batch.rewards[:] = 0.0
    y = agent.compute_q_target(batch)
    assert np.allclose(y, 1.0)


def test_q_target_symmetric_in_critics():
    agent = make_agent()
    batch = random_batch(np.random.default_rng(3))
    y1 = agent.compute_q_target(batch, rng=np.random.default_rng(9))
    agent.q1_target, agent.q2_target = agent.q2_target, agent.q1_target
    y2 = agent.compute_q_target(batch, rng=np.random.default_rng(9))
    assert np.array_equal(y1, y2)


# --- update ----------------------------------------------------------------------------

def test_polyak_one_freezes_targets():
    agent = make_agent(polyak=1.0)
    targets_before = [network_to_flat(agent.q1_target).copy(),
                      network_to_flat(agent.q2_target).copy()]
    buf = ReplayBuffer(100, STATE_DIM, ACTION_DIM)
    rng = np.random.default_rng(4)
    for k in range(40):
        buf.add(Transition(rng.normal(size=STATE_DIM), rng.uniform(-1, 1, ACTION_DIM),
                           float(k), rng.normal(size=STATE_DIM), 0.0))
    agent.update(buf)
    assert np.array_equal(network_to_flat(agent.q1_target), targets_before[0])
    assert np.array_equal(network_to_flat(agent.q2_target), targets_before[1])
    # the online critics did move
    assert not np.array_equal(network_to_flat(agent.q1), targets_before[0])


def test_zero_learning_rates_leave_parameters_unchanged():
    agent = make_agent(lr_q=0.0, lr_pi=0.0, lr_alpha=0.0)
    before = [network_to_flat(n).copy() for n in (agent.policy, agent.q1, agent.q2)]
    log_alpha_before = agent.log_alpha
    batch = random_batch(np.random.default_rng(5), n=32)
    stats = agent.update_from_batch(batch)
    assert np.isfinite(stats.q1_loss) and np.isfinite(stats.policy_loss)
    after = [network_to_flat(n) for n in (agent.policy, agent.q1, agent.q2)]
    assert all(np.array_equal(a, b) for a, b in zip(before, after))
    assert agent.log_alpha == log_alpha_before


def test_single_transition_qloss_identity():
    agent = make_agent()
    buf = ReplayBuffer(100, STATE_DIM, ACTION_DIM)
    rng = np.random.default_rng(6)
    t = Transition(rng.normal(size=STATE_DIM), rng.uniform(-1, 1, ACTION_DIM),
                   1.7, rng.normal(size=STATE_DIM), 0.0)
    buf.add(t)
    snapshot = copy.deepcopy(agent)
    batch = buf.sample(1, snapshot.rng)  # consume the rng exactly like update()
    y = snapshot.compute_q_target(batch)
    sa = np.concatenate([t.state, np.clip(t.action, -1, 1)])
    q1, _ = forward(snapshot.q1, sa)
    q2, _ = forward(snapshot.q2, sa)

    agent.config = replace(agent.config, batch_size=32)  # irrelevant for direct call
    batch_live = ReplayBuffer(100, STATE_DIM, ACTION_DIM)
    stats = agent.update_from_batch(Batch(states=batch.states, actions=batch.actions,
                                          rewards=batch.rewards,
                                          next_states=batch.next_states,
                                          dones=batch.dones))
    assert stats.q1_loss == pytest.approx(float((q1[0] - y[0]) ** 2), rel=1e-12)
    assert stats.q2_loss == pytest.approx(float((q2[0] - y[0]) ** 2), rel=1e-12)


def test_alpha_stays_positive_under_updates():
    agent = make_agent(alpha_init=0.001)
    buf = ReplayBuffer(100, STATE_DIM, ACTION_DIM)
    rng = np.random.default_rng(7)
    for k in range(64):
        buf.add(Transition(rng.normal(size=STATE_DIM), rng.uniform(-1, 1, ACTION_DIM),
                           rng.normal(), rng.normal(size=STATE_DIM), 0.0))
    for _ in range(50):
        stats = agent.update(buf)
        assert stats.alpha > 0.0
    assert agent.alpha > 0.0


def test_high_alpha_drives_entropy_up():
    # start from a deliberately low-entropy policy (log_std -2); a pinned
    # huge temperature with zero-valued critics must widen it
    agent = make_agent()
    constant_critic(agent.q1, 0.0)
    constant_critic(agent.q2, 0.0)
    agent.policy.biases[-1][ACTION_DIM:] = -2.0
    agent.log_alpha = float(np.log(1e3))
    agent.alpha_opt.learning_rate = 0.0  # pin the temperature
    rng = np.random.default_rng(8)
    states = rng.normal(size=(64, STATE_DIM))

    def mean_log_std(a):
        out, _ = forward(a.policy, states)
        return float(np.mean(np.clip(out[:, ACTION_DIM:], -20, 2)))

    before = mean_log_std(agent)
    batch = Batch(states=states, actions=rng.uniform(-1, 1, (64, ACTION_DIM)),
                  rewards=np.zeros(64), next_states=states, dones=np.ones(64))
    for _ in range(200):
        agent.update_from_batch(batch)
        constant_critic(agent.q1, 0.0)  # keep critics frozen at zero
        constant_critic(agent.q2, 0.0)
    assert mean_log_std(agent) > before


# --- training loop -----------------------------------------------------------------------

def toy_env(n_snaps=6, max_steps=10, seed=0):
    case = bundled_case("case3")
    rng = np.random.default_rng(seed)
    snaps = [with_plant_setpoints(case, {pid: float(np.clip(1.02 + rng.uniform(-0.02, 0.02),
                                                            0.9, 1.1))
                                         for pid in case.plant_order})
             for _ in range(n_snaps)]
    return GridControlEnv(iter(snaps), max_steps=max_steps)


def test_train_zero_episodes_is_noop():
    agent = make_agent(n_episodes=0)
    before = network_to_flat(agent.policy).copy()
    metrics = train(agent, toy_env())
    assert metrics == []
    assert np.array_equal(network_to_flat(agent.policy), before)


def test_train_stops_when_stream_exhausted():
    agent = SacAgent.create(12, 2, SacConfig(random_seed=11, n_episodes=50))
    metrics = train(agent, toy_env(n_snaps=4))
    assert len(metrics) == 4


def test_train_metrics_deterministic_under_seed(tmp_path):
    rows = []
    for run in range(2):
        cfg = SacConfig(random_seed=19, batch_size=32, start_steps=32)
        agent = SacAgent.create(12, 2, cfg)
        train(agent, toy_env(n_snaps=8, seed=3), tmp_path / f"run{run}")
        rows.append((tmp_path / f"run{run}" / "metrics.csv").read_bytes())
    assert rows[0] == rows[1]


def test_train_metrics_schema(tmp_path):
    from gridsac.sac import METRICS_HEADER
    agent = SacAgent.create(12, 2, SacConfig(random_seed=11))
    train(agent, toy_env(n_snaps=3), tmp_path)
    lines = (tmp_path / "metrics.csv").read_text().splitlines()
    assert lines[0] == ",".join(METRICS_HEADER)
    assert len(lines) == 4
    first = lines[1].split(",")
    assert first[0] == "0"
    assert first[6] in {"Solved", "Diverged", "MaxSteps", "Running"}


def test_train_writes_metrics_and_a_final_checkpoint_with_the_env_normalizer(tmp_path):
    from gridsac.environment import Normalizer
    env = toy_env(n_snaps=3)
    env.normalizer = Normalizer(mean=np.full(12, 0.5), scale=np.full(12, 2.0))
    agent = SacAgent.create(12, 2, SacConfig(random_seed=11))
    metrics = train(agent, env, tmp_path / "run")
    rows = (tmp_path / "run" / "metrics.csv").read_text().splitlines()[1:]
    assert rows == [m.csv_row() for m in metrics]
    assert sorted(p.name for p in (tmp_path / "run" / "checkpoints").iterdir()) == ["final.json"]
    loaded, normalizer = load_checkpoint(tmp_path / "run" / "checkpoints" / "final.json")
    assert np.array_equal(normalizer.mean, env.normalizer.mean)
    assert np.array_equal(normalizer.scale, env.normalizer.scale)
    assert np.array_equal(loaded.policy.params, agent.policy.params)


def test_train_finishes_when_the_jacobian_turns_singular_mid_episode(tmp_path, monkeypatch):
    patched = singular_jacobian_from_second_step(monkeypatch)
    agent = SacAgent.create(12, 2, SacConfig(random_seed=11))
    metrics = train(agent, toy_env(n_snaps=4), tmp_path / "run")
    # Each episode's second step meets one singular Jacobian and diverges.
    assert patched["singular"] == len(metrics) == 4
    assert all(m.steps == 2 and m.done_reason == "Diverged" and m.reward <= -100.0
               for m in metrics)
    assert (tmp_path / "run" / "checkpoints" / "final.json").exists()


@pytest.mark.parametrize("max_steps", [3, 12])
def test_env_max_steps_is_the_only_episode_bound(max_steps):
    # The agent's max_episode_steps (10) bounds nothing inside train: an
    # episode runs until the env reports done.
    agent = SacAgent.create(12, 2, SacConfig(random_seed=11, max_episode_steps=10))
    metrics = train(agent, toy_env(n_snaps=6, max_steps=max_steps))
    assert max(m.steps for m in metrics) == max_steps
    assert all(m.done_reason != "Running" for m in metrics)


def test_episode_metrics_row_follows_the_header():
    from gridsac.sac import METRICS_HEADER, EpisodeMetrics
    row = EpisodeMetrics(episode=3, steps=2, reward=1.5, p_loss_pre=0.1, p_loss_final=0.2,
                         delta_loss_frac=float("nan"), done_reason="Solved", q1_loss=1e-20,
                         q2_loss=np.float64(0.25), policy_loss=-2.0, alpha=0.1)
    assert METRICS_HEADER == ("episode", "steps", "reward", "p_loss_pre", "p_loss_final",
                              "delta_loss_frac", "done_reason", "q1_loss", "q2_loss",
                              "policy_loss", "alpha")
    assert row.csv_row() == "3,2,1.5,0.1,0.2,nan,Solved,1e-20,0.25,-2.0,0.1"


# --- checkpoints ----------------------------------------------------------------------------

def test_checkpoint_roundtrip(tmp_path):
    agent = make_agent(seed=29)
    from gridsac.environment import Normalizer
    norm = Normalizer(mean=np.arange(STATE_DIM, dtype=float),
                      scale=np.ones(STATE_DIM) * 2.0)
    path = tmp_path / "ck.json"
    save_checkpoint(path, agent, norm)
    loaded, norm2 = load_checkpoint(path)
    assert loaded.config == agent.config
    assert loaded.log_alpha == agent.log_alpha
    for name in ("policy", "q1", "q2", "q1_target", "q2_target"):
        assert np.array_equal(network_to_flat(getattr(loaded, name)),
                              network_to_flat(getattr(agent, name)))
    assert np.array_equal(norm2.mean, norm.mean)
    state = np.zeros(STATE_DIM)
    a = agent.select_action(state, SelectMode.DETERMINISTIC)
    b = loaded.select_action(state, SelectMode.DETERMINISTIC)
    assert np.array_equal(a.v_set_per_plant, b.v_set_per_plant)


def test_checkpoint_version_guard(tmp_path):
    agent = make_agent()
    path = tmp_path / "ck.json"
    save_checkpoint(path, agent, None)
    doc = json.loads(path.read_text())
    doc["format_version"] = 99
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="version"):
        load_checkpoint(path)


LEGACY_CHECKPOINT = (Path(__file__).resolve().parents[1]
                     / "perfbench" / "data" / "control_case14.json")


def test_checkpoint_with_retired_config_keys_loads():
    # written while entropy_max and lr_decay_* were still config fields
    raw = json.loads(LEGACY_CHECKPOINT.read_text())["config"]
    assert {"entropy_max", "lr_decay_rate", "lr_decay_enabled"} <= raw.keys()
    agent, _ = load_checkpoint(LEGACY_CHECKPOINT)
    again, _ = load_checkpoint(LEGACY_CHECKPOINT)
    state = np.linspace(-1.0, 1.0, agent.state_dim)
    a = agent.select_action(state, SelectMode.DETERMINISTIC).v_set_per_plant
    assert np.all(np.isfinite(a))
    assert np.array_equal(a, again.select_action(state, SelectMode.DETERMINISTIC).v_set_per_plant)


def _checkpoint_with_config(tmp_path, **config_keys):
    path = tmp_path / "ck.json"
    save_checkpoint(path, make_agent(), None)
    doc = json.loads(path.read_text())
    doc["config"].update(config_keys)
    path.write_text(json.dumps(doc))
    return path


def test_checkpoint_trained_with_lr_decay_is_refused(tmp_path):
    path = _checkpoint_with_config(tmp_path, lr_decay_rate=0.15, lr_decay_enabled=True)
    with pytest.raises(ValueError, match="lr_decay_enabled"):
        load_checkpoint(path)


@pytest.mark.parametrize("key, value", [("batch_size", "64"), ("batch_size", 64.0),
                                        ("gamma", False), ("n_episodes", "5"),
                                        ("target_entropy", "-5")])
def test_config_value_of_the_wrong_json_type_is_refused(key, value):
    with pytest.raises(ValueError, match=f"SacConfig key {key} must be"):
        SacConfig.from_dict({key: value})


def test_config_takes_null_for_optional_fields_and_integers_for_floats():
    cfg = SacConfig.from_dict({"n_episodes": None, "target_entropy": None, "gamma": 1})
    assert cfg == SacConfig(gamma=1)
    with pytest.raises(ValueError, match="SacConfig must be a JSON object"):
        SacConfig.from_dict([["batch_size", 64]])


def test_checkpoint_with_unknown_config_key_is_refused(tmp_path):
    with pytest.raises(ValueError, match="entropy_cap"):
        load_checkpoint(_checkpoint_with_config(tmp_path, entropy_cap=0.1))


def test_failed_checkpoint_overwrite_keeps_the_old_file(tmp_path, monkeypatch):
    path = tmp_path / "ck.json"
    old = make_agent(seed=1)
    save_checkpoint(path, old, None)

    def crash(src, dst):
        raise OSError("crash before rename")

    monkeypatch.setattr(os, "replace", crash)
    with pytest.raises(OSError):
        save_checkpoint(path, make_agent(seed=2), None)
    monkeypatch.undo()
    loaded, _ = load_checkpoint(path)
    assert np.array_equal(loaded.policy.params, old.policy.params)
    assert [p.name for p in tmp_path.iterdir()] == ["ck.json"]
