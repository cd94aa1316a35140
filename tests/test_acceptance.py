"""Acceptance suite: one test and one printed PASS/FAIL line per criterion.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they
appear. The two campaign fixtures train real agents and dominate the suite's
runtime (about 15 minutes on one desktop CPU core); every run is seeded, so
results repeat exactly on the same machine.
"""

import csv
import time
from pathlib import Path

import numpy as np
import pytest

from gridsac.environment import GridControlEnv
from gridsac.grid_model import bundled_case, load_case, parse_case, serialize_case
from gridsac.harness import (CampaignConfig, ModelRegistry, RunConfig,
                             SnapshotGenSpec, evaluate, generate_snapshots,
                             run_campaign, snapshot_paths, split_snapshots)
from gridsac.neural import backward, forward, init_network
from gridsac.power_flow import ViolationReport, solve_newton_raphson
from gridsac.sac import (ReplayBuffer, SacAgent, SacConfig, SelectMode,
                         Transition, load_checkpoint)

from pf_oracle import gauss_seidel
from test_neural import flat_grads, numeric_grads

pytestmark = pytest.mark.acceptance

CASE3 = "src/gridsac/cases/case3.json"
CASE14 = "src/gridsac/cases/case14.json"


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


# --- shared campaign fixtures -------------------------------------------------------

@pytest.fixture(scope="session")
def toy_campaign(tmp_path_factory):
    """Criterion 5 workload: a 3-bus campaign of three learning configurations
    plus a frozen (zero learning rate) baseline run."""
    root = tmp_path_factory.mktemp("toy_campaign")
    t0 = time.time()
    snaps = generate_snapshots(SnapshotGenSpec(
        base_case_path=CASE3, output_dir=str(root / "snaps"), n_snapshots=500,
        setpoint_jitter=0.02, seed=42))
    common = dict(batch_size=64, max_episode_steps=10, alpha_init=0.1,
                  start_steps=10000, n_epochs=5, updates_per_step=2)
    runs = [
        RunConfig(run_id="default-entropy", case_path=CASE3, snapshot_dir=str(snaps),
                  seed=1, sac=SacConfig(lr_q=5e-4, lr_pi=5e-4, lr_alpha=5e-4,
                                        random_seed=17, **common)),
        RunConfig(run_id="alt-seed", case_path=CASE3, snapshot_dir=str(snaps),
                  seed=2, sac=SacConfig(lr_q=5e-4, lr_pi=5e-4, lr_alpha=5e-4,
                                        random_seed=30, **common)),
        RunConfig(run_id="narrow-entropy", case_path=CASE3, snapshot_dir=str(snaps),
                  seed=1, sac=SacConfig(lr_q=5e-4, lr_pi=5e-4, lr_alpha=5e-4,
                                        random_seed=17, target_entropy=-4.0, **common)),
        RunConfig(run_id="zz-frozen", case_path=CASE3, snapshot_dir=str(snaps),
                  seed=1, sac=SacConfig(lr_q=0.0, lr_pi=0.0, lr_alpha=0.0,
                                        random_seed=17, batch_size=64,
                                        max_episode_steps=10, alpha_init=0.1,
                                        start_steps=10000, n_epochs=1)),
    ]
    config = CampaignConfig(runs=runs, output_dir=str(root / "campaign"), split_seed=5)
    best = run_campaign(config)
    elapsed = time.time() - t0
    registry = ModelRegistry(root / "campaign" / "registry")
    with open(Path(best.metrics_path)) as fh:
        episodes = list(csv.DictReader(fh))
    return {"root": root, "snaps": snaps, "best": best, "registry": registry,
            "episodes": episodes, "elapsed": elapsed}


@pytest.fixture(scope="session")
def grid_campaign(tmp_path_factory):
    """Criterion 6 workload: 2,000 synthetic 14-bus snapshots, 80/20 split,
    two learning runs with distinct hyperparameters."""
    root = tmp_path_factory.mktemp("grid_campaign")
    snaps = generate_snapshots(SnapshotGenSpec(
        base_case_path=CASE14, output_dir=str(root / "snaps"), n_snapshots=2000,
        setpoint_jitter=0.02, seed=42))
    common = dict(batch_size=64, max_episode_steps=10, start_steps=10000,
                  n_epochs=3, updates_per_step=2)
    runs = [
        RunConfig(run_id="run-a", case_path=CASE14, snapshot_dir=str(snaps), seed=1,
                  sac=SacConfig(lr_q=5e-4, lr_pi=5e-4, lr_alpha=5e-4,
                                alpha_init=0.1, random_seed=17, **common)),
        RunConfig(run_id="run-b", case_path=CASE14, snapshot_dir=str(snaps), seed=2,
                  sac=SacConfig(lr_q=3e-4, lr_pi=3e-4, lr_alpha=3e-4,
                                alpha_init=0.05, random_seed=23, **common)),
    ]
    config = CampaignConfig(runs=runs, output_dir=str(root / "campaign"), split_seed=5)
    best = run_campaign(config)
    return {"root": root, "snaps": snaps, "best": best,
            "registry": ModelRegistry(root / "campaign" / "registry")}


# --- criterion 1: power-flow correctness ----------------------------------------------

def test_criterion_1_power_flow_correctness():
    details = []
    ok = True
    for name in ("case3", "case14"):
        case = bundled_case(name)
        t0 = time.perf_counter()
        sol = solve_newton_raphson(case)
        dt = time.perf_counter() - t0
        v, oracle_ok = gauss_seidel(case)
        dv = float(np.max(np.abs(sol.v_mag - np.abs(v))))
        da = float(np.max(np.abs(sol.v_ang - np.angle(v))))
        ok &= (sol.converged and sol.iterations <= 20
               and sol.mismatch_inf_norm <= 1e-8 and oracle_ok
               and dv < 1e-6 and da < 1e-6 and dt < 1.0)
        details.append(f"{name}: it={sol.iterations} mis={sol.mismatch_inf_norm:.1e} "
                       f"dV={dv:.1e} dth={da:.1e} t={dt*1e3:.1f}ms")
    report(1, ok, "; ".join(details))


# --- criterion 2: physics identities ----------------------------------------------------

def test_criterion_2_physics_identities(tmp_path):
    worst_balance = 0.0
    worst_loss = 0.0
    n_checked = 0
    for case_path, n in ((CASE3, 40), (CASE14, 40)):
        out = generate_snapshots(SnapshotGenSpec(
            base_case_path=case_path, output_dir=str(tmp_path / Path(case_path).stem),
            n_snapshots=n, setpoint_jitter=0.03, seed=7))
        for p in snapshot_paths(out):
            case = load_case(p)
            sol = solve_newton_raphson(case)
            if not sol.converged:
                continue
            n_checked += 1
            p_load = sum(b.p_load for b in case.buses)
            shunt = sum(b.g_shunt * sol.v_mag[case.bus_position[b.id]] ** 2
                        for b in case.buses)
            residual = abs(float(np.sum(sol.p_gen_bus)) - p_load - shunt
                           - sol.p_loss_total)
            worst_balance = max(worst_balance, residual)
            worst_loss = min(worst_loss, float(np.min(sol.flows.p_loss)),
                             sol.p_loss_total)
    ok = n_checked >= 70 and worst_balance <= 1e-7 and worst_loss >= -1e-10
    report(2, ok, f"{n_checked} snapshots, worst energy residual {worst_balance:.2e}, "
                  f"most negative loss {worst_loss:.2e}")


# --- criterion 3: reward table -----------------------------------------------------------

def test_criterion_3_reward_table():
    from gridsac.environment import compute_reward

    clean = ViolationReport()
    violating = ViolationReport()
    violating.voltage_violations.append((1, 1.1, 0.97, 1.07))
    violating.delta_v_violation = 100.0
    violating.thermal_violations.append((1, 1.2, 1.0))
    violating.delta_p_overflow = 10.0

    checks = [
        (compute_reward(0.99, 1.0, clean), 60.0),
        (compute_reward(1.03, 1.0, clean), -100.0),
        (compute_reward(1.01, 1.0, clean), -1.5),
        (compute_reward(1.0, 1.0, violating), -2.0),
        ((1.2 - 1.0) ** 2, 0.04),                      # thermal excess term
        ((1.1 - 1.07) * (1.1 - 0.97), 0.0039),         # voltage excess term
    ]
    worst = max(abs(got - want) for got, want in checks)
    report(3, worst <= 1e-12, f"6 tabulated values, worst error {worst:.2e}")


# --- criterion 4: gradient fidelity ---------------------------------------------------------

def test_criterion_4_gradient_fidelity():
    worst = 0.0
    for seed in (0, 1, 2):
        rng = np.random.default_rng(seed)
        for dims in ((6, 64, 64, 3), (4, 32, 2), (8, 16, 16, 16, 4)):
            net = init_network(dims, rng)
            for b in net.biases:
                b[:] = rng.normal(scale=0.05, size=b.shape)
            x = rng.normal(size=(3, dims[0]))
            w = rng.normal(size=(3, dims[-1]))
            _, tape = forward(net, x)
            analytic = flat_grads(backward(net, tape, w))
            numeric = numeric_grads(net, x, w)
            denom = np.maximum(np.maximum(np.abs(numeric), np.abs(analytic)), 1e-4)
            worst = max(worst, float(np.max(np.abs(analytic - numeric) / denom)))
    report(4, worst <= 1e-4, f"3 seeds x 3 architectures, worst relative error {worst:.2e}")


# --- criterion 5: SAC learning signal --------------------------------------------------------

def test_criterion_5_learning_signal(toy_campaign):
    best = toy_campaign["best"]
    rewards = np.array([float(r["reward"]) for r in toy_campaign["episodes"]])
    first, last = rewards[:100].mean(), rewards[-100:].mean()

    reports = {e.run_id: e.report for e in toy_campaign["registry"].entries()}
    untrained = reports["zz-frozen"].valid_control_fraction
    trained = best.report.valid_control_fraction

    # uniform-random action policy on the same shared test split
    _, test_paths = split_snapshots(snapshot_paths(toy_campaign["snaps"]), 0.8, 5)
    _, norm = load_checkpoint(best.checkpoint_path)
    env = GridControlEnv(iter([load_case(p) for p in test_paths]),
                         normalizer=norm, max_steps=10)
    rng = np.random.default_rng(1234)
    solved = 0
    for _ in range(len(test_paths)):
        env.reset()
        for _ in range(10):
            result = env.step(1.0 + 0.1 * rng.uniform(-1.0, 1.0, 2))
            if result.done:
                break
        solved += result.done_reason.value == "Solved"
    random_policy = solved / len(test_paths)

    baseline = max(untrained, random_policy)
    ok = (last > first and best.run_id != "zz-frozen"
          and trained > 0 and trained >= 2.0 * baseline
          and toy_campaign["elapsed"] <= 1800.0)
    report(5, ok,
           f"best={best.run_id} reward {first:.1f} -> {last:.1f}; "
           f"solved {trained:.3f} vs untrained {untrained:.3f} / "
           f"random {random_policy:.3f}; {toy_campaign['elapsed']:.0f}s")


# --- criterion 6: desk-scale control quality ---------------------------------------------------

def test_criterion_6_control_quality(grid_campaign):
    best = grid_campaign["best"]
    r = best.report
    n_total = len(snapshot_paths(grid_campaign["snaps"]))
    ok = (n_total >= 2000 and r.n_snapshots >= 0.19 * n_total
          and r.valid_control_fraction >= 0.70
          and r.mean_loss_reduction_pct >= 0.5)
    report(6, ok,
           f"{n_total} snapshots, test n={r.n_snapshots}; best={best.run_id} "
           f"solved={r.valid_control_fraction:.3f} (needs >= 0.70), "
           f"reduced>=0.5% on {r.reduced_fraction:.3f}, "
           f"mean reduction {r.mean_loss_reduction_pct:.2f}%, "
           f"violations resolved {r.violations_resolved}/{r.violation_snapshots}")


def test_criterion_6_overfit_direction(grid_campaign):
    # training-side evaluation sits at or above the test-side fraction
    best = grid_campaign["best"]
    train_paths, _ = split_snapshots(snapshot_paths(grid_campaign["snaps"]), 0.8, 5)
    train_report = evaluate(best.checkpoint_path, train_paths[:300])
    ok = (train_report.valid_control_fraction
          >= best.report.valid_control_fraction - 0.02)
    report(6, ok, f"train-subsample solved={train_report.valid_control_fraction:.3f} "
                  f">= test {best.report.valid_control_fraction:.3f} - 0.02 "
                  f"(overfit direction)")


# --- criterion 7: inference latency ---------------------------------------------------------

def test_criterion_7_inference_latency():
    agent = SacAgent.create(68, 5, SacConfig(random_seed=17))
    rng = np.random.default_rng(0)
    states = rng.normal(size=(1000, 68))
    agent.select_action(states[0], SelectMode.DETERMINISTIC)  # warm the caches
    times = np.empty(1000)
    for k in range(1000):
        t0 = time.perf_counter()
        agent.select_action(states[k], SelectMode.DETERMINISTIC)
        times[k] = time.perf_counter() - t0
    p95 = float(np.percentile(times, 95))
    report(7, p95 < 0.020,
           f"policy forward + mapping over 1000 calls: p95 {p95*1e3:.3f} ms (< 20 ms)")


# --- criterion 8: determinism ----------------------------------------------------------------

def test_criterion_8_determinism(tmp_path):
    outcomes = []
    for rep in range(2):
        root = tmp_path / f"rep{rep}"
        snaps = generate_snapshots(SnapshotGenSpec(
            base_case_path=CASE3, output_dir=str(root / "snaps"), n_snapshots=60,
            setpoint_jitter=0.02, seed=9))
        runs = [
            RunConfig(run_id=rid, case_path=CASE3, snapshot_dir=str(snaps), seed=s,
                      sac=SacConfig(batch_size=32, start_steps=200, n_epochs=2,
                                    random_seed=10 + s, n_episodes=70))
            for rid, s in (("da", 1), ("db", 2))
        ]
        best = run_campaign(CampaignConfig(runs=runs, output_dir=str(root / "campaign"),
                                           split_seed=3))
        registry = ModelRegistry(root / "campaign" / "registry")
        metric_bytes = tuple(Path(e.metrics_path).read_bytes()
                             for e in registry.entries())
        checkpoint_bytes = tuple(Path(e.checkpoint_path).read_bytes()
                                 for e in registry.entries())
        outcomes.append((best.run_id, metric_bytes, checkpoint_bytes))
    ok = (outcomes[0][0] == outcomes[1][0]
          and outcomes[0][1] == outcomes[1][1]
          and outcomes[0][2] == outcomes[1][2])
    report(8, ok, f"two campaigns: selection '{outcomes[0][0]}' both times, "
                  f"metrics and checkpoints byte-identical={ok}")


# --- criterion 9: property suites -------------------------------------------------------------

def test_criterion_9_property_suites():
    failures = []

    # replay FIFO
    buf = ReplayBuffer(8, 2, 1)
    for k in range(11):
        buf.add(Transition(np.full(2, float(k)), np.zeros(1), float(k),
                           np.zeros(2), 0.0))
    if [t.reward for t in buf.transitions()] != [float(k) for k in range(3, 11)]:
        failures.append("replay FIFO")

    # polyak contraction
    rng = np.random.default_rng(0)
    for polyak in (0.0, 0.25, 0.9, 1.0):
        target = init_network((3, 8, 2), rng)
        source = init_network((3, 8, 2), rng)
        from gridsac.neural import network_to_flat, polyak_update
        gap0 = np.abs(network_to_flat(target) - network_to_flat(source))
        polyak_update(target, source, polyak)
        gap1 = np.abs(network_to_flat(target) - network_to_flat(source))
        if not np.all(gap1 <= polyak * gap0 + 1e-15):
            failures.append(f"polyak contraction ({polyak})")

    # reward branch exclusivity and precedence
    from gridsac.environment import compute_reward
    violating = ViolationReport()
    violating.voltage_violations.append((1, 1.1, 0.97, 1.07))
    violating.delta_v_violation = 0.1
    for delta in (-0.3, -0.001, 0.0, 0.01, 0.02, 0.4):
        got = compute_reward(1.0 + delta, 1.0, violating)
        if got != pytest.approx(-0.001, abs=1e-15):
            failures.append("reward precedence")
            break

    # normalizer standardization identity
    from gridsac.environment import fit_normalizer
    sample = [rng.normal(size=5) * [1, 5, 50, 0.2, 1e-9] for _ in range(40)]
    norm = fit_normalizer(sample)
    transformed = np.stack([norm.transform(s) for s in sample])
    if np.max(np.abs(transformed.mean(axis=0))) >= 1e-9:
        failures.append("normalizer identity")

    # case-file round-trip
    for name in ("case3", "case14"):
        case = bundled_case(name)
        if parse_case(serialize_case(case)) != case:
            failures.append(f"round-trip {name}")

    report(9, not failures, "replay FIFO, polyak contraction, reward precedence, "
                            "normalizer identity, case round-trip"
                            + (f"; FAILED: {failures}" if failures else ""))
