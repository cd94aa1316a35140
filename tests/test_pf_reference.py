"""The vectorized power flow against the loop reference in ``pf_reference``,
and the lockstep solve against the single solve.

Seeded case14 snapshots (scaled loads and generation, jittered setpoints)
are solved cold, then warm from that solution under random plant setpoints
that drive many reactive-limit switches, by both implementations. Their
control flow must agree exactly and their numbers to within rounding.
"""

from dataclasses import replace

import numpy as np
import pytest

from gridsac.environment import extract_state
from gridsac.grid_model import (Branch, BusKind, GridCase, _copy_with, _derived,
                                with_generation, with_loads, with_plant_setpoints)
from gridsac.harness import SnapshotGenSpec, _snapshot_drawer
from gridsac.power_flow import (SolverOptions, _jacobian, audit_violations,
                                build_admittance, compile_grid,
                                compute_branch_flows, solve_lockstep,
                                solve_newton_raphson)

import pf_reference as ref

N_SNAPSHOTS = 200
TOL = 1e-10
WARM = SolverOptions(flat_start=False)


def _snapshots(base, n, seed, **spec):
    """Snapshots drawn as ``generate_snapshots`` draws them, each paired with
    a random control action on it."""
    spec = SnapshotGenSpec(base_case_path="", output_dir="", n_snapshots=n, **spec)
    rng = np.random.default_rng(seed)
    draw = _snapshot_drawer(base, spec)
    for _ in range(n):
        case = draw(rng)
        action = {pid: rng.uniform(0.9, 1.1) for pid in base.plant_order}
        yield case, with_plant_setpoints(case, action)


def _assert_same(case, new, old):
    assert new.converged == old.converged
    assert new.iterations == old.iterations
    assert new.q_limit_switches == old.q_limit_switches
    if not new.converged:
        return
    for got, want in ((new.v_mag, old.v_mag), (new.v_ang, old.v_ang),
                      (new.p_gen_bus, old.p_gen_bus), (new.q_gen_bus, old.q_gen_bus),
                      *((getattr(new.flows, k), getattr(old.flows, k))
                        for k in ("p_from", "q_from", "p_to", "q_to", "s_from", "s_to",
                                  "p_loss"))):
        assert np.max(np.abs(got - want)) <= TOL
    assert abs(new.p_loss_total - old.p_loss_total) <= TOL
    got, want = audit_violations(case, new), ref.audit_violations(case, old)
    assert [v[0] for v in got.voltage_violations] == [v[0] for v in want.voltage_violations]
    assert [v[0] for v in got.thermal_violations] == [v[0] for v in want.thermal_violations]
    assert abs(got.delta_v_violation - want.delta_v_violation) <= TOL
    assert abs(got.delta_p_overflow - want.delta_p_overflow) <= TOL
    assert np.max(np.abs(extract_state(case, new).values
                         - ref.extract_state(case, old).values)) <= TOL


def _compare_cold_and_warm(case14, n, cold_opts):
    """Solve ``n`` snapshots cold and then warm under their control action by
    both implementations; return the number of warm solves that switched a
    bus and the number of solves that did not converge."""
    warm_opts = replace(cold_opts, flat_start=False)
    switched = failed = 0
    for snapshot, controlled in _snapshots(case14, n, seed=2012):
        cold = solve_newton_raphson(snapshot, opts=cold_opts)
        cold_ref = ref.solve_newton_raphson(snapshot, opts=cold_opts)
        _assert_same(snapshot, cold, cold_ref)
        # The warm solve reuses one grid, as an episode does.
        grid = compile_grid(snapshot)
        warm = solve_newton_raphson(controlled, cold, warm_opts, grid=grid)
        warm_ref = ref.solve_newton_raphson(controlled, cold_ref, warm_opts)
        _assert_same(controlled, warm, warm_ref)
        switched += bool(warm.q_limit_switches)
        failed += (not cold.converged) + (not warm.converged)
    return switched, failed


def test_solutions_match_the_loop_reference(case14):
    switched, _ = _compare_cold_and_warm(case14, N_SNAPSHOTS, SolverOptions())
    # The random setpoints exercise the reactive-limit outer loop.
    assert switched >= N_SNAPSHOTS // 4


@pytest.mark.parametrize("budget", [0, 1, 2])
def test_solutions_match_the_loop_reference_under_a_q_limit_budget(case14, budget):
    switched, failed = _compare_cold_and_warm(case14, 100, SolverOptions(q_limit_budget=budget))
    if budget == 0:
        # Limits not enforced: no bus switches and every solve converges.
        assert (switched, failed) == (0, 0)
    else:
        # Some solves still violate a limit when the budget runs out.
        assert switched and failed


def test_divergence_matches_the_loop_reference(case14):
    # Loads of up to 2.5 times the base case push about half the snapshots
    # past the point of collapse.
    diverged = 0
    for snapshot, controlled in _snapshots(case14, 40, seed=7, load_scale_low=1.0,
                                           load_scale_high=2.5):
        cold, cold_ref = solve_newton_raphson(snapshot), ref.solve_newton_raphson(snapshot)
        _assert_same(snapshot, cold, cold_ref)
        warm = solve_newton_raphson(controlled, cold, WARM)
        _assert_same(controlled, warm, ref.solve_newton_raphson(controlled, cold_ref, WARM))
        diverged += (not cold.converged) + (not warm.converged)
    assert diverged >= 10


def test_admittance_and_flows_match_the_loop_reference(case3, case14, three_bus):
    out_of_service = GridCase(
        base_mva=three_bus.base_mva, buses=three_bus.buses,
        branches=tuple(b if b.id != 3 else Branch(id=3, from_bus=2, to_bus=3, r=0.03,
                                                  x=0.10, s_max=1.5, in_service=False)
                       for b in three_bus.branches),
        generators=three_bus.generators, plants=three_bus.plants,
        monitored_buses=three_bus.monitored_buses,
        monitored_branches=three_bus.monitored_branches)
    rng = np.random.default_rng(3)
    for case in (case3, case14, out_of_service):
        assert np.array_equal(build_admittance(case).entries, ref.build_admittance(case))
        for _ in range(5):
            vm = rng.uniform(0.9, 1.1, case.n_buses)
            va = rng.uniform(-0.5, 0.5, case.n_buses)
            got, want = compute_branch_flows(case, vm, va), ref.compute_branch_flows(case, vm, va)
            for k in ("p_from", "q_from", "p_to", "q_to", "s_from", "s_to", "p_loss"):
                assert np.max(np.abs(getattr(got, k) - getattr(want, k))) <= TOL


def test_jacobian_matches_the_dense_reference(case14):
    grid = compile_grid(case14)
    rng = np.random.default_rng(11)
    pv = np.flatnonzero(grid.is_pv)
    pq = np.setdiff1d(np.flatnonzero(~grid.is_pv), [grid.slack])
    pvpq = np.concatenate([pv, pq])
    reduced = np.concatenate([pvpq, grid.n + pq])
    for _ in range(10):
        vm = rng.uniform(0.9, 1.1, grid.n)
        v = vm * np.exp(1j * rng.uniform(-0.3, 0.3, grid.n))
        got = _jacobian(grid.ybus, v, grid.ybus @ v, vm)[np.ix_(reduced, reduced)]
        want = ref._jacobian(grid.ybus, v, vm, pvpq, pq)
        assert np.max(np.abs(got - want)) <= TOL


def test_grid_from_another_topology_is_refused(case3, case14):
    grid = compile_grid(case14)
    sol = solve_newton_raphson(case14, grid=grid)
    for call in (lambda c: solve_newton_raphson(c, grid=grid),
                 lambda c: compute_branch_flows(c, sol.v_mag, sol.v_ang, grid=grid),
                 lambda c: audit_violations(c, sol, grid=grid),
                 lambda c: extract_state(c, sol, grid=grid)):
        with pytest.raises(ValueError, match="compiled grid does not match"):
            call(case3)
    # Same topology, other operating data: loads and generation are compiled
    # into the grid, so it refuses those too; setpoints it reads per solve.
    with pytest.raises(ValueError):
        solve_newton_raphson(with_loads(case14, {2: 0.3}), grid=grid)
    with pytest.raises(ValueError):
        solve_newton_raphson(with_generation(case14, {2: 0.5}), grid=grid)
    nudged = with_plant_setpoints(case14, {pid: 1.03 for pid in case14.plant_order})
    assert solve_newton_raphson(nudged, grid=grid).converged


def test_compiled_grid_is_not_cached_on_the_case(case14):
    solve_newton_raphson(case14)
    assert not any(type(v).__name__ == "CompiledGrid" for v in vars(case14).values())
    assert build_admittance(case14).entries.flags.writeable is False


# --- lockstep solve -------------------------------------------------------------

# on case14 about all, 4/5 and 1/10 of the snapshots converge; on case3 all
LOAD_SCALES = [(0.8, 1.2), (0.5, 2.6), (0.8, 3.5)]


def _assert_lockstep_matches_single(grid, cases, opts=SolverOptions()):
    """Solve ``cases`` in one lockstep and one at a time, and require the
    same flag, iterations and pinned buses per case, and the same voltages
    to within rounding where it converged. Returns the lockstep solution."""
    got = solve_lockstep(grid, cases, opts)
    for k, case in enumerate(cases):
        want = solve_newton_raphson(case, opts=opts)
        assert got.converged[k] == want.converged
        assert got.iterations[k] == want.iterations
        limits = {s.bus: s.limit for s in want.q_limit_switches}
        assert grid.bus_ids[got.pinned[k]].tolist() == sorted(limits)
        assert grid.bus_ids[got.at_max[k]].tolist() == sorted(
            bus for bus, limit in limits.items() if limit == "max")
        if want.converged:
            assert np.max(np.abs(got.v_mag[k] - want.v_mag)) <= TOL
            assert np.max(np.abs(got.v_ang[k] - want.v_ang)) <= TOL
    return got


@pytest.mark.parametrize("name", ["case3", "case14"])
@pytest.mark.parametrize("scale", LOAD_SCALES, ids=lambda s: f"{s[0]}-{s[1]}")
def test_lockstep_matches_the_single_solve(case3, case14, name, scale):
    base = {"case3": case3, "case14": case14}[name]
    grid = compile_grid(base)
    # cold snapshots, and the same under random setpoints for Q-limit switching
    cases = [case for pair in _snapshots(base, N_SNAPSHOTS // 2, seed=2012,
                                         load_scale_low=scale[0], load_scale_high=scale[1])
             for case in pair]
    converged, pinned = [], []
    for start in range(0, len(cases), 32):
        got = _assert_lockstep_matches_single(grid, cases[start:start + 32])
        converged += got.converged.tolist()
        pinned += got.pinned.any(axis=1).tolist()
    if name == "case14" and scale != LOAD_SCALES[0]:
        # some candidates lie past the point of collapse
        assert any(converged) and not all(converged)
    assert any(pinned)


def test_lockstep_fails_only_the_row_with_a_singular_jacobian(case14, caplog):
    cases = [case for case, _ in _snapshots(case14, 8, seed=3)]
    # A PV bus held at zero volts has an all-zero active-power row. Case
    # validation refuses such a setpoint, so the case is built around it.
    dead = next(g.id for g in case14.generators if case14.bus_by_id[g.bus].kind is BusKind.PV)
    cases[5] = _derived(cases[5], generators=tuple(
        _copy_with(g, v_set=0.0) if g.id == dead else g for g in cases[5].generators))
    with np.errstate(invalid="ignore"):         # V / |V| at the dead bus
        got = _assert_lockstep_matches_single(compile_grid(case14), cases)
    assert got.converged.tolist() == [True] * 5 + [False] + [True] * 2
    assert got.iterations[5] == 1
    assert [r.getMessage() for r in caplog.records].count("singular Jacobian at iteration 1") == 2


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_lockstep_fails_only_the_row_with_non_finite_injections(case14, bad):
    cases = [case for case, _ in _snapshots(case14, 6, seed=4)]
    cases[2] = _derived(cases[2], buses=tuple(
        _copy_with(b, p_load=bad) if b.kind is BusKind.PQ else b for b in cases[2].buses))
    got = _assert_lockstep_matches_single(compile_grid(case14), cases)
    assert got.converged.tolist() == [True, True, False, True, True, True]
    assert got.iterations[2] == 1


def test_lockstep_where_every_row_diverges(case14):
    cases = [case for case, _ in _snapshots(case14, 12, seed=5, load_scale_low=4.0,
                                            load_scale_high=5.0)]
    got = _assert_lockstep_matches_single(compile_grid(case14), cases)
    assert not got.converged.any()


@pytest.mark.parametrize("budget", [0, 1])
def test_lockstep_under_a_q_limit_budget(case14, caplog, budget):
    cases = [controlled for _, controlled in _snapshots(case14, 40, seed=6)]
    got = _assert_lockstep_matches_single(compile_grid(case14), cases,
                                          SolverOptions(q_limit_budget=budget))
    exhausted = [r for r in caplog.records if "budget exhausted" in r.getMessage()]
    if budget == 0:
        # limits unenforced: nothing is pinned and every row converges
        assert got.converged.all() and not got.pinned.any() and not exhausted
    else:
        # each exhausted budget is warned once by either solve
        assert got.pinned.any() and 2 * np.count_nonzero(~got.converged) == len(exhausted) > 0


def test_lockstep_refuses_a_case_of_another_network(case3, case14):
    grid = compile_grid(case14)
    served = with_plant_setpoints(with_generation(with_loads(case14, {4: 0.5}), {2: 0.3}),
                                  {pid: 1.03 for pid in case14.plant_order})
    assert solve_lockstep(grid, [case14, served]).converged.all()
    shunted = replace(case14, buses=tuple(replace(b, b_shunt=0.1) if b.id == 4 else b
                                          for b in case14.buses))
    limited = replace(case14, generators=tuple(replace(g, q_max=g.q_max + 1.0)
                                               for g in case14.generators))
    for other in (case3, shunted, limited):
        with pytest.raises(ValueError, match="does not match the compiled grid"):
            solve_lockstep(grid, [case14, other])
