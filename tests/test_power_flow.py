"""Newton-Raphson solver, branch flows, reactive limits, and limit audits."""

import numpy as np
import pytest

from gridsac.grid_model import (Branch, Bus, BusKind, GridCase,
                                with_plant_setpoints)
from gridsac.power_flow import (PowerFlowSolution, SolverOptions,
                                audit_violations, build_admittance,
                                compute_branch_flows, solve_newton_raphson)

from conftest import make_three_bus, make_two_bus
from pf_oracle import gauss_seidel

# Closed-form solution of the lossless two-bus case (x=0.1, P=1, Q=0):
# V2*sin(th2)*10 = -1 and V2 = cos(th2), so th2 = -asin(0.2)/2.
TWO_BUS_THETA2 = -0.1006789603951654
TWO_BUS_V2 = 0.9949361530051241


# --- admittance assembly -------------------------------------------------------

def test_admittance_single_line(two_bus):
    y = build_admittance(two_bus).entries
    assert y[0, 1] == pytest.approx(0 + 10j, abs=1e-12)
    assert y[0, 0] == pytest.approx(0 - 10j, abs=1e-12)
    assert np.allclose(y, y.T)


def test_admittance_charging_shifts_diagonal():
    case = make_two_bus(b_charge=0.05)
    y = build_admittance(case).entries
    assert y[0, 0].imag == pytest.approx(-10.0 + 0.05, abs=1e-12)
    assert y[1, 1].imag == pytest.approx(-10.0 + 0.05, abs=1e-12)
    assert y[0, 1] == pytest.approx(10j, abs=1e-12)


def test_admittance_out_of_service_branch(three_bus):
    branches = tuple(
        b if b.id != 3 else Branch(id=3, from_bus=2, to_bus=3, r=0.03, x=0.10,
                                   s_max=1.5, in_service=False)
        for b in three_bus.branches)
    case = GridCase(base_mva=three_bus.base_mva, buses=three_bus.buses,
                    branches=branches, generators=three_bus.generators,
                    plants=three_bus.plants, monitored_buses=three_bus.monitored_buses,
                    monitored_branches=three_bus.monitored_branches)
    y = build_admittance(case).entries
    assert y[1, 2] == 0.0 and y[2, 1] == 0.0


def test_admittance_shunt_sign():
    # A shunt consuming g*V^2 + j*b*V^2 enters the diagonal as g - j*b.
    case = make_two_bus()
    shunted = GridCase(
        base_mva=case.base_mva,
        buses=(case.buses[0],
               Bus(id=2, kind=BusKind.PQ, p_load=1.0, g_shunt=0.2, b_shunt=-0.3)),
        branches=case.branches, generators=case.generators, plants=case.plants,
        monitored_buses=case.monitored_buses, monitored_branches=case.monitored_branches)
    y = build_admittance(shunted).entries
    assert y[1, 1] == pytest.approx(0.2 - 10j + 0.3j, abs=1e-12)


# --- Newton-Raphson --------------------------------------------------------------

def test_flat_noload_network_converges_immediately():
    case = GridCase(
        base_mva=100.0,
        buses=(Bus(id=1, kind=BusKind.SLACK), Bus(id=2, kind=BusKind.PQ),
               Bus(id=3, kind=BusKind.PQ)),
        branches=(Branch(id=1, from_bus=1, to_bus=2, r=0.01, x=0.1),
                  Branch(id=2, from_bus=2, to_bus=3, r=0.01, x=0.1)),
        generators=(), plants=(), monitored_buses=(1, 2, 3),
        monitored_branches=(1, 2))
    sol = solve_newton_raphson(case)
    assert sol.converged
    assert sol.iterations == 1
    assert np.allclose(sol.v_mag, 1.0)
    assert np.allclose(sol.v_ang, 0.0)
    assert np.allclose(sol.flows.p_from, 0.0)
    assert sol.p_loss_total == pytest.approx(0.0, abs=1e-12)


def test_two_bus_matches_frozen_oracle_values(two_bus):
    sol = solve_newton_raphson(two_bus)
    assert sol.converged and sol.iterations <= 20
    assert sol.v_mag[1] == pytest.approx(TWO_BUS_V2, abs=1e-6)
    assert sol.v_ang[1] == pytest.approx(TWO_BUS_THETA2, abs=1e-6)
    # and against the iterative oracle run fresh
    v, ok = gauss_seidel(two_bus)
    assert ok
    assert sol.v_mag[1] == pytest.approx(abs(v[1]), abs=1e-6)
    assert sol.v_ang[1] == pytest.approx(float(np.angle(v[1])), abs=1e-6)


def test_two_bus_slack_flow_matches_oracle(two_bus):
    sol = solve_newton_raphson(two_bus)
    v, ok = gauss_seidel(two_bus)
    assert ok
    # slack-side injection from the oracle's voltages
    y = -1.0 / (1j * 0.1)
    i12 = -y * (v[0] - v[1])
    s12 = v[0] * np.conj(i12)
    assert sol.flows.p_from[0] == pytest.approx(s12.real, abs=1e-6)
    assert sol.flows.q_from[0] == pytest.approx(s12.imag, abs=1e-6)


def test_bundled_cases_converge_and_balance(case3, case14):
    for case in (case3, case14):
        sol = solve_newton_raphson(case)
        assert sol.converged
        assert sol.iterations <= 20
        assert sol.mismatch_inf_norm <= 1e-8
        p_load = sum(b.p_load for b in case.buses)
        shunt = sum(b.g_shunt * sol.v_mag[case.bus_position[b.id]] ** 2
                    for b in case.buses)
        balance = float(np.sum(sol.p_gen_bus)) - p_load - shunt
        assert balance == pytest.approx(sol.p_loss_total, abs=1e-8)


@pytest.mark.parametrize("name", ["case3", "case14"])
def test_oracle_equivalence_on_bundled_cases(name, case3, case14):
    case = {"case3": case3, "case14": case14}[name]
    sol = solve_newton_raphson(case)
    assert not sol.q_limit_switches, "oracle comparison expects a switch-free base"
    v, ok = gauss_seidel(case)
    assert ok
    assert np.max(np.abs(sol.v_mag - np.abs(v))) < 1e-6
    assert np.max(np.abs(sol.v_ang - np.angle(v))) < 1e-6


def test_divergence_flagged_not_raised():
    case = make_two_bus(p_load=40.0)  # far beyond the line's transfer capacity
    sol = solve_newton_raphson(case)
    assert not sol.converged
    assert sol.mismatch_inf_norm > 1e-8 or not np.isfinite(sol.mismatch_inf_norm)


def test_warm_start_reaches_same_fixed_point(case14):
    flat = solve_newton_raphson(case14)
    nudged = with_plant_setpoints(case14, {pid: 1.025 for pid in case14.plant_order})
    intermediate = solve_newton_raphson(nudged)
    warm = solve_newton_raphson(case14, start=intermediate,
                                opts=SolverOptions(flat_start=False))
    assert warm.converged
    assert np.max(np.abs(warm.v_mag - flat.v_mag)) < 1e-8
    assert np.max(np.abs(warm.v_ang - flat.v_ang)) < 1e-8
    assert [s.bus for s in warm.q_limit_switches] == [s.bus for s in flat.q_limit_switches]


def test_loss_nonnegative_on_resistive_cases(case3, case14):
    rng = np.random.default_rng(5)
    for case in (case3, case14):
        for _ in range(5):
            setpoints = {pid: float(rng.uniform(0.95, 1.07))
                         for pid in case.plant_order}
            sol = solve_newton_raphson(with_plant_setpoints(case, setpoints))
            if sol.converged:
                assert sol.p_loss_total >= -1e-10
                assert np.all(sol.flows.p_loss >= -1e-10)


def test_nodal_residuals_satisfy_power_balance(case14):
    # Solution satisfies the explicit nodal equations, branch flows plus
    # shunt consumption, not just the solver's internal mismatch.
    sol = solve_newton_raphson(case14)
    flows = sol.flows
    for bus in case14.buses:
        if bus.kind is BusKind.SLACK:
            continue
        i = case14.bus_position[bus.id]
        p_into_lines = 0.0
        q_into_lines = 0.0
        for k, br in enumerate(case14.branches):
            if br.from_bus == bus.id:
                p_into_lines += flows.p_from[k]
                q_into_lines += flows.q_from[k]
            elif br.to_bus == bus.id:
                p_into_lines += flows.p_to[k]
                q_into_lines += flows.q_to[k]
        v2 = sol.v_mag[i] ** 2
        p_residual = sol.p_gen_bus[i] - bus.p_load - bus.g_shunt * v2 - p_into_lines
        assert p_residual == pytest.approx(0.0, abs=1e-7)
        q_residual = sol.q_gen_bus[i] - bus.q_load - bus.b_shunt * v2 - q_into_lines
        assert q_residual == pytest.approx(0.0, abs=1e-7)


# --- branch flows ----------------------------------------------------------------

def test_equal_voltage_no_flow():
    case = make_two_bus(r=0.01, x=0.1)
    flows = compute_branch_flows(case, np.array([1.0, 1.0]), np.array([0.3, 0.3]))
    assert flows.p_from[0] == pytest.approx(0.0, abs=1e-12)
    assert flows.p_to[0] == pytest.approx(0.0, abs=1e-12)


def test_lossless_line_has_zero_loss(two_bus):
    sol = solve_newton_raphson(two_bus)
    assert abs(sol.flows.p_loss[0]) < 1e-10


def test_out_of_service_branch_carries_nothing(three_bus):
    branches = tuple(
        b if b.id != 3 else Branch(id=3, from_bus=2, to_bus=3, r=0.03, x=0.10,
                                   s_max=1.5, in_service=False)
        for b in three_bus.branches)
    case = GridCase(base_mva=three_bus.base_mva, buses=three_bus.buses,
                    branches=branches, generators=three_bus.generators,
                    plants=three_bus.plants, monitored_buses=three_bus.monitored_buses,
                    monitored_branches=three_bus.monitored_branches)
    sol = solve_newton_raphson(case)
    assert sol.converged
    assert sol.flows.p_from[2] == 0.0 and sol.flows.s_to[2] == 0.0


# --- reactive limits --------------------------------------------------------------

def test_q_limits_inactive_with_headroom():
    case = make_three_bus(q_max_2=1.0)
    unlimited = solve_newton_raphson(case, opts=SolverOptions(enforce_q_limits=False))
    limited = solve_newton_raphson(case)
    assert not limited.q_limit_switches
    assert np.allclose(limited.v_mag, unlimited.v_mag, atol=1e-10)


def test_q_max_zero_pins_bus_and_drops_voltage():
    case = make_three_bus(q_max_2=0.0)
    sol = solve_newton_raphson(case)
    assert sol.converged
    assert [s.bus for s in sol.q_limit_switches] == [2]
    switch = sol.q_limit_switches[0]
    assert switch.limit == "max" and switch.q_pinned == 0.0
    i = case.bus_position[2]
    # generator output held at the limit, voltage below the setpoint
    assert sol.q_gen_bus[i] == pytest.approx(0.0, abs=1e-8)
    assert sol.v_mag[i] < case.generator_by_id[2].v_set


def test_all_pq_case_is_untouched_by_enforcement(two_bus):
    with_limits = solve_newton_raphson(two_bus)
    without = solve_newton_raphson(two_bus, opts=SolverOptions(enforce_q_limits=False))
    assert not with_limits.q_limit_switches
    assert np.array_equal(with_limits.v_mag, without.v_mag)


def test_enforce_q_limits_resolves_violation():
    case = make_three_bus(q_max_2=0.0)
    naive = solve_newton_raphson(case, opts=SolverOptions(enforce_q_limits=False))
    resolved = solve_newton_raphson(case, naive, SolverOptions(flat_start=False))
    assert [s.bus for s in resolved.q_limit_switches] == [2]
    assert resolved.converged
    assert resolved.q_gen_bus[case.bus_position[2]] == pytest.approx(0.0, abs=1e-8)


# --- violation audits ---------------------------------------------------------------

def _solution_with(case, v_mag, v_ang):
    flows = compute_branch_flows(case, v_mag, v_ang)
    return PowerFlowSolution(converged=True, iterations=1, v_mag=v_mag,
                             v_ang=v_ang, flows=flows,
                             p_loss_total=float(np.sum(flows.p_loss)),
                             mismatch_inf_norm=0.0,
                             p_gen_bus=np.zeros(case.n_buses),
                             q_gen_bus=np.zeros(case.n_buses))


def test_thermal_violation_quadratic_excess(three_bus):
    sol = solve_newton_raphson(three_bus)
    report = audit_violations(three_bus, sol)
    assert report.delta_p_overflow == 0.0
    # force S = 1.2 on a branch rated 1.0 by shrinking the rating
    branches = tuple(
        Branch(id=b.id, from_bus=b.from_bus, to_bus=b.to_bus, r=b.r, x=b.x,
               b_charge=b.b_charge,
               s_max=max(sol.flows.s_from[k], sol.flows.s_to[k]) / 1.2)
        for k, b in enumerate(three_bus.branches))
    case = GridCase(base_mva=three_bus.base_mva, buses=three_bus.buses,
                    branches=branches, generators=three_bus.generators,
                    plants=three_bus.plants, monitored_buses=(),
                    monitored_branches=(branches[1].id,))
    report = audit_violations(case, sol)
    s, s_max = report.thermal_violations[0][1], report.thermal_violations[0][2]
    assert s / s_max == pytest.approx(1.2, rel=1e-9)
    assert report.delta_p_overflow == pytest.approx((s - s_max) ** 2, rel=1e-12)


def test_voltage_violation_example_value(three_bus):
    v = np.array([1.1, 1.0, 1.0])
    sol = _solution_with(three_bus, v, np.zeros(3))
    case = GridCase(base_mva=three_bus.base_mva, buses=three_bus.buses,
                    branches=three_bus.branches, generators=three_bus.generators,
                    plants=three_bus.plants, monitored_buses=(1,),
                    monitored_branches=())
    report = audit_violations(case, sol)
    assert report.voltage_violations == [(1, 1.1, 0.97, 1.07)]
    assert report.delta_v_violation == pytest.approx(0.03 * 0.13, abs=1e-12)
    assert report.delta_p_overflow == 0.0


def test_no_violations_empty_report(three_bus):
    sol = solve_newton_raphson(three_bus)
    report = audit_violations(three_bus, sol)
    assert not report.any
    assert report.voltage_violations == [] and report.thermal_violations == []
    assert report.delta_v_violation == 0.0 and report.delta_p_overflow == 0.0


def test_only_monitored_sets_audited(three_bus):
    v = np.array([1.1, 1.1, 1.1])
    sol = _solution_with(three_bus, v, np.zeros(3))
    case = GridCase(base_mva=three_bus.base_mva, buses=three_bus.buses,
                    branches=three_bus.branches, generators=three_bus.generators,
                    plants=three_bus.plants, monitored_buses=(2,),
                    monitored_branches=())
    report = audit_violations(case, sol)
    assert [v[0] for v in report.voltage_violations] == [2]


def test_runtime_under_one_second(case14):
    import time
    t0 = time.perf_counter()
    sol = solve_newton_raphson(case14)
    assert sol.converged
    assert time.perf_counter() - t0 < 1.0
