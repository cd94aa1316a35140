"""Loop-based reference power flow: the per-bus and per-branch formulation
the vectorized solver in :mod:`gridsac.power_flow` replaced.

Kept only so tests can compare the two. It follows the same algorithm step
by step (same start, same mismatch, same Q-limit outer loop), builds the
Jacobian from dense ``np.diag`` products, and returns the library's own
solution types, so results compare field by field.
"""

from dataclasses import replace

import numpy as np

from gridsac.environment import StateVector, state_layout
from gridsac.grid_model import BusKind, GridCase
from gridsac.power_flow import (BranchFlows, PowerFlowSolution, QLimitSwitch,
                                SolverOptions, ViolationReport)

from pf_oracle import derive_admittance_params


def build_admittance(case: GridCase) -> np.ndarray:
    n = case.n_buses
    pos = case.bus_position
    y = np.zeros((n, n), dtype=complex)
    for br in case.branches:
        if not br.in_service:
            continue
        g, b = derive_admittance_params(br)
        ys = g + 1j * b
        i, j = pos[br.from_bus], pos[br.to_bus]
        y[i, j] -= ys
        y[j, i] -= ys
        y[i, i] += ys + 1j * br.b_charge
        y[j, j] += ys + 1j * br.b_charge
    for bus in case.buses:
        y[pos[bus.id], pos[bus.id]] += bus.g_shunt - 1j * bus.b_shunt
    return y


def _bus_arrays(case: GridCase):
    n = case.n_buses
    p_sched = np.zeros(n)
    q_sched = np.zeros(n)
    v_target = np.ones(n)
    kinds = np.empty(n, dtype=object)
    for bus in case.buses:
        i = case.bus_position[bus.id]
        kinds[i] = bus.kind
        p_sched[i] -= bus.p_load
        q_sched[i] -= bus.q_load
        v_target[i] = bus.v_mag
    for bus_id, gens in case.generators_at_bus.items():
        if not gens:
            continue
        i = case.bus_position[bus_id]
        p_sched[i] += sum(g.p_gen for g in gens)
        q_sched[i] += sum(g.q_gen for g in gens)
        if kinds[i] is not BusKind.PQ:
            v_target[i] = float(np.mean([g.v_set for g in gens]))
    return p_sched, q_sched, v_target, kinds


def solve_newton_raphson(case: GridCase, start: PowerFlowSolution | None = None,
                         opts: SolverOptions = SolverOptions()) -> PowerFlowSolution:
    ybus = build_admittance(case)
    p_sched, q_sched, v_target, kinds = _bus_arrays(case)
    pinned: dict[int, QLimitSwitch] = {}
    budget = opts.q_limit_budget
    sol = _solve_inner(case, ybus, p_sched, q_sched, v_target, kinds, start, opts, pinned)
    warm = replace(opts, flat_start=False)
    for _ in range(budget):
        if not sol.converged:
            break
        switches = _q_limit_violations(case, ybus, sol, kinds, pinned)
        if not switches:
            break
        for sw in switches:
            pinned[sw.bus] = sw
        sol = _solve_inner(case, ybus, p_sched, q_sched, v_target, kinds, sol, warm, pinned)
    else:
        if budget and sol.converged and _q_limit_violations(case, ybus, sol, kinds, pinned):
            sol = replace(sol, converged=False)
    return sol


def _solve_inner(case, ybus, p_sched, q_sched, v_target, kinds, start, opts, pinned):
    n = case.n_buses
    pos = case.bus_position
    slack = pos[case.slack_bus.id]
    q_sched = q_sched.copy()
    is_pv = np.array([k is BusKind.PV for k in kinds])
    for bus_id, sw in pinned.items():
        i = pos[bus_id]
        is_pv[i] = False
        q_sched[i] = sw.q_pinned - case.bus_by_id[bus_id].q_load
    is_pq = ~is_pv
    is_pq[slack] = False
    pv = np.flatnonzero(is_pv)
    pq = np.flatnonzero(is_pq)
    pvpq = np.concatenate([pv, pq])

    if start is not None and not opts.flat_start:
        vm = start.v_mag.copy()
        va = start.v_ang.copy()
    else:
        vm = np.ones(n)
        va = np.zeros(n)
    vm[slack] = v_target[slack]
    vm[pv] = v_target[pv]
    va[slack] = case.slack_bus.v_ang

    iterations = 0
    mismatch_norm = np.inf
    converged = False
    for _ in range(opts.max_iterations + 1):
        iterations += 1
        v = vm * np.exp(1j * va)
        s_calc = v * np.conj(ybus @ v)
        dp = p_sched - s_calc.real
        dq = q_sched - s_calc.imag
        f = np.concatenate([dp[pvpq], dq[pq]])
        mismatch_norm = float(np.max(np.abs(f))) if f.size else 0.0
        if not np.isfinite(mismatch_norm):
            break
        if mismatch_norm <= opts.tolerance:
            converged = True
            break
        if iterations > opts.max_iterations:
            break
        try:
            dx = np.linalg.solve(_jacobian(ybus, v, vm, pvpq, pq), f)
        except np.linalg.LinAlgError:
            break
        if not np.all(np.isfinite(dx)):
            break
        va[pvpq] += dx[: pvpq.size]
        vm[pq] += dx[pvpq.size:]
        if np.any(vm <= 0.0):
            break
    return _finalize(case, ybus, vm, va, converged, iterations, mismatch_norm, pinned)


def _jacobian(ybus, v, vm, pvpq, pq):
    diag_v = np.diag(v)
    diag_i = np.diag(ybus @ v)
    ds_dth = 1j * diag_v @ np.conj(diag_i - ybus @ diag_v)
    ds_dvm = diag_v @ np.conj(ybus @ np.diag(v / vm)) + np.conj(diag_i) @ np.diag(v / vm)
    j11 = ds_dth.real[np.ix_(pvpq, pvpq)]
    j12 = ds_dvm.real[np.ix_(pvpq, pq)]
    j21 = ds_dth.imag[np.ix_(pq, pvpq)]
    j22 = ds_dvm.imag[np.ix_(pq, pq)]
    return np.block([[j11, j12], [j21, j22]])


def _finalize(case, ybus, vm, va, converged, iterations, mismatch_norm, pinned):
    flows = compute_branch_flows(case, vm, va)
    v = vm * np.exp(1j * va)
    s_calc = v * np.conj(ybus @ v)
    n = case.n_buses
    p_gen = np.zeros(n)
    q_gen = np.zeros(n)
    for bus in case.buses:
        i = case.bus_position[bus.id]
        has_gen = bool(case.generators_at_bus[bus.id])
        if bus.kind is BusKind.SLACK:
            p_gen[i] = s_calc.real[i] + bus.p_load
            q_gen[i] = s_calc.imag[i] + bus.q_load
        elif has_gen:
            p_gen[i] = sum(g.p_gen for g in case.generators_at_bus[bus.id])
            if bus.kind is BusKind.PV or bus.id in pinned:
                q_gen[i] = s_calc.imag[i] + bus.q_load
            else:
                q_gen[i] = sum(g.q_gen for g in case.generators_at_bus[bus.id])
    return PowerFlowSolution(
        converged=converged, iterations=iterations, v_mag=vm, v_ang=va, flows=flows,
        p_loss_total=float(np.sum(flows.p_loss)), mismatch_inf_norm=mismatch_norm,
        p_gen_bus=p_gen, q_gen_bus=q_gen,
        q_limit_switches=tuple(sorted(pinned.values(), key=lambda s: s.bus)))


def _q_limit_violations(case, ybus, sol, kinds, pinned):
    v = sol.v_mag * np.exp(1j * sol.v_ang)
    s_calc = v * np.conj(ybus @ v)
    out = []
    for bus in case.buses:
        if bus.kind is not BusKind.PV or bus.id in pinned:
            continue
        gens = list(case.generators_at_bus[bus.id])
        if not gens:
            continue
        i = case.bus_position[bus.id]
        q_required = s_calc.imag[i] + bus.q_load
        q_min = sum(g.q_min for g in gens)
        q_max = sum(g.q_max for g in gens)
        if q_required > q_max:
            out.append(QLimitSwitch(bus.id, tuple(g.id for g in gens), "max", q_max))
        elif q_required < q_min:
            out.append(QLimitSwitch(bus.id, tuple(g.id for g in gens), "min", q_min))
    return out


def compute_branch_flows(case: GridCase, v_mag: np.ndarray, v_ang: np.ndarray) -> BranchFlows:
    nb = case.n_branches
    pos = case.bus_position
    p_from = np.zeros(nb)
    q_from = np.zeros(nb)
    p_to = np.zeros(nb)
    q_to = np.zeros(nb)
    for k, br in enumerate(case.branches):
        if not br.in_service:
            continue
        g, b = derive_admittance_params(br)
        i, j = pos[br.from_bus], pos[br.to_bus]
        vi, vj = v_mag[i], v_mag[j]
        th = v_ang[i] - v_ang[j]
        p_from[k] = g * vi * vi - vi * vj * (g * np.cos(th) + b * np.sin(th))
        q_from[k] = -vi * vi * (br.b_charge + b) - vi * vj * (g * np.sin(th) - b * np.cos(th))
        p_to[k] = g * vj * vj - vi * vj * (g * np.cos(th) - b * np.sin(th))
        q_to[k] = -vj * vj * (br.b_charge + b) + vi * vj * (g * np.sin(th) + b * np.cos(th))
    s_from = np.hypot(p_from, q_from)
    s_to = np.hypot(p_to, q_to)
    return BranchFlows(p_from=p_from, q_from=q_from, p_to=p_to, q_to=q_to,
                       s_from=s_from, s_to=s_to, p_loss=p_from + p_to)


def audit_violations(case: GridCase, solution: PowerFlowSolution) -> ViolationReport:
    report = ViolationReport()
    for bus_id in case.monitored_buses:
        bus = case.bus_by_id[bus_id]
        v = float(solution.v_mag[case.bus_position[bus_id]])
        if v < bus.v_min or v > bus.v_max:
            report.voltage_violations.append((bus_id, v, bus.v_min, bus.v_max))
            report.delta_v_violation += (v - bus.v_max) * (v - bus.v_min)
    branch_index = {br.id: k for k, br in enumerate(case.branches)}
    for br_id in case.monitored_branches:
        br = case.branch_by_id[br_id]
        if not br.in_service:
            continue
        k = branch_index[br_id]
        s = float(max(solution.flows.s_from[k], solution.flows.s_to[k]))
        if s > br.s_max:
            report.thermal_violations.append((br_id, s, br.s_max))
            report.delta_p_overflow += (s - br.s_max) ** 2
    return report


def extract_state(case: GridCase, solution: PowerFlowSolution) -> StateVector:
    bus_idx = [case.bus_position[b] for b in sorted(case.monitored_buses)]
    branch_index = {br.id: k for k, br in enumerate(case.branches)}
    br_idx = [branch_index[b] for b in sorted(case.monitored_branches)]
    raw = np.concatenate([
        solution.v_mag[bus_idx],
        solution.v_ang[bus_idx],
        solution.flows.p_from[br_idx],
        solution.flows.q_from[br_idx],
    ])
    return StateVector(values=raw, layout=state_layout(case))
