"""Independent power-flow oracle: complex-voltage Gauss-Seidel fixed point.

Deliberately shares no code with the Newton-Raphson solver beyond the
admittance assembly inputs; used to cross-check solved voltages.
"""

import numpy as np

from gridsac.grid_model import Branch, BusKind, GridCase


def derive_admittance_params(branch: Branch) -> tuple[float, float]:
    """Series conductance and susceptance of a branch's pi-model.

    g = r / (r^2 + x^2), b = -x / (r^2 + x^2).
    """
    z2 = branch.r * branch.r + branch.x * branch.x
    if z2 <= 0.0:
        raise ValueError(f"branch {branch.id}: zero series impedance")
    return branch.r / z2, -branch.x / z2


def oracle_admittance(case: GridCase) -> np.ndarray:
    """Admittance matrix assembled independently (loop formulation)."""
    n = case.n_buses
    pos = case.bus_position
    y = np.zeros((n, n), dtype=complex)
    for br in case.branches:
        if not br.in_service:
            continue
        g, b = derive_admittance_params(br)
        ys = complex(g, b)
        i, j = pos[br.from_bus], pos[br.to_bus]
        y[i, j] -= ys
        y[j, i] -= ys
        y[i, i] += ys + 1j * br.b_charge
        y[j, j] += ys + 1j * br.b_charge
    for bus in case.buses:
        i = pos[bus.id]
        y[i, i] += complex(bus.g_shunt, -bus.b_shunt)
    return y


def gauss_seidel(case: GridCase, tol: float = 1e-12,
                 max_iter: int = 500_000) -> tuple[np.ndarray, bool]:
    """Iterate the nodal fixed point to ``tol`` on the voltage update norm.

    PV buses hold their setpoint magnitude with the network's required
    reactive injection (no reactive limits, matching a switch-free solve).
    Returns (complex voltages in canonical bus order, converged flag).
    """
    y = oracle_admittance(case)
    n = case.n_buses
    pos = case.bus_position
    kinds = {}
    p_inj = np.zeros(n)
    q_inj = np.zeros(n)
    v_target = np.ones(n)
    for bus in case.buses:
        i = pos[bus.id]
        kinds[i] = bus.kind
        p_inj[i] -= bus.p_load
        q_inj[i] -= bus.q_load
        v_target[i] = bus.v_mag
    for bus_id, gens in case.generators_at_bus.items():
        i = pos[bus_id]
        if gens:
            p_inj[i] += sum(g.p_gen for g in gens)
            q_inj[i] += sum(g.q_gen for g in gens)
            if kinds[i] is not BusKind.PQ:
                v_target[i] = float(np.mean([g.v_set for g in gens]))

    slack = pos[case.slack_bus.id]
    v = np.array([v_target[i] if kinds[i] is not BusKind.PQ else 1.0
                  for i in range(n)], dtype=complex)
    v[slack] = v_target[slack] * np.exp(1j * case.slack_bus.v_ang)

    for _ in range(max_iter):
        v_old = v.copy()
        for i in range(n):
            if i == slack:
                continue
            if kinds[i] is BusKind.PV:
                q_req = -np.imag(np.conj(v[i]) * (y[i] @ v))
                s = p_inj[i] - 1j * q_req
                update = (s / np.conj(v[i]) - (y[i] @ v - y[i, i] * v[i])) / y[i, i]
                v[i] = v_target[i] * update / abs(update)
            else:
                s = p_inj[i] - 1j * q_inj[i]
                v[i] = (s / np.conj(v[i]) - (y[i] @ v - y[i, i] * v[i])) / y[i, i]
        if np.max(np.abs(v - v_old)) < tol:
            return v, True
    return v, False
