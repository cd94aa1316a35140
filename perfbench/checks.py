"""Output checks the benchmark runs outside its timed region.

They recompute what the program reports from first principles, so a faster
but wrong program fails the benchmark instead of winning it.
"""

from __future__ import annotations

import math

import numpy as np

from gridsac.grid_model import BusKind, GridCase
from gridsac.power_flow import PowerFlowSolution, SolverOptions, build_admittance

SOLVER_TOLERANCE = SolverOptions().tolerance
# Rounding slack on top of the solver tolerance: the check recomputes the
# injections with the same formula the solver used, so only the summation
# order of the admittance product can differ.
ROUNDING = 1e-12


def power_balance_errors(case: GridCase, sol: PowerFlowSolution) -> list[str]:
    """Why a converged solution violates the nodal power balance, if it does.

    Injections are recomputed as V * conj(Ybus V) from ``build_admittance``.
    Active power must match at every PV and PQ bus, reactive power at every
    PQ bus (a PV bus switched to PQ at a reactive limit must sit at its
    pinned output), each within the solver tolerance. Summed generation
    minus load and shunt consumption must equal the reported branch losses.
    """
    errors: list[str] = []
    arrays = (sol.v_mag, sol.v_ang, sol.p_gen_bus, sol.q_gen_bus, sol.flows.p_loss)
    if not all(np.all(np.isfinite(a)) for a in arrays) or not math.isfinite(sol.p_loss_total):
        return ["non-finite values in the solution"]
    v = sol.v_mag * np.exp(1j * sol.v_ang)
    s_calc = v * np.conj(build_admittance(case).entries @ v)
    pinned = {sw.bus: sw.q_pinned for sw in sol.q_limit_switches}
    limit = SOLVER_TOLERANCE + ROUNDING
    shunt = 0.0
    for bus in case.buses:
        i = case.bus_position[bus.id]
        shunt += bus.g_shunt * sol.v_mag[i] ** 2
        if bus.kind is BusKind.SLACK:
            continue
        gens = case.generators_at_bus[bus.id]
        dp = s_calc.real[i] - (sum(g.p_gen for g in gens) - bus.p_load)
        if abs(dp) > limit:
            errors.append(f"bus {bus.id}: active mismatch {dp:.3e}")
        if bus.id in pinned:
            dq = s_calc.imag[i] - (pinned[bus.id] - bus.q_load)
        elif bus.kind is BusKind.PQ:
            dq = s_calc.imag[i] - (sum(g.q_gen for g in gens) - bus.q_load)
        else:
            continue
        if abs(dq) > limit:
            errors.append(f"bus {bus.id}: reactive mismatch {dq:.3e}")
    balance = float(np.sum(sol.p_gen_bus)) - sum(b.p_load for b in case.buses) - shunt
    if abs(balance - sol.p_loss_total) > case.n_buses * limit:
        errors.append(f"generation - load - shunts = {balance:.12g} "
                      f"but p_loss_total = {sol.p_loss_total:.12g}")
    return errors


def finite(*values) -> bool:
    return all(np.all(np.isfinite(np.asarray(v, dtype=float))) for v in values)
