"""AC power-flow solution by Newton-Raphson, branch flows, and limit audits.

Bus quantities in every solution array follow ``case.bus_order`` (ascending
bus id); branch quantities follow the order of ``case.branches``.

The solve path works on a :class:`CompiledGrid`: the arrays of one case
(index arrays, admittances, kind masks, loads, generator data, monitored
sets), built by :func:`compile_grid` in one pass over the case. Each
function compiles the case it is given, or takes a grid the caller compiled
once and reuses, as the environment does for every step of an episode. A
grid is immutable and checked against the case before use. Nothing is
cached on the :class:`~gridsac.grid_model.GridCase` or in this module, so
every function stays pure and independent solves may run concurrently on
the same case or the same grid.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field, replace
from operator import attrgetter

import numpy as np

from .grid_model import BusKind, GridCase

logger = logging.getLogger(__name__)

__all__ = [
    "SolverOptions",
    "AdmittanceMatrix",
    "PowerFlowSolution",
    "BranchFlows",
    "ViolationReport",
    "QLimitSwitch",
    "CompiledGrid",
    "build_admittance",
    "compile_grid",
    "solve_newton_raphson",
    "compute_branch_flows",
    "audit_violations",
]


@dataclass(frozen=True)
class SolverOptions:
    tolerance: float = 1e-8
    max_iterations: int = 20
    flat_start: bool = True
    enforce_q_limits: bool = True
    q_limit_budget: int = 10


@dataclass(frozen=True)
class AdmittanceMatrix:
    """Dense nodal admittance matrix in canonical bus order."""

    n: int
    entries: np.ndarray  # complex (n, n)


@dataclass(frozen=True)
class QLimitSwitch:
    """Record of one PV bus converted to PQ at a reactive-power limit."""

    bus: int
    generators: tuple[int, ...]
    limit: str        # "min" or "max"
    q_pinned: float   # aggregate reactive output held at the limit


@dataclass
class BranchFlows:
    """Per-branch directional flows; arrays follow ``case.branches`` order."""

    p_from: np.ndarray
    q_from: np.ndarray
    p_to: np.ndarray
    q_to: np.ndarray
    s_from: np.ndarray
    s_to: np.ndarray
    p_loss: np.ndarray


@dataclass
class PowerFlowSolution:
    converged: bool
    iterations: int
    v_mag: np.ndarray
    v_ang: np.ndarray
    flows: BranchFlows
    p_loss_total: float
    mismatch_inf_norm: float
    p_gen_bus: np.ndarray   # net generator active output per bus (slack solved)
    q_gen_bus: np.ndarray   # net generator reactive output per bus
    q_limit_switches: tuple[QLimitSwitch, ...] = ()


@dataclass
class ViolationReport:
    """Voltage/thermal limit audit over the monitored sets.

    ``delta_p_overflow`` sums (S - S_max)^2 over violating branches and
    ``delta_v_violation`` sums (V - V_max)(V - V_min) over violating buses;
    both terms are positive exactly when a violation exists.
    """

    voltage_violations: list[tuple[int, float, float, float]] = field(default_factory=list)
    thermal_violations: list[tuple[int, float, float]] = field(default_factory=list)
    delta_v_violation: float = 0.0
    delta_p_overflow: float = 0.0

    @property
    def any(self) -> bool:
        return bool(self.voltage_violations or self.thermal_violations)


@dataclass(frozen=True, eq=False)
class CompiledGrid:
    """Array form of one case for the vectorized solve path.

    Bus arrays follow ``case.bus_order`` and branch arrays ``case.branches``;
    an out-of-service branch has zero admittance, so it adds nothing to Ybus
    and carries no flow. A grid serves every case with the same buses,
    branches, monitored sets and generators apart from their voltage
    setpoints, which each solve reads from the case: the cases that
    :func:`~gridsac.grid_model.with_plant_setpoints` derives from the
    compiled one. :meth:`check` refuses any other case.
    """

    # what the grid was compiled from, compared by :meth:`check`
    buses: tuple
    branches: tuple
    generator_data: tuple   # (id, bus, p_gen, q_gen, q_min, q_max) per generator
    monitored_buses: tuple
    monitored_branches: tuple
    # buses
    n: int
    bus_ids: np.ndarray
    slack: int
    slack_v_ang: float
    is_pv: np.ndarray
    p_load: np.ndarray
    q_load: np.ndarray
    v_mag: np.ndarray
    # branches
    f: np.ndarray           # from-bus position
    t: np.ndarray           # to-bus position
    y_series: np.ndarray    # series admittance g + jb
    y_charge: np.ndarray    # per-end charging admittance j*b_charge
    ybus: np.ndarray        # dense, read-only
    # generators
    gen_bus: np.ndarray     # bus position per generator
    gens_at_bus: tuple      # generator ids per bus position
    n_gen_bus: np.ndarray
    p_gen_bus: np.ndarray   # summed over each bus's generators
    q_gen_bus: np.ndarray
    q_min_bus: np.ndarray
    q_max_bus: np.ndarray
    regulated: np.ndarray   # positions of the Slack/PV buses with generators
    pv_gen: np.ndarray      # mask of the PV buses with generators
    q_solved: np.ndarray    # mask of the buses whose q_gen comes from the solution
    # monitored sets, in case order (audit) and sorted by id (state)
    mon_bus: np.ndarray
    mon_bus_ids: np.ndarray
    mon_v_min: np.ndarray
    mon_v_max: np.ndarray
    mon_branch: np.ndarray  # in-service monitored branches only
    mon_branch_ids: np.ndarray
    mon_s_max: np.ndarray
    state_bus: np.ndarray
    state_branch: np.ndarray

    def check(self, case: GridCase) -> "CompiledGrid":
        """This grid, if it serves ``case``; otherwise raise ``ValueError``."""
        if not (case.buses == self.buses and case.branches == self.branches
                and case.monitored_buses == self.monitored_buses
                and case.monitored_branches == self.monitored_branches
                and _generator_data(case.generators) == self.generator_data):
            raise ValueError("compiled grid does not match the case: it was compiled "
                             "from different buses, branches, generators or monitored sets")
        return self


def _generator_data(gens) -> tuple:
    return tuple((g.id, g.bus, g.p_gen, g.q_gen, g.q_min, g.q_max) for g in gens)


def compile_grid(case: GridCase) -> CompiledGrid:
    """Compile ``case`` into the arrays the solve path works on.

    One pass over the buses, branches and generators; the nodal admittance
    matrix is assembled from the branch arrays as in MATPOWER's ``makeYbus``.
    """
    n = case.n_buses
    pos = case.bus_position
    by_id = sorted(case.buses, key=attrgetter("id"))    # position = index
    buses = np.array([(b.id, b.kind is BusKind.PV, b.p_load, b.q_load, b.g_shunt,
                       b.b_shunt, b.v_mag, b.v_min, b.v_max) for b in by_id],
                     dtype=float).reshape(n, 9)
    bus_ids = buses[:, 0].astype(int)
    is_pv = buses[:, 1] == 1.0
    p_load, q_load, g_shunt, b_shunt, v_mag, v_min, v_max = buses[:, 2:].T
    slack = next(i for i, b in enumerate(by_id) if b.kind is BusKind.SLACK)

    branch_index = {}
    rows = []
    for k, br in enumerate(case.branches):
        branch_index[br.id] = k
        rows.append((pos[br.from_bus], pos[br.to_bus], br.r, br.x, br.b_charge,
                     br.s_max, br.in_service))
    branches = np.array(rows, dtype=float).reshape(-1, 7)
    f, t = branches[:, 0].astype(int), branches[:, 1].astype(int)
    r, x, b_charge, s_max, in_service = branches[:, 2:].T
    z2 = r * r + x * x                          # as derive_admittance_params
    y_series = (r / z2 + 1j * (-x / z2)) * in_service
    y_charge = 1j * b_charge * in_service

    # Each branch adds to Y_ft, Y_tf, Y_ff and Y_tt, in branch order (the
    # accumulation order of a per-branch assembly); then the shunts.
    flat = f[:, None] * np.array([n, 1, n + 1, 0]) + t[:, None] * np.array([1, n, 0, n + 1])
    values = (y_series[:, None] * np.array([-1.0, -1.0, 1.0, 1.0])
              + y_charge[:, None] * np.array([0.0, 0.0, 1.0, 1.0]))
    ybus = np.zeros((n, n), dtype=complex)
    np.add.at(ybus.reshape(-1), flat.reshape(-1), values.reshape(-1))
    ybus.flat[:: n + 1] += g_shunt - 1j * b_shunt
    ybus.flags.writeable = False

    generator_data = _generator_data(case.generators)
    gen_bus = np.array([pos[row[1]] for row in generator_data], dtype=int)
    gens_at_bus: list[tuple[int, ...]] = [()] * n
    for row, i in zip(generator_data, gen_bus):
        gens_at_bus[i] += (row[0],)
    per_bus = np.zeros((n, 5))                  # count, p_gen, q_gen, q_min, q_max
    np.add.at(per_bus, gen_bus,
              np.array([(1.0, *row[2:]) for row in generator_data]).reshape(-1, 5))
    has_gen = per_bus[:, 0] > 0
    is_slack = np.arange(n) == slack

    mon_bus = np.array([pos[i] for i in case.monitored_buses], dtype=int)
    mon_branch = np.array([branch_index[i] for i in case.monitored_branches], dtype=int)
    mon_branch = mon_branch[in_service[mon_branch] == 1.0]
    return CompiledGrid(
        buses=case.buses, branches=case.branches, generator_data=generator_data, monitored_buses=case.monitored_buses,
        monitored_branches=case.monitored_branches,
        n=n, bus_ids=bus_ids, slack=slack, slack_v_ang=by_id[slack].v_ang,
        is_pv=is_pv, p_load=p_load, q_load=q_load, v_mag=v_mag,
        f=f, t=t, y_series=y_series, y_charge=y_charge, ybus=ybus,
        gen_bus=gen_bus, gens_at_bus=tuple(gens_at_bus), n_gen_bus=per_bus[:, 0],
        p_gen_bus=per_bus[:, 1], q_gen_bus=per_bus[:, 2],
        q_min_bus=per_bus[:, 3], q_max_bus=per_bus[:, 4],
        regulated=np.flatnonzero(has_gen & (is_pv | is_slack)),
        pv_gen=is_pv & has_gen, q_solved=(is_pv & has_gen) | is_slack,
        mon_bus=mon_bus, mon_bus_ids=bus_ids[mon_bus],
        mon_v_min=v_min[mon_bus], mon_v_max=v_max[mon_bus],
        mon_branch=mon_branch, mon_branch_ids=np.array(
            [case.branches[k].id for k in mon_branch], dtype=int),
        mon_s_max=s_max[mon_branch],
        state_bus=np.array([pos[i] for i in sorted(case.monitored_buses)], dtype=int),
        state_branch=np.array([branch_index[i] for i in sorted(case.monitored_branches)],
                              dtype=int),
    )


def build_admittance(case: GridCase) -> AdmittanceMatrix:
    """The nodal admittance matrix from branch pi-models and shunts.

    A bus shunt consuming g_shunt + j*b_shunt per unit V^2 contributes
    ``g_shunt - 1j*b_shunt`` to its diagonal; line charging adds ``+1j*b_charge``
    at each terminal of an in-service branch. ``entries`` is read-only.
    """
    return AdmittanceMatrix(n=case.n_buses, entries=compile_grid(case).ybus)


def _bus_arrays(grid: CompiledGrid, case: GridCase):
    """Scheduled injections and voltage targets in canonical bus order.

    A regulated bus targets the mean setpoint of its generators, read from
    ``case``; every other bus keeps its own ``v_mag``.
    """
    v_set = np.fromiter((g.v_set for g in case.generators), float, len(grid.gen_bus))
    v_target = grid.v_mag.copy()
    r = grid.regulated
    v_target[r] = np.bincount(grid.gen_bus, v_set, grid.n)[r] / grid.n_gen_bus[r]
    return grid.p_gen_bus - grid.p_load, grid.q_gen_bus - grid.q_load, v_target


def solve_newton_raphson(case: GridCase,
                         start: PowerFlowSolution | None = None,
                         opts: SolverOptions = SolverOptions(), *,
                         grid: CompiledGrid | None = None) -> PowerFlowSolution:
    """Solve the nodal power balance by full Newton-Raphson in polar form.

    Converged means the active mismatch at every PV/PQ bus and reactive
    mismatch at every PQ bus is within ``opts.tolerance`` in infinity norm.
    PV buses hold their setpoint voltage unless reactive limits force a
    PV-to-PQ switch (outer loop, up to ``opts.q_limit_budget`` re-solves).
    Divergence is reported, not raised: the returned solution carries
    ``converged=False`` and the last mismatch norm.

    ``iterations`` counts mismatch evaluations, so a network already at its
    solution reports 1. ``grid`` is ``case`` compiled by :func:`compile_grid`
    (or a case it serves); without it the case is compiled once for this
    call. A grid that does not serve ``case`` raises ``ValueError``.
    """
    grid = compile_grid(case) if grid is None else grid.check(case)
    p_sched, q_sched, v_target = _bus_arrays(grid, case)

    pinned: dict[int, QLimitSwitch] = {}   # bus position -> switch
    budget = opts.q_limit_budget if opts.enforce_q_limits else 0
    sol = _solve_inner(case, grid, p_sched, q_sched, v_target, start, opts, pinned)
    warm = replace(opts, flat_start=False)
    for _ in range(budget):
        if not sol.converged:
            break
        switches = _q_limit_violations(grid, sol, pinned)
        if not switches:
            break
        pinned.update(switches)
        sol = _solve_inner(case, grid, p_sched, q_sched, v_target, sol, warm, pinned)
    else:
        if budget and sol.converged and _q_limit_violations(grid, sol, pinned):
            logger.warning("q-limit switching budget exhausted; flagging non-converged")
            sol = replace(sol, converged=False)
    return sol


def _solve_inner(case, grid: CompiledGrid, p_sched, q_sched, v_target, start, opts,
                 pinned: dict[int, QLimitSwitch]) -> PowerFlowSolution:
    n, slack, ybus = grid.n, grid.slack, grid.ybus

    is_pv = grid.is_pv.copy()
    if pinned:
        at = np.fromiter(pinned, int, len(pinned))
        is_pv[at] = False
        q_sched = q_sched.copy()
        q_sched[at] = np.array([sw.q_pinned for sw in pinned.values()]) - grid.q_load[at]
    is_pq = ~is_pv
    is_pq[slack] = False

    pv = np.flatnonzero(is_pv)
    pq = np.flatnonzero(is_pq)
    pvpq = np.concatenate([pv, pq])
    # Rows and columns of the reduced Jacobian in [Re dS | Im dS] x [dth | dVm].
    reduced = np.concatenate([pvpq, n + pq])
    reduced = np.ix_(reduced, reduced)
    s_sched = p_sched + 1j * q_sched

    # Initial voltage: warm start from a previous solution when given and not
    # overridden by flat_start; regulated magnitudes always reset to their
    # targets and the slack angle to its reference.
    if start is not None and not opts.flat_start:
        vm = start.v_mag.copy()
        va = start.v_ang.copy()
    else:
        vm = np.ones(n)
        va = np.zeros(n)
    vm[slack] = v_target[slack]
    vm[pv] = v_target[pv]
    va[slack] = grid.slack_v_ang

    iterations = 0
    mismatch_norm = np.inf
    converged = False
    for _ in range(opts.max_iterations + 1):
        iterations += 1
        v = vm * np.exp(1j * va)
        i_bus = ybus @ v
        mismatch = s_sched - v * np.conj(i_bus)
        f = np.concatenate([mismatch.real[pvpq], mismatch.imag[pq]])
        mismatch_norm = float(np.abs(f).max()) if f.size else 0.0
        if not math.isfinite(mismatch_norm):
            break
        if mismatch_norm <= opts.tolerance:
            converged = True
            break
        if iterations > opts.max_iterations:
            break
        try:
            dx = np.linalg.solve(_jacobian(ybus, v, i_bus, vm, reduced), f)
        except np.linalg.LinAlgError:
            logger.warning("singular Jacobian at iteration %d", iterations)
            break
        if not np.isfinite(dx).all():
            break
        va[pvpq] += dx[: pvpq.size]
        vm[pq] += dx[pvpq.size:]
        if (vm <= 0.0).any():
            break

    return _finalize(case, grid, vm, va, converged, iterations, mismatch_norm, pinned)


def _jacobian(ybus, v, i_bus, vm, reduced):
    """Polar-form Jacobian [[dP/dth, dP/dV], [dQ/dth, dQ/dV]] on the reduced
    unknowns (angles at PV+PQ, magnitudes at PQ), from MATPOWER's
    ``dSbus_dV`` with the diagonal matrices applied by broadcasting:

        dS/dth = j diag(V) conj(diag(I) - Y diag(V))
        dS/dVm = diag(V) conj(Y diag(V/Vm)) + conj(diag(I)) diag(V/Vm)

    ``reduced`` is the ``np.ix_`` pair that picks the reduced rows and
    columns out of [[Re dS/dth, Re dS/dVm], [Im dS/dth, Im dS/dVm]].
    """
    n = v.size
    v_norm = v / vm
    a = -(ybus * v)
    a.flat[:: n + 1] += i_bus
    ds_dth = (1j * v)[:, None] * np.conj(a)
    ds_dvm = v[:, None] * np.conj(ybus * v_norm)
    ds_dvm.flat[:: n + 1] += np.conj(i_bus) * v_norm
    ds = np.concatenate([ds_dth, ds_dvm], axis=1)
    return np.concatenate([ds.real, ds.imag])[reduced]


def _finalize(case, grid: CompiledGrid, vm, va, converged, iterations, mismatch_norm,
              pinned):
    flows = compute_branch_flows(case, vm, va, grid=grid)
    v = vm * np.exp(1j * va)
    s_calc = v * np.conj(grid.ybus @ v)
    # Net generator output: scheduled at generator buses, recovered from the
    # solved injections at the slack and at PV buses (pinned ones included).
    p_gen = grid.p_gen_bus.copy()
    p_gen[grid.slack] = s_calc.real[grid.slack] + grid.p_load[grid.slack]
    q_gen = np.where(grid.q_solved, s_calc.imag + grid.q_load, grid.q_gen_bus)
    return PowerFlowSolution(
        converged=converged,
        iterations=iterations,
        v_mag=vm,
        v_ang=va,
        flows=flows,
        p_loss_total=float(np.sum(flows.p_loss)),
        mismatch_inf_norm=mismatch_norm,
        p_gen_bus=p_gen,
        q_gen_bus=q_gen,
        q_limit_switches=tuple(sorted(pinned.values(), key=lambda s: s.bus)),
    )


def _q_limit_violations(grid: CompiledGrid, sol, pinned) -> dict[int, QLimitSwitch]:
    """PV buses whose required aggregate reactive output leaves its range,
    by bus position. The required output of a PV bus is its solved
    ``q_gen_bus``: the injection the network draws plus the bus's load."""
    q_required = sol.q_gen_bus
    free = grid.pv_gen.copy()
    free[list(pinned)] = False
    over = free & (q_required > grid.q_max_bus)
    under = free & ~over & (q_required < grid.q_min_bus)
    return {int(i): QLimitSwitch(int(grid.bus_ids[i]), grid.gens_at_bus[i],
                                 "max" if over[i] else "min",
                                 float(grid.q_max_bus[i] if over[i] else grid.q_min_bus[i]))
            for i in np.flatnonzero(over | under)}


def compute_branch_flows(case: GridCase, v_mag: np.ndarray, v_ang: np.ndarray, *,
                         grid: CompiledGrid | None = None) -> BranchFlows:
    """Directional branch flows from a voltage solution.

    S_ij = V_i conj((y_s + j b_c) V_i - y_s V_j), that is
    P_ij = g V_i^2 - V_i V_j (g cos th_ij + b sin th_ij) and
    Q_ij = -V_i^2 (b_c + b) - V_i V_j (g sin th_ij - b cos th_ij),
    evaluated in both directions; the branch loss is P_ij + P_ji.
    Out-of-service branches carry zero flow. ``grid`` as in
    :func:`solve_newton_raphson`.
    """
    grid = compile_grid(case) if grid is None else grid.check(case)
    v = v_mag * np.exp(1j * v_ang)
    v_f, v_t = v[grid.f], v[grid.t]
    y_s, y_self = grid.y_series, grid.y_series + grid.y_charge
    s_from = v_f * np.conj(y_self * v_f - y_s * v_t)
    s_to = v_t * np.conj(y_self * v_t - y_s * v_f)
    p_from, q_from, p_to, q_to = s_from.real, s_from.imag, s_to.real, s_to.imag
    return BranchFlows(p_from=p_from, q_from=q_from, p_to=p_to, q_to=q_to,
                       s_from=np.abs(s_from), s_to=np.abs(s_to), p_loss=p_from + p_to)


def audit_violations(case: GridCase, solution: PowerFlowSolution, *,
                     grid: CompiledGrid | None = None) -> ViolationReport:
    """Audit monitored buses and branches against their operating limits.

    Violations are listed in the order of the case's monitored sets.
    ``grid`` as in :func:`solve_newton_raphson`.
    """
    grid = compile_grid(case) if grid is None else grid.check(case)
    report = ViolationReport()
    v = solution.v_mag[grid.mon_bus]
    bad = np.flatnonzero((v < grid.mon_v_min) | (v > grid.mon_v_max))
    if bad.size:
        v, v_min, v_max = v[bad], grid.mon_v_min[bad], grid.mon_v_max[bad]
        report.voltage_violations = list(zip(grid.mon_bus_ids[bad].tolist(), v.tolist(),
                                             v_min.tolist(), v_max.tolist()))
        report.delta_v_violation = float(np.sum((v - v_max) * (v - v_min)))
    flows = solution.flows
    s = np.maximum(flows.s_from[grid.mon_branch], flows.s_to[grid.mon_branch])
    over = np.flatnonzero(s > grid.mon_s_max)
    if over.size:
        s, s_max = s[over], grid.mon_s_max[over]
        report.thermal_violations = list(zip(grid.mon_branch_ids[over].tolist(),
                                             s.tolist(), s_max.tolist()))
        report.delta_p_overflow = float(np.sum((s - s_max) ** 2))
    return report
