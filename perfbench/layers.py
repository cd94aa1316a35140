"""The layer spans of the traced run and the per-layer metrics drawn from them.

Each package module is one layer: ``grid_model``, ``power_flow``,
``environment``, ``neural``, ``sac`` and ``harness`` (``cli`` only wraps
``harness``). A function is wrapped at every module attribute its callers
look it up through, under one span name per function.
"""

from __future__ import annotations

import os
from collections import defaultdict

import numpy as np

import gridsac.environment as environment
import gridsac.harness as harness
import gridsac.power_flow as power_flow
import gridsac.sac as sac
from spans import Patches, Tracer, children_index, covered_fraction, self_times

# (name, unit, better) of every per-layer metric, in output order.
METRICS = [
    ("power_flow.solve.calls", "count", "lower"),
    ("power_flow.solve.cold_ms_p50", "ms", "lower"),
    ("power_flow.solve.warm_ms_p50", "ms", "lower"),
    ("power_flow.solve.ms_p99", "ms", "lower"),
    ("power_flow.solve.self_ms_sum", "ms", "lower"),
    ("power_flow.solve.nr_iterations_mean", "count", "lower"),
    ("power_flow.solve.q_switches_mean", "count", "lower"),
    ("power_flow.solve.qlim_ms_p50", "ms", "lower"),
    ("power_flow.solve.noqlim_ms_p50", "ms", "lower"),
    ("power_flow.solve.converged_ratio", "fraction", "higher"),
    ("power_flow.build_admittance.calls", "count", "lower"),
    ("power_flow.build_admittance.us_p50", "us", "lower"),
    ("power_flow.compute_branch_flows.calls", "count", "lower"),
    ("power_flow.compute_branch_flows.us_p50", "us", "lower"),
    ("power_flow.audit_violations.calls", "count", "lower"),
    ("power_flow.audit_violations.us_p50", "us", "lower"),
    ("grid_model.with_plant_setpoints.calls", "count", "lower"),
    ("grid_model.with_plant_setpoints.us_p50", "us", "lower"),
    ("grid_model.load_case.calls", "count", "lower"),
    ("grid_model.load_case.ms_p50", "ms", "lower"),
    ("grid_model.load_case.bytes", "B", "lower"),
    ("grid_model.save_case.calls", "count", "lower"),
    ("grid_model.save_case.ms_p50", "ms", "lower"),
    ("grid_model.save_case.bytes", "B", "lower"),
    ("grid_model.with_loads.us_p50", "us", "lower"),
    ("grid_model.with_generation.us_p50", "us", "lower"),
    ("environment.step.calls", "count", "lower"),
    ("environment.step.ms_p50", "ms", "lower"),
    ("environment.step.ms_p99", "ms", "lower"),
    ("environment.step.self_us_p50", "us", "lower"),
    ("environment.reset.calls", "count", "lower"),
    ("environment.reset.ms_p50", "ms", "lower"),
    ("environment.extract_state.us_p50", "us", "lower"),
    ("environment.skipped_snapshots", "count", "lower"),
    ("environment.done.Solved", "count", "higher"),
    ("environment.done.Diverged", "count", "lower"),
    ("environment.done.MaxSteps", "count", "lower"),
    ("neural.forward.calls", "count", "lower"),
    ("neural.forward.batch_us_p50", "us", "lower"),
    ("neural.forward.single_us_p50", "us", "lower"),
    ("neural.backward.calls", "count", "lower"),
    ("neural.backward.us_p50", "us", "lower"),
    ("neural.adam_step.calls", "count", "lower"),
    ("neural.adam_step.us_p50", "us", "lower"),
    ("neural.adam_step.skipped", "count", "lower"),
    ("neural.polyak_update.calls", "count", "lower"),
    ("neural.polyak_update.us_p50", "us", "lower"),
    ("sac.update.calls", "count", "lower"),
    ("sac.update.ms_p50", "ms", "lower"),
    ("sac.update.ms_p99", "ms", "lower"),
    ("sac.update.self_us_p50", "us", "lower"),
    ("sac.replay.add_us_p50", "us", "lower"),
    ("sac.replay.sample_us_p50", "us", "lower"),
    ("sac.select_action.calls", "count", "lower"),
    ("sac.select_action.us_p50", "us", "lower"),
    ("sac.sample_raw.us_p50", "us", "lower"),
    ("sac.save_checkpoint.calls", "count", "lower"),
    ("sac.save_checkpoint.ms_p50", "ms", "lower"),
    ("sac.save_checkpoint.bytes", "B", "lower"),
    ("sac.load_checkpoint.ms", "ms", "lower"),
    ("harness.generate_snapshots.s", "s", "lower"),
    ("harness.generate_snapshots.draw_ratio", "fraction", "higher"),
    ("harness.load_snapshots.s", "s", "lower"),
    ("harness.train.s", "s", "lower"),
    ("harness.evaluate.s", "s", "lower"),
    ("harness.run_single.s", "s", "lower"),
    ("harness.unattributed_frac", "fraction", "lower"),
    ("trace.overhead_frac", "fraction", "lower"),
    ("machine.ref_loop_ms", "ms", "lower"),
]
UNITS = {name: unit for name, unit, _ in METRICS}


# --- span annotations, computed after the span closed -----------------------

def _solve_info(args, kwargs, sol):
    start = args[1] if len(args) > 1 else kwargs.get("start")
    opts = args[2] if len(args) > 2 else kwargs.get("opts")
    cold = start is None or opts is None or opts.flat_start
    return (sol.converged, sol.iterations, len(sol.q_limit_switches), cold,
            sol.p_loss_total)


def _file_bytes(position):
    return lambda args, kwargs, result: os.path.getsize(args[position])


def _done_reason(args, kwargs, result):
    return result.done_reason.value if result.done else None


def _is_single(args, kwargs, result):
    return np.ndim(args[1]) == 1


def _adam_skipped(args, kwargs, result):
    return not args[1].finite()


def install(tracer: Tracer, patches: Patches) -> None:
    """Wrap every layer function the workloads reach, until ``patches`` is
    restored. A group (one training step or control iteration) opens at a
    reset, an action choice or a step, and closes at a replay insert."""
    def t(owner, attr, name, annotate=None, **kw):
        tracer.install(patches, owner, attr, name, annotate, **kw)

    env_cls, agent_cls, buffer_cls = (environment.GridControlEnv, sac.SacAgent,
                                      sac.ReplayBuffer)
    for mod in (environment, harness):
        t(mod, "solve_newton_raphson", "power_flow.solve", _solve_info)
        t(mod, "audit_violations", "power_flow.audit_violations")
        t(mod, "with_plant_setpoints", "grid_model.with_plant_setpoints")
        t(mod, "extract_state", "environment.extract_state")
    t(power_flow, "build_admittance", "power_flow.build_admittance")
    t(power_flow, "compute_branch_flows", "power_flow.compute_branch_flows")
    t(harness, "with_loads", "grid_model.with_loads")
    t(harness, "with_generation", "grid_model.with_generation")
    t(harness, "load_case", "grid_model.load_case", _file_bytes(0))
    t(harness, "save_case", "grid_model.save_case", _file_bytes(1))
    t(env_cls, "reset", "environment.reset", opens=True, closes=True)
    t(env_cls, "step", "environment.step", _done_reason, opens=True)
    t(sac, "forward", "neural.forward", _is_single)
    t(sac, "backward", "neural.backward")
    t(sac, "adam_step", "neural.adam_step", _adam_skipped)
    t(sac, "polyak_update", "neural.polyak_update")
    t(agent_cls, "update", "sac.update")
    t(agent_cls, "select_action", "sac.select_action", opens=True)
    t(agent_cls, "sample_raw", "sac.sample_raw", opens=True)
    t(buffer_cls, "add", "sac.replay.add", closes=True)
    t(buffer_cls, "sample", "sac.replay.sample")
    t(sac, "save_checkpoint", "sac.save_checkpoint", _file_bytes(0))
    for mod in (sac, harness):
        t(mod, "load_checkpoint", "sac.load_checkpoint")
    for attr in ("generate_snapshots", "load_snapshots", "train", "evaluate", "run_single"):
        t(harness, attr, f"harness.{attr}")


# --- metrics ----------------------------------------------------------------

def _pct(values, q, scale) -> float:
    return float(np.percentile(values, q)) * scale if len(values) else 0.0


def _mean(values) -> float:
    return float(np.mean(values)) if len(values) else 0.0


def compute(tracer: Tracer, windows: list[tuple[float, float]], entry_spans: tuple[str, ...],
            overhead_frac: float, ref_loop_ms: float) -> dict[str, float]:
    """Every metric of :data:`METRICS` from the recorded spans.

    Counts and latencies cover all recorded spans (the traced set-up and the
    traced timed phase). ``harness.unattributed_frac`` is the share of the
    timed phase (the ``windows`` of the traced reps) that no layer span
    covers; the ``entry_spans`` the workload times as a whole cover it by
    construction, so they are left out and their self time counts as
    unattributed. A latency of a layer the workload never called reads 0.
    """
    dur = np.asarray(tracer.ends) - np.asarray(tracer.starts)
    own = np.asarray(self_times(tracer.starts, tracer.ends, tracer.parents))
    kids = children_index(tracer.parents)
    spans: dict[str, list[int]] = defaultdict(list)
    for i, name in enumerate(tracer.names):
        spans[name].append(i)
    extra = tracer.extra

    def d(name, sel=None):
        idx = spans[name] if sel is None else [i for i in spans[name] if sel(extra[i])]
        return dur[idx]

    def kids_named(i, name):
        return [c for c in kids[i] if tracer.names[c] == name]

    m: dict[str, float] = {}
    solve = spans["power_flow.solve"]
    info = [extra[i] for i in solve]
    m["power_flow.solve.calls"] = len(solve)
    m["power_flow.solve.cold_ms_p50"] = _pct(d("power_flow.solve", lambda x: x[3]), 50, 1e3)
    m["power_flow.solve.warm_ms_p50"] = _pct(d("power_flow.solve", lambda x: not x[3]), 50, 1e3)
    m["power_flow.solve.ms_p99"] = _pct(d("power_flow.solve"), 99, 1e3)
    m["power_flow.solve.self_ms_sum"] = float(own[solve].sum()) * 1e3
    m["power_flow.solve.nr_iterations_mean"] = _mean([x[1] for x in info])
    m["power_flow.solve.q_switches_mean"] = _mean([x[2] for x in info])
    m["power_flow.solve.qlim_ms_p50"] = _pct(d("power_flow.solve", lambda x: x[2] > 0), 50, 1e3)
    m["power_flow.solve.noqlim_ms_p50"] = _pct(d("power_flow.solve", lambda x: x[2] == 0), 50, 1e3)
    m["power_flow.solve.converged_ratio"] = _mean([float(x[0]) for x in info])
    for name in ("build_admittance", "compute_branch_flows", "audit_violations"):
        m[f"power_flow.{name}.calls"] = len(spans[f"power_flow.{name}"])
        m[f"power_flow.{name}.us_p50"] = _pct(d(f"power_flow.{name}"), 50, 1e6)

    setpoints = "grid_model.with_plant_setpoints"
    m[f"{setpoints}.calls"] = len(spans[setpoints])
    m[f"{setpoints}.us_p50"] = _pct(d(setpoints), 50, 1e6)
    for name in ("load_case", "save_case"):
        m[f"grid_model.{name}.calls"] = len(spans[f"grid_model.{name}"])
        m[f"grid_model.{name}.ms_p50"] = _pct(d(f"grid_model.{name}"), 50, 1e3)
        m[f"grid_model.{name}.bytes"] = _mean([extra[i] for i in spans[f"grid_model.{name}"]])
    m["grid_model.with_loads.us_p50"] = _pct(d("grid_model.with_loads"), 50, 1e6)
    m["grid_model.with_generation.us_p50"] = _pct(d("grid_model.with_generation"), 50, 1e6)

    step = spans["environment.step"]
    m["environment.step.calls"] = len(step)
    m["environment.step.ms_p50"] = _pct(dur[step], 50, 1e3)
    m["environment.step.ms_p99"] = _pct(dur[step], 99, 1e3)
    m["environment.step.self_us_p50"] = _pct(own[step], 50, 1e6)
    m["environment.reset.calls"] = len(spans["environment.reset"])
    m["environment.reset.ms_p50"] = _pct(d("environment.reset"), 50, 1e3)
    m["environment.extract_state.us_p50"] = _pct(d("environment.extract_state"), 50, 1e6)
    # A reset solves snapshots until one converges with positive losses; the
    # others were skipped.
    m["environment.skipped_snapshots"] = sum(
        1 for r in spans["environment.reset"] for c in kids_named(r, "power_flow.solve")
        if not extra[c][0] or extra[c][4] <= 0)
    reasons = [extra[i] for i in step]
    for reason in ("Solved", "Diverged", "MaxSteps"):
        m[f"environment.done.{reason}"] = reasons.count(reason)

    m["neural.forward.calls"] = len(spans["neural.forward"])
    m["neural.forward.batch_us_p50"] = _pct(d("neural.forward", lambda x: not x), 50, 1e6)
    m["neural.forward.single_us_p50"] = _pct(d("neural.forward", lambda x: x), 50, 1e6)
    for name in ("backward", "adam_step", "polyak_update"):
        m[f"neural.{name}.calls"] = len(spans[f"neural.{name}"])
        m[f"neural.{name}.us_p50"] = _pct(d(f"neural.{name}"), 50, 1e6)
    m["neural.adam_step.skipped"] = sum(1 for i in spans["neural.adam_step"] if extra[i])

    update = spans["sac.update"]
    m["sac.update.calls"] = len(update)
    m["sac.update.ms_p50"] = _pct(dur[update], 50, 1e3)
    m["sac.update.ms_p99"] = _pct(dur[update], 99, 1e3)
    m["sac.update.self_us_p50"] = _pct(own[update], 50, 1e6)
    m["sac.replay.add_us_p50"] = _pct(d("sac.replay.add"), 50, 1e6)
    m["sac.replay.sample_us_p50"] = _pct(d("sac.replay.sample"), 50, 1e6)
    m["sac.select_action.calls"] = len(spans["sac.select_action"])
    m["sac.select_action.us_p50"] = _pct(d("sac.select_action"), 50, 1e6)
    m["sac.sample_raw.us_p50"] = _pct(d("sac.sample_raw"), 50, 1e6)
    m["sac.save_checkpoint.calls"] = len(spans["sac.save_checkpoint"])
    m["sac.save_checkpoint.ms_p50"] = _pct(d("sac.save_checkpoint"), 50, 1e3)
    m["sac.save_checkpoint.bytes"] = _mean([extra[i] for i in spans["sac.save_checkpoint"]])
    m["sac.load_checkpoint.ms"] = _pct(d("sac.load_checkpoint"), 50, 1e3)

    gen = spans["harness.generate_snapshots"]
    m["harness.generate_snapshots.s"] = _pct(dur[gen], 50, 1.0)
    # Every draw is solved once, after one solve of the base case; every
    # draw kept is saved.
    drawn = sum(len(kids_named(g, "power_flow.solve")) - 1 for g in gen)
    kept = sum(len(kids_named(g, "grid_model.save_case")) for g in gen)
    m["harness.generate_snapshots.draw_ratio"] = kept / drawn if drawn else 0.0
    for name in ("load_snapshots", "train", "evaluate", "run_single"):
        m[f"harness.{name}.s"] = _pct(d(f"harness.{name}"), 50, 1.0)
    inner = [i for i, name in enumerate(tracer.names) if name not in entry_spans]
    m["harness.unattributed_frac"] = 1.0 - covered_fraction(
        [tracer.starts[i] for i in inner], [tracer.ends[i] for i in inner], windows)
    m["trace.overhead_frac"] = overhead_frac
    m["machine.ref_loop_ms"] = ref_loop_ms
    if set(m) != set(UNITS):
        raise RuntimeError(f"per-layer metrics out of sync: {sorted(set(m) ^ set(UNITS))}")
    return {name: m[name] for name in UNITS}
