"""Tests of the benchmark itself: smoke-size runs of every workload, the
per-piece timing, the self-time arithmetic of the span tree, and the
power-balance checker."""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from checks import power_balance_errors
from gridsac.grid_model import bundled_case, with_plant_setpoints
from gridsac.power_flow import solve_newton_raphson
from spans import Patches, Tracer, covered_fraction, self_times, union_length
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int, cwd: Path = ROOT, smoke: bool = True):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", "3", "--seconds", "0.5", "--trace", str(trace)]
    return subprocess.run(cmd + ["--smoke"] * smoke, cwd=cwd, capture_output=True,
                          text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
# Every workload, also control-case14, which BENCHMARK.json does not gate.
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_run_reports_every_metric(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"]), m["name"]
    if trace and workload == "control-case14":
        assert result["metrics"]["sac.update.calls"]["value"] == 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("snapshots-case14", 0, cwd=tmp_path, smoke=False)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_self_time_on_synthetic_span_tree():
    #   0: [0, 10]          root
    #   1: [1, 4]  child of 0, with 3: [2, 3] inside it
    #   2: [3.5, 6] child of 0, overlapping 1 (overlap counted once)
    #   4: [9, 12] child of 0, clipped to the parent's end
    starts = [0.0, 1.0, 3.5, 2.0, 9.0]
    ends = [10.0, 4.0, 6.0, 3.0, 12.0]
    parents = [-1, 0, 0, 1, 0]
    own = self_times(starts, ends, parents)
    assert own == pytest.approx([10 - 5 - 1, 3 - 1, 2.5, 1.0, 3.0])
    assert union_length([(0, 1), (0.5, 2), (3, 4)]) == pytest.approx(3.0)
    assert covered_fraction(starts, ends, [(-10.0, 10.0)]) == pytest.approx(0.5)
    assert covered_fraction(starts, ends, [(-1.0, 1.0), (11.0, 13.0)]) == pytest.approx(0.5)


def test_timings_come_from_per_piece_minima():
    from run import end_to_end
    from workloads import Rep

    def rep(intervals, latencies):
        pieces = np.array(intervals)
        return Rep(window=(0.0, pieces.sum()), units=4, intervals=pieces, aux_units=2,
                   aux_intervals=pieces, latencies_s=np.array(latencies),
                   success_fraction=1.0, attempted=4)

    # Neither rep is fastest on every piece: the minima are [1, 1] seconds
    # and [1, 1, 4] seconds of latency.
    reps = [rep([1.0, 3.0], [1.0, 3.0, 5.0]), rep([2.0, 1.0], [2.0, 1.0, 4.0])]
    m = end_to_end(reps, setup_s=1.0, attempted=8, failed=0)
    assert m["rate_per_s"] == pytest.approx(4 / 2.0)
    assert m["aux_rate_per_s"] == pytest.approx(2 / 2.0)
    assert m["latency_ms_p50"] == pytest.approx(1e3)
    assert m["latency_ms_p90"] == pytest.approx(3.4e3)


def test_tracer_restores_patched_attributes():
    class Owner:
        def f(self, x):
            return x + 1

    original = Owner.__dict__["f"]
    tracer = Tracer()
    with Patches() as p:
        tracer.install(p, Owner, "f", "owner.f", lambda a, k, r: r * 10, opens=True)
        assert Owner().f(1) == 2
    assert Owner.__dict__["f"] is original
    assert tracer.names == ["owner.f"] and tracer.extra == [20] and tracer.groups == [1]
    assert tracer.ends[0] >= tracer.starts[0] and tracer.parents == [-1]


def test_power_balance_checker_flags_perturbed_voltage():
    base = bundled_case("case14")
    # A low slack setpoint drives the other generators onto their reactive
    # limits, so the pinned PV-to-PQ branch of the check runs too.
    case = with_plant_setpoints(base, {base.plant_order[0]: 0.9})
    sol = solve_newton_raphson(case)
    assert sol.converged and sol.q_limit_switches
    assert power_balance_errors(case, sol) == []
    v_mag = sol.v_mag.copy()
    v_mag[case.bus_position[9]] += 1e-6
    errors = power_balance_errors(case, replace(sol, v_mag=v_mag))
    assert any("mismatch" in e for e in errors)
    lossy = replace(sol, p_loss_total=sol.p_loss_total + 1e-4)
    assert any("p_loss_total" in e for e in power_balance_errors(case, lossy))
    nan = replace(sol, v_ang=np.full_like(sol.v_ang, np.nan))
    assert power_balance_errors(case, nan) == ["non-finite values in the solution"]
