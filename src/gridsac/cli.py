"""Command-line entry points.

Exit codes: 0 success, 1 usage error, 2 data error (bad case or config
files), 3 numerical failure (non-convergent power flow, failed campaign).
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from dataclasses import asdict
import numpy as np

from .grid_model import CaseError, load_case
from .harness import (CampaignConfig, CampaignError, RunConfig, SnapshotGenSpec,
                      config_from_file, evaluate, generate_snapshots,
                      periodic_retrain, run_campaign, run_single)
from .power_flow import SolverOptions, audit_violations, solve_newton_raphson

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERICAL = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="gridsac",
                     description="AC power-flow control with a soft actor-critic agent")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("solve", help="solve a case and audit its limits")
    p.add_argument("case", help="case file path")
    p.add_argument("--tolerance", type=float, default=1e-8)
    p.add_argument("--max-iterations", type=int, default=20)
    p.add_argument("--no-q-limits", action="store_true")

    p = sub.add_parser("generate-snapshots", help="write synthetic snapshots")
    p.add_argument("spec", help="snapshot generation spec (JSON)")

    p = sub.add_parser("train", help="train one agent from a run config")
    p.add_argument("config", help="run config (JSON)")
    p.add_argument("--out", default="runs", help="output directory")

    p = sub.add_parser("campaign", help="train several runs and pick the best")
    p.add_argument("config", help="campaign config (JSON)")

    p = sub.add_parser("evaluate", help="evaluate a checkpoint on snapshots")
    p.add_argument("checkpoint")
    p.add_argument("snapshot_dir")

    p = sub.add_parser("retrain", help="warm-start the registry's best model on new data")
    p.add_argument("registry", help="registry directory")
    p.add_argument("snapshot_dir")
    return parser


def _cmd_solve(args) -> int:
    case = load_case(args.case)
    opts = SolverOptions(tolerance=args.tolerance, max_iterations=args.max_iterations,
                         q_limit_budget=0 if args.no_q_limits else SolverOptions.q_limit_budget)
    sol = solve_newton_raphson(case, opts=opts)
    print(f"converged: {sol.converged}  iterations: {sol.iterations}  "
          f"mismatch: {sol.mismatch_inf_norm:.3e}")
    if not sol.converged:
        return EXIT_NUMERICAL
    print(f"total branch losses: {sol.p_loss_total:.6f} p.u.")
    print(f"{'bus':>5} {'V (p.u.)':>10} {'angle (deg)':>12}")
    for bus_id in case.bus_order:
        i = case.bus_position[bus_id]
        print(f"{bus_id:>5} {sol.v_mag[i]:>10.5f} {np.degrees(sol.v_ang[i]):>12.4f}")
    report = audit_violations(case, sol)
    if report.any:
        for bus_id, v, lo, hi in report.voltage_violations:
            print(f"voltage violation: bus {bus_id} V={v:.4f} outside [{lo}, {hi}]")
        for br_id, s, s_max in report.thermal_violations:
            print(f"thermal violation: branch {br_id} S={s:.4f} > {s_max}")
        print(f"overflow index: {report.delta_p_overflow:.6g}  "
              f"voltage index: {report.delta_v_violation:.6g}")
    else:
        print("no violations")
    return EXIT_OK


def _cmd_generate(args) -> int:
    spec = config_from_file(SnapshotGenSpec, args.spec)
    out = generate_snapshots(spec)
    print(f"wrote {spec.n_snapshots} snapshots to {out}")
    return EXIT_OK


def _cmd_train(args) -> int:
    run = config_from_file(RunConfig, args.config)
    result = run_single(run, args.out)
    print(f"run {result.run_id}: checkpoint {result.checkpoint_path}")
    print(json.dumps(asdict(result.report), indent=2))
    return EXIT_OK


def _cmd_campaign(args) -> int:
    config = config_from_file(CampaignConfig, args.config)
    best = run_campaign(config)
    print(f"best run: {best.run_id}")
    print(f"checkpoint: {best.checkpoint_path}")
    print(json.dumps(asdict(best.report), indent=2))
    return EXIT_OK


def _cmd_evaluate(args) -> int:
    report = evaluate(args.checkpoint, args.snapshot_dir)
    print(json.dumps(asdict(report), indent=2))
    return EXIT_OK


def _cmd_retrain(args) -> int:
    best = periodic_retrain(args.registry, args.snapshot_dir)
    print(f"best run: {best.run_id}")
    print(f"checkpoint: {best.checkpoint_path}")
    return EXIT_OK


_COMMANDS = {
    "solve": _cmd_solve,
    "generate-snapshots": _cmd_generate,
    "train": _cmd_train,
    "campaign": _cmd_campaign,
    "evaluate": _cmd_evaluate,
    "retrain": _cmd_retrain,
}


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (CaseError, FileNotFoundError, json.JSONDecodeError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (CampaignError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
