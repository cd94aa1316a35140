"""gridsac benchmark: one command, three workloads on case14.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; the program is imported from
``src/``. With ``--trace 0`` the last line of standard output is a JSON
object holding the end-to-end metrics; with ``--trace 1`` it holds the
per-layer metrics of a traced run. Scratch files go to ``.perfbench_work/``
under the checkout and are removed at exit, except the span file of the
last traced run of each workload. See ``perfbench/README.md``.
"""

from __future__ import annotations

import os
import sys
import time

T_START = time.perf_counter()
# One BLAS thread: the benchmark is one closed loop and the machine may have
# as few as two cores. Must be set before numpy loads OpenBLAS.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _import_program():
    """Import gridsac from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "gridsac" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program source at {SRC / 'gridsac'}; "
                 "run from the root of a gridsac checkout")
    sys.path.insert(0, str(SRC))
    import gridsac
    if Path(gridsac.__file__).resolve().parent != SRC / "gridsac":
        sys.exit(f"perfbench: imported gridsac from {gridsac.__file__}, not {SRC}")


_import_program()

import numpy as np  # noqa: E402

import layers  # noqa: E402
from spans import Patches, Tracer, perf_counter  # noqa: E402
from workloads import FULL, SMOKE, WORKLOADS  # noqa: E402

IMPORT_S = time.perf_counter() - T_START

# (name, unit) of the end-to-end metrics; what each means per workload is in
# README.md.
END_TO_END = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_fraction", "fraction"),
    ("rate_per_s", "1/s"),
    ("aux_rate_per_s", "1/s"),
    ("latency_ms_p50", "ms"),
    ("latency_ms_p90", "ms"),
    ("success_fraction", "fraction"),
]


def ref_loop_ms() -> float:
    """Median of five timings of a fixed pure-numpy loop (dense complex
    products and a small linear solve), to make machine drift visible."""
    rng = np.random.default_rng(0)
    y = rng.standard_normal((14, 14)) + 1j * rng.standard_normal((14, 14))
    a = rng.standard_normal((26, 26)) + 26 * np.eye(26)
    b = rng.standard_normal(26)
    times = []
    for _ in range(5):
        t0 = perf_counter()
        for _ in range(400):
            v = np.exp(1j * y[0].real)
            s = v * np.conj(y @ v)
            b = np.linalg.solve(a, b + s.real.sum() * 1e-3)
        times.append((perf_counter() - t0) * 1e3)
    return statistics.median(times)


def machine_info() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        cpu = next((line.split(":", 1)[1].strip() for line in
                    Path("/proc/cpuinfo").read_text().splitlines()
                    if line.startswith("model name")), platform.processor())
    except OSError:
        cpu = platform.processor()
    return {"nproc": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "openblas": f"{blas.get('name')} {blas.get('version')}",
            "openblas_threads_env": os.environ["OPENBLAS_NUM_THREADS"]}


def run_reps(workload, seconds: float):
    """Reps until their timed work reaches ``seconds`` (at least one)."""
    reps = []
    while not reps or sum(r.wall_s for r in reps) < seconds:
        reps.append(workload.rep(len(reps)))
    return reps


def least_disturbed(arrays) -> np.ndarray:
    """Element-wise minimum over reps of one per-piece timing.

    Piece ``i`` does the same work in every rep, so its fastest repeat is
    the one the other tenants of a shared machine disturbed least (the
    convention of ``timeit``, applied per piece so that a run needs a quiet
    moment per piece, not a quiet rep)."""
    return np.min(np.vstack(arrays), axis=0)


def pieces(rep) -> tuple[int, int, int]:
    return len(rep.intervals), len(rep.aux_intervals), len(rep.latencies_s)


def shape_errors(reps) -> list[str]:
    """Reps whose pieces do not line up with the first rep's."""
    return [f"rep {k} has {pieces(r)} pieces, rep 0 {pieces(reps[0])}"
            for k, r in enumerate(reps) if pieces(r) != pieces(reps[0])]


def end_to_end(reps, setup_s: float, attempted: int, failed: int) -> dict:
    """Rates divide a rep's units by the sum of its least disturbed pieces;
    latency percentiles are taken over the least disturbed latencies."""
    reps = [r for r in reps if pieces(r) == pieces(reps[0])]
    latencies = least_disturbed([r.latencies_s for r in reps])
    return {
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_fraction": max(0.0, 1.0 - failed / attempted),
        "rate_per_s": reps[0].units / least_disturbed([r.intervals for r in reps]).sum(),
        "aux_rate_per_s": (reps[0].aux_units
                           / least_disturbed([r.aux_intervals for r in reps]).sum()),
        "latency_ms_p50": float(np.percentile(latencies, 50)) * 1e3,
        "latency_ms_p90": float(np.percentile(latencies, 90)) * 1e3,
        "success_fraction": statistics.median(r.success_fraction for r in reps),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs that only exercise every code path")
    args = parser.parse_args(argv)

    work_root = ROOT / ".perfbench_work"
    workdir = work_root / f"{args.workload}-{os.getpid()}"
    workload = WORKLOADS[args.workload](args.seed, SMOKE if args.smoke else FULL, workdir)
    print("machine:", json.dumps(machine_info()), flush=True)
    try:
        ref_ms = ref_loop_ms()
        if args.trace:
            tracer = Tracer()
            with Patches() as p:
                layers.install(tracer, p)
                workload.setup()
            # Untraced and traced reps of the same work alternate, so both
            # sides see the same machine; the overhead compares the sums of
            # each side's least disturbed pieces.
            untraced, traced = [], []
            while not traced or sum(r.wall_s for r in untraced + traced) < args.seconds:
                untraced.append(workload.rep(2 * len(traced)))
                with Patches() as p:
                    layers.install(tracer, p)
                    traced.append(workload.rep(2 * len(traced) + 1, tracer))
            windows = [r.window for r in traced]
            overhead = (least_disturbed([r.intervals for r in traced]).sum()
                        / least_disturbed([r.intervals for r in untraced]).sum() - 1.0)
            reps = untraced + traced
        else:
            setup_times = []
            for _ in range(workload.sizes.setup_repeats):
                t0 = perf_counter()
                workload.setup()
                setup_times.append(perf_counter() - t0)
            reps = run_reps(workload, args.seconds)
        errors = ([e for r in reps for e in r.errors] + shape_errors(reps)
                  + workload.final_checks())
        attempted = sum(r.attempted for r in reps)
        failed = len(errors)
        for e in errors[:20]:
            print("check failed:", e, file=sys.stderr)
        ref_ms = statistics.median([ref_ms, ref_loop_ms()])
        print(f"reps: {len(reps)}, timed s: {sum(r.wall_s for r in reps):.3f}, "
              f"ref_loop_ms: {ref_ms:.4f}", flush=True)
        if args.trace:
            values = layers.compute(tracer, windows, workload.entry_spans, overhead, ref_ms)
            units = layers.UNITS
            tracer.write(work_root / "spans" / f"{args.workload}.csv.gz")
        else:
            setup_s = IMPORT_S + statistics.median(setup_times)
            values = end_to_end(reps, setup_s, attempted, failed)
            units = dict(END_TO_END)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    metrics = {name: {"value": values[name], "unit": units[name]} for name in values}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
