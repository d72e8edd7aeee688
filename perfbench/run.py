"""Benchmark of schurcompress: four workloads, end-to-end and per-layer metrics.

One workload, as the benchmark contract runs it (from the repository root):

    python3 perfbench/run.py --workload qubit-sim --seed 1 --seconds 25 --trace 0

prints a short report and, as its last line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the
metrics are the end-to-end ones of BENCHMARK.json; with ``--trace 1`` they are
the per-layer ones.  ``--workload all`` runs every workload in turn and
prints every metric by name and unit, plus (untraced) the baseline table.

The workload runs in a fresh process (``worker.py``), with BLAS pinned to one
thread.  Set-up time is the median over several fresh processes that only
import the package and build the inputs.  Results, with machine info, are
written to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
SETUP_PROBES = 7
TIME_LIMIT_S = 170.0
BLAS_THREADS = "1"

# (row, workload, point, step, hand-timed seconds from ROADMAP.md)
BASELINE_ROWS = (
    ("qubit exact_protocol_error N=60", "qubit-sim", "diag-N60", "simulate", 0.003),
    ("qubit exact_protocol_error N=120", "qubit-sim", "diag-N120", "simulate", 0.56),
    ("qubit exact_protocol_error N=256", "qubit-sim", "diag-N256", "simulate", 3.75),
    ("qudit exact_protocol_error d=3 N=20", "qudit-sim", "d3-N20", "simulate", 0.31),
    ("qudit exact_protocol_error d=3 N=30", "qudit-sim", "d3-N30", "simulate", 2.7),
    ("greedy_budget_keep N=4096", "plan-large-n", "qubit-N4096", "greedy", 1.2),
)


class BenchmarkError(RuntimeError):
    """The benchmark could not produce a result."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[key] = BLAS_THREADS
    return env


def run_worker(args: list[str], deadline: float) -> dict:
    """Run worker.py with ``args``; return the JSON object on its last stdout line."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchmarkError("time limit reached before the workload finished")
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args],
                              cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"worker {' '.join(args)} exceeded the time limit") from None
    if proc.returncode != 0:
        raise BenchmarkError(f"worker {' '.join(args)} exited with {proc.returncode}:\n"
                             + proc.stderr[-4000:])
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchmarkError(f"worker {' '.join(args)} printed nothing")
    return json.loads(lines[-1])


def measure(workload: str, seed: int, seconds: float, trace: int, size: str) -> dict:
    """The measured run with set-up probes around it, each in a fresh process."""
    if not (ROOT / "src" / "schurcompress" / "__init__.py").is_file():
        raise BenchmarkError(f"package source not found under {ROOT / 'src'}")
    deadline = time.monotonic() + TIME_LIMIT_S
    common = ["--workload", workload, "--seed", str(seed), "--size", size]

    def probe() -> float:
        return run_worker([*common, "--setup-probe"], deadline)["setup_s"]

    probe()  # fills the OS and bytecode caches
    # Probes before and after the run, so that they span the same stretch of time.
    probes = [probe() for _ in range(SETUP_PROBES // 2)]
    report = run_worker([*common, "--seconds", str(seconds), "--trace", str(trace)], deadline)
    probes += [probe() for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
    probes.append(report["setup_s"])
    report["setup_s"] = statistics.median(probes)
    report["setup_probes_s"] = probes
    return report


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def contract_metrics(report: dict, spec: dict, trace: int) -> dict:
    source = report["layers"] if trace else report
    names = spec["per_layer"] if trace else spec["end_to_end"]
    missing = [m["name"] for m in names if m["name"] not in source]
    if missing:
        raise BenchmarkError(f"metrics not produced: {missing}")
    return {m["name"]: {"value": source[m["name"]], "unit": m["unit"]} for m in names}


def print_points(report: dict) -> None:
    m = report["machine"]
    print(f"# {report['workload']} seed={report['seed']} passes={report['passes']}"
          f" traced_passes={report['traced_passes']} | cores={m['cores']}"
          f" ram={m['ram_gb']}GB python={m['python']} numpy={m['numpy']}"
          f" blas_threads={m['blas_threads']['OPENBLAS_NUM_THREADS']}")
    for point in report["points"]:
        status = "ok" if not point["failed"] else (
            "FAIL (known defect)" if point["known_defect"] else "FAIL")
        print(f"#   {point['name']:<20} {point['median_s']:10.4f} s  {status}")
        for problem in point["problems"]:
            print(f"#     {problem}")


def write_results(report: dict, metrics: dict) -> None:
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"{report['workload']}-seed{report['seed']}-trace{report['trace']}.json"
    path.write_text(json.dumps({**report, "metrics": metrics}, indent=1))


def run_one(args, spec: dict) -> None:
    report = measure(args.workload, args.seed, args.seconds, args.trace, args.size)
    metrics = contract_metrics(report, spec, args.trace)
    write_results(report, metrics)
    print_points(report)
    print(json.dumps({"correct": report["correct"], "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))


def run_all(args, spec: dict) -> None:
    workloads = [w["name"] for w in spec["workloads"]]
    reports, table = {}, {}
    for workload in workloads:
        report = measure(workload, args.seed, args.seconds, args.trace, args.size)
        table[workload] = contract_metrics(report, spec, args.trace)
        write_results(report, table[workload])
        print_points(report)
        reports[workload] = report
    names = spec["per_layer"] if args.trace else spec["end_to_end"]
    print(f"{'metric':<40}{'unit':>10}" + "".join(f"{w:>16}" for w in workloads))
    for m in names:
        cells = "".join(f"{table[w][m['name']]['value']:>16.6g}" for w in workloads)
        print(f"{m['name']:<40}{m['unit']:>10}{cells}")
    print("correct: " + ", ".join(f"{w}={reports[w]['correct']}" for w in workloads)
          + " | failed/attempted: "
          + ", ".join(f"{w}={reports[w]['failed']}/{reports[w]['attempted']}" for w in workloads))
    if not args.trace and args.size == "full":
        print_baseline(reports)


def print_baseline(reports: dict) -> None:
    print(f"\n{'baseline point':<40}{'measured_s':>12}{'hand_s':>10}")
    for label, workload, point_name, step, hand in BASELINE_ROWS:
        point = next(p for p in reports[workload]["points"] if p["name"] == point_name)
        print(f"{label:<40}{point['steps'][step]:>12.4f}{hand:>10.3g}")


def main(argv=None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description="schurcompress benchmark")
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]] + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny runs small inputs through the same code paths")
    args = parser.parse_args(argv)
    try:
        if args.workload == "all":
            run_all(args, spec)
        else:
            run_one(args, spec)
    except BenchmarkError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
