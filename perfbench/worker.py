"""Runs one workload in this process and prints one JSON report line.

Started by ``run.py`` in a fresh process per workload, so that peak resident
memory belongs to that workload alone.  Modes:

* ``--setup-probe``: import the package, build the inputs, print the time.
* default: measure passes over the workload's points for ``--seconds``.
  With ``--trace 1`` untraced and traced passes alternate; the traced ones
  give the per-layer metrics, the difference gives the tracing overhead.

Every pass starts with the package's function caches emptied, so each pass
costs what it costs a fresh ``schurcompress`` command.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

RESULTS = Path(__file__).resolve().parent / "results"


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--setup-probe", action="store_true")
    return parser.parse_args(argv)


def machine_info() -> dict:
    import numpy as np

    return {
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "ram_gb": round(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2 ** 30, 2),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "platform": platform.platform(),
    }


def run_point(point, tracer) -> dict:
    """Time the point's steps, then check its outputs with tracing paused."""
    out, steps, problem = {}, {}, None
    for name, step in point.steps:
        start = time.perf_counter()
        try:
            out[name] = step(out)
        except Exception as exc:  # a raising step is a failed point, not a crash
            where = traceback.extract_tb(exc.__traceback__)[-1]
            problem = (f"{name} raised {type(exc).__name__}: {exc} "
                       f"(in {where.name}, {Path(where.filename).name}:{where.lineno})")
        finally:
            steps[name] = time.perf_counter() - start
        if problem:
            break
    if problem is None:
        if tracer is not None:
            tracer.enabled = False
        try:
            problems = point.check(out)
        except Exception as exc:
            problems = [f"check raised {type(exc).__name__}: {exc}"]
        finally:
            if tracer is not None:
                tracer.enabled = True
        problem = "; ".join(problems) or None
    stdout_bytes = len(out["cli"][1].encode()) if "cli" in out else 0
    return {"name": point.name, "seconds": sum(steps.values()), "steps": steps,
            "ok": problem is None, "problem": problem, "known_defect": point.known_defect,
            "stdout_bytes": stdout_bytes}


def run_pass(points, tracer=None) -> dict:
    results = [run_point(point, tracer) for point in points]
    return {"wall_s": sum(r["seconds"] for r in results),
            "max_point_s": max(r["seconds"] for r in results),
            "stdout_bytes": sum(r["stdout_bytes"] for r in results),
            "points": results}


def summarize_points(passes: list[dict]) -> list[dict]:
    """Per point: median step times over the passes, and its failures."""
    summary = []
    for i, first in enumerate(passes[0]["points"]):
        runs = [p["points"][i] for p in passes]
        steps = {name: statistics.median(r["steps"].get(name, 0.0) for r in runs)
                 for name in first["steps"]}
        problems = sorted({r["problem"] for r in runs if r["problem"]})
        summary.append({"name": first["name"],
                        "median_s": statistics.median(r["seconds"] for r in runs),
                        "steps": steps, "failed": sum(not r["ok"] for r in runs),
                        "problems": problems, "known_defect": first["known_defect"]})
    return summary


def mean_pass(start: float, *runs: list) -> float:
    count = sum(len(r) for r in runs)
    return (time.perf_counter() - start) / count if count else 0.0


def measure(args, stream) -> dict:
    from tracer import Tracer, clear_package_caches

    plain, traced, layer_runs, spans = [], [], [], []
    tracer = Tracer() if args.trace else None
    start = time.perf_counter()
    # Stop at the pass boundary nearest to --seconds.
    while (not plain or (tracer and not traced)
           or time.perf_counter() - start + 0.5 * mean_pass(start, plain, traced) < args.seconds):
        points = next(stream)
        clear_package_caches()
        if tracer is None or len(traced) >= len(plain):
            plain.append(run_pass(points))
            continue
        tracer.reset()
        with tracer.installed():
            traced.append(run_pass(points, tracer))
        layer_runs.append(tracer.layer_metrics())
        spans.append(tracer.spans())

    every = plain + traced
    attempted = sum(len(p["points"]) for p in every)
    failed = sum(not r["ok"] for p in every for r in p["points"])
    unexpected = [r for p in every for r in p["points"] if not r["ok"] and not r["known_defect"]]
    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace, "size": args.size,
        "passes": len(plain), "traced_passes": len(traced),
        "attempted": attempted, "failed": failed, "correct": not unexpected,
        "wall_s": statistics.median(p["wall_s"] for p in plain),
        "pass_wall_s": [p["wall_s"] for p in plain],
        "max_point_s": statistics.median(p["max_point_s"] for p in plain),
        "ok_frac": 1.0 - failed / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "points": summarize_points(plain),
        "machine": machine_info(),
    }
    if tracer is not None:
        layers = {key: statistics.median(run[key] for run in layer_runs) for key in layer_runs[0]}
        layers["cli.stdout_bytes"] = statistics.median(p["stdout_bytes"] for p in traced)
        layers["trace.overhead_s"] = (statistics.median(p["wall_s"] for p in traced)
                                      - report["wall_s"])
        report["layers"] = layers
        write_spans(RESULTS / f"{args.workload}-seed{args.seed}-spans.npz", spans)
    return report


def write_spans(path: Path, spans: list[dict]) -> None:
    import numpy as np

    path.parent.mkdir(parents=True, exist_ok=True)
    arrays = {}
    for i, run in enumerate(spans):
        arrays.update({f"pass{i}_{key}": value for key, value in run.items()})
    np.savez(path, **arrays)


def main(argv=None) -> int:
    args = parse_args(argv)
    import workloads

    stream = workloads.passes(args.workload, args.seed, args.size)
    first = next(stream)
    setup_s = time.perf_counter() - _T0
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    report = measure(args, itertools.chain([first], stream))
    report["setup_s"] = setup_s
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
