"""The benchmark's workloads: fixed lists of points and their output checks.

A point is a short sequence of named, timed steps into the package, followed
by an untimed check of the outputs against an independent route (another
formula, a closed-form identity, or a recount done here).  A point fails if a
step raises, a CLI command exits with an unexpected code, or the check finds
a problem.  Failing points are never skipped.

The N grid and the spectra are fixed; the seed draws only the rotation angles
and the ``oracle-check --seed`` values, afresh for every pass.  Their cost
depends on them (a random keep set can triple an oracle check), so a run
averages over the draws of its passes.  ``known_defect`` marks the points
that fail on the current package for a documented reason, so that a run can
tell them apart from new failures; they still count as failed.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import random
from dataclasses import dataclass
from typing import Callable, Iterator

from schurcompress import blocksim, cli, planner
from schurcompress.schur_core import Spectrum

P = 0.75
QUBIT = Spectrum((P, 1.0 - P))
QUBIT_EPS = 0.01
QUDIT_EPS = 0.1
BUDGET_EXPONENT = 1.4
IDENTITY_TOL = 1e-9   # |exact_error - tail_mass|
WEIGHT_SUM_TOL = 1e-10
ROUTE_TOL = 1e-9      # agreement with an independent route
PRINTED_TOL = 1e-8    # values printed with 10 significant digits

WIGNER_OVERFLOW = "Wigner small-d prefactor overflows a float at 2j >= 100"
CANCELLATION = "float Jacobi-Trudi weights lose all precision to cancellation at this N"

# N grids per size.  "full" is the benchmark; "tiny" exercises the same code
# paths in well under a second, for the smoke test.  Qudit simulation stops at
# N = 30: at N = 40 the dense block matrices need more memory than an 8 GB
# machine has, and the process is killed instead of failing cleanly.
SIZES = {
    "full": {
        "qubit_diag": (60, 120, 256),
        "qubit_rot": (64, 120),
        "qudit_sim": (20, 30),
        "plan_qubit": (4096,),
        "plan_qudit": (("d3", (0.5, 0.3, 0.2), (50, 100, 200)),
                       ("d3skew", (0.98, 0.01, 0.01), (100,)),
                       ("d4", (0.4, 0.3, 0.2, 0.1), (100,))),
        "cli": {"dims": 8, "qdist_qubit": 40, "qdist_qudit": 20, "plan_qubit": 64,
                "plan_qudit": 30, "simulate": 40, "sweep": "10:60:10",
                "budget": "64,128,512", "oracle_rot": 8, "oracle_qubit": 9,
                "oracle_qudit": 5, "qdist_large": 100},
    },
    "tiny": {
        "qubit_diag": (8, 12),
        "qubit_rot": (8,),
        "qudit_sim": (4, 5),
        "plan_qubit": (64,),
        "plan_qudit": (("d3", (0.5, 0.3, 0.2), (8,)),
                       ("d3skew", (0.98, 0.01, 0.01), (6,)),
                       ("d4", (0.4, 0.3, 0.2, 0.1), (5,))),
        "cli": {"dims": 4, "qdist_qubit": 10, "qdist_qudit": 6, "plan_qubit": 16,
                "plan_qudit": 8, "simulate": 8, "sweep": "4:8:2",
                "budget": "8,16", "oracle_rot": 4, "oracle_qubit": 4,
                "oracle_qudit": 3, "qdist_large": 8},
    },
}

KNOWN_DEFECTS = {
    "qubit-sim/rot-N120": WIGNER_OVERFLOW,
    "plan-large-n/d3-N100": CANCELLATION,
    "plan-large-n/d3-N200": CANCELLATION,
    "plan-large-n/d3skew-N100": CANCELLATION,
    "plan-large-n/d4-N100": CANCELLATION,
    "cli-mix/qdist-N100": CANCELLATION,
}


@dataclass
class Point:
    name: str
    steps: list[tuple[str, Callable[[dict], object]]]
    check: Callable[[dict], list[str]]
    known_defect: str | None = None


# ---------------------------------------------------------------------------
# Independent routes
# ---------------------------------------------------------------------------

def hook_content_dim(rows, d: int) -> int:
    """GL(d) irrep dimension by the hook-content formula (not Weyl's)."""
    rows = [r for r in rows if r > 0]
    cols = [sum(1 for r in rows if r > j) for j in range(rows[0])] if rows else []
    num, den = 1, 1
    for i, r in enumerate(rows):
        for j in range(r):
            num *= d + j - i
            den *= (r - j - 1) + (cols[j] - i - 1) + 1
    return num // den


def qubit_dim_total(keep) -> int:
    return sum(lam.rows[0] - lam.rows[1] + 1 for lam in keep)


def row_distance(rows, probs) -> float:
    n = sum(rows)
    return 0.5 * sum(abs(r / n - p) for r, p in zip(rows, probs))


def binomial_tail(n: int, spins) -> float:
    return sum(blocksim.qubit_weight_binomial(n, P, two_j) for two_j in spins)


def check_weights(weights, tol: float = WEIGHT_SUM_TOL) -> list[str]:
    values = list(weights)
    problems = []
    if min(values) < 0:
        problems.append(f"negative block weight {min(values):.3g}")
    if abs(sum(values) - 1.0) > tol:
        problems.append(f"weights sum to 1 {sum(values) - 1.0:+.3g}")
    return problems


def check_identity(report) -> list[str]:
    gap = abs(report.exact_error - report.tail_mass)
    return [f"|exact_error - tail_mass| = {gap:.3g}"] if gap > IDENTITY_TOL else []


def check_qubit_count(d_enc: int, qubits: int) -> list[str]:
    want = (d_enc - 1).bit_length()
    return [] if qubits == want else [f"{qubits} qubits for d_enc={d_enc}, expected {want}"]


# ---------------------------------------------------------------------------
# qubit-sim
# ---------------------------------------------------------------------------

def _qubit_sim_point(n: int, orientation) -> Point:
    def check(out) -> list[str]:
        plan, report = out["plan"], out["simulate"]
        problems = check_identity(report)
        if report.exact_error > QUBIT_EPS + 1e-12:
            problems.append(f"exact_error {report.exact_error:.3g} above epsilon")
        if plan.d_enc != qubit_dim_total(plan.keep):
            problems.append(f"d_enc {plan.d_enc} != sum of 2j+1 over kept blocks")
        problems += check_qubit_count(plan.d_enc, plan.qubit_count)
        weights = blocksim.qubit_weights(n, P)
        problems += check_weights(weights.values())
        worst = max(abs(w - blocksim.qubit_weight_binomial(n, P, two_j))
                    for two_j, w in weights.items())
        if worst > ROUTE_TOL:
            problems.append(f"qubit weights differ from the binomial form by {worst:.3g}")
        kept = {lam.two_j for lam in plan.keep}
        tail = binomial_tail(n, (s for s in weights if s not in kept))
        if abs(tail - report.tail_mass) > ROUTE_TOL:
            problems.append(f"tail_mass differs from the binomial form by "
                            f"{abs(tail - report.tail_mass):.3g}")
        return problems

    kind = "diag" if orientation is None else "rot"
    return Point(f"{kind}-N{n}", [
        ("plan", lambda out: planner.qubit_approx_plan(n, P, QUBIT_EPS)),
        ("simulate", lambda out: blocksim.exact_protocol_error(
            n, QUBIT, out["plan"].keep, orientation)),
    ], check)


def qubit_sim(size: dict, rng: random.Random) -> list[Point]:
    points = [_qubit_sim_point(n, None) for n in size["qubit_diag"]]
    for n in size["qubit_rot"]:
        angles = blocksim.BlochVector(rng.uniform(0.2, math.pi - 0.2),
                                      rng.uniform(0.0, 2.0 * math.pi))
        points.append(_qubit_sim_point(n, angles))
    return points


# ---------------------------------------------------------------------------
# qudit-sim
# ---------------------------------------------------------------------------

def _qudit_sim_point(label: str, spectrum: Spectrum, n: int) -> Point:
    def check(out) -> list[str]:
        plan, report = out["plan"], out["simulate"]
        problems = check_identity(report)
        if report.exact_error > QUDIT_EPS + 1e-12:
            problems.append(f"exact_error {report.exact_error:.3g} above epsilon")
        dims = sum(hook_content_dim(lam.rows, spectrum.d) for lam in plan.keep)
        if plan.d_enc != dims:
            problems.append(f"d_enc {plan.d_enc} != hook-content total {dims}")
        problems += check_qubit_count(plan.d_enc, plan.qubit_count)
        problems += check_weights(blocksim.block_weights(n, spectrum).values())
        return problems

    return Point(f"{label}-N{n}", [
        ("plan", lambda out: planner.qudit_approx_plan(n, spectrum, QUDIT_EPS)),
        ("simulate", lambda out: blocksim.exact_protocol_error(n, spectrum, out["plan"].keep)),
    ], check)


def qudit_sim(size: dict, rng: random.Random) -> list[Point]:
    spectra = (("d3", Spectrum((0.5, 0.3, 0.2))), ("d3deg", Spectrum((0.6, 0.2, 0.2))))
    return [_qudit_sim_point(label, spectrum, n)
            for label, spectrum in spectra for n in size["qudit_sim"]]


# ---------------------------------------------------------------------------
# plan-large-n
# ---------------------------------------------------------------------------

def _plan_qubit_point(n: int) -> Point:
    budget = float(n) ** BUDGET_EXPONENT
    x = 1.0 / math.sqrt(n)

    def check(out) -> list[str]:
        keep = out["greedy"]
        problems = []
        if qubit_dim_total(keep) > budget:
            problems.append(f"greedy keeps dimension {qubit_dim_total(keep)} > budget {budget:.0f}")
        kept = {lam.two_j for lam in keep}
        spins = range(n % 2, n + 1, 2)
        lower = 0.5 * max(0.0, 1.0 - binomial_tail(n, kept))
        if abs(lower - out["lower_bound"]) > ROUTE_TOL:
            problems.append(f"lower bound differs from the binomial form by "
                            f"{abs(lower - out['lower_bound']):.3g}")
        far = [s for s in spins if row_distance(((n + s) // 2, (n - s) // 2), (P, 1 - P)) > x]
        tail = binomial_tail(n, far)
        if abs(tail - out["tail"]) > ROUTE_TOL:
            problems.append(f"tail mass differs from the binomial form by "
                            f"{abs(tail - out['tail']):.3g}")
        return problems

    return Point(f"qubit-N{n}", [
        ("greedy", lambda out: planner.greedy_budget_keep(n, QUBIT, budget)),
        ("lower_bound", lambda out: planner.truncation_lower_bound(n, QUBIT, out["greedy"])),
        ("tail", lambda out: planner.spectrum_tail_mass(n, QUBIT, x)),
    ], check)


def _plan_qudit_point(label: str, spectrum: Spectrum, n: int) -> Point:
    budget = float(n) ** BUDGET_EXPONENT
    x = 1.0 / math.sqrt(n)

    def check(out) -> list[str]:
        problems = check_weights(out["weights"].values())
        used = sum(hook_content_dim(lam.rows, spectrum.d) for lam in out["greedy"])
        if used > budget:
            problems.append(f"greedy keeps dimension {used} > budget {budget:.0f}")
        if not -1e-12 <= out["tail"] <= 1.0 + 1e-12:
            problems.append(f"tail mass {out['tail']:.3g} outside [0, 1]")
        return problems

    return Point(f"{label}-N{n}", [
        ("weights", lambda out: blocksim.block_weights(n, spectrum)),
        ("greedy", lambda out: planner.greedy_budget_keep(n, spectrum, budget)),
        ("tail", lambda out: planner.spectrum_tail_mass(n, spectrum, x)),
    ], check)


def plan_large_n(size: dict, rng: random.Random) -> list[Point]:
    points = [_plan_qubit_point(n) for n in size["plan_qubit"]]
    for label, probs, ns in size["plan_qudit"]:
        points += [_plan_qudit_point(label, Spectrum(probs), n) for n in ns]
    return points


# ---------------------------------------------------------------------------
# cli-mix
# ---------------------------------------------------------------------------

def run_cli(argv: list[str]) -> tuple[int, str]:
    """``cli.main`` in-process, stdout and stderr captured; returns (exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue()


def _spin_label(text: str) -> int:
    """Doubled spin from a table label such as "7" or "15/2"."""
    return int(text[:-2]) if text.endswith("/2") else 2 * int(text)


def _lines_with(text: str, prefix: str) -> list[str]:
    return [line[len(prefix):] for line in text.splitlines() if line.startswith(prefix)]


def _check_dims(n: int, d: int, text: str) -> list[str]:
    want = f"sum of irrep_dim*mult_dim = {d ** n}"
    return [] if want in text and "(match)" in text else ["dims sum rule not reported"]


def _check_qdist_csv(n: int, text: str) -> list[str]:
    rows = list(csv.reader(io.StringIO(text)))[1:]
    weights = {_spin_label(row[0]): float(row[1]) for row in rows}
    problems = check_weights(weights.values(), PRINTED_TOL)
    worst = max(abs(w - blocksim.qubit_weight_binomial(n, P, s)) / max(w, 1e-300)
                for s, w in weights.items() if w > 0)
    if worst > PRINTED_TOL:
        problems.append(f"printed weights differ from the binomial form by {worst:.3g} (relative)")
    return problems


def _check_qdist_json(text: str) -> list[str]:
    results = json.loads(text)["results"]
    problems = check_weights([row["weight"] for row in results["rows"]])
    if abs(results["total"] - 1.0) > WEIGHT_SUM_TOL:
        problems.append(f"reported total {results['total']!r}")
    return problems


def _check_qdist_table(text: str) -> list[str]:
    total = float(_lines_with(text, "total = ")[0])
    return [] if abs(total - 1.0) <= PRINTED_TOL else [f"reported total = {total!r}"]


def _check_plan_qubit(text: str) -> list[str]:
    lo, hi = (_spin_label(s) for s in _lines_with(text, "keep ")[0].split("j = ")[1].split(" .. "))
    d_enc = int(_lines_with(text, "d_enc = ")[0])
    want = sum(s + 1 for s in range(lo, hi + 1, 2))
    problems = [] if d_enc == want else [f"d_enc {d_enc} != recount {want}"]
    return problems + check_qubit_count(d_enc, int(_lines_with(text, "qubits = ")[0]))


def _check_plan_qudit_json(text: str) -> list[str]:
    res = json.loads(text)["results"]
    want = sum(hook_content_dim(rows, res["d"]) for rows in res["keep"])
    problems = [] if res["d_enc"] == want else [f"d_enc {res['d_enc']} != hook-content {want}"]
    return problems + check_qubit_count(res["d_enc"], res["qubit_count"])


def _check_simulate_json(text: str) -> list[str]:
    res = json.loads(text)["results"]
    gap = abs(res["exact_error"] - res["tail_mass"])
    problems = [f"|exact_error - tail_mass| = {gap:.3g}"] if gap > IDENTITY_TOL else []
    return problems + ([] if res["pass"] else ["simulate reports FAIL"])


def _check_sweep_rows(rows: list[dict], budget_exponent: float | None) -> list[str]:
    problems = []
    for row in rows:
        n, tail, lower = int(row["n"]), float(row["tail_mass"]), float(row["lower_bound"])
        if row["exact_error"] and abs(float(row["exact_error"]) - tail) > IDENTITY_TOL:
            problems.append(f"N={n}: exact_error {row['exact_error']} != tail_mass {tail!r}")
        if abs(lower - 0.5 * tail) > PRINTED_TOL * max(tail, 1e-300):
            problems.append(f"N={n}: lower_bound is not half the tail")
        if budget_exponent is not None and int(row["d_enc"]) > n ** budget_exponent:
            problems.append(f"N={n}: d_enc {row['d_enc']} over budget")
    return problems or ([] if rows else ["sweep printed no rows"])


def _check_oracle_table(text: str) -> list[str]:
    lines = text.strip().splitlines()
    return [] if lines and lines[-1] == "PASS" else ["oracle-check does not report PASS"]


def _check_oracle_json(text: str) -> list[str]:
    return [] if json.loads(text)["results"]["pass"] is True else ["oracle-check reports FAIL"]


def cli_mix(size: dict, rng: random.Random) -> list[Point]:
    c = size["cli"]
    qubit = "0.75,0.25"
    qudit = "0.5,0.3,0.2"
    theta, phi = (f"{rng.uniform(0.2, math.pi - 0.2):.6f}",
                  f"{rng.uniform(0.0, 2.0 * math.pi):.6f}")
    oracle_theta, oracle_phi = (f"{rng.uniform(0.2, math.pi - 0.2):.6f}",
                                f"{rng.uniform(0.0, 2.0 * math.pi):.6f}")
    seeds = [str(rng.randrange(1, 2 ** 31)) for _ in range(3)]
    commands = [
        ("dims", ["dims", "--n", str(c["dims"]), "--d", "3"],
         lambda t: _check_dims(c["dims"], 3, t)),
        ("qdist-csv", ["qdist", "--n", str(c["qdist_qubit"]), "--spectrum", qubit,
                       "--format", "csv"],
         lambda t: _check_qdist_csv(c["qdist_qubit"], t)),
        ("qdist-json", ["qdist", "--n", str(c["qdist_qudit"]), "--spectrum", qudit,
                        "--format", "json"], _check_qdist_json),
        ("plan-qubit", ["plan", "--n", str(c["plan_qubit"]), "--spectrum", qubit,
                        "--epsilon", str(QUBIT_EPS)], _check_plan_qubit),
        ("plan-qudit-json", ["plan", "--n", str(c["plan_qudit"]), "--spectrum", qudit,
                             "--epsilon", str(QUDIT_EPS), "--format", "json"],
         _check_plan_qudit_json),
        ("simulate-rot-json", ["simulate", "--n", str(c["simulate"]), "--spectrum", qubit,
                               "--epsilon", str(QUBIT_EPS), "--theta", theta, "--phi", phi,
                               "--format", "json"], _check_simulate_json),
        ("sweep-eps-csv", ["sweep", "--n-range", c["sweep"], "--spectrum", qubit,
                           "--epsilon-list", "0.1,0.01"],
         lambda t: _check_sweep_rows(list(csv.DictReader(io.StringIO(t))), None)),
        ("sweep-budget-json", ["sweep", "--n-list", c["budget"], "--spectrum", qubit,
                               "--budget-exponent", str(BUDGET_EXPONENT), "--format", "json"],
         lambda t: _check_sweep_rows(json.loads(t)["results"], BUDGET_EXPONENT)),
        ("oracle-rot", ["oracle-check", "--n", str(c["oracle_rot"]), "--spectrum", qubit,
                        "--theta", oracle_theta, "--phi", oracle_phi, "--seed", seeds[0]],
         _check_oracle_table),
        ("oracle-json", ["oracle-check", "--n", str(c["oracle_qubit"]), "--spectrum", qubit,
                         "--seed", seeds[1], "--format", "json"], _check_oracle_json),
        ("oracle-qudit", ["oracle-check", "--n", str(c["oracle_qudit"]), "--spectrum", qudit,
                          "--seed", seeds[2]], _check_oracle_table),
        (f"qdist-N{c['qdist_large']}", ["qdist", "--n", str(c["qdist_large"]),
                                        "--spectrum", qudit], _check_qdist_table),
    ]
    return [_cli_point(name, argv, check) for name, argv, check in commands]


def _cli_point(name: str, argv: list[str], check_text) -> Point:
    def check(out) -> list[str]:
        code, text = out["cli"]
        if code != 0:
            return [f"exit code {code}"]
        return check_text(text)

    return Point(name, [("cli", lambda out: run_cli(argv))], check)


BUILDERS = {
    "qubit-sim": qubit_sim,
    "qudit-sim": qudit_sim,
    "plan-large-n": plan_large_n,
    "cli-mix": cli_mix,
}


def passes(workload: str, seed: int, size: str = "full") -> Iterator[list[Point]]:
    """Endless stream of the workload's passes, with inputs drawn from ``seed``."""
    rng = random.Random(seed)
    while True:
        points = BUILDERS[workload](SIZES[size], rng)
        if size == "full":
            for point in points:
                point.known_defect = KNOWN_DEFECTS.get(f"{workload}/{point.name}")
        yield points
