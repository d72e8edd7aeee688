"""Command-line surface: enumeration, distributions, planning, simulation,
sweeps, and oracle cross-checks, with table/CSV/JSON output.

Every command is deterministic given its flags (plus --seed where one
applies).  Floats print with 10 significant digits so golden files stay
byte-identical across runs.  Exit codes: 0 ok, 1 oracle mismatch, 2 usage
or input error, 3 not-applicable request, 4 resource cap exceeded.

``build_parser`` alone declares each flag's type, default and choices, and
``--format`` offers only the forms its command prints; ``main`` builds it
once per process.  ``--config`` values become the defaults of a parser built
for that run, checked the same way, so a command-line flag wins.
Each ``cmd_*`` returns (exit code, JSON params, JSON results, text lines).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import re
import sys
from functools import lru_cache

import numpy as np

from . import __version__
from .blocksim import BlochVector, exact_protocol_error, product_state, weight_table
from .errors import (
    NotApplicableError,
    ParameterError,
    ResourceLimitError,
    UnsupportedFeatureError,
)
from .oracle import _qubit_reference, block_spectrum_mismatch, character_projection_weights
from .planner import (
    ceil_log2,
    circuit_resource_estimate,
    error_threshold_copies,
    greedy_budget_plan,
    qubit_approx_plan,
    qubit_error_upper_bound,
    qudit_approx_plan,
    truncation_lower_bound,
    zero_error_plan,
)
from .schur_core import (Spectrum, diagram_rows, irrep_dims, multiplicity_dims, spectrum_of,
                         young_diagrams)

ORACLE_TOL = 1e-8
EXACT_ERROR_CAP = 256  # largest N for which sweeps evaluate the exact error
CONFIG_BOOLEANS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


def fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.10g}"
    return str(x)


def parse_value(text: str, cast, what: str):
    """cast(text), with a malformed value reported as a usage error."""
    try:
        return cast(text)
    except ValueError:
        raise ParameterError(f"bad {what}: {text!r}") from None


def parse_spectrum(text: str) -> Spectrum:
    tokens = [tok.strip() for tok in text.split(",") if tok.strip() != ""]
    try:
        vals = [float(tok) for tok in tokens]
    except ValueError as exc:
        raise ParameterError(f"bad spectrum {text!r}: {exc}") from None
    bad = [tok for tok, v in zip(tokens, vals) if not math.isfinite(v)]
    if bad:
        raise ParameterError(f"non-finite spectrum entry {bad[0]!r} in {text!r}")
    if not vals or any(v < 0 for v in vals):
        raise ParameterError(f"spectrum entries must be non-negative, got {text!r}")
    return spectrum_of(*vals)


def load_config(path: str) -> dict[str, str]:
    """Flat key=value file; keys match the long flag names without dashes."""
    out: dict[str, str] = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for raw in fh:
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ParameterError(f"bad config line {line!r}")
                key, val = line.split("=", 1)
                out[key.strip()] = val.strip()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParameterError(f"cannot read config: {exc}") from None
    return out


def apply_config(parser: argparse.ArgumentParser, command: str, config: dict[str, str]) -> None:
    """Make the config values that name a flag of ``command`` its parser defaults, each
    cast and checked by that flag's own type and choices (a store-true flag takes
    1/true/yes/0/false/no).  Other keys, and ``config`` itself, are ignored."""
    # argparse keeps a parser's flags in ``_actions``; it has no public accessor
    command_parser = next(a for a in parser._actions if a.dest == "command").choices[command]
    defaults = {}
    for action in command_parser._actions:
        key = action.dest.replace("_", "-")
        if key not in config or action.dest in ("help", "config"):
            continue
        raw = config[key]
        if action.nargs == 0:
            value = CONFIG_BOOLEANS.get(raw.lower())
        else:
            value = parse_value(raw, action.type or str, f"config value for {key}")
        if value is None or (action.choices is not None and value not in action.choices):
            raise ParameterError(f"bad config value for {key}: {raw!r}")
        defaults[action.dest] = value
    command_parser.set_defaults(**defaults)


def tabulate(headers: list[str], rows: list[list[str]], out_format: str,
             footer: list[str] | None = None) -> list[str]:
    """CSV lines, or an aligned table closed by the footer lines (tables only)."""
    if out_format == "csv":
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows([headers, *rows])
        return buf.getvalue().splitlines()
    widths = [max(len(cell) for cell in column) for column in zip(headers, *rows)]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(cells, widths))
             for cells in (headers, *rows)]
    rule = "-" * len(lines[0])
    table = [lines[0], rule, *lines[1:]]
    return table + [rule, *footer] if footer else table


def diagram_label(row: list[int], d: int) -> str:
    """The spin j of a two-row diagram row, else the row as (l_1,..,l_d)."""
    if d == 2:
        two_j = row[0] - row[1]
        return str(two_j // 2) if two_j % 2 == 0 else f"{two_j}/2"
    return "(" + ",".join(map(str, row)) + ")"


def orientation(args, spectrum: Spectrum) -> BlochVector | None:
    """The qubit rotation named by --theta/--phi, or None for the diagonal state."""
    if args.theta is None and args.phi is None:
        return None
    if spectrum.d > 2:
        raise UnsupportedFeatureError("--theta/--phi are only supported for qubits")
    return BlochVector(args.theta or 0.0, args.phi or 0.0)


# ---------------------------------------------------------------------------
# Commands: each returns (exit code, JSON params, JSON results, text lines)
# ---------------------------------------------------------------------------

def cmd_dims(args):
    if args.n is None or args.d is None:
        raise ParameterError("dims requires --n and --d")
    n, d, r = args.n, args.d, args.r
    diagrams = diagram_rows(n, d, r)
    # every number printed is at most d^N; str() of a longer int raises ValueError
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no limit
    if limit and n * math.log10(d) >= limit:
        raise ResourceLimitError(f"d^N = {d}^{n} has more than {limit} decimal digits, "
                                 "the most this interpreter converts to text")
    dims, mults = irrep_dims(diagrams).tolist(), multiplicity_dims(diagrams).tolist()
    diagrams = diagrams.tolist()
    total = sum(dim * mult for dim, mult in zip(dims, mults))
    rows = [[diagram_label(row, d) if d == 2 else str(row), str(dim), str(mult), str(dim * mult)]
            for row, dim, mult in zip(diagrams, dims, mults)]
    full = d ** n if (r is None or r == d) else None
    headers = ["j" if d == 2 else "diagram", "irrep_dim", "mult_dim", "product"]
    footer = [f"sum of irrep_dim*mult_dim = {total}"]
    if full is not None:
        footer.append(f"d^N = {full}" + ("  (match)" if full == total else "  (MISMATCH)"))
    if args.format == "csv":
        rows.append(["TOTAL", "", "", str(total)])
    results = {"rows": [{"diagram": row, "irrep_dim": dim, "mult_dim": mult}
                        for row, dim, mult in zip(diagrams, dims, mults)],
               "total": total, "full_space": full}
    return 0, {"n": n, "d": d, "r": r}, results, tabulate(headers, rows, args.format, footer)


def cmd_qdist(args):
    if args.n is None or args.spectrum is None:
        raise ParameterError("qdist requires --n and --spectrum")
    spectrum = parse_spectrum(args.spectrum)
    table = weight_table(args.n, spectrum)
    diagrams, weights = table.rows.tolist(), table.weights.tolist()
    rows = []
    cum = 0.0
    for row, w in zip(diagrams, weights):
        cum += w
        rows.append([diagram_label(row, spectrum.d), fmt(w), fmt(cum)])
    headers = ["j" if spectrum.d == 2 else "diagram", "weight", "cumulative"]
    total = sum(weights)
    results = {"rows": [{"diagram": row, "weight": w} for row, w in zip(diagrams, weights)],
               "total": total}
    lines = tabulate(headers, rows, args.format, [f"total = {fmt(total)}"])
    return 0, {"n": args.n, "spectrum": list(spectrum.probs)}, results, lines


def _build_plan(n: int, spectrum: Spectrum, epsilon: float | None, zero_error: bool):
    if zero_error or epsilon is None:
        return zero_error_plan(n, spectrum.d, spectrum.rank)
    if spectrum.d == 2:
        return qubit_approx_plan(n, spectrum.max_eigenvalue, epsilon)
    return qudit_approx_plan(n, spectrum, epsilon)


def cmd_plan(args):
    if args.n is None or args.spectrum is None:
        raise ParameterError("plan requires --n and --spectrum")
    n, epsilon, zero_error = args.n, args.epsilon, args.zero_error
    if epsilon is None and not zero_error:
        raise ParameterError("plan requires --epsilon or --zero-error")
    spectrum = parse_spectrum(args.spectrum)
    plan = _build_plan(n, spectrum, epsilon, zero_error)
    # the circuit model covers the qubit protocol only
    resources = circuit_resource_estimate(n) if n >= 2 and spectrum.d == 2 else None

    extras: dict[str, float] = {}
    if not zero_error and epsilon is not None and spectrum.d == 2:
        extras["error_upper_bound"] = qubit_error_upper_bound(n, spectrum.max_eigenvalue, epsilon)
        extras["threshold_copies"] = error_threshold_copies(spectrum.max_eigenvalue, epsilon)
    if zero_error and spectrum.d == 2 and n % 2 == 0:
        extras["closed_form_qubits"] = ceil_log2((n // 2 + 1) ** 2)

    results = plan.as_dict()
    results["extras"] = extras
    if resources is not None:
        results["resources"] = resources.as_dict()
    params = {"n": n, "spectrum": list(spectrum.probs), "epsilon": epsilon,
              "zero_error": zero_error}

    largest, smallest = plan.rows[[0, -1]].tolist()
    lines = [f"plan: N={plan.n} d={plan.d} "
             + ("zero-error" if plan.epsilon is None else f"epsilon={fmt(plan.epsilon)}")]
    if plan.d == 2:
        lines.append(f"keep {len(plan.rows)} blocks: "
                     f"j = {diagram_label(smallest, 2)} .. {diagram_label(largest, 2)}")
    else:
        lines.append(f"keep {len(plan.rows)} blocks (largest {largest})")
    lines += [f"d_enc = {plan.d_enc}",
              f"qubits = {plan.qubit_count}",
              f"hybrid = ({plan.hybrid_qubits} qubits, {plan.hybrid_bits} bits)"]
    if plan.bound_qubits is not None:
        lines.append(f"bound_qubits = {fmt(plan.bound_qubits)}")
    lines += [f"{key} = {fmt(val)}" for key, val in extras.items()]
    if resources is not None:
        lines.append(f"registers: index={resources.index_register_qubits} "
                     f"representation={resources.representation_register_qubits} "
                     f"multiplicity={resources.multiplicity_register_qubits} "
                     f"ancilla={resources.ancilla_qubits} "
                     f"coherent={resources.coherent_qubits}")
    return 0, params, results, lines


def cmd_simulate(args):
    if args.n is None or args.spectrum is None:
        raise ParameterError("simulate requires --n and --spectrum")
    n, epsilon, zero_error = args.n, args.epsilon, args.zero_error
    if epsilon is None and not zero_error:
        raise ParameterError("simulate requires --epsilon or --zero-error")
    spectrum = parse_spectrum(args.spectrum)
    rotation = orientation(args, spectrum)
    plan = _build_plan(n, spectrum, epsilon, zero_error)
    report = exact_protocol_error(n, spectrum, plan.rows, rotation)
    target = epsilon if epsilon is not None else 0.0
    passed = report.exact_error <= target + 1e-12
    results = {
        "exact_error": report.exact_error,
        "tail_mass": report.tail_mass,
        "lower_bound": report.lower_bound,
        "epsilon": epsilon,
        "qubit_count": plan.qubit_count,
        "d_enc": plan.d_enc,
        "pass": passed,
    }
    if spectrum.d == 2 and epsilon is not None:
        results["error_upper_bound"] = qubit_error_upper_bound(
            n, spectrum.max_eigenvalue, epsilon)
    params = {"n": n, "spectrum": list(spectrum.probs), "epsilon": epsilon,
              "zero_error": zero_error, "theta": args.theta, "phi": args.phi}
    lines = [f"simulate: N={n} d={spectrum.d} "
             + ("zero-error" if zero_error or epsilon is None else f"epsilon={fmt(epsilon)}"),
             f"d_enc = {plan.d_enc}, qubits = {plan.qubit_count}",
             f"exact_error = {fmt(report.exact_error)}",
             f"tail_mass (upper bound) = {fmt(report.tail_mass)}",
             f"half-tail (lower bound) = {fmt(report.lower_bound)}"]
    if "error_upper_bound" in results:
        lines.append(f"closed-form bound = {fmt(results['error_upper_bound'])}")
    lines.append("PASS" if passed else "FAIL")
    return (0 if passed else 1), params, results, lines


def _parse_n_values(args) -> list[int]:
    if args.n_list:
        vals = [parse_value(tok, int, "--n-list entry")
                for tok in args.n_list.split(",") if tok.strip()]
    elif args.n_range:
        parts = args.n_range.split(":")
        if len(parts) != 3:
            raise ParameterError(f"--n-range wants a:b:step, got {args.n_range!r}")
        a, b, step = (parse_value(x, int, "--n-range bound") for x in parts)
        if step <= 0:
            raise ParameterError("--n-range step must be positive")
        vals = list(range(a, b + 1, step))
    else:
        raise ParameterError("sweep requires --n-range or --n-list")
    if not vals:
        raise ParameterError("empty sweep range")
    return vals


def _dimension_budget(n: int, exponent: float) -> float:
    """N^exponent; one past the float range exceeds every block dimension, so it is inf."""
    try:
        return float(n) ** exponent
    except OverflowError:
        return math.inf


def cmd_sweep(args):
    if args.spectrum is None:
        raise ParameterError("sweep requires --spectrum")
    zero_error, budget_exponent = args.zero_error, args.budget_exponent
    spectrum = parse_spectrum(args.spectrum)
    n_values = _parse_n_values(args)
    if zero_error or budget_exponent is not None:
        epsilons: list[float | None] = [None]
    elif args.epsilon_list:
        epsilons = [parse_value(tok, float, "--epsilon-list entry")
                    for tok in args.epsilon_list.split(",") if tok.strip()]
        if not epsilons:
            raise ParameterError("empty --epsilon-list")
    else:
        raise ParameterError("sweep requires --epsilon-list (or --zero-error / --budget-exponent)")

    headers = ["n", "epsilon", "d_enc", "qubit_count", "bound_qubits",
               "exact_error", "tail_mass", "lower_bound"]
    rows = []
    for n in n_values:
        for eps in epsilons:
            if budget_exponent is not None:
                plan = greedy_budget_plan(n, spectrum, _dimension_budget(n, budget_exponent))
            else:
                plan = _build_plan(n, spectrum, eps, zero_error)
            lower = truncation_lower_bound(n, spectrum, plan.rows)
            exact = (fmt(exact_protocol_error(n, spectrum, plan.rows).exact_error)
                     if n <= EXACT_ERROR_CAP else "")
            bound = "" if plan.bound_qubits is None else fmt(plan.bound_qubits)
            rows.append([str(n), "" if eps is None else fmt(eps), str(plan.d_enc),
                         str(plan.qubit_count), bound, exact, fmt(2.0 * lower), fmt(lower)])
    params = {"spectrum": list(spectrum.probs), "n_values": n_values,
              "epsilons": [e for e in epsilons if e is not None],
              "zero_error": zero_error, "budget_exponent": budget_exponent}
    results = [dict(zip(headers, row)) for row in rows]
    return 0, params, results, tabulate(headers, rows, "csv")


def cmd_oracle_check(args):
    if args.n is None or args.spectrum is None:
        raise ParameterError("oracle-check requires --n and --spectrum")
    n, seed = args.n, args.seed
    if seed < 0:
        raise ParameterError(f"--seed must be non-negative, got {seed}")
    spectrum = parse_spectrum(args.spectrum)
    rotation = orientation(args, spectrum)

    checks: list[tuple[str, float]] = []
    if spectrum.d == 2:
        oracle_state, dense_error = _qubit_reference(spectrum, n, rotation)
        block_state = product_state(spectrum, n, rotation)
        weight_diff = float(np.abs(oracle_state.weights - block_state.weights).max())
        checks.append(("weights", weight_diff))
        checks.append(("block spectra", block_spectrum_mismatch(block_state, oracle_state)))
        rows = diagram_rows(n, 2)
        mask = np.random.default_rng(seed).random(len(rows)) < 0.5  # one draw per row
        keep = rows[mask] if mask.any() else rows[:1]
        exact = exact_protocol_error(n, spectrum, keep, rotation).exact_error
        dense_err = dense_error(young_diagrams(keep))  # the oracle takes diagrams
        checks.append(("protocol error", abs(exact - dense_err)))
    else:
        theirs = np.fromiter(character_projection_weights(spectrum, n).values(), float)
        weight_diff = float(np.abs(theirs - weight_table(n, spectrum).weights).max())  # row order
        checks.append(("weights (character projection)", weight_diff))

    ok = all(diff < ORACLE_TOL for _, diff in checks)
    params = {"n": n, "spectrum": list(spectrum.probs), "theta": args.theta,
              "phi": args.phi, "seed": seed}
    results = {"checks": [{"name": name, "max_diff": diff} for name, diff in checks],
               "tolerance": ORACLE_TOL, "pass": ok}
    lines = [f"{name}: max diff {fmt(diff)}  {'PASS' if diff < ORACLE_TOL else 'FAIL'}"
             for name, diff in checks]
    lines.append("PASS" if ok else "FAIL")
    return (0 if ok else 1), params, results, lines


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="schurcompress",
        description="Block-level simulator and planner for compressing N identical mixed states")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, func, formats: tuple[str, ...]) -> None:
        p.add_argument("--config", help="flat key=value file with defaults for these flags")
        p.add_argument("--format", choices=formats, default=formats[0])
        p.set_defaults(func=func)

    p_dims = sub.add_parser("dims", help="block dimensions and multiplicities")
    p_dims.add_argument("--n", type=int)
    p_dims.add_argument("--d", type=int)
    p_dims.add_argument("--r", type=int)
    common(p_dims, cmd_dims, ("table", "csv", "json"))

    p_qdist = sub.add_parser("qdist", help="block weight distribution")
    p_qdist.add_argument("--n", type=int)
    p_qdist.add_argument("--spectrum")
    common(p_qdist, cmd_qdist, ("table", "csv", "json"))

    p_plan = sub.add_parser("plan", help="compression plan and qubit counts")
    p_plan.add_argument("--n", type=int)
    p_plan.add_argument("--spectrum")
    p_plan.add_argument("--epsilon", type=float)
    p_plan.add_argument("--zero-error", action="store_true")
    common(p_plan, cmd_plan, ("table", "json"))

    p_sim = sub.add_parser("simulate", help="plan plus exact protocol error")
    p_sim.add_argument("--n", type=int)
    p_sim.add_argument("--spectrum")
    p_sim.add_argument("--epsilon", type=float)
    p_sim.add_argument("--zero-error", action="store_true")
    p_sim.add_argument("--theta", type=float)
    p_sim.add_argument("--phi", type=float)
    common(p_sim, cmd_simulate, ("table", "json"))

    p_sweep = sub.add_parser("sweep", help="CSV sweep over N and epsilon")
    p_sweep.add_argument("--n-range", help="a:b:step inclusive")
    p_sweep.add_argument("--n-list", help="comma-separated N values")
    p_sweep.add_argument("--spectrum")
    p_sweep.add_argument("--epsilon-list")
    p_sweep.add_argument("--zero-error", action="store_true")
    p_sweep.add_argument("--budget-exponent", type=float,
                         help="greedy keep sets under d_enc <= N^exponent")
    common(p_sweep, cmd_sweep, ("csv", "json"))

    p_oracle = sub.add_parser("oracle-check", help="dense brute-force cross-validation")
    p_oracle.add_argument("--n", type=int)
    p_oracle.add_argument("--spectrum")
    p_oracle.add_argument("--theta", type=float)
    p_oracle.add_argument("--phi", type=float)
    p_oracle.add_argument("--seed", type=int, default=0)
    common(p_oracle, cmd_oracle_check, ("table", "json"))

    for p in (parser, *sub.choices.values()):  # so that "-1e-3" is a value, not a flag
        p._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")
    return parser


@lru_cache(maxsize=1)
def _shared_parser() -> argparse.ArgumentParser:
    return build_parser()  # one per process, never changed: --config runs build their own


def main(argv=None) -> int:
    args = _shared_parser().parse_args(argv)
    try:
        if args.config:
            parser = build_parser()
            apply_config(parser, args.command, load_config(args.config))
            args = parser.parse_args(argv)
        code, params, results, lines = args.func(args)
    except (NotApplicableError, UnsupportedFeatureError) as exc:
        print(f"not applicable: {exc}", file=sys.stderr)
        return 3
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 4
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        doc = {"command": args.command, "params": params, "results": results,
               "version": __version__}
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        print("\n".join(lines))
    return code


if __name__ == "__main__":
    raise SystemExit(main())
