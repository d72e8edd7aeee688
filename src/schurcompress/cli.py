"""Command-line surface: enumeration, distributions, planning, simulation,
sweeps, and oracle cross-checks, with table/CSV/JSON output.

Every command is deterministic given its flags (plus --seed where one
applies).  Floats print with 10 significant digits so golden files stay
byte-identical across runs.  Exit codes: 0 ok, 1 oracle mismatch, 2 usage
or input error, 3 not-applicable request, 4 resource cap exceeded.

``FLAGS`` declares each flag once, and ``COMMANDS`` gives each command its
flags, required flags, ``--format`` forms, function and text view;
``build_parser`` loops over both, and ``main`` builds it once per process.
``--config`` values become the defaults of a parser built for that run,
checked the same way, so a command-line flag wins.  Each ``cmd_*`` returns
(exit code, JSON params, JSON results); text and CSV are renderings of those.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import re
import sys
from dataclasses import asdict
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
SWEEP_COLUMNS = ["n", "epsilon", "d_enc", "qubit_count", "bound_qubits",
                 "exact_error", "tail_mass", "lower_bound"]


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
# Commands return (exit code, JSON params, JSON results); views render those as lines
# ---------------------------------------------------------------------------

def cmd_dims(args):
    n, d, r = args.n, args.d, args.r
    diagrams = diagram_rows(n, d, r)
    # every number printed is at most d^N; str() of a longer int raises ValueError
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no limit
    if limit and n * math.log10(d) >= limit:
        raise ResourceLimitError(f"d^N = {d}^{n} has more than {limit} decimal digits, "
                                 "the most this interpreter converts to text")
    dims, mults = irrep_dims(diagrams).tolist(), multiplicity_dims(diagrams).tolist()
    results = {"rows": [{"diagram": row, "irrep_dim": dim, "mult_dim": mult}
                        for row, dim, mult in zip(diagrams.tolist(), dims, mults)],
               "total": sum(dim * mult for dim, mult in zip(dims, mults)),
               "full_space": d ** n if (r is None or r == d) else None}
    return 0, {"n": n, "d": d, "r": r}, results


def view_dims(params, results, out_format):
    d, total, full = params["d"], results["total"], results["full_space"]
    rows = [[diagram_label(row["diagram"], d) if d == 2 else str(row["diagram"]),
             str(row["irrep_dim"]), str(row["mult_dim"]), str(row["irrep_dim"] * row["mult_dim"])]
            for row in results["rows"]]
    footer = [f"sum of irrep_dim*mult_dim = {total}"]
    if full is not None:
        footer.append(f"d^N = {full}" + ("  (match)" if full == total else "  (MISMATCH)"))
    if out_format == "csv":
        rows.append(["TOTAL", "", "", str(total)])
    headers = ["j" if d == 2 else "diagram", "irrep_dim", "mult_dim", "product"]
    return tabulate(headers, rows, out_format, footer)


def cmd_qdist(args):
    spectrum = parse_spectrum(args.spectrum)
    table = weight_table(args.n, spectrum)
    rows, weights = table.rows.tolist(), table.weights.tolist()
    results = {"rows": [{"diagram": row, "weight": w} for row, w in zip(rows, weights)],
               "total": sum(weights)}
    return 0, {"n": args.n, "spectrum": list(spectrum.probs)}, results


def view_qdist(params, results, out_format):
    d, cum, rows = len(params["spectrum"]), 0.0, []
    for row in results["rows"]:
        cum += row["weight"]
        rows.append([diagram_label(row["diagram"], d), fmt(row["weight"]), fmt(cum)])
    headers = ["j" if d == 2 else "diagram", "weight", "cumulative"]
    return tabulate(headers, rows, out_format, [f"total = {fmt(results['total'])}"])


def _build_plan(n: int, spectrum: Spectrum, epsilon: float | None, zero_error: bool):
    if zero_error or epsilon is None:
        return zero_error_plan(n, spectrum.d, spectrum.rank)
    if spectrum.d == 2:
        return qubit_approx_plan(n, spectrum.max_eigenvalue, epsilon)
    return qudit_approx_plan(n, spectrum, epsilon)


def cmd_plan(args):
    n, epsilon, zero_error = args.n, args.epsilon, args.zero_error
    if epsilon is None and not zero_error:
        raise ParameterError("plan requires --epsilon or --zero-error")
    spectrum = parse_spectrum(args.spectrum)
    results = _build_plan(n, spectrum, epsilon, zero_error).as_dict()
    extras = results["extras"] = {}
    if not zero_error and spectrum.d == 2:
        extras["error_upper_bound"] = qubit_error_upper_bound(n, spectrum.max_eigenvalue, epsilon)
        extras["threshold_copies"] = error_threshold_copies(spectrum.max_eigenvalue, epsilon)
    if zero_error and spectrum.d == 2 and n % 2 == 0:
        extras["closed_form_qubits"] = ceil_log2((n // 2 + 1) ** 2)
    if n >= 2 and spectrum.d == 2:  # the circuit model covers the qubit protocol only
        results["resources"] = circuit_resource_estimate(n).as_dict()
    params = {"n": n, "spectrum": list(spectrum.probs), "epsilon": epsilon,
              "zero_error": zero_error}
    return 0, params, results


def view_plan(params, results, out_format):
    keep, d, epsilon = results["keep"], results["d"], results["epsilon"]
    lines = [f"plan: N={results['n']} d={d} "
             + ("zero-error" if epsilon is None else f"epsilon={fmt(epsilon)}")]
    if d == 2:
        lines.append(f"keep {len(keep)} blocks: "
                     f"j = {diagram_label(keep[-1], 2)} .. {diagram_label(keep[0], 2)}")
    else:
        lines.append(f"keep {len(keep)} blocks (largest {keep[0]})")
    lines += [f"d_enc = {results['d_enc']}",
              f"qubits = {results['qubit_count']}",
              f"hybrid = ({results['hybrid_qubits']} qubits, {results['hybrid_bits']} bits)"]
    if results["bound_qubits"] is not None:
        lines.append(f"bound_qubits = {fmt(results['bound_qubits'])}")
    lines += [f"{key} = {fmt(val)}" for key, val in sorted(results["extras"].items())]
    if "resources" in results:
        lines.append("registers: index={index_register_qubits} representation="
                     "{representation_register_qubits} multiplicity={multiplicity_register_qubits}"
                     " ancilla={ancilla_qubits} coherent={coherent_qubits}"
                     .format(**results["resources"]))
    return lines


def cmd_simulate(args):
    n, epsilon, zero_error = args.n, args.epsilon, args.zero_error
    if epsilon is None and not zero_error:
        raise ParameterError("simulate requires --epsilon or --zero-error")
    spectrum = parse_spectrum(args.spectrum)
    rotation = orientation(args, spectrum)
    plan = _build_plan(n, spectrum, epsilon, zero_error)
    report = exact_protocol_error(n, spectrum, plan.rows, rotation)
    target = epsilon if epsilon is not None else 0.0
    passed = report.exact_error <= target + 1e-12
    results = {**asdict(report), "epsilon": epsilon, "qubit_count": plan.qubit_count,
               "d_enc": plan.d_enc, "pass": passed}
    if spectrum.d == 2 and epsilon is not None:
        results["error_upper_bound"] = qubit_error_upper_bound(n, spectrum.max_eigenvalue, epsilon)
    params = {"n": n, "spectrum": list(spectrum.probs), "epsilon": epsilon,
              "zero_error": zero_error, "theta": args.theta, "phi": args.phi}
    return (0 if passed else 1), params, results


def view_simulate(params, results, out_format):
    lines = [f"simulate: N={params['n']} d={len(params['spectrum'])} "
             + ("zero-error" if params["zero_error"] or params["epsilon"] is None
                else f"epsilon={fmt(params['epsilon'])}"),
             f"d_enc = {results['d_enc']}, qubits = {results['qubit_count']}",
             f"exact_error = {fmt(results['exact_error'])}",
             f"tail_mass (upper bound) = {fmt(results['tail_mass'])}",
             f"half-tail (lower bound) = {fmt(results['lower_bound'])}"]
    if "error_upper_bound" in results:
        lines.append(f"closed-form bound = {fmt(results['error_upper_bound'])}")
    return lines + ["PASS" if results["pass"] else "FAIL"]


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

    results = []
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
            results.append(dict(zip(SWEEP_COLUMNS, [
                str(n), "" if eps is None else fmt(eps), str(plan.d_enc), str(plan.qubit_count),
                bound, exact, fmt(2.0 * lower), fmt(lower)])))
    params = {"spectrum": list(spectrum.probs), "n_values": n_values,
              "epsilons": [e for e in epsilons if e is not None],
              "zero_error": zero_error, "budget_exponent": budget_exponent}
    return 0, params, results


def view_sweep(params, results, out_format):
    return tabulate(SWEEP_COLUMNS, [[row[key] for key in SWEEP_COLUMNS] for row in results],
                    out_format)


def cmd_oracle_check(args):
    n, seed = args.n, args.seed
    if seed < 0:
        raise ParameterError(f"--seed must be non-negative, got {seed}")
    spectrum = parse_spectrum(args.spectrum)
    rotation = orientation(args, spectrum)

    if spectrum.d == 2:
        oracle_state, dense_error = _qubit_reference(spectrum, n, rotation)
        block_state = product_state(spectrum, n, rotation)
        checks = {"weights": float(np.abs(oracle_state.weights - block_state.weights).max()),
                  "block spectra": block_spectrum_mismatch(block_state, oracle_state)}
        rows = diagram_rows(n, 2)
        mask = np.random.default_rng(seed).random(len(rows)) < 0.5  # one draw per row
        keep = rows[mask] if mask.any() else rows[:1]
        exact = exact_protocol_error(n, spectrum, keep, rotation).exact_error
        dense_err = dense_error(young_diagrams(keep))  # the oracle takes diagrams
        checks["protocol error"] = abs(exact - dense_err)
    else:
        theirs = np.fromiter(character_projection_weights(spectrum, n).values(), float)
        checks = {"weights (character projection)":  # both in row order
                  float(np.abs(theirs - weight_table(n, spectrum).weights).max())}

    ok = all(diff < ORACLE_TOL for diff in checks.values())
    params = {"n": n, "spectrum": list(spectrum.probs), "theta": args.theta,
              "phi": args.phi, "seed": seed}
    results = {"checks": [{"name": name, "max_diff": diff} for name, diff in checks.items()],
               "tolerance": ORACLE_TOL, "pass": ok}
    return (0 if ok else 1), params, results


def view_oracle_check(params, results, out_format):
    lines = [f"{check['name']}: max diff {fmt(check['max_diff'])}  "
             + ("PASS" if check["max_diff"] < results["tolerance"] else "FAIL")
             for check in results["checks"]]
    return lines + ["PASS" if results["pass"] else "FAIL"]


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

FLAGS = {
    "--n": {"type": int},
    "--d": {"type": int},
    "--r": {"type": int},
    "--n-range": {"help": "a:b:step inclusive"},
    "--n-list": {"help": "comma-separated N values"},
    "--spectrum": {},
    "--epsilon": {"type": float},
    "--epsilon-list": {},
    "--zero-error": {"action": "store_true"},
    "--budget-exponent": {"type": float, "help": "greedy keep sets under d_enc <= N^exponent"},
    "--theta": {"type": float},
    "--phi": {"type": float},
    "--seed": {"type": int, "default": 0},
    "--config": {"help": "flat key=value file with defaults for these flags"},
}

# name: (help, flags in order, required flags, --format forms (default first), command, view)
ALL_FORMATS, TABLE_OR_JSON = ("table", "csv", "json"), ("table", "json")
N_AND_SPECTRUM = ("--n", "--spectrum")
COMMANDS = {
    "dims": ("block dimensions and multiplicities", ("--n", "--d", "--r"), ("--n", "--d"),
             ALL_FORMATS, cmd_dims, view_dims),
    "qdist": ("block weight distribution", N_AND_SPECTRUM, N_AND_SPECTRUM, ALL_FORMATS,
              cmd_qdist, view_qdist),
    "plan": ("compression plan and qubit counts", (*N_AND_SPECTRUM, "--epsilon", "--zero-error"),
             N_AND_SPECTRUM, TABLE_OR_JSON, cmd_plan, view_plan),
    "simulate": ("plan plus exact protocol error", (*N_AND_SPECTRUM, "--epsilon", "--zero-error",
                 "--theta", "--phi"), N_AND_SPECTRUM, TABLE_OR_JSON, cmd_simulate, view_simulate),
    "sweep": ("CSV sweep over N and epsilon", ("--n-range", "--n-list", "--spectrum",
              "--epsilon-list", "--zero-error", "--budget-exponent"), ("--spectrum",),
              ("csv", "json"), cmd_sweep, view_sweep),
    "oracle-check": ("dense brute-force cross-validation", (*N_AND_SPECTRUM, "--theta", "--phi",
                     "--seed"), N_AND_SPECTRUM, TABLE_OR_JSON, cmd_oracle_check, view_oracle_check),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="schurcompress",
        description="Block-level simulator and planner for compressing N identical mixed states")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, flags, required, formats, func, view) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag in (*flags, "--config"):
            p.add_argument(flag, **FLAGS[flag])
        p.add_argument("--format", choices=formats, default=formats[0])
        p.set_defaults(func=func, view=view, required=required)
    for p in (parser, *sub.choices.values()):  # "-1e-3", "-inf" and "-NaN" are values, not flags
        p._negative_number_matcher = re.compile(
            r"^-((\d+\.?\d*|\.\d+)(e[-+]?\d+)?|inf|infinity|nan)$", re.IGNORECASE)
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
        if any(getattr(args, flag[2:].replace("-", "_")) is None for flag in args.required):
            raise ParameterError(f"{args.command} requires {' and '.join(args.required)}")
        code, params, results = args.func(args)
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
        print(json.dumps({"command": args.command, "params": params, "results": results,
                          "version": __version__}, indent=2, sort_keys=True))
    else:
        print("\n".join(args.view(params, results, args.format)))
    return code


if __name__ == "__main__":
    raise SystemExit(main())
