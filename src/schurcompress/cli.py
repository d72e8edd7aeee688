"""Command-line surface: enumeration, distributions, planning, simulation,
sweeps, and oracle cross-checks, with table/CSV/JSON output.

Every command is deterministic given its flags (plus --seed where one
applies).  Floats print with 10 significant digits so golden files stay
byte-identical across runs.  Exit codes: 0 ok, 1 oracle mismatch, 2 usage
or input error, 3 not-applicable request, 4 resource cap exceeded.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys

import numpy as np

from . import __version__
from .blocksim import (
    BlochVector,
    block_weights,
    exact_protocol_error,
    product_state,
)
from .errors import (
    NotApplicableError,
    ParameterError,
    ResourceLimitError,
    UnsupportedFeatureError,
)
from .oracle import (
    block_spectrum_mismatch,
    character_projection_weights,
    dense_product_state,
    dense_protocol_error,
    extract_blocks,
)
from .planner import (
    ceil_log2,
    circuit_resource_estimate,
    error_threshold_copies,
    greedy_budget_keep,
    qubit_approx_plan,
    qubit_error_upper_bound,
    qudit_approx_plan,
    truncation_lower_bound,
    zero_error_plan,
)
from .schur_core import (
    Spectrum,
    YoungDiagram,
    diagram_array,
    enumerate_diagrams,
    irrep_dims,
    multiplicity_dim,
)

ORACLE_TOL = 1e-8
EXACT_ERROR_CAP = 256  # largest N for which sweeps evaluate the exact error


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
    total = sum(vals)
    if abs(total - 1.0) > 1e-9:
        raise ParameterError(f"spectrum sums to {total!r}, not 1 (within 1e-9)")
    vals = sorted((v / total for v in vals), reverse=True)
    return Spectrum(tuple(vals))


def load_config(path: str) -> dict[str, str]:
    """Flat key=value file; keys match the long flag names without dashes."""
    out: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ParameterError(f"bad config line {line!r}")
            key, val = line.split("=", 1)
            out[key.strip()] = val.strip()
    return out


def opt(args, config: dict[str, str], key: str, cast, default=None):
    """CLI flag if given, else config value, else default."""
    val = getattr(args, key.replace("-", "_"), None)
    if val is None and key in config:
        raw = config[key]
        if cast is bool:
            val = raw.lower() in ("1", "true", "yes")
        else:
            val = parse_value(raw, cast, f"config value for {key}")
    if val is None:
        val = default
    return val


def emit_json(command: str, params: dict, results) -> None:
    doc = {"command": command, "params": params, "results": results,
           "version": __version__}
    print(json.dumps(doc, indent=2, sort_keys=True))


def emit_table(headers: list[str], rows: list[list[str]], footer: list[str] | None = None) -> None:
    widths = [len(h) for h in headers]
    for row in rows:
        widths = [max(w, len(c)) for w, c in zip(widths, row)]
    line = "  ".join(h.ljust(w) for h, w in zip(headers, widths))
    print(line)
    print("-" * len(line))
    for row in rows:
        print("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    if footer:
        print("-" * len(line))
        for item in footer:
            print(item)


def emit_csv(headers: list[str], rows: list[list[str]]) -> None:
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(headers)
    writer.writerows(rows)


def diagram_label(lam: YoungDiagram, d: int) -> str:
    if d == 2:
        two_j = lam.two_j
        return str(two_j // 2) if two_j % 2 == 0 else f"{two_j}/2"
    return "(" + ",".join(str(r) for r in lam.rows) + ")"


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_dims(args, config) -> int:
    n = opt(args, config, "n", int)
    d = opt(args, config, "d", int)
    r = opt(args, config, "r", int)
    out_format = opt(args, config, "format", str, "table")
    if n is None or d is None:
        raise ParameterError("dims requires --n and --d")
    diagrams = enumerate_diagrams(n, d, r)
    dims = irrep_dims(diagram_array(diagrams, d)).tolist()
    mults = [multiplicity_dim(lam) for lam in diagrams]
    rows = []
    total = 0
    for lam, dim, mult in zip(diagrams, dims, mults):
        total += dim * mult
        rows.append([diagram_label(lam, d) if d == 2 else str(list(lam.rows)),
                     str(dim), str(mult), str(dim * mult)])
    full = d ** n if (r is None or r == d) else None
    headers = ["j" if d == 2 else "diagram", "irrep_dim", "mult_dim", "product"]
    if out_format == "json":
        emit_json("dims", {"n": n, "d": d, "r": r}, {
            "rows": [{"diagram": list(lam.rows), "irrep_dim": dim, "mult_dim": mult}
                     for lam, dim, mult in zip(diagrams, dims, mults)],
            "total": total,
            "full_space": full,
        })
    elif out_format == "csv":
        emit_csv(headers, rows + [["TOTAL", "", "", str(total)]])
    else:
        footer = [f"sum of irrep_dim*mult_dim = {total}"]
        if full is not None:
            footer.append(f"d^N = {full}" + ("  (match)" if full == total else "  (MISMATCH)"))
        emit_table(headers, rows, footer)
    return 0


def cmd_qdist(args, config) -> int:
    n = opt(args, config, "n", int)
    spectrum_text = opt(args, config, "spectrum", str)
    out_format = opt(args, config, "format", str, "table")
    if n is None or spectrum_text is None:
        raise ParameterError("qdist requires --n and --spectrum")
    spectrum = parse_spectrum(spectrum_text)
    weights = block_weights(n, spectrum)
    ordered = sorted(weights.items(), key=lambda kv: kv[0], reverse=True)
    rows = []
    cum = 0.0
    for lam, w in ordered:
        cum += w
        rows.append([diagram_label(lam, spectrum.d), fmt(w), fmt(cum)])
    headers = ["j" if spectrum.d == 2 else "diagram", "weight", "cumulative"]
    total = sum(weights.values())
    if out_format == "json":
        emit_json("qdist", {"n": n, "spectrum": list(spectrum.probs)}, {
            "rows": [{"diagram": list(lam.rows), "weight": w} for lam, w in ordered],
            "total": total,
        })
    elif out_format == "csv":
        emit_csv(headers, rows)
    else:
        emit_table(headers, rows, [f"total = {fmt(total)}"])
    return 0


def _build_plan(n: int, spectrum: Spectrum, epsilon: float | None, zero_error: bool):
    if zero_error or epsilon is None:
        return zero_error_plan(n, spectrum.d, spectrum.rank)
    if spectrum.d == 2:
        return qubit_approx_plan(n, spectrum.max_eigenvalue, epsilon)
    return qudit_approx_plan(n, spectrum, epsilon)


def cmd_plan(args, config) -> int:
    n = opt(args, config, "n", int)
    spectrum_text = opt(args, config, "spectrum", str)
    epsilon = opt(args, config, "epsilon", float)
    zero_error = bool(opt(args, config, "zero-error", bool, False))
    out_format = opt(args, config, "format", str, "table")
    if n is None or spectrum_text is None:
        raise ParameterError("plan requires --n and --spectrum")
    if epsilon is None and not zero_error:
        raise ParameterError("plan requires --epsilon or --zero-error")
    spectrum = parse_spectrum(spectrum_text)
    plan = _build_plan(n, spectrum, epsilon, zero_error)
    # the circuit model covers the qubit protocol only
    resources = circuit_resource_estimate(n) if n >= 2 and spectrum.d == 2 else None

    extras: dict[str, float] = {}
    if not zero_error and epsilon is not None and spectrum.d == 2:
        extras["error_upper_bound"] = qubit_error_upper_bound(n, spectrum.max_eigenvalue, epsilon)
        extras["threshold_copies"] = error_threshold_copies(spectrum.max_eigenvalue, epsilon)
    if zero_error and spectrum.d == 2 and n % 2 == 0:
        extras["closed_form_qubits"] = ceil_log2((n // 2 + 1) ** 2)

    if out_format == "json":
        results = plan.as_dict()
        results["extras"] = extras
        if resources is not None:
            results["resources"] = resources.as_dict()
        emit_json("plan", {"n": n, "spectrum": list(spectrum.probs),
                           "epsilon": epsilon, "zero_error": zero_error}, results)
        return 0
    keep = plan.keep
    print(f"plan: N={plan.n} d={plan.d} "
          + ("zero-error" if plan.epsilon is None else f"epsilon={fmt(plan.epsilon)}"))
    if plan.d == 2:
        labels = [diagram_label(lam, 2) for lam in sorted(keep)]
        print(f"keep {len(keep)} blocks: j = {labels[0]} .. {labels[-1]}")
    else:
        print(f"keep {len(keep)} blocks (largest {list(keep[0].rows)})")
    print(f"d_enc = {plan.d_enc}")
    print(f"qubits = {plan.qubit_count}")
    print(f"hybrid = ({plan.hybrid_qubits} qubits, {plan.hybrid_bits} bits)")
    if plan.bound_qubits is not None:
        print(f"bound_qubits = {fmt(plan.bound_qubits)}")
    for key, val in extras.items():
        print(f"{key} = {fmt(val)}")
    if resources is not None:
        print(f"registers: index={resources.index_register_qubits} "
              f"representation={resources.representation_register_qubits} "
              f"multiplicity={resources.multiplicity_register_qubits} "
              f"ancilla={resources.ancilla_qubits} "
              f"coherent={resources.coherent_qubits}")
    return 0


def cmd_simulate(args, config) -> int:
    n = opt(args, config, "n", int)
    spectrum_text = opt(args, config, "spectrum", str)
    epsilon = opt(args, config, "epsilon", float)
    zero_error = bool(opt(args, config, "zero-error", bool, False))
    theta = opt(args, config, "theta", float)
    phi = opt(args, config, "phi", float)
    out_format = opt(args, config, "format", str, "table")
    if n is None or spectrum_text is None:
        raise ParameterError("simulate requires --n and --spectrum")
    if epsilon is None and not zero_error:
        raise ParameterError("simulate requires --epsilon or --zero-error")
    spectrum = parse_spectrum(spectrum_text)
    orientation = None
    if theta is not None or phi is not None:
        if spectrum.d > 2:
            raise UnsupportedFeatureError("--theta/--phi are only supported for qubits")
        orientation = BlochVector(theta or 0.0, phi or 0.0)
    plan = _build_plan(n, spectrum, epsilon, zero_error)
    report = exact_protocol_error(n, spectrum, plan.keep, orientation)
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
    if out_format == "json":
        emit_json("simulate", {"n": n, "spectrum": list(spectrum.probs),
                               "epsilon": epsilon, "zero_error": zero_error,
                               "theta": theta, "phi": phi}, results)
    else:
        print(f"simulate: N={n} d={spectrum.d} "
              + ("zero-error" if zero_error or epsilon is None else f"epsilon={fmt(epsilon)}"))
        print(f"d_enc = {plan.d_enc}, qubits = {plan.qubit_count}")
        print(f"exact_error = {fmt(report.exact_error)}")
        print(f"tail_mass (upper bound) = {fmt(report.tail_mass)}")
        print(f"half-tail (lower bound) = {fmt(report.lower_bound)}")
        if "error_upper_bound" in results:
            print(f"closed-form bound = {fmt(results['error_upper_bound'])}")
        print("PASS" if passed else "FAIL")
    return 0 if passed else 1


def _parse_n_values(args, config) -> list[int]:
    n_range = opt(args, config, "n-range", str)
    n_list = opt(args, config, "n-list", str)
    if n_list:
        vals = [parse_value(tok, int, "--n-list entry")
                for tok in n_list.split(",") if tok.strip()]
    elif n_range:
        parts = n_range.split(":")
        if len(parts) != 3:
            raise ParameterError(f"--n-range wants a:b:step, got {n_range!r}")
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


def cmd_sweep(args, config) -> int:
    spectrum_text = opt(args, config, "spectrum", str)
    epsilon_list = opt(args, config, "epsilon-list", str)
    zero_error = bool(opt(args, config, "zero-error", bool, False))
    budget_exponent = opt(args, config, "budget-exponent", float)
    exact_cap = opt(args, config, "exact-cap", int, EXACT_ERROR_CAP)
    out_format = opt(args, config, "format", str, "csv")
    if spectrum_text is None:
        raise ParameterError("sweep requires --spectrum")
    spectrum = parse_spectrum(spectrum_text)
    n_values = _parse_n_values(args, config)
    if zero_error or budget_exponent is not None:
        epsilons: list[float | None] = [None]
    elif epsilon_list:
        epsilons = [parse_value(tok, float, "--epsilon-list entry")
                    for tok in epsilon_list.split(",") if tok.strip()]
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
                keep = greedy_budget_keep(n, spectrum, _dimension_budget(n, budget_exponent))
                d_enc = int(irrep_dims(diagram_array(keep, spectrum.d)).sum())
                qubits = ceil_log2(d_enc)
                bound = None
            else:
                plan = _build_plan(n, spectrum, eps, zero_error)
                keep = plan.keep
                d_enc = plan.d_enc
                qubits = plan.qubit_count
                bound = plan.bound_qubits
            lower = truncation_lower_bound(n, spectrum, keep)
            tail = 2.0 * lower
            if n <= exact_cap:
                exact = exact_protocol_error(n, spectrum, keep).exact_error
                exact_s = fmt(exact)
            else:
                exact_s = ""
            rows.append([str(n),
                         "" if eps is None else fmt(eps),
                         str(d_enc), str(qubits),
                         "" if bound is None else fmt(bound),
                         exact_s, fmt(tail), fmt(lower)])
    if out_format == "json":
        emit_json("sweep", {"spectrum": list(spectrum.probs),
                            "n_values": n_values,
                            "epsilons": [e for e in epsilons if e is not None],
                            "zero_error": zero_error,
                            "budget_exponent": budget_exponent},
                  [dict(zip(headers, row)) for row in rows])
    else:
        emit_csv(headers, rows)
    return 0


def cmd_oracle_check(args, config) -> int:
    n = opt(args, config, "n", int)
    spectrum_text = opt(args, config, "spectrum", str)
    theta = opt(args, config, "theta", float)
    phi = opt(args, config, "phi", float)
    seed = opt(args, config, "seed", int, 0)
    out_format = opt(args, config, "format", str, "table")
    if n is None or spectrum_text is None:
        raise ParameterError("oracle-check requires --n and --spectrum")
    spectrum = parse_spectrum(spectrum_text)
    orientation = None
    if theta is not None or phi is not None:
        if spectrum.d > 2:
            raise UnsupportedFeatureError("--theta/--phi are only supported for qubits")
        orientation = BlochVector(theta or 0.0, phi or 0.0)

    checks: list[tuple[str, float]] = []
    if spectrum.d == 2:
        dense = dense_product_state(spectrum, n, orientation)
        oracle_state = extract_blocks(dense, n)
        block_state = product_state(spectrum, n, orientation)
        weight_diff = max(abs(oracle_state.weight(lam) - blk.weight)
                          for lam, blk in block_state.blocks.items())
        checks.append(("weights", weight_diff))
        checks.append(("block spectra", block_spectrum_mismatch(block_state, oracle_state)))
        rng = np.random.default_rng(seed)
        grid = sorted(block_state.blocks, reverse=True)
        mask = rng.random(len(grid)) < 0.5
        keep = [lam for lam, m in zip(grid, mask) if m] or [grid[0]]
        exact = exact_protocol_error(n, spectrum, keep, orientation).exact_error
        dense_err = dense_protocol_error(n, spectrum, keep, orientation)
        checks.append(("protocol error", abs(exact - dense_err)))
    else:
        oracle_weights = character_projection_weights(spectrum, n)
        ours = block_weights(n, spectrum)
        weight_diff = max(abs(oracle_weights[lam] - ours[lam]) for lam in oracle_weights)
        checks.append(("weights (character projection)", weight_diff))

    ok = all(diff < ORACLE_TOL for _, diff in checks)
    if out_format == "json":
        emit_json("oracle-check",
                  {"n": n, "spectrum": list(spectrum.probs), "theta": theta,
                   "phi": phi, "seed": seed},
                  {"checks": [{"name": name, "max_diff": diff} for name, diff in checks],
                   "tolerance": ORACLE_TOL, "pass": ok})
    else:
        for name, diff in checks:
            status = "PASS" if diff < ORACLE_TOL else "FAIL"
            print(f"{name}: max diff {fmt(diff)}  {status}")
        print("PASS" if ok else "FAIL")
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="schurcompress",
        description="Block-level simulator and planner for compressing N identical mixed states")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="flat key=value file with defaults for these flags")
        p.add_argument("--format", choices=("table", "csv", "json"))

    p_dims = sub.add_parser("dims", help="block dimensions and multiplicities")
    p_dims.add_argument("--n", type=int)
    p_dims.add_argument("--d", type=int)
    p_dims.add_argument("--r", type=int)
    common(p_dims)
    p_dims.set_defaults(func=cmd_dims)

    p_qdist = sub.add_parser("qdist", help="block weight distribution")
    p_qdist.add_argument("--n", type=int)
    p_qdist.add_argument("--spectrum")
    common(p_qdist)
    p_qdist.set_defaults(func=cmd_qdist)

    p_plan = sub.add_parser("plan", help="compression plan and qubit counts")
    p_plan.add_argument("--n", type=int)
    p_plan.add_argument("--spectrum")
    p_plan.add_argument("--epsilon", type=float)
    p_plan.add_argument("--zero-error", action="store_const", const=True, default=None)
    common(p_plan)
    p_plan.set_defaults(func=cmd_plan)

    p_sim = sub.add_parser("simulate", help="plan plus exact protocol error")
    p_sim.add_argument("--n", type=int)
    p_sim.add_argument("--spectrum")
    p_sim.add_argument("--epsilon", type=float)
    p_sim.add_argument("--zero-error", action="store_const", const=True, default=None)
    p_sim.add_argument("--theta", type=float)
    p_sim.add_argument("--phi", type=float)
    common(p_sim)
    p_sim.set_defaults(func=cmd_simulate)

    p_sweep = sub.add_parser("sweep", help="CSV sweep over N and epsilon")
    p_sweep.add_argument("--n-range", help="a:b:step inclusive")
    p_sweep.add_argument("--n-list", help="comma-separated N values")
    p_sweep.add_argument("--spectrum")
    p_sweep.add_argument("--epsilon-list")
    p_sweep.add_argument("--zero-error", action="store_const", const=True, default=None)
    p_sweep.add_argument("--budget-exponent", type=float,
                         help="greedy keep sets under d_enc <= N^exponent")
    p_sweep.add_argument("--exact-cap", type=int,
                         help=f"largest N for exact error evaluation (default {EXACT_ERROR_CAP})")
    common(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep)

    p_oracle = sub.add_parser("oracle-check", help="dense brute-force cross-validation")
    p_oracle.add_argument("--n", type=int)
    p_oracle.add_argument("--spectrum")
    p_oracle.add_argument("--theta", type=float)
    p_oracle.add_argument("--phi", type=float)
    p_oracle.add_argument("--seed", type=int)
    common(p_oracle)
    p_oracle.set_defaults(func=cmd_oracle_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    config: dict[str, str] = {}
    if getattr(args, "config", None):
        try:
            config = load_config(args.config)
        except OSError as exc:
            print(f"error: cannot read config: {exc}", file=sys.stderr)
            return 2
    try:
        return args.func(args, config)
    except (NotApplicableError, UnsupportedFeatureError) as exc:
        print(f"not applicable: {exc}", file=sys.stderr)
        return 3
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 4
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
