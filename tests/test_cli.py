import json
import math
import re
import sys
import time
from dataclasses import replace

import numpy as np
import pytest

from schurcompress import blocksim, cli, planner, schur_core
from schurcompress.cli import main

from test_golden import CASES, GOLDEN, _same_line


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_dims_table_footer(capsys):
    code, out, _ = run_cli(capsys, "dims", "--n", "4", "--d", "2")
    assert code == 0
    assert "sum of irrep_dim*mult_dim = 16" in out
    assert "d^N = 16" in out and "(match)" in out
    lines = out.splitlines()
    assert any(line.startswith("2") and "5" in line for line in lines)


def test_dims_d3_values(capsys):
    code, out, _ = run_cli(capsys, "dims", "--n", "3", "--d", "3", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["command"] == "dims"
    assert doc["version"]
    rows = {tuple(r["diagram"]): (r["irrep_dim"], r["mult_dim"]) for r in doc["results"]["rows"]}
    assert rows[(3, 0, 0)] == (10, 1)
    assert rows[(2, 1, 0)] == (8, 2)
    assert rows[(1, 1, 1)] == (1, 1)
    assert doc["results"]["total"] == 27


def test_dims_json_roundtrips(capsys):
    code, out1, _ = run_cli(capsys, "dims", "--n", "6", "--d", "2", "--format", "json")
    assert code == 0
    doc = json.loads(out1)
    assert json.loads(json.dumps(doc)) == doc
    assert set(doc) == {"command", "params", "results", "version"}


def test_dims_at_wide_d_is_fast(capsys):
    # the Weyl and hook products run over the nonzero rows only, not all 600
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "dims", "--n", "2", "--d", "600")
    assert time.perf_counter() - start < 1.0
    assert code == 0
    assert "d^N = 360000  (match)" in out


@pytest.mark.parametrize("form", ["table", "csv", "json"])
def test_dims_above_the_int_digit_limit_exits_4(capsys, form):
    # d^N bounds every printed number; past the interpreter's int-to-text digit
    # limit the command stops before building any of them
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("this interpreter converts ints of any length to text")
    n = math.ceil(limit / math.log10(2))
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "dims", "--n", str(n), "--d", "2", "--format", form)
    assert time.perf_counter() - start < 1.0
    assert code == 4
    assert err.startswith("resource limit: ") and str(limit) in err
    assert out == ""


def test_dims_usage_error_exit_2(capsys):
    code, _, err = run_cli(capsys, "dims", "--n", "4", "--d", "2", "--r", "3")
    assert code == 2
    assert "error" in err.lower()


@pytest.mark.parametrize("d", ["0", "-2"])
def test_dims_without_rows_names_d(capsys, d):
    code, out, err = run_cli(capsys, "dims", "--n", "4", "--d", d)
    assert (code, out, err) == (2, "", f"error: need d >= 1, got d={d}\n")


def test_qdist_qubit_values(capsys):
    code, out, _ = run_cli(capsys, "qdist", "--n", "2", "--spectrum", "0.75,0.25")
    assert code == 0
    assert "0.8125" in out and "0.1875" in out


def test_qdist_qudit_values(capsys):
    code, out, _ = run_cli(capsys, "qdist", "--n", "3", "--spectrum", "0.5,0.3,0.2",
                           "--format", "json")
    assert code == 0
    doc = json.loads(out)
    rows = {tuple(r["diagram"]): r["weight"] for r in doc["results"]["rows"]}
    assert rows[(3, 0, 0)] == pytest.approx(0.41, abs=1e-10)
    assert rows[(2, 1, 0)] == pytest.approx(0.56, abs=1e-10)
    assert rows[(1, 1, 1)] == pytest.approx(0.03, abs=1e-10)
    assert doc["results"]["total"] == pytest.approx(1.0, abs=1e-10)


def test_qdist_qudit_n100_total_is_one(capsys):
    # the float Jacobi-Trudi weights printed total = 0.968 here
    code, out, _ = run_cli(capsys, "qdist", "--n", "100", "--spectrum", "0.5,0.3,0.2")
    assert code == 0
    total = float(next(line for line in out.splitlines() if line.startswith("total = "))[8:])
    assert abs(total - 1.0) < 1e-8


def test_simulate_over_the_block_entry_cap_exits_4(capsys, monkeypatch):
    monkeypatch.setattr(blocksim, "BLOCK_ENTRY_CAP", 1000)
    code, out, err = run_cli(capsys, "simulate", "--n", "20", "--spectrum", "0.5,0.3,0.2",
                             "--epsilon", "0.1")
    assert code == 4
    assert "resource limit" in err and "1000" in err
    assert out == ""


@pytest.mark.parametrize("cap, argv", [
    ("DIAGRAM_ENTRY_CAP", ["qdist", "--n", "20", "--spectrum", "0.5,0.3,0.2"]),
    ("DIAGRAM_ENTRY_CAP", ["plan", "--n", "20", "--spectrum", "0.5,0.3,0.2", "--epsilon", "0.1"]),
    ("DIAGRAM_ENTRY_CAP", ["sweep", "--n-list", "20", "--spectrum", "0.5,0.3,0.2",
                           "--budget-exponent", "1.4"]),
    ("DIAGRAM_ENTRY_CAP", ["dims", "--n", "20", "--d", "3"]),
    ("SCHUR_TABLE_CAP", ["qdist", "--n", "20", "--spectrum", "0.4,0.3,0.2,0.1"]),
    ("SCHUR_TABLE_CAP", ["sweep", "--n-list", "20", "--spectrum", "0.4,0.3,0.2,0.1",
                         "--budget-exponent", "1.4"]),
])
def test_weight_path_over_its_caps_exits_4(capsys, monkeypatch, cap, argv):
    monkeypatch.setattr(schur_core, cap, 100)
    code, out, err = run_cli(capsys, *argv)
    assert code == 4
    assert err.startswith("resource limit: ") and "100" in err
    assert out == ""


def test_qdist_maximally_mixed(capsys):
    code, out, _ = run_cli(capsys, "qdist", "--n", "4", "--spectrum", "0.5,0.5",
                           "--format", "json")
    assert code == 0
    doc = json.loads(out)
    rows = {tuple(r["diagram"]): r["weight"] for r in doc["results"]["rows"]}
    assert rows[(4, 0)] == pytest.approx(5 / 16, rel=1e-12)
    assert rows[(3, 1)] == pytest.approx(9 / 16, rel=1e-12)
    assert rows[(2, 2)] == pytest.approx(2 / 16, rel=1e-12)


def test_qdist_rejects_bad_spectrum(capsys):
    code, _, err = run_cli(capsys, "qdist", "--n", "2", "--spectrum", "0.7,0.2")
    assert code == 2
    assert "sums to" in err


def test_qdist_rejects_non_finite_spectrum_exit_2(capsys):
    code, out, err = run_cli(capsys, "qdist", "--n", "3", "--spectrum", "0.5,0.3,nan")
    assert code == 2
    assert out == ""
    assert "non-finite" in err


@pytest.mark.parametrize("text, entry", [("0.5,0.3,nan", "nan"), ("0.5, inf,0.2", "inf"),
                                         ("1e400,0", "1e400")])
def test_non_finite_spectrum_error_names_the_entry(capsys, text, entry):
    code, _, err = run_cli(capsys, "simulate", "--n", "4", "--spectrum", text, "--epsilon", "0.1")
    assert code == 2
    assert f"non-finite spectrum entry {entry!r} in {text!r}" in err


def test_plan_approx_headline(capsys):
    code, out, _ = run_cli(capsys, "plan", "--n", "20", "--spectrum", "0.6,0.4",
                           "--epsilon", "0.01", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["qubit_count"] <= 8
    assert doc["results"]["d_enc"] == 121


def finite_json_results(capsys, *argv):
    """The results of a JSON run that exits 0, parsed with no Infinity or NaN allowed."""
    def no_constants(name):
        raise AssertionError(f"non-finite {name} in the JSON output")

    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    assert code == 0, argv
    return json.loads(out, parse_constant=no_constants)["results"]


@pytest.mark.parametrize("spectrum", ["0.75,0.25", "0.5,0.3,0.2"])
def test_the_smallest_epsilon_gives_finite_json(capsys, spectrum):
    # 2 / eps overflowed to inf (a traceback at d = 2) and 1 / eps printed Infinity (d = 3)
    epsilons = ("1e-300", "1e-320", "5e-324")
    for eps in epsilons:
        finite_json_results(capsys, "simulate", "--n", "5", "--spectrum", spectrum,
                            "--epsilon", eps)
    bounds = [finite_json_results(capsys, "plan", "--n", "5", "--spectrum", spectrum,
                                  "--epsilon", eps)["bound_qubits"] for eps in epsilons]
    assert bounds[0] < bounds[1] < bounds[2]


def test_sweep_at_the_smallest_epsilon_gives_finite_bounds(capsys):
    rows = finite_json_results(capsys, "sweep", "--n-list", "5,9", "--spectrum", "0.75,0.25",
                               "--epsilon-list", "1e-300,5e-324")
    bounds = [float(row["bound_qubits"]) for row in rows]
    assert all(map(math.isfinite, bounds))
    assert bounds[0] < bounds[1] and bounds[2] < bounds[3]  # per N: 1e-300, then 5e-324


def test_plan_zero_error(capsys):
    code, out, _ = run_cli(capsys, "plan", "--n", "20", "--spectrum", "0.6,0.4",
                           "--zero-error")
    assert code == 0
    assert "d_enc = 121" in out
    assert "qubits = 7" in out
    assert "hybrid = (5 qubits, 4 bits)" in out


def test_plan_degenerate_spectrum_bound(capsys):
    code, out1, _ = run_cli(capsys, "plan", "--n", "30", "--spectrum", "0.5,0.25,0.25",
                            "--epsilon", "0.1", "--format", "json")
    assert code == 0
    code, out2, _ = run_cli(capsys, "plan", "--n", "30", "--spectrum", "0.5,0.3,0.2",
                            "--epsilon", "0.1", "--format", "json")
    assert code == 0
    degenerate = json.loads(out1)["results"]["bound_qubits"]
    plain = json.loads(out2)["results"]["bound_qubits"]
    assert plain - degenerate == pytest.approx(0.5 * math.log2(32), abs=1e-9)


def test_plan_not_applicable_exit_3(capsys):
    code, _, err = run_cli(capsys, "plan", "--n", "20", "--spectrum", "0.5,0.5",
                           "--epsilon", "0.01")
    assert code == 3
    assert "not applicable" in err


def test_plan_just_above_half_reports_its_threshold(capsys):
    # the threshold search used to give up past 2^30 copies and exit 2 on this valid plan
    argv = ["plan", "--n", "10", "--spectrum", "0.50001,0.49999", "--epsilon", "0.01"]
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    assert "threshold_copies = " in out
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    doc = json.loads(out)
    n0 = doc["results"]["extras"]["threshold_copies"]
    assert n0 == planner.error_threshold_copies(doc["params"]["spectrum"][0], 0.01)
    assert n0 > 2 ** 30


def test_plan_dims_and_qdist_build_no_young_diagram(capsys, monkeypatch):
    def refuse(self):
        raise AssertionError("the command built a YoungDiagram")

    monkeypatch.setattr(schur_core.YoungDiagram, "__post_init__", refuse)
    plans = [["--n", "60", "--spectrum", "0.4,0.3,0.2,0.1", "--epsilon", "0.01"],
             ["--n", "60", "--spectrum", "0.5,0.3,0.2,0", "--zero-error"],
             ["--n", "64", "--spectrum", "0.75,0.25", "--epsilon", "0.01"],
             ["--n", "21", "--spectrum", "0.75,0.25", "--zero-error"]]
    runs = [["plan", *argv, "--format", form] for argv in plans for form in ("table", "json")]
    for form in ("table", "csv", "json"):
        runs += [["dims", "--n", "12", "--d", d, "--format", form] for d in ("2", "4")]
        runs += [["qdist", "--n", "13", "--spectrum", spectrum, "--format", form]
                 for spectrum in ("0.75,0.25", "0.5,0.3,0.2,0")]
    for argv in runs:
        code, out, err = run_cli(capsys, *argv)
        assert code == 0 and out, (argv, err)


def test_simulate_and_sweep_build_no_young_diagram(capsys, monkeypatch):
    def refuse(self):
        raise AssertionError("the simulator built a YoungDiagram")

    qubit, qutrit = schur_core.Spectrum((0.75, 0.25)), schur_core.Spectrum((0.5, 0.3, 0.2))
    cases = [(64, qubit, None, planner.qubit_approx_plan(64, 0.75, 0.01)),
             (40, qubit, blocksim.BlochVector(1.0, 0.5), planner.qubit_approx_plan(40, 0.75, 0.01)),
             (20, qutrit, None, planner.qudit_approx_plan(20, qutrit, 0.1))]
    monkeypatch.setattr(schur_core.YoungDiagram, "__post_init__", refuse)
    for n, spectrum, orient, plan in cases:
        report = blocksim.exact_protocol_error(n, spectrum, plan.rows, orient)
        assert report.exact_error == pytest.approx(report.tail_mass, abs=1e-12)
    runs = [["simulate", "--n", "40", "--spectrum", "0.75,0.25", "--epsilon", "0.01"],
            ["simulate", "--n", "40", "--spectrum", "0.75,0.25", "--epsilon", "0.01",
             "--theta", "1", "--phi", "0.5"],
            ["simulate", "--n", "20", "--spectrum", "0.5,0.3,0.2", "--epsilon", "0.1"]]
    runs = [[*argv, "--format", form] for argv in runs for form in ("table", "json")]
    runs += [["sweep", "--n-list", "10,31", "--spectrum", spectrum, "--epsilon-list", "0.1,0.01",
              "--format", form]
             for spectrum in ("0.75,0.25", "0.5,0.3,0.2") for form in ("csv", "json")]
    for argv in runs:
        code, out, err = run_cli(capsys, *argv)
        assert code in (0, 1) and out and not err, (argv, err)


def test_simulate_headline_passes(capsys):
    code, out, _ = run_cli(capsys, "simulate", "--n", "20", "--spectrum", "0.6,0.4",
                           "--epsilon", "0.01", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["exact_error"] < 0.01
    assert doc["results"]["pass"] is True


def test_simulate_sandwich(capsys):
    code, out, _ = run_cli(capsys, "simulate", "--n", "4", "--spectrum", "0.75,0.25",
                           "--epsilon", "0.5", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    res = doc["results"]
    assert res["lower_bound"] - 1e-12 <= res["exact_error"] <= res["tail_mass"] + 1e-12


def test_simulate_zero_error_mode(capsys):
    code, out, _ = run_cli(capsys, "simulate", "--n", "8", "--spectrum", "0.8,0.2",
                           "--zero-error", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["exact_error"] <= 1e-10


def test_simulate_rotated(capsys):
    code, out, _ = run_cli(capsys, "simulate", "--n", "12", "--spectrum", "0.75,0.25",
                           "--epsilon", "0.3", "--theta", "1.0", "--phi", "0.5",
                           "--format", "json")
    assert code == 0


def test_simulate_rotated_large_spin(capsys):
    # spin blocks up to 2j = 120, where the factorial Wigner formula overflowed
    code, out, _ = run_cli(capsys, "simulate", "--n", "120", "--spectrum", "0.75,0.25",
                           "--epsilon", "0.01", "--theta", "1.0")
    assert code == 0
    assert out.strip().splitlines()[-1] == "PASS"


def test_simulate_qudit_rotation_unsupported(capsys):
    code, _, err = run_cli(capsys, "simulate", "--n", "4", "--spectrum", "0.5,0.3,0.2",
                           "--epsilon", "0.1", "--theta", "0.3")
    assert code == 3
    assert "not applicable" in err


def test_sweep_deterministic_output(capsys):
    args = ("sweep", "--n-range", "4:20:4", "--spectrum", "0.75,0.25",
            "--epsilon-list", "0.1,0.01")
    code, out1, _ = run_cli(capsys, *args)
    assert code == 0
    code, out2, _ = run_cli(capsys, *args)
    assert out1 == out2
    lines = out1.strip().splitlines()
    assert lines[0] == "n,epsilon,d_enc,qubit_count,bound_qubits,exact_error,tail_mass,lower_bound"
    assert len(lines) == 1 + 5 * 2


def test_sweep_zero_error_column(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--n-list", "4,8,16,32", "--spectrum",
                           "0.75,0.25", "--zero-error")
    assert code == 0
    for line in out.strip().splitlines()[1:]:
        fields = line.split(",")
        n = int(fields[0])
        # ceil(2 log2(N+2) - 2), computed exactly
        expected = ((n + 2) ** 2 - 1).bit_length() - 2
        assert int(fields[3]) == expected


def test_sweep_budget_mode_lower_bound_grows(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--n-list", "64,128,256", "--spectrum",
                           "0.75,0.25", "--budget-exponent", "1.4")
    assert code == 0
    lower = [float(line.split(",")[-1]) for line in out.strip().splitlines()[1:]]
    assert lower[0] < lower[1] < lower[2]


def test_sweep_evaluates_the_exact_error_up_to_a_fixed_cap(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--n-list", "256,258", "--spectrum", "0.75,0.25",
                           "--epsilon-list", "0.1", "--format", "json")
    assert code == 0
    assert [row["exact_error"] != "" for row in json.loads(out)["results"]] == [True, False]
    with pytest.raises(SystemExit) as exc:  # the cap is no flag
        main(["sweep", "--n-list", "4", "--spectrum", "0.75,0.25", "--epsilon-list", "0.1",
              "--exact-cap", "4"])
    assert exc.value.code == 2


def test_sweep_empty_range_exit_2(capsys):
    code, _, err = run_cli(capsys, "sweep", "--n-range", "10:4:2", "--spectrum",
                           "0.75,0.25", "--epsilon-list", "0.1")
    assert code == 2


def test_oracle_check_diagonal(capsys):
    code, out, _ = run_cli(capsys, "oracle-check", "--n", "4", "--spectrum", "0.75,0.25")
    assert code == 0
    assert "PASS" in out


def test_oracle_check_rotated_odd(capsys):
    code, out, _ = run_cli(capsys, "oracle-check", "--n", "5", "--spectrum", "0.9,0.1",
                           "--theta", "0.7", "--phi", "2.1")
    assert code == 0
    assert "PASS" in out


def test_oracle_check_qudit(capsys):
    code, out, _ = run_cli(capsys, "oracle-check", "--n", "4", "--spectrum", "0.5,0.3,0.2")
    assert code == 0
    assert "PASS" in out


@pytest.mark.parametrize("argv", [
    ["--n", "8", "--spectrum", "0.999,0.001", "--theta", "1.0", "--phi", "0.5"],
    ["--n", "9", "--spectrum", "0.999999,0.000001"],
])
def test_oracle_check_passes_skewed_spectra(capsys, argv):
    # blocks of weight 1e-11 down to 1e-23 carry roundoff of about 1e-16; divided
    # by the weight it used to read as a broken marginal (a traceback) or as a
    # block spectrum off by 0.999999 (FAIL)
    code, out, err = run_cli(capsys, "oracle-check", *argv)
    assert (code, err) == (0, "")
    assert out.endswith("\nPASS\n")


def test_oracle_check_fails_a_planted_eigenvalue_error(capsys, monkeypatch):
    # weighed by its block, an error of 1e-5 in one eigenvalue of the heaviest
    # block is still far above the tolerance
    weights = blocksim.weight_table(8, schur_core.Spectrum((0.75, 0.25))).weights
    heaviest = int(np.argmax(weights))

    def planted(spectrum, n, orientation=None):
        state = blocksim.product_state(spectrum, n, orientation)
        values = state.values.copy()
        values[state.offsets[heaviest]] += 1e-5
        return replace(state, values=values)

    monkeypatch.setattr(cli, "product_state", planted)
    code, out, _ = run_cli(capsys, "oracle-check", "--n", "8", "--spectrum", "0.75,0.25")
    assert code == 1
    diff = re.search(r"^block spectra: max diff (\S+)  FAIL$", out, re.MULTILINE)
    assert float(diff.group(1)) == pytest.approx(weights[heaviest] * 1e-5, rel=1e-6)


def test_oracle_check_size_cap_exit_4(capsys):
    code, _, err = run_cli(capsys, "oracle-check", "--n", "13", "--spectrum", "0.75,0.25")
    assert code == 4
    assert "resource" in err.lower()


@pytest.mark.parametrize("n", ["0", "-1"])
@pytest.mark.parametrize("spectrum", ["0.75,0.25", "0.5,0.3,0.2"])
def test_oracle_check_without_copies_exits_2(capsys, n, spectrum):
    code, out, err = run_cli(capsys, "oracle-check", "--n", n, "--spectrum", spectrum)
    assert (code, out) == (2, "")
    assert err == f"error: need at least one copy, got N={n}\n"


def test_config_file_supplies_flags(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n=20\nspectrum=0.6,0.4\nzero-error=true\n")
    code, out, _ = run_cli(capsys, "plan", "--config", str(cfg))
    assert code == 0
    assert "d_enc = 121" in out


def test_config_flag_overrides_file(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n=4\nspectrum=0.75,0.25\n")
    code, out, _ = run_cli(capsys, "dims", "--config", str(cfg), "--n", "2", "--d", "2")
    assert code == 0
    assert "sum of irrep_dim*mult_dim = 4" in out


def test_main_builds_one_parser_per_process(capsys, monkeypatch):
    # the caches start empty (conftest), as in a fresh process
    built, real = [], cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or real())
    for argv in (["dims", "--n", "4", "--d", "2"], ["qdist", "--n", "4", "--spectrum", "0.75,0.25"],
                 ["plan", "--n", "8", "--spectrum", "0.75,0.25", "--zero-error"]):
        assert run_cli(capsys, *argv)[0] == 0
    assert len(built) == 1


def test_a_config_run_leaves_the_shared_parser_alone(tmp_path, capsys):
    argv = ["plan", "--n", "20", "--spectrum", "0.6,0.4"]
    code, out, _ = run_cli(capsys, *argv, "--config", _config(tmp_path, "epsilon=0.01\n"))
    assert code == 0 and "epsilon=0.01" in out
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == "error: plan requires --epsilon or --zero-error\n"


def test_float_output_precision(capsys):
    code, out, _ = run_cli(capsys, "qdist", "--n", "6", "--spectrum", "0.9,0.1",
                           "--format", "csv")
    assert code == 0
    top = out.strip().splitlines()[1].split(",")[1]
    assert len(top.replace(".", "").replace("-", "").lstrip("0")) <= 10


@pytest.mark.parametrize("argv, config", [
    (["sweep", "--n-list", "4,x", "--spectrum", "0.75,0.25", "--epsilon-list", "0.1"], None),
    (["sweep", "--n-list", "4", "--spectrum", "0.75,0.25", "--epsilon-list", "0.1,abc"], None),
    (["plan", "--zero-error"], "n=abc\nspectrum=0.75,0.25\n"),
    (["plan", "--n", "0", "--spectrum", "0.75,0.25", "--epsilon", "0.01"], None),
    (["plan", "--n", "0", "--spectrum", "0.5,0.3,0.2", "--epsilon", "0.1"], None),
])
def test_malformed_values_exit_2(tmp_path, capsys, argv, config):
    if config is not None:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config)
        argv = argv + ["--config", str(cfg)]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


@pytest.mark.parametrize("argv", [
    ["simulate", "--n", "10", "--spectrum", "0.75,0.25", "--epsilon", "0.1", "--theta", "nan"],
    ["simulate", "--n", "10", "--spectrum", "0.75,0.25", "--epsilon", "0.1", "--phi", "inf"],
    ["oracle-check", "--n", "4", "--spectrum", "0.75,0.25", "--theta=-inf"],
    ["oracle-check", "--n", "4", "--spectrum", "0.75,0.25", "--phi", "nan"],
    ["sweep", "--n-list", "10", "--spectrum", "0.75,0.25", "--budget-exponent", "nan"],
])
def test_non_finite_angles_and_budgets_exit_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and ("non-finite" in err or "NaN" in err)


def test_negative_numbers_in_exponent_notation_are_values(capsys):
    base = ["oracle-check", "--n", "3", "--spectrum", "0.75,0.25", "--theta", "1.0"]
    runs = {run_cli(capsys, *base, *phi) for phi in (["--phi", "-1e-3"], ["--phi=-1e-3"],
                                                      ["--phi", "-0.001"])}
    assert len(runs) == 1 and next(iter(runs))[0] == 0
    code, out, _ = run_cli(capsys, "oracle-check", "--n", "3", "--spectrum", "0.75,0.25",
                           "--theta", "-2E0")
    assert code == 0 and out.endswith("PASS\n")
    code, out, err = run_cli(capsys, "plan", "--n", "10", "--spectrum", "0.75,0.25",
                             "--epsilon", "-1e-3")
    assert (code, out, err) == (2, "", "error: need 0 < epsilon < 1, got -0.001\n")


@pytest.mark.parametrize("flag, value", [("--theta", "-inf"), ("--phi", "-NaN"),
                                         ("--theta", "-Infinity")])
def test_negative_inf_and_nan_are_values(capsys, flag, value):
    base = ["simulate", "--n", "10", "--spectrum", "0.75,0.25", "--epsilon", "0.1"]
    spaced = run_cli(capsys, *base, flag, value)
    assert spaced == run_cli(capsys, *base, f"{flag}={value}")
    assert spaced[:2] == (2, "") and spaced[2].startswith("error: non-finite Bloch angles ")
    code, out, err = run_cli(capsys, "plan", "--n", "10", "--spectrum", "0.75,0.25",
                             "--epsilon", "-inf")
    assert (code, out, err) == (2, "", "error: need 0 < epsilon < 1, got -inf\n")


def test_budget_beyond_the_float_range_keeps_every_block(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--n-list", "10", "--spectrum", "0.75,0.25",
                           "--budget-exponent", "1000")
    assert code == 0
    row = out.strip().splitlines()[1].split(",")
    assert row[2] == "36" and row[6] == "0"  # d_enc = (N/2 + 1)^2, nothing discarded


def _config(tmp_path, text: str | bytes):
    cfg = tmp_path / "run.cfg"
    if isinstance(text, bytes):
        cfg.write_bytes(text)
    else:
        cfg.write_text(text)
    return str(cfg)


@pytest.mark.parametrize("argv, text", [
    (["dims"], "n=4\nd=2\nformat=xml\n"),
    (["plan"], "n=20\nspectrum=0.6,0.4\nzero-error=true\nformat=csv\n"),
    (["sweep"], "n-list=4\nspectrum=0.75,0.25\nzero-error=1\nformat=table\n"),
    (["plan"], "n=20\nspectrum=0.6,0.4\nzero-error=maybe\n"),
    (["plan"], "n=20\nspectrum=0.6,0.4\nepsilon=0.01\nzero-error=\n"),
    (["simulate"], "n=8\nspectrum=0.75,0.25\nepsilon=0.1\ntheta=north\n"),
])
def test_config_values_are_checked_like_flags(tmp_path, capsys, argv, text):
    code, out, err = run_cli(capsys, *argv, "--config", _config(tmp_path, text))
    assert code == 2
    assert out == ""
    assert err.startswith("error: bad config value for ")


@pytest.mark.parametrize("word, zero_error", [("1", True), ("TRUE", True), ("Yes", True),
                                              ("0", False), ("false", False), ("NO", False)])
def test_config_store_true_words(tmp_path, capsys, word, zero_error):
    cfg = _config(tmp_path, f"n=20\nspectrum=0.6,0.4\nepsilon=0.01\nzero-error={word}\n")
    code, out, _ = run_cli(capsys, "plan", "--config", cfg, "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["params"]["zero_error"] is zero_error
    assert doc["results"]["epsilon"] == (None if zero_error else 0.01)


def test_config_keys_that_name_no_flag_are_ignored(tmp_path, capsys):
    _, want, _ = run_cli(capsys, "dims", "--n", "4", "--d", "2", "--format", "json")
    cfg = _config(tmp_path, "n=4\nd=2\nformat=json\ncolour=blue\nepsilon=0.1\n")
    code, out, _ = run_cli(capsys, "dims", "--config", cfg)
    assert code == 0
    assert out == want


def test_config_cannot_set_config_func_or_command(tmp_path, capsys):
    cfg = _config(tmp_path, "n=4\nd=2\nconfig=/no/such/file\nfunc=cmd_plan\ncommand=plan\n"
                            "view=view_plan\nrequired=--spectrum\n")
    parser = cli.build_parser()
    cli.apply_config(parser, "dims", cli.load_config(cfg))
    args = parser.parse_args(["dims", "--config", cfg])
    assert (args.n, args.d) == (4, 2)
    assert args.config == cfg
    assert args.func is cli.cmd_dims
    assert args.view is cli.view_dims
    assert args.required == ("--n", "--d")
    assert args.command == "dims"
    code, out, _ = run_cli(capsys, "dims", "--config", cfg)
    assert code == 0
    assert "sum of irrep_dim*mult_dim = 16" in out


def test_config_format_reaches_the_emitter(tmp_path, capsys):
    cfg = _config(tmp_path, "n=20\nspectrum=0.6,0.4\nzero-error=yes\nformat=json\n")
    code, out, _ = run_cli(capsys, "plan", "--config", cfg)
    assert code == 0
    assert json.loads(out)["results"]["d_enc"] == 121
    code, out, _ = run_cli(capsys, "plan", "--config", cfg, "--format", "table")
    assert code == 0
    assert "d_enc = 121" in out


def test_non_utf8_config_exits_2(tmp_path, capsys):
    code, out, err = run_cli(capsys, "dims", "--config", _config(tmp_path, b"n=4\xff\n"))
    assert code == 2
    assert out == ""
    assert err.startswith("error: cannot read config: ") and "utf-8" in err


def test_negative_seed_exits_2(tmp_path, capsys):
    argv = ["oracle-check", "--n", "4", "--spectrum", "0.75,0.25"]
    code, out, err = run_cli(capsys, *argv, "--seed", "-1")
    assert (code, out) == (2, "")
    assert err == "error: --seed must be non-negative, got -1\n"
    code, out, err = run_cli(capsys, *argv, "--config", _config(tmp_path, "seed=-3\n"))
    assert (code, out) == (2, "")
    assert err == "error: --seed must be non-negative, got -3\n"


@pytest.mark.parametrize("argv", [
    ["plan", "--n", "20", "--spectrum", "0.6,0.4", "--zero-error", "--format", "csv"],
    ["simulate", "--n", "8", "--spectrum", "0.8,0.2", "--zero-error", "--format", "csv"],
    ["oracle-check", "--n", "4", "--spectrum", "0.75,0.25", "--format", "csv"],
    ["sweep", "--n-list", "4", "--spectrum", "0.75,0.25", "--zero-error", "--format", "table"],
])
def test_format_offers_only_the_forms_a_command_prints(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["dims", "--n", "4", "--d", "2"],
    ["qdist", "--n", "4", "--spectrum", "0.75,0.25"],
    ["plan", "--n", "8", "--spectrum", "0.75,0.25", "--zero-error"],
    ["simulate", "--n", "8", "--spectrum", "0.75,0.25", "--zero-error"],
    ["sweep", "--n-list", "4,8", "--spectrum", "0.75,0.25", "--zero-error"],
    ["oracle-check", "--n", "4", "--spectrum", "0.75,0.25"],
])
def test_every_command_prints_one_json_document(capsys, argv):
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"command", "params", "results", "version"}
    assert doc["command"] == argv[0]


@pytest.mark.parametrize("argv, message", [
    (["dims", "--n", "4"], "dims requires --n and --d"),
    (["dims", "--d", "0"], "dims requires --n and --d"),
    (["qdist", "--spectrum", "0.75,0.25"], "qdist requires --n and --spectrum"),
    (["plan", "--n", "4"], "plan requires --n and --spectrum"),
    (["simulate", "--spectrum", "0.75,0.25", "--theta", "nan"],
     "simulate requires --n and --spectrum"),
    (["sweep", "--n-list", "x"], "sweep requires --spectrum"),
    (["oracle-check", "--n", "4", "--seed", "-1"], "oracle-check requires --n and --spectrum"),
])
def test_required_flags_are_checked_before_the_command_runs(capsys, argv, message):
    assert run_cli(capsys, *argv) == (2, "", f"error: {message}\n")


def _text_case(name):
    """(argv without --format, the text form the golden file holds) of a golden case."""
    argv = CASES[name]
    if "--format" not in argv:
        return argv, cli.COMMANDS[argv[0]][3][0]
    i = argv.index("--format")
    return argv[:i] + argv[i + 2:], argv[i + 1]


@pytest.mark.parametrize("name", sorted(name for name in CASES if not name.endswith(".json")))
def test_text_is_a_view_of_the_json_document(capsys, name):
    argv, out_format = _text_case(name)
    code, text, _ = run_cli(capsys, *argv, "--format", out_format)
    assert code == 0
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    doc = json.loads(out)
    lines = cli.COMMANDS[argv[0]][5](doc["params"], doc["results"], out_format)
    assert "\n".join(lines) + "\n" == text
    want = (GOLDEN / name).read_text().splitlines()
    assert len(lines) == len(want) and all(map(_same_line, lines, want))


def test_each_command_declares_its_flags_in_order():
    table, table_json, csv_json = ("table", "csv", "json"), ("table", "json"), ("csv", "json")
    n, spectrum = ("n", int, None, None), ("spectrum", None, None, None)
    epsilon, zero_error = ("epsilon", float, None, None), ("zero_error", None, False, None)
    theta, phi = ("theta", float, None, None), ("phi", float, None, None)
    config = ("config", None, None, None)
    want = {
        "dims": [n, ("d", int, None, None), ("r", int, None, None), config,
                 ("format", None, "table", table)],
        "qdist": [n, spectrum, config, ("format", None, "table", table)],
        "plan": [n, spectrum, epsilon, zero_error, config, ("format", None, "table", table_json)],
        "simulate": [n, spectrum, epsilon, zero_error, theta, phi, config,
                     ("format", None, "table", table_json)],
        "sweep": [("n_range", None, None, None), ("n_list", None, None, None), spectrum,
                  ("epsilon_list", None, None, None), zero_error,
                  ("budget_exponent", float, None, None), config,
                  ("format", None, "csv", csv_json)],
        "oracle-check": [n, spectrum, theta, phi, ("seed", int, 0, None), config,
                         ("format", None, "table", table_json)],
    }
    parser = cli.build_parser()
    commands = next(a for a in parser._actions if a.dest == "command").choices
    assert list(commands) == list(want)
    for name, flags in want.items():
        got = [(a.dest, a.type, a.default, a.choices and tuple(a.choices))
               for a in commands[name]._actions if a.dest != "help"]
        assert got == flags, name
