import json
import math

import pytest

from schurcompress import blocksim
from schurcompress.cli import main


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


def test_dims_usage_error_exit_2(capsys):
    code, _, err = run_cli(capsys, "dims", "--n", "4", "--d", "2", "--r", "3")
    assert code == 2
    assert "error" in err.lower()


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


def test_oracle_check_size_cap_exit_4(capsys):
    code, _, err = run_cli(capsys, "oracle-check", "--n", "13", "--spectrum", "0.75,0.25")
    assert code == 4
    assert "resource" in err.lower()


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
