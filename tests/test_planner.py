import math
import time

import numpy as np
import pytest

from schurcompress.blocksim import exact_protocol_error, qubit_weight_binomial, qubit_weights
from schurcompress.errors import NotApplicableError, ParameterError
from schurcompress.planner import (
    _max_qubit_multiplicity,
    ceil_log2,
    circuit_resource_estimate,
    error_threshold_copies,
    greedy_budget_keep,
    keyl_werner_tail_bound,
    mixed_prep_cost,
    pure_state_lower_bound,
    qubit_approx_plan,
    qubit_error_upper_bound,
    qudit_approx_plan,
    row_fraction_distance,
    simulate_mixed_prep,
    spectrum_estimate,
    spectrum_tail_mass,
    total_variation_radius,
    truncation_lower_bound,
    zero_error_plan,
)
from schurcompress.schur_core import (
    enumerate_diagrams,
    irrep_dim,
    spectrum_of,
)


def test_ceil_log2_exact():
    assert [ceil_log2(x) for x in (1, 2, 3, 4, 5, 8, 9, 1023, 1024, 1025)] == \
        [0, 1, 2, 2, 3, 3, 4, 10, 10, 11]
    with pytest.raises(ParameterError):
        ceil_log2(0)


# ---------------------------------------------------------------------------
# Zero-error plans
# ---------------------------------------------------------------------------

def test_zero_error_plan_small():
    plan = zero_error_plan(2, 2)
    assert plan.d_enc == 4 and plan.qubit_count == 2


def test_zero_error_plan_n20():
    plan = zero_error_plan(20, 2)
    assert plan.d_enc == 121
    assert plan.qubit_count == 7
    assert (plan.hybrid_qubits, plan.hybrid_bits) == (5, 4)


def test_zero_error_plan_qudit():
    plan = zero_error_plan(4, 3, 3)
    assert plan.d_enc == 15 + 15 + 6 + 3  # (4),(3,1),(2,2),(2,1,1)
    assert plan.d_enc == 39


def test_zero_error_closed_form_even_n():
    # qubit count must equal ceil(2 log2(N+2) - 2) = ceil_log2((N+2)^2) - 2
    for n in range(2, 201, 2):
        plan = zero_error_plan(n, 2)
        assert plan.d_enc == (n // 2 + 1) ** 2
        assert plan.qubit_count == ceil_log2((n + 2) ** 2) - 2


def test_zero_error_hybrid_counts():
    for n in (4, 20, 64, 100):
        plan = zero_error_plan(n, 2)
        assert plan.hybrid_qubits == ceil_log2(n + 1)
        assert plan.hybrid_bits == ceil_log2(n // 2 + 1)


# ---------------------------------------------------------------------------
# Approximate qubit plans
# ---------------------------------------------------------------------------

def test_qubit_approx_plan_headline():
    plan = qubit_approx_plan(20, 0.6, 0.01)
    assert len(plan.keep) == 11         # half-width 10 swallows the whole grid
    assert plan.d_enc == 121
    assert plan.qubit_count == 7
    assert plan.qubit_count <= 8
    assert plan.bound_qubits == pytest.approx(
        1.5 * math.log2(20) + math.log2(4 * 0.2 * math.sqrt(math.log(200))) + 1, abs=1e-12)


def test_qubit_approx_plan_wide_tolerance_strip():
    # eps -> 1 shrinks the half-width to floor(sqrt(N ln 2)) = 8
    plan = qubit_approx_plan(100, 0.9, 1.0 - 1e-12)
    labels = plan.keep_two_j()
    assert len(labels) == 17
    assert labels[0] // 2 == 32 and labels[-1] // 2 == 48


def test_qubit_approx_plan_rejects_half():
    with pytest.raises(NotApplicableError):
        qubit_approx_plan(20, 0.5, 0.01)
    with pytest.raises(ParameterError):
        qubit_approx_plan(20, 0.75, 0.0)


def test_qubit_approx_plan_dimension_bound_unclipped():
    # paper-form bound (2j0+1)(2 sqrt(N ln(2/eps)) + 1) holds whenever the
    # strip is not clipped at the bottom of the grid
    for p in (0.6, 0.75, 0.9, 0.95):
        for n in range(10, 241, 10):
            for eps in (0.01, 0.1, 0.5):
                plan = qubit_approx_plan(n, p, eps)
                two_j0 = (2 * p - 1) * (n + 1)
                width = math.floor(math.sqrt(n * math.log(2 / eps)))
                if two_j0 / 2 - width < (n % 2) / 2:
                    continue
                bound = (two_j0 + 1) * (2 * math.sqrt(n * math.log(2 / eps)) + 1)
                assert plan.d_enc <= bound


def test_qubit_approx_plan_half_width_override():
    narrow = qubit_approx_plan(60, 0.75, 0.1, half_width=2)
    wide = qubit_approx_plan(60, 0.75, 0.1, half_width=10)
    assert len(narrow.keep) == 5
    assert len(wide.keep) == 21
    assert narrow.d_enc < wide.d_enc


def test_qubit_approx_plan_odd_n():
    plan = qubit_approx_plan(21, 0.8, 0.05)
    assert all(lam.boxes == 21 for lam in plan.keep)
    assert all(lam.two_j % 2 == 1 for lam in plan.keep)


# ---------------------------------------------------------------------------
# Qudit plans
# ---------------------------------------------------------------------------

def test_qudit_plan_matches_qubit_guarantee():
    # for d=2 the ball construction need not equal the strip, but both
    # must deliver the target error
    n, eps = 50, 0.01
    sp = spectrum_of(0.75, 0.25)
    ball = qudit_approx_plan(n, sp, eps)
    strip = qubit_approx_plan(n, 0.75, eps)
    for plan in (ball, strip):
        rep = exact_protocol_error(n, sp, plan.keep)
        assert rep.exact_error <= eps


def test_qudit_plan_degeneracy_dividend_exact():
    # one repeated eigenvalue lowers the bound by exactly half a log2(N+d-1)
    n, eps = 30, 0.1
    degenerate = qudit_approx_plan(n, spectrum_of(0.5, 0.25, 0.25), eps)
    plain = qudit_approx_plan(n, spectrum_of(0.5, 0.3, 0.2), eps)
    assert plain.bound_qubits - degenerate.bound_qubits == pytest.approx(
        0.5 * math.log2(n + 2), abs=1e-9)


def test_qudit_bound_monotone_in_degeneracy():
    n, eps = 40, 0.1
    bounds = [qudit_approx_plan(n, sp, eps).bound_qubits
              for sp in (spectrum_of(0.5, 0.3, 0.2),      # m = 0
                         spectrum_of(0.5, 0.25, 0.25),    # m = 1
                         spectrum_of(1 / 3, 1 / 3, 1 / 3))]  # m = 3
    assert bounds[0] > bounds[1] > bounds[2]


def test_qudit_plan_keeps_ball_center():
    # eps = 1 keeps the radius positive, so the nearest diagrams survive
    sp = spectrum_of(0.5, 0.3, 0.2)
    plan = qudit_approx_plan(10, sp, 1.0)
    assert plan.keep
    best = min(row_fraction_distance(lam, sp) for lam in enumerate_diagrams(10, 3))
    assert any(row_fraction_distance(lam, sp) == best for lam in plan.keep)


def test_qudit_plan_keep_set_is_ball():
    sp = spectrum_of(0.6, 0.3, 0.1)
    n, eps = 12, 0.2
    plan = qudit_approx_plan(n, sp, eps)
    x = total_variation_radius(n, 3, eps)
    kept = set(plan.keep)
    for lam in enumerate_diagrams(n, 3, sp.rank):
        assert (row_fraction_distance(lam, sp) <= x) == (lam in kept)


# ---------------------------------------------------------------------------
# Error bounds
# ---------------------------------------------------------------------------

def test_qubit_error_upper_bound_value():
    # direct arithmetic: eps^(2N/(N+1)) + exp(-2 (2p-1)^2 N^2/(N+1))/(2p-1)
    expected = 0.01 ** (200.0 / 101.0) + math.exp(-2 * 0.25 * 10000 / 101.0) / 0.5
    got = qubit_error_upper_bound(100, 0.75, 0.01)
    assert got == pytest.approx(expected, rel=1e-12)
    assert got == pytest.approx(1.0955e-4, rel=1e-3)


def test_error_threshold_copies():
    for p, eps in [(0.6, 0.01), (0.75, 0.1), (0.9, 0.01)]:
        n0 = error_threshold_copies(p, eps)
        assert qubit_error_upper_bound(n0, p, eps) < eps
        assert qubit_error_upper_bound(n0 - 1, p, eps) >= eps


def test_exact_error_below_closed_form_bound():
    for p in (0.6, 0.75, 0.9):
        for n in (10, 30, 60):
            for eps in (0.1, 0.01):
                plan = qubit_approx_plan(n, p, eps)
                rep = exact_protocol_error(n, spectrum_of(p, 1 - p), plan.keep)
                assert rep.exact_error <= qubit_error_upper_bound(n, p, eps) + 1e-15


def test_truncation_lower_bound_limits():
    sp = spectrum_of(0.75, 0.25)
    everything = enumerate_diagrams(12, 2)
    assert truncation_lower_bound(12, sp, everything) == pytest.approx(0.0, abs=1e-12)
    assert truncation_lower_bound(12, sp, []) == pytest.approx(0.5, abs=1e-12)


def test_truncation_lower_bound_is_zero_when_every_block_is_kept():
    sp = spectrum_of(0.75, 0.25)
    keep = qubit_approx_plan(40, 0.75, 0.01).keep
    assert len(keep) == len(enumerate_diagrams(40, 2))
    assert truncation_lower_bound(40, sp, keep) == 0.0


@pytest.mark.parametrize("n", [50, 60])
def test_truncation_lower_bound_is_half_the_binomial_tail(n):
    sp = spectrum_of(0.75, 0.25)
    keep = qubit_approx_plan(n, 0.75, 0.1).keep
    kept = {lam.two_j for lam in keep}
    tail = sum(qubit_weight_binomial(n, 0.75, two_j)
               for two_j in range(n % 2, n + 1, 2) if two_j not in kept)
    assert tail > 0.0
    assert truncation_lower_bound(n, sp, keep) == pytest.approx(0.5 * tail, rel=0.0, abs=1e-15)


def test_budgeted_lower_bound_grows():
    sp = spectrum_of(0.75, 0.25)
    values = []
    for k in range(6, 10):
        n = 2 ** k
        keep = greedy_budget_keep(n, sp, float(n) ** 1.4)
        assert sum(irrep_dim(lam, 2) for lam in keep) <= n ** 1.4
        values.append(truncation_lower_bound(n, sp, keep))
    assert all(b > a for a, b in zip(values, values[1:]))


def test_keyl_werner_bound_at_radius_equals_epsilon():
    for n, d, eps in [(20, 2, 0.01), (50, 2, 0.1), (15, 3, 0.1), (40, 3, 0.01)]:
        x = total_variation_radius(n, d, eps)
        assert keyl_werner_tail_bound(n, d, x) == pytest.approx(eps, rel=1e-12)


def test_keyl_werner_bounds_empirical_tail():
    sp = spectrum_of(0.75, 0.25)
    for x in (0.05, 0.1, 0.2):
        assert spectrum_tail_mass(100, sp, x) <= keyl_werner_tail_bound(100, 2, x)
    sp3 = spectrum_of(0.5, 0.3, 0.2)
    for x in (0.05, 0.1, 0.2):
        assert spectrum_tail_mass(15, sp3, x) <= keyl_werner_tail_bound(15, 3, x)


def test_spectrum_estimate():
    assert spectrum_estimate(19, 4) == pytest.approx(0.6)
    for n in (10, 33):
        assert 0.5 < spectrum_estimate(n, n) < 1.0


def test_spectrum_estimate_consistency_with_mode():
    n, p = 200, 0.75
    weights = qubit_weights(n, p)
    mode = max(weights, key=weights.get)
    assert abs(spectrum_estimate(n, mode) - p) < 0.01


def test_pure_state_lower_bound():
    assert pure_state_lower_bound(100, 0.0) == pytest.approx(math.log2(101))
    expected = 0.8 * 10 - 2 * (-0.1 * math.log(0.1))
    assert pure_state_lower_bound(1023, 0.1) == pytest.approx(expected, rel=1e-12)
    values = [pure_state_lower_bound(1023, e) for e in np.linspace(0.0, 0.4, 30)]
    assert all(b < a for a, b in zip(values, values[1:]))
    with pytest.raises(ParameterError):
        pure_state_lower_bound(10, 0.6)


# ---------------------------------------------------------------------------
# Mixed-state preparation model
# ---------------------------------------------------------------------------

def test_mixed_prep_power_of_two_always_succeeds():
    for m in (1, 2, 4, 8, 64):
        model = mixed_prep_cost(m, 5)
        assert model.success_prob == 1.0
        assert model.failure_bound == 0.0


def test_mixed_prep_three_outcomes():
    model = mixed_prep_cost(3, 10)
    assert model.entangled_pairs == 2
    assert model.success_prob == 0.75
    assert model.failure_bound <= 2.0 ** -10
    assert model.ops_order == "N^2"


def test_mixed_prep_simulation_3sigma():
    for m in (3, 5, 7):
        model = mixed_prep_cost(m, 5)
        sample = simulate_mixed_prep(m, 5, trials=20000, seed=42)
        sigma = math.sqrt(model.success_prob * (1 - model.success_prob)
                          / sample.rounds_simulated)
        assert abs(sample.round_success_frequency - model.success_prob) <= 3 * sigma
        assert sample.failure_frequency <= 2.0 ** -5


# ---------------------------------------------------------------------------
# Circuit resources
# ---------------------------------------------------------------------------

def test_circuit_resources_n20():
    res = circuit_resource_estimate(20)
    assert res.index_register_qubits == 4       # ceil(log2 11)
    assert res.representation_register_qubits == 5  # ceil(log2 21)
    assert res.multiplicity_register_qubits == 16   # ceil(log2 48450)
    assert res.decoding_ops_order == "N^(5/2)"
    assert res.coherent_qubits == (res.index_register_qubits
                                   + res.representation_register_qubits
                                   + res.ancilla_qubits)


def test_max_qubit_multiplicity_equals_the_bigint_maximum():
    row = [1]  # binomials C(N, k) by Pascal's rule
    for n in range(1, 601):
        row = [1] + [a + b for a, b in zip(row, row[1:])] + [1]
        want = max(row[k] - (row[k - 1] if k else 0) for k in range(n // 2 + 1))
        assert _max_qubit_multiplicity(n) == want, n


def test_circuit_resource_estimate_at_two_to_the_sixteen_is_fast():
    start = time.perf_counter()
    res = circuit_resource_estimate(2 ** 16)
    assert time.perf_counter() - start < 1.0
    assert 65500 < res.multiplicity_register_qubits < 65536


def test_circuit_resources_coherent_count_is_logarithmic():
    for n in (8, 64, 256):
        res = circuit_resource_estimate(n)
        assert res.coherent_qubits <= 3 * (math.log2(n) + 1)


# ---------------------------------------------------------------------------
# Plan serialization
# ---------------------------------------------------------------------------

def test_plan_as_dict_roundtrips_through_json():
    import json

    plan = qubit_approx_plan(24, 0.8, 0.05)
    doc = json.loads(json.dumps(plan.as_dict()))
    assert doc["d_enc"] == plan.d_enc
    assert doc["keep"] == [list(lam.rows) for lam in plan.keep]
    assert doc["qubit_count"] == plan.qubit_count
