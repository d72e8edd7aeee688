import json
import math
import time

import numpy as np
import pytest

from schurcompress import planner, schur_core
from schurcompress.blocksim import (
    block_weights,
    exact_protocol_error,
    qubit_weight_binomial,
    qubit_weights,
    WeightTable,
    weight_table,
)
from schurcompress.errors import NotApplicableError, ParameterError, ResourceLimitError
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
    _row_distances,
    simulate_mixed_prep,
    spectrum_estimate,
    spectrum_tail_mass,
    total_variation_radius,
    truncation_lower_bound,
    zero_error_plan,
)
from schurcompress.schur_core import (
    Spectrum,
    YoungDiagram,
    diagram_array,
    diagram_rows,
    enumerate_diagrams,
    irrep_dim,
    irrep_dims,
    spectrum_of,
)

from reference import best_budget_keep


def reference_greedy(n, spectrum, budgets):
    """The greedy keep set at each budget, by a per-diagram sort on (-q / d_lambda, diagram)."""
    weights = block_weights(n, spectrum)
    return first_fit(dict(weights.items()), {lam: irrep_dim(lam, spectrum.d) for lam in weights},
                     budgets)


def first_fit(weights, dims, budgets):
    """``reference_greedy`` over {diagram: weight} and {diagram: exact int dim}."""
    items = sorted(weights, key=lambda lam: (-weights[lam] / dims[lam], lam))
    out = []
    for budget in budgets:
        keep, used = [], 0
        for lam in items:
            if used + dims[lam] <= budget:
                keep.append(lam)
                used += dims[lam]
        out.append(keep or items[:1])
    return out


def row_distance(lam, spectrum):
    """``_row_distances`` of one diagram."""
    return float(_row_distances(diagram_array([lam], spectrum.d), spectrum)[0])


def random_probs(rng, d):
    """Sorted probabilities with, at random, zero tails and repeated values."""
    vals = sorted(rng.random(d), reverse=True)
    if rng.random() < 0.3:
        vals = vals[: rng.integers(1, d)] + [0.0] * d
    if rng.random() < 0.3:
        vals[1] = vals[0]
    vals = vals[:d]
    return tuple(v / sum(vals) for v in vals)


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
    labels = sorted(lam.two_j for lam in plan.keep)
    assert len(labels) == 17
    assert labels[0] // 2 == 32 and labels[-1] // 2 == 48


@pytest.mark.parametrize("call, error, message", [
    (lambda: zero_error_plan(0, 2), ParameterError, r"^need N >= 1, got 0$"),
    (lambda: total_variation_radius(10, 2, 0.0), ParameterError, r"^need 0 < epsilon <= 1, got 0\.0$"),
    (lambda: qubit_error_upper_bound(10, 0.5, 0.1), NotApplicableError,
     r"^bound needs p > 1/2, got 0\.5$"),
    (lambda: keyl_werner_tail_bound(10, 2, 0.0), ParameterError, r"^need x > 0, got 0\.0$"),
    (lambda: mixed_prep_cost(0, 1), ParameterError, r"^need m_lambda >= 1 and rounds >= 1$"),
    (lambda: circuit_resource_estimate(1), ParameterError, r"^need N >= 2, got 1$"),
])
def test_planner_calls_reject_inputs_outside_their_domain(call, error, message):
    with pytest.raises(error, match=message):
        call()


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
    best = min(row_distance(lam, sp) for lam in enumerate_diagrams(10, 3))
    assert any(row_distance(lam, sp) == best for lam in plan.keep)


def assert_plan_rows(plan):
    """The plan's rows are read-only int64 (K, d), strictly lexicographically
    decreasing, and ``keep`` holds their YoungDiagrams in that order."""
    rows = plan.rows
    assert not rows.flags.writeable and rows.dtype == np.int64
    assert rows.ndim == 2 and rows.shape[1] == plan.d and len(rows) >= 1
    step = rows[:-1] - rows[1:]  # its first nonzero entry is positive
    assert (step[np.arange(len(step)), (step != 0).argmax(axis=1)] > 0).all()
    assert [lam.rows for lam in plan.keep] == list(map(tuple, rows.tolist()))
    assert all(type(lam) is YoungDiagram for lam in plan.keep)
    assert plan.as_dict()["keep"] == rows.tolist()


def test_qudit_plan_keep_set_is_ball():
    # a diagram is kept exactly when its rows over N lie within x_eps of the
    # spectrum in total variation, summed here row by row in plain Python
    rng = np.random.default_rng(5)
    spectra = [(0.6, 0.3, 0.1), (0.5, 0.5, 0.0), (0.4, 0.4, 0.2), (1.0, 0.0, 0.0)]
    spectra += [random_probs(rng, int(rng.integers(2, 6))) for _ in range(6)]
    for probs in spectra:
        sp = Spectrum(probs)
        for n in (1, 7, 20, 40):
            diagrams = enumerate_diagrams(n, sp.d, sp.rank)
            distances = [0.5 * sum(abs(r / n - p) for r, p in zip(lam.rows, probs))
                         for lam in diagrams]
            for eps in (1.0, 0.2, 0.01):
                x = total_variation_radius(n, sp.d, eps)
                want = [lam for lam, dist in zip(diagrams, distances) if dist <= x]
                if not want:
                    with pytest.raises(ParameterError):
                        qudit_approx_plan(n, sp, eps)
                    continue
                plan = qudit_approx_plan(n, sp, eps)
                assert_plan_rows(plan)
                assert plan.keep == tuple(want), (probs, n, eps)


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
    near_half = 0.5 + 2.0 ** -52
    for p, eps in [(0.6, 0.01), (0.75, 0.1), (0.9, 0.01), (0.50001, 0.01), (1.0, 0.5),
                   (near_half, 5e-324), (near_half, 0.5), (near_half, 1.0 - 2.0 ** -53)]:
        start = time.perf_counter()
        n0 = error_threshold_copies(p, eps)
        assert time.perf_counter() - start < 0.1, (p, eps)  # about 110 doublings at most
        assert qubit_error_upper_bound(n0, p, eps) < eps
        assert qubit_error_upper_bound(n0 - 1, p, eps) >= eps
    for eps in (0.0, 1.0, math.nan):
        with pytest.raises(ParameterError):
            error_threshold_copies(0.75, eps)


def test_the_smallest_epsilon_gives_finite_plans_and_bounds():
    # 2 / eps and 1 / eps overflow to inf below 2 / DBL_MAX; their logs do not
    def no_constants(name):
        raise AssertionError(f"non-finite {name} in the plan")

    tiny, small = 5e-324, 1e-300
    qutrit = spectrum_of(0.5, 0.3, 0.2)
    for make in (lambda eps: qubit_approx_plan(5, 0.75, eps),
                 lambda eps: qudit_approx_plan(5, qutrit, eps)):
        plan = make(tiny)
        assert math.isfinite(plan.bound_qubits)
        assert plan.bound_qubits > make(small).bound_qubits
        json.loads(json.dumps(plan.as_dict()), parse_constant=no_constants)
    radius = total_variation_radius(5, 3, tiny)
    assert math.isfinite(radius) and radius > total_variation_radius(5, 3, small)
    n0 = error_threshold_copies(0.75, tiny)
    assert qubit_error_upper_bound(n0, 0.75, tiny) < tiny
    assert qubit_error_upper_bound(n0 - 1, 0.75, tiny) >= tiny


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


def test_truncation_lower_bound_takes_rows_or_diagrams():
    for n, sp, rows in [(200, spectrum_of(0.75, 0.25), qubit_approx_plan(200, 0.75, 0.1).rows),
                        (20, spectrum_of(0.5, 0.3, 0.2), diagram_rows(20, 3)[::3])]:
        keep = [YoungDiagram(row) for row in rows.tolist()]
        by_rows = truncation_lower_bound(n, sp, rows)
        assert by_rows > 0.0
        assert by_rows == truncation_lower_bound(n, sp, keep)
        assert by_rows == truncation_lower_bound(n, sp, keep[::-1] * 2)
    # a diagram with other than d rows keeps nothing, as does an empty row array
    sp = spectrum_of(0.5, 0.3, 0.2)
    nothing = truncation_lower_bound(4, sp, [])
    assert nothing == pytest.approx(0.5, abs=1e-12)
    assert truncation_lower_bound(4, sp, [YoungDiagram((4,)), YoungDiagram((4, 0))]) == nothing
    assert truncation_lower_bound(4, sp, np.zeros((0, 3), dtype=np.int64)) == nothing
    with pytest.raises(ParameterError):
        truncation_lower_bound(4, sp, np.array([[4, 0], [3, 1], [2, 2]]))  # qubit rows


def test_plans_build_no_young_diagram(monkeypatch):
    def refuse(self):
        raise AssertionError("a plan built a YoungDiagram")

    monkeypatch.setattr(YoungDiagram, "__post_init__", refuse)
    plans = [qudit_approx_plan(100, Spectrum((0.4, 0.3, 0.2, 0.1)), 0.01),
             qudit_approx_plan(30, spectrum_of(0.5, 0.5, 0.0), 0.1), zero_error_plan(60, 4),
             zero_error_plan(21, 3, 2), zero_error_plan(64, 2), qubit_approx_plan(4096, 0.75, 0.01),
             qubit_approx_plan(21, 0.8, 0.05)]
    for plan in plans:
        plan.as_dict()
    monkeypatch.undo()
    for plan in plans:
        assert_plan_rows(plan)


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


def test_greedy_is_first_fit_not_the_heaviest_truncation():
    # the heaviest keep set under a budget is a 0/1 knapsack; first fit by density
    # keeps (6,4) and (5,5) here, while (7,3) and (5,5) fit the same budget
    sp = spectrum_of(0.6, 0.4)
    weights = dict(block_weights(10, sp).items())
    dims = {lam: irrep_dim(lam, 2) for lam in weights}
    greedy = greedy_budget_keep(10, sp, 6.0)
    assert [lam.rows for lam in greedy] == [(6, 4), (5, 5)]
    assert sum(weights[lam] for lam in greedy) == pytest.approx(0.2604, abs=1e-4)
    best_mass, best = best_budget_keep(weights, dims, 6.0)
    assert sorted(lam.rows for lam in best) == [(5, 5), (7, 3)]
    assert best_mass == pytest.approx(0.3835, abs=1e-4)


def test_greedy_matches_the_per_diagram_sort():
    rng = np.random.default_rng(11)
    cases = [((0.75, 0.25), 4096), ((0.5, 0.5), 40), ((1.0, 0.0), 9), ((0.6, 0.4, 0.0), 18),
             ((0.5, 0.5, 0.0, 0.0), 12), ((0.25,) * 4, 10), ((0.4, 0.3, 0.2, 0.1), 30),
             ((0.4, 0.3, 0.2, 0.1), 100), ((0.5, 0.3, 0.2), 200)]  # the benchmark's largest
    cases += [(random_probs(rng, int(rng.integers(2, 6))), int(rng.integers(1, 26)))
              for _ in range(60)]
    for probs, n in cases:
        sp = Spectrum(probs)
        total = int(irrep_dims(diagram_rows(n, sp.d)).sum())
        budgets = [0.0, 1.0, float(n) ** 1.4, math.inf, float(total), total // 2,
                   float(rng.uniform(0, total)), 2.0 ** 53 + 2, 2.0 ** 62 + 2 ** 11]
        for budget, want in zip(budgets, reference_greedy(n, sp, budgets)):
            assert greedy_budget_keep(n, sp, budget) == want, (probs, n, budget)


def _greedy_on(monkeypatch, rows, weights, budgets):
    """greedy_budget_keep and the per-diagram reference on a table of the given rows."""
    table = WeightTable(np.array(rows, dtype=np.int64), np.array(weights))
    monkeypatch.setattr(planner, "weight_table", lambda n, spectrum: table)
    lams = [YoungDiagram(tuple(row)) for row in rows]
    d = len(rows[0])
    want = first_fit(dict(zip(lams, weights)), {lam: irrep_dim(lam, d) for lam in lams}, budgets)
    got = [greedy_budget_keep(0, spectrum_of(*[1.0 / d] * d), budget) for budget in budgets]
    return got, want


def test_greedy_decides_on_exact_dimensions_past_two_to_the_53(monkeypatch):
    # (2^18 + 1)^3, the dimension of (2^19, 2^18, 0), is one more than its float:
    # a budget of float(dim) must not admit that block, and the next float must
    a = 2 ** 18
    rows = [[2 * a, a, 0], [1, 0, 0]]
    dim = (a + 1) ** 3
    assert irrep_dim(YoungDiagram(tuple(rows[0])), 3) == dim and float(dim) == dim - 1
    assert schur_core._weyl_dims(np.array(rows)).dtype == np.int64
    budgets = [float(dim), float(dim) + 4.0, 2.0 ** 62 + 2 ** 11, 2.0]
    got, want = _greedy_on(monkeypatch, rows, [1.0, 1e-20], budgets)
    big, small = (YoungDiagram(tuple(row)) for row in rows)
    assert want == [[small], [big, small], [big, small], [big]]
    assert got == want


def test_greedy_falls_back_to_exact_ints_past_int64(monkeypatch):
    # a dimension past 2^63: the Weyl bound selects Python ints
    rows = [[250, 150, 100, 60, 30, 10], [101, 100, 100, 100, 100, 99],
            [100, 100, 100, 100, 100, 100]]
    dim = int(irrep_dims(np.array(rows))[0])
    assert schur_core._weyl_dims(np.array(rows)).dtype == object and dim > 2 ** 63
    below = math.nextafter(float(dim), 0.0)
    budgets = [float(dim), below, 2.0 ** 63, 2.0 ** 90, math.inf, 36.0, 0.5]
    got, want = _greedy_on(monkeypatch, rows, [1.0, 1e-30, 1e-30], budgets)
    big = YoungDiagram(tuple(rows[0]))
    assert float(dim) > dim and below < dim  # the float above admits it, the one below not
    assert [big in keep for keep in want] == [True, False, False, True, True, False, True]
    assert len(want[5]) == 2  # 35 + 1 fills a budget of 36 exactly
    assert got == want


def test_greedy_rejects_a_nan_budget():
    with pytest.raises(ParameterError):
        greedy_budget_keep(10, spectrum_of(0.75, 0.25), math.nan)


def test_planning_over_the_diagram_cap_raises(monkeypatch):
    monkeypatch.setattr(schur_core, "DIAGRAM_ENTRY_CAP", 100)
    sp = spectrum_of(0.5, 0.3, 0.2)
    greedy_budget_keep(12, sp, 50.0)  # 19 diagrams of 3 rows
    for call in (lambda: greedy_budget_keep(20, sp, 50.0),
                 lambda: spectrum_tail_mass(20, sp, 0.1),
                 lambda: qudit_approx_plan(20, sp, 0.1),
                 lambda: zero_error_plan(20, 3)):
        with pytest.raises(ResourceLimitError):
            call()


def test_spectrum_tail_mass_matches_the_per_diagram_sum():
    rng = np.random.default_rng(5)
    for _ in range(30):
        sp = Spectrum(random_probs(rng, int(rng.integers(2, 5))))
        n = int(rng.integers(1, 30))
        x = float(rng.uniform(0.0, 0.5))
        want = math.fsum(w for lam, w in block_weights(n, sp).items()
                         if row_distance(lam, sp) > x)
        assert spectrum_tail_mass(n, sp, x) == pytest.approx(want, rel=1e-12, abs=1e-15)


def test_truncation_lower_bound_ignores_diagrams_outside_the_table():
    sp = spectrum_of(0.5, 0.3, 0.2)
    keep = [YoungDiagram((6, 0, 0)), YoungDiagram((5, 1, 0))]
    want = 0.5 * math.fsum(w for lam, w in block_weights(6, sp).items() if lam not in keep)
    assert truncation_lower_bound(6, sp, keep) == pytest.approx(want, rel=1e-12)
    other = keep + [YoungDiagram((4, 2)), YoungDiagram((7, 0, 0)), YoungDiagram((2, 2, 1, 1))]
    assert truncation_lower_bound(6, sp, other) == truncation_lower_bound(6, sp, keep)


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
    assert spectrum_estimate(19, 5) == 0.625
    for n in (10, 33):
        assert 0.5 < spectrum_estimate(n, n) < 1.0


@pytest.mark.parametrize("two_j", [4, -1, 21])
def test_spectrum_estimate_rejects_labels_that_cannot_occur(two_j):
    # N = 19 qubits have odd 2j only; 2j = 4 used to give 0.6
    with pytest.raises(ParameterError, match=f"invalid spin label 2j={two_j} for N=19"):
        spectrum_estimate(19, two_j)


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
