import itertools
import math
import time
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, strategies as st

from schurcompress import schur_core
from schurcompress.errors import ParameterError, ResourceLimitError
from schurcompress.schur_core import (
    Spectrum,
    YoungDiagram,
    diagram_array,
    diagram_rows,
    enumerate_diagrams,
    irrep_dim,
    irrep_dims,
    keep_mask,
    log_multiplicities,
    log_schur_polynomials,
    multiplicity_dim,
    multiplicity_dims,
    spectrum_of,
    young_diagrams,
)

from reference import (
    LOG_IDENTITY_TOL,
    cauchy_identity_residual,
    diagram_rows_by_columns,
    gelfand_tsetlin_contents,
    log_schur_planes,
    qubit_multiplicity,
    schur_polynomial_brute,
    schur_polynomials,
    semistandard_tableaux,
    tableau_content,
)


# ---------------------------------------------------------------------------
# Independent oracles
# ---------------------------------------------------------------------------

def count_partitions(n: int, max_parts: int) -> int:
    """Partitions of n into at most max_parts parts, by the standard recurrence."""
    if n == 0:
        return 1
    if max_parts == 0:
        return 0
    # partitions into <= k parts == partitions into parts of size <= k
    table = [1] + [0] * n
    for part in range(1, max_parts + 1):
        for total in range(part, n + 1):
            table[total] += table[total - part]
    return table[n]


def count_standard_tableaux(shape: tuple[int, ...]) -> int:
    """Brute-force SYT count by backtracking over placements of 1..N."""
    shape = tuple(r for r in shape if r > 0)
    if not shape:
        return 1
    heights = [0] * shape[0]

    def place(remaining: int, row_fill: list[int]) -> int:
        if remaining == 0:
            return 1
        total = 0
        for i, length in enumerate(shape):
            if row_fill[i] < length and (i == 0 or row_fill[i - 1] > row_fill[i]):
                row_fill[i] += 1
                total += place(remaining - 1, row_fill)
                row_fill[i] -= 1
        return total

    return place(sum(shape), [0] * len(shape))


def brute_partitions(n: int, d: int) -> list[tuple[int, ...]]:
    """Every partition of n into at most d parts, padded to d, lexicographically
    decreasing: all multisets of d row lengths in 0..n, kept when they sum to n."""
    return sorted((tuple(sorted(rows, reverse=True))
                   for rows in itertools.combinations_with_replacement(range(n + 1), d)
                   if sum(rows) == n), reverse=True)


def hook_content_dim(rows: tuple[int, ...], d: int) -> int:
    """GL(d) irrep dimension by the hook-content formula, prod (d + c) / hook."""
    rows = [r for r in rows if r > 0]
    cols = [sum(1 for r in rows if r > j) for j in range(rows[0])] if rows else []
    num, den = 1, 1
    for i, r in enumerate(rows):
        for j in range(r):
            num *= d + j - i
            den *= (r - j - 1) + (cols[j] - i - 1) + 1
    assert num % den == 0
    return num // den


def random_spectrum(rng: np.random.Generator, d: int) -> Spectrum:
    vals = np.sort(rng.random(d) + 0.05)[::-1]
    vals /= vals.sum()
    return Spectrum(tuple(float(v) for v in vals))


# ---------------------------------------------------------------------------
# Diagrams
# ---------------------------------------------------------------------------

def test_enumerate_small_cases():
    assert [lam.rows for lam in enumerate_diagrams(2, 2, 2)] == [(2, 0), (1, 1)]
    assert [lam.rows for lam in enumerate_diagrams(3, 3, 3)] == [(3, 0, 0), (2, 1, 0), (1, 1, 1)]
    assert len(enumerate_diagrams(20, 2, 2)) == 11  # j = 0..10


def test_enumerate_rejects_bad_row_count():
    with pytest.raises(ParameterError):
        enumerate_diagrams(4, 2, 3)
    with pytest.raises(ParameterError):
        enumerate_diagrams(4, 2, 0)


@pytest.mark.parametrize("d", [0, -2])
def test_diagram_rows_report_a_row_count_below_one_as_d(d):
    # r defaults to d, and the r check named an r the caller never gave
    with pytest.raises(ParameterError, match=rf"^need d >= 1, got d={d}$"):
        diagram_rows(4, d)


def test_enumerate_order_is_lex_decreasing():
    for n, d in [(6, 3), (8, 4), (5, 2)]:
        rows = [lam.rows for lam in enumerate_diagrams(n, d)]
        assert rows == sorted(rows, reverse=True)


@given(n=st.integers(0, 24), r=st.integers(1, 4))
def test_enumerate_count_matches_partition_recurrence(n, r):
    assert len(enumerate_diagrams(n, 4, r)) == count_partitions(n, r)


def test_diagram_rows_match_brute_force_partitions():
    for n in range(13):
        for d in range(1, 6):
            every = brute_partitions(n, d)
            for r in range(1, d + 1):
                rows = diagram_rows(n, d, r)
                assert rows.dtype == np.int64 and rows.shape == (len(rows), d)
                assert not rows.flags.writeable
                want = [p for p in every if sum(1 for x in p if x) <= r]
                assert [tuple(row) for row in rows.tolist()] == want, (n, d, r)
                assert [lam.rows for lam in enumerate_diagrams(n, d, r)] == want


def test_diagram_rows_cap_raises_before_building(monkeypatch):
    monkeypatch.setattr(schur_core, "DIAGRAM_ENTRY_CAP", 19 * 3)
    assert len(diagram_rows(12, 3)) == 19  # partitions of 12 into at most 3 parts
    monkeypatch.setattr(schur_core, "DIAGRAM_ENTRY_CAP", 19 * 3 - 1)
    assert len(diagram_rows(12, 2)) == 7
    with pytest.raises(ResourceLimitError):
        diagram_rows(12, 3)
    with pytest.raises(ResourceLimitError):
        enumerate_diagrams(5, 10 ** 9)  # the padding alone is over the cap


def test_diagram_rows_match_partitions_by_conjugation():
    # a partition into at most 6 parts is the conjugate of one into parts of
    # size at most 6: its rows are the tail sums of the multiplicities c_1..c_6
    # of the parts 1..6, and c_1 = n - (2 c_2 + .. + 6 c_6) is fixed by the rest
    top, sizes = 60, np.arange(2, 7)
    boxes = sum(np.ix_(*(size * np.arange(top // size + 1) for size in sizes)))
    mults = np.column_stack(np.nonzero(boxes <= top))  # c_2..c_6
    for n in range(top + 1):
        mult = mults[mults @ sizes <= n]
        every = np.cumsum(np.column_stack([n - mult @ sizes, mult])[:, ::-1], axis=1)[:, ::-1]
        every = every[np.lexsort(every.T[::-1])[::-1]]  # lexicographically decreasing
        for d in range(1, 7):
            for r in range(1, d + 1):
                rows = diagram_rows(n, d, r)
                assert rows.dtype == np.int64 and not rows.flags.writeable
                assert np.array_equal(rows, every[~every[:, r:].any(axis=1), :d]), (n, d, r)


@pytest.mark.parametrize("n, d", [(16384, 2), (2000, 3), (300, 4), (100, 5)])
def test_diagram_rows_match_the_column_route_at_scale(n, d):
    for r in {2, d}:
        rows = diagram_rows(n, d, r)
        assert rows.dtype == np.int64 and not rows.flags.writeable and rows.flags.c_contiguous
        assert np.array_equal(rows, diagram_rows_by_columns(n, d, r)), (n, d, r)


def test_diagram_rows_share_one_table_per_cap(monkeypatch):
    rows = diagram_rows(12, 3)
    assert diagram_rows(12, 3) is rows and diagram_rows(12, 3, 3) is rows
    monkeypatch.setattr(schur_core, "DIAGRAM_ENTRY_CAP", 19 * 3 - 1)
    with pytest.raises(ResourceLimitError):  # the cached table was built under another cap
        diagram_rows(12, 3)
    monkeypatch.setattr(schur_core, "DIAGRAM_ENTRY_CAP", 100)
    assert len(diagram_rows(98, 2)) == 50  # 100 entries
    with pytest.raises(ResourceLimitError, match="needs at least 102$"):
        diagram_rows(100, 2)


@pytest.mark.parametrize("n", [0, 2])
def test_diagram_rows_refuse_a_huge_padding_before_allocating(n):
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError, match=f"needs at least {(n // 2 + 1) * 10 ** 9}$"):
            diagram_rows(n, 10 ** 9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_two_row_weyl_dims_match_irrep_dim():
    for n in range(301):
        rows = diagram_rows(n, 2)
        dims = schur_core._weyl_dims(rows)
        assert dims.dtype == np.int64
        assert dims.tolist() == [irrep_dim(YoungDiagram(row), 2) for row in rows.tolist()]


def test_young_diagram_validation():
    with pytest.raises(ParameterError):
        YoungDiagram((1, 2))
    with pytest.raises(ParameterError):
        YoungDiagram((2, -1))
    lam = YoungDiagram((3, 1))
    assert lam.boxes == 4 and lam.two_j == 2
    assert YoungDiagram.from_two_j(4, 2) == lam


def test_young_diagrams_match_constructed_diagrams():
    for n, d in [(0, 3), (7, 2), (9, 4), (6, 6)]:
        rows = diagram_rows(n, d)
        built = [YoungDiagram(row) for row in rows.tolist()]
        bulk = young_diagrams(rows)
        assert bulk == built and enumerate_diagrams(n, d) == built
        assert [hash(lam) for lam in bulk] == [hash(lam) for lam in built]
        assert all(type(lam.rows) is tuple and type(lam.rows[0]) is int for lam in bulk)
        order = np.random.default_rng(n).permutation(len(built)).tolist()
        assert sorted(bulk[i] for i in order) == sorted(built[i] for i in order)
        assert dict.fromkeys(bulk).keys() == dict.fromkeys(built).keys()
    assert young_diagrams(np.zeros((0, 3), dtype=np.int64)) == []


@pytest.mark.parametrize("bad", [[[3, 1], [1, 2], [2, -1]], [[3, 1], [2, -1], [1, 2]]])
def test_young_diagrams_reject_the_first_bad_row_as_the_constructor_does(bad):
    with pytest.raises(ParameterError) as want:
        for row in bad:
            YoungDiagram(tuple(row))
    with pytest.raises(ParameterError) as got:
        young_diagrams(np.array(bad))
    assert str(got.value) == str(want.value)


def test_spectrum_validation_and_degeneracy():
    with pytest.raises(ParameterError):
        Spectrum((0.4, 0.6))
    with pytest.raises(ParameterError):
        Spectrum((0.7, 0.2))
    assert Spectrum((0.6, 0.4, 0.0)).rank == 2
    assert Spectrum((0.5, 0.3, 0.2)).degeneracy_m == 0
    assert Spectrum((0.5, 0.25, 0.25)).degeneracy_m == 1
    assert Spectrum((0.25, 0.25, 0.25, 0.25)).degeneracy_m == 6


def test_spectrum_of_is_the_one_spectrum_rule():
    # the CLI's --spectrum ends here: sum in the given order, 1e-9, renormalise, sort
    vals = (0.2, 0.3, 0.5 + 5e-10)
    total = sum(vals)
    assert spectrum_of(*vals).probs == (vals[2] / total, vals[1] / total, vals[0] / total)
    with pytest.raises(ParameterError, match=r"^spectrum sums to 0\.75, not 1 \(within 1e-9\)$"):
        spectrum_of(0.5, 0.25)


@pytest.mark.parametrize("probs", [(0.5, 0.3, math.nan), (math.nan, 0.5), (math.inf, 0.0)])
def test_spectrum_rejects_non_finite(probs):
    with pytest.raises(ParameterError):
        Spectrum(probs)


# ---------------------------------------------------------------------------
# Dimensions
# ---------------------------------------------------------------------------

def test_irrep_dim_examples():
    assert irrep_dim(YoungDiagram((7, 0)), 2) == 8  # symmetric subspace N+1
    assert irrep_dim(YoungDiagram((2, 1, 0)), 3) == 8
    assert irrep_dim(YoungDiagram((1, 1)), 2) == 1


def test_irrep_dim_counts_semistandard_tableaux():
    for d in (2, 3, 4):
        for n in range(0, 9):
            for lam in enumerate_diagrams(n, d):
                assert irrep_dim(lam, d) == sum(1 for _ in semistandard_tableaux(lam, d))


def test_irrep_dims_match_hook_content_and_tableau_count():
    for d in (1, 2, 3, 4, 5):
        for n in range(9):
            rows = diagram_rows(n, d)
            dims = irrep_dims(rows)
            assert dims.dtype == object
            for row, dim in zip(rows.tolist(), dims):
                lam = YoungDiagram(row)
                assert type(dim) is int and dim == hook_content_dim(lam.rows, d)
                assert dim == irrep_dim(lam, d)
                if d <= 4:
                    assert dim == len(gelfand_tsetlin_contents(lam, d))


def test_irrep_dims_are_exact_beyond_int64():
    rows = np.array([[250, 150, 100, 60, 30, 10], [600, 0, 0, 0, 0, 0],
                     [100, 100, 100, 100, 100, 100], [101, 100, 100, 100, 100, 99]])
    dims = irrep_dims(rows)
    assert dims.tolist() == [hook_content_dim(tuple(row), 6) for row in rows.tolist()]
    assert dims[0] > 2 ** 63 and dims[2] == 1 and dims[3] == 35
    assert irrep_dim(YoungDiagram((250, 150, 100, 60, 30, 10)), 6) == dims[0]


def test_dims_at_wide_d_match_the_hook_formulas():
    # rows past the most nonzero rows of a table are 0 in every diagram; their
    # Weyl pairs are divided out exactly, so padding to d = 600 must change nothing
    for d in (6, 40, 300, 600):
        for n in range(6):
            rows = diagram_rows(n, d)
            dims = irrep_dims(rows)
            for row, dim in zip(rows.tolist(), dims):
                lam = YoungDiagram(row)
                assert type(dim) is int and dim == hook_content_dim(lam.rows, d), (d, lam)
                assert multiplicity_dim(lam) == count_standard_tableaux(lam.rows), (d, lam)
            assert sum(dims * multiplicity_dims(rows)) == d ** n
    mixed = np.zeros((3, 600), dtype=np.int64)
    mixed[0, :1], mixed[1, :3], mixed[2, :5] = 7, (4, 2, 1), (3, 1, 1, 1, 1)
    assert irrep_dims(mixed).tolist() == [hook_content_dim(tuple(row), 600)
                                          for row in mixed.tolist()]


def test_diagram_array_pads_and_rejects_extra_rows():
    lams = [YoungDiagram((3, 1)), YoungDiagram((2, 1, 1, 0))]
    assert diagram_array(lams, 3).tolist() == [[3, 1, 0], [2, 1, 1]]
    assert diagram_array([], 2).shape == (0, 2)
    with pytest.raises(ParameterError):
        diagram_array(lams, 2)


def test_scalar_dims_match_the_array_dims():
    for d in (1, 2, 3, 4, 5):
        for n in range(13):
            rows = diagram_rows(n, d)
            for row, dim, mult in zip(rows.tolist(), irrep_dims(rows), multiplicity_dims(rows)):
                lam = YoungDiagram(tuple(row))
                assert type(multiplicity_dim(lam)) is int and multiplicity_dim(lam) == mult, lam
                assert type(irrep_dim(lam, d)) is int and irrep_dim(lam, d) == dim, lam
                assert multiplicity_dim(YoungDiagram(tuple(row) + (0, 0))) == mult


def _reference_mask(keep, rows):
    wanted = {tuple(row) for row in np.asarray(keep).tolist()}
    return np.array([tuple(row) in wanted for row in rows.tolist()], dtype=bool)


def test_keep_mask_finds_the_rows_a_keep_set_names():
    rng = np.random.default_rng(8)
    rows = diagram_rows(12, 3)
    # in base 14, [5, 18, 2] and [7, -10, 2] read as the number of [6, 4, 2] unclipped
    outside = [[6, 4, 1], [6, 4, 3], [13, 0, 0], [12, 1, 0], [0, 0, 12], [-1, 13, 0],
               [14, -1, -1], [2 ** 40, 0, 0], [-2 ** 40, 2 ** 41, 0], [7, 6, 0], [5, 18, 2],
               [7, -10, 2]]
    for keep in ([], rows[:0], rows, rows[::3], rows[::-2], np.array(outside),
                 np.vstack([outside, rows[5:9], rows[5:6]])):
        keep = np.asarray(keep, dtype=np.int64).reshape(-1, 3)
        want = _reference_mask(keep, rows)
        assert keep_mask(keep, rows).tolist() == want.tolist()
        assert keep_mask(young_diagrams(keep[(keep >= 0).all(axis=1)
                                             & (np.diff(keep, axis=1) <= 0).all(axis=1)]),
                         rows).tolist() == want.tolist()
    for _ in range(20):  # a table may be any rows of diagram_rows, in its order
        table = rows[rng.random(len(rows)) < 0.5]
        keep = rows[rng.random(len(rows)) < 0.3]
        assert keep_mask(keep, table).tolist() == _reference_mask(keep, table).tolist()
    huge = [YoungDiagram((10 ** 20, 0, 0)), YoungDiagram((12,)), YoungDiagram((4, 4, 4, 0)),
            YoungDiagram((4, 4, 4))]
    assert np.flatnonzero(keep_mask(huge, rows)).tolist() == [len(rows) - 1]
    assert not keep_mask(huge, rows[:0]).size and not keep_mask([], rows).any()
    for bad in (np.zeros((2, 2), dtype=np.int64), np.zeros(3, dtype=np.int64),
                np.zeros((1, 4), dtype=np.int64)):
        with pytest.raises(ParameterError):
            keep_mask(bad, rows)


def test_keep_mask_reads_wide_rows_as_exact_ints():
    # 22^20 passes 2^63, so the place values of diagram_rows(20, 20) are Python ints
    for rows, wide in ((diagram_rows(20, 20), True), (diagram_rows(30, 4), False)):
        top, d = int(rows[0, 0]), rows.shape[1]
        assert schur_core._place_values(top + 2, d).dtype == (object if wide else np.int64)
        keep = np.vstack([rows[::7], rows[3:4] + 1, np.full((1, d), top + 1)])
        assert keep_mask(keep, rows).tolist() == _reference_mask(keep, rows).tolist()
        assert keep_mask(young_diagrams(rows[::7]), rows).tolist() == \
            _reference_mask(rows[::7], rows).tolist()


def test_multiplicity_examples():
    assert multiplicity_dim(YoungDiagram((2, 1, 0))) == 2
    assert multiplicity_dim(YoungDiagram((9, 0))) == 1
    n4 = {lam.two_j: multiplicity_dim(lam) for lam in enumerate_diagrams(4, 2)}
    assert n4 == {4: 1, 2: 3, 0: 2}
    assert sum((two_j + 1) * m for two_j, m in n4.items()) == 16


def test_multiplicity_counts_standard_tableaux():
    for d in (2, 3, 4, 6):
        for n in range(0, 9):
            rows = diagram_rows(n, d)
            want = [count_standard_tableaux(tuple(row)) for row in rows.tolist()]
            mults = multiplicity_dims(rows)
            assert mults.tolist() == want, (d, n)
            assert all(type(m) is int for m in mults)
            assert [multiplicity_dim(YoungDiagram(row)) for row in rows.tolist()] == want
    # rows of different sizes in one array, and an empty one
    mixed = np.array([[5, 2, 1, 0], [1, 1, 1, 1], [0, 0, 0, 0], [7, 0, 0, 0], [3, 3, 0, 0]])
    assert multiplicity_dims(mixed).tolist() == [count_standard_tableaux(tuple(row))
                                                 for row in mixed.tolist()]
    assert multiplicity_dims(np.zeros((0, 3), dtype=np.int64)).shape == (0,)


def test_multiplicity_dims_of_one_long_row_is_immediate():
    # every k! up to N used to be built as a big integer, which ran out of memory here
    start = time.perf_counter()
    assert multiplicity_dims(np.array([[2_000_000]])).tolist() == [1]
    assert time.perf_counter() - start < 0.5


def test_multiplicity_dims_match_the_binomial_difference_at_large_n():
    rows = diagram_rows(301, 2)
    want = [qubit_multiplicity(301, a - b) for a, b in rows.tolist()]
    assert multiplicity_dims(rows).tolist() == want


def test_qubit_multiplicity_binomial_difference():
    for n in range(1, 30):
        for two_j in range(n % 2, n + 1, 2):
            lam = YoungDiagram.from_two_j(n, two_j)
            assert qubit_multiplicity(n, two_j) == multiplicity_dim(lam)
            k = (n - two_j) // 2
            expected = math.comb(n, k) - (math.comb(n, k - 1) if k else 0)
            assert qubit_multiplicity(n, two_j) == expected


def test_completeness_small():
    for d in (2, 3, 4):
        for n in range(0, 12):
            total = sum(irrep_dim(lam, d) * multiplicity_dim(lam)
                        for lam in enumerate_diagrams(n, d))
            assert total == d ** n


# ---------------------------------------------------------------------------
# Schur polynomials
# ---------------------------------------------------------------------------

def test_schur_polynomial_frozen_value():
    # brute sum over the 8 SSYT of shape (2,1) with entries <= 3
    lam = YoungDiagram((2, 1, 0))
    sp = spectrum_of(0.5, 0.3, 0.2)
    assert schur_polynomial_brute(lam, sp) == pytest.approx(0.28, abs=1e-15)
    assert schur_polynomials(3, sp)[lam] == pytest.approx(0.28, abs=1e-12)


def test_schur_uniform_spectrum_gives_dimension():
    # s_lambda(1,...,1) = d_lambda, stated homogeneously at the uniform spectrum
    for d in (2, 3, 4):
        uniform = Spectrum((1.0 / d,) * d)
        for n in range(1, 7):
            for lam, s_val in schur_polynomials(n, uniform).items():
                val = s_val * d ** n
                assert val == pytest.approx(irrep_dim(lam, d), rel=1e-11)


def test_log_schur_uniform_spectrum_gives_dimension_at_scale():
    # every ratio x_k / x_i is exactly 1, so no branching weight decays
    rows = diagram_rows(100, 4)
    logs = log_schur_polynomials(rows, Spectrum((0.25,) * 4))
    expected = np.log(irrep_dims(rows).astype(float)) - 100 * math.log(4)
    np.testing.assert_allclose(logs, expected, rtol=0, atol=1e-12)


def test_schur_symmetric_row_geometric_sum():
    for n in (3, 8, 15):
        for p in (0.6, 0.75, 0.97):
            lam = YoungDiagram((n, 0))
            expected = (p ** (n + 1) - (1 - p) ** (n + 1)) / (2 * p - 1)
            assert schur_polynomials(n, spectrum_of(p, 1 - p))[lam] == pytest.approx(
                expected, rel=1e-12)


def test_schur_polynomial_matches_tableau_sum():
    rng = np.random.default_rng(7)
    for d in (2, 3, 4):
        for n in range(1, 9):
            sp = random_spectrum(rng, d)
            for lam, s_val in schur_polynomials(n, sp).items():
                assert s_val == pytest.approx(schur_polynomial_brute(lam, sp), abs=1e-12)


def test_schur_zero_beyond_rank():
    sp = Spectrum((0.7, 0.3, 0.0))
    assert schur_polynomials(3, sp)[YoungDiagram((1, 1, 1))] == 0.0


def test_schur_normalization_random_spectra():
    rng = np.random.default_rng(11)
    for d in (2, 3, 4):
        for n in (5, 10, 17):
            sp = random_spectrum(rng, d)
            total = sum(s_val * multiplicity_dim(lam)
                        for lam, s_val in schur_polynomials(n, sp).items())
            assert total == pytest.approx(1.0, abs=1e-10)


def test_log_schur_polynomials_follow_enumerate_diagrams_within_the_rank():
    # entry i belongs to enumerate_diagrams(n, d, rank)[i], zero eigenvalues included
    rng = np.random.default_rng(3)
    for probs in [(1.0,), (1.0, 0.0), (0.5, 0.5), (0.6, 0.4, 0.0), (0.4, 0.4, 0.2),
                  (0.6, 0.2, 0.2), (0.25,) * 4, (0.5, 0.2, 0.2, 0.1, 0.0),
                  random_spectrum(rng, 3).probs, random_spectrum(rng, 4).probs]:
        sp = Spectrum(probs)
        for n in range(8):
            diagrams = enumerate_diagrams(n, sp.d, sp.rank)
            logs = log_schur_polynomials(diagram_rows(n, sp.rank), sp)
            assert logs.shape == (len(diagrams),), (probs, n)
            for lam, value in zip(diagrams, logs):
                assert math.exp(value) == pytest.approx(
                    schur_polynomial_brute(lam, sp), rel=1e-13), (probs, lam)


@pytest.mark.parametrize("probs, n", [
    ((0.5, 0.3, 0.2), 400),
    ((0.4, 0.3, 0.2, 0.1), 100),
    ((0.5, 0.3, 0.2 - 1e-9, 1e-9), 100),
])
def test_log_schur_polynomials_satisfy_the_cauchy_identity(probs, n):
    residual = cauchy_identity_residual(n, Spectrum(probs))
    assert abs(residual) <= LOG_IDENTITY_TOL, (probs, n, residual)


@pytest.mark.parametrize("d, n, q", [(3, 100, 0.5), (3, 200, 0.9), (4, 100, 0.999), (5, 40, 0.7)])
def test_log_schur_polynomials_match_the_principal_specialisation(d, n, q):
    # s_lambda(1, q, .., q^(d-1))
    #   = q^n(lambda) prod_{i<j} (1 - q^(l_i - l_j + j - i)) / (1 - q^(j - i)),
    # n(lambda) = sum_i i l_i (Macdonald I.3 ex. 1); p is that point over its sum Z
    weights = q ** np.arange(d)
    sp = Spectrum(tuple((weights / weights.sum()).tolist()))
    rows = diagram_rows(n, d)
    log_q = math.log(q)
    want = rows @ np.arange(d) * log_q - n * math.log(weights.sum())
    for i in range(d):
        for j in range(i + 1, d):
            want += (np.log(-np.expm1((rows[:, i] - rows[:, j] + j - i) * log_q))
                     - math.log(-math.expm1((j - i) * log_q)))
    got = log_schur_polynomials(rows, sp)
    assert np.abs(got - want).max() <= LOG_IDENTITY_TOL, (d, n, q, np.abs(got - want).max())


def test_log_schur_polynomials_table_cap_raises_before_allocating(monkeypatch):
    rank5 = Spectrum((0.3, 0.2, 0.2, 0.2, 0.1))
    with pytest.raises(ResourceLimitError):
        # one row of 400 boxes: the table would be 401 x 201 x 134 x 101 floats
        log_schur_polynomials(np.array([[400, 0, 0, 0, 0]]), rank5)
    monkeypatch.setattr(schur_core, "SCHUR_TABLE_CAP", 11 * 6 * 4 - 1)
    log_schur_polynomials(diagram_rows(10, 3), Spectrum((0.5, 0.3, 0.2)))  # 11 x 6 table
    with pytest.raises(ResourceLimitError):
        log_schur_polynomials(diagram_rows(10, 4), Spectrum((0.4, 0.3, 0.2, 0.1)))  # 11 x 6 x 4


def test_log_schur_polynomials_read_any_rows_of_the_table():
    for probs, n in [((1.0,), 5), ((0.7, 0.3), 9), ((0.5, 0.3, 0.2), 12), ((0.4, 0.3, 0.2, 0.1), 9),
                     ((0.5, 0.5), 0)]:
        sp = Spectrum(probs)
        rows = diagram_rows(n, sp.rank)
        whole = log_schur_polynomials(rows, sp)
        pick = np.arange(len(rows))[::-2]
        assert log_schur_polynomials(rows[pick], sp).tolist() == whole[pick].tolist()
    for rows in (diagram_rows(6, 3), np.arange(6)):
        with pytest.raises(ParameterError):
            log_schur_polynomials(rows, Spectrum((0.5, 0.5, 0.0)))


def _rank_spectra(r: int) -> list[Spectrum]:
    # per rank r: a zero after r positive entries (the rank-r analogue of
    # (0.6, 0.4, 0)), ties (0.5, 0.25, 0.25), skewed (0.98, 0.01, 0.01), uniform
    return [spectrum_of(*(np.arange(r, 0, -1) / (r * (r + 1) / 2)).tolist(), 0.0),
            spectrum_of(0.5, *(0.5 / (r - 1),) * (r - 1)),
            spectrum_of(0.98, *(0.02 / (r - 1),) * (r - 1)),
            Spectrum((1.0 / r,) * r)]


# the difference-coordinate engine against the plane route it replaced: 1e-13 in
# log, plus one unit in the last place, which is 1.1e-13 alone past |log s| = 512
ENGINE_REFERENCE_TOL = 1e-13


def _assert_engine_matches_planes(n: int, sp: Spectrum):
    got, want = log_schur_polynomials(diagram_rows(n, sp.rank), sp), log_schur_planes(n, sp)
    assert got.shape == want.shape == (len(diagram_rows(n, sp.rank)),), (sp, n)
    excess = np.abs(got - want) - np.spacing(np.abs(want))
    assert excess.max() <= ENGINE_REFERENCE_TOL, (sp, n, excess.max())


@pytest.mark.parametrize("r", [3, 4, 5, 6])
def test_log_schur_polynomials_match_the_plane_route(r):
    for sp in _rank_spectra(r):
        for n in (0, 1, 2, 3, 7, 30):
            _assert_engine_matches_planes(n, sp)


@pytest.mark.parametrize("r, n", [(3, 200), (4, 100)])
def test_log_schur_polynomials_match_the_plane_route_at_scale(r, n):
    for sp in _rank_spectra(r):
        _assert_engine_matches_planes(n, sp)


def test_log_schur_polynomials_peak_memory_is_its_table():
    # the level-4 table at N = 100 is 101 x 51 x 34 floats (1.40 MB); a square
    # temporary of (N + 1)^2 x (N/3 + 1) floats is 2.77 MB on its own, and with
    # the table or the diagram rows beside it the peak passes twice the table
    sp = Spectrum((0.4, 0.3, 0.2, 0.1))
    log_schur_polynomials(diagram_rows(100, 4), sp)
    tracemalloc.start()
    try:
        log_schur_polynomials(diagram_rows(100, 4), sp)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 101 * 51 * 34 * 8, peak


def test_log_multiplicity_matches_exact_count():
    for d in (2, 3, 4):
        for n in range(13):
            for lam in enumerate_diagrams(n, d):
                assert log_multiplicities(diagram_array([lam], d))[0] == pytest.approx(
                    math.log(multiplicity_dim(lam)), abs=1e-12)
    assert log_multiplicities(np.array([[40, 0, 0]]))[0] == 0.0


def test_log_multiplicities_match_exact_counts():
    for n, d in [(0, 3), (1, 2), (40, 2), (401, 2), (30, 3), (60, 3), (24, 4), (14, 5)]:
        rows = diagram_rows(n, d)
        logs = log_multiplicities(rows)
        for row, value in zip(rows.tolist(), logs.tolist()):
            lam = YoungDiagram(row)
            want = math.log(multiplicity_dim(lam))
            assert value == pytest.approx(want, rel=1e-12, abs=1e-14), (n, row)
            assert value == log_multiplicities(np.array([row]))[0]  # one row alone: the same value
    single = np.array([[40, 0, 0], [7, 0, 0], [0, 0, 0]])
    assert log_multiplicities(single).tolist() == [0.0, 0.0, 0.0]
    assert log_multiplicities(np.array([[12]])).tolist() == [0.0]


def test_gelfand_tsetlin_contents_match_tableau_contents():
    for d in (2, 3, 4):
        for n in range(9):
            for lam in enumerate_diagrams(n, d):
                contents = gelfand_tsetlin_contents(lam, d)
                assert contents.shape == (irrep_dim(lam, d), d)
                want = Counter(tableau_content(t, d) for t in semistandard_tableaux(lam, d))
                assert Counter(map(tuple, contents.tolist())) == want, (lam, d)


def test_gelfand_tsetlin_two_rows_is_ascending_m():
    contents = gelfand_tsetlin_contents(YoungDiagram((5, 2)), 2)
    assert contents.tolist() == [[c, 7 - c] for c in range(2, 6)]


def test_gelfand_tsetlin_monomials_sum_to_schur_polynomial():
    rng = np.random.default_rng(5)
    for d in (2, 3, 4):
        for n in (3, 6, 8):
            sp = random_spectrum(rng, d)
            for lam in enumerate_diagrams(n, d):
                logs = gelfand_tsetlin_contents(lam, d) @ np.log(sp.probs)
                assert np.exp(logs).sum() == pytest.approx(
                    schur_polynomial_brute(lam, sp), rel=1e-12)


def test_tableau_order_is_deterministic():
    lam = YoungDiagram((2, 1))
    first = [tableau_content(t, 3) for t in semistandard_tableaux(lam, 3)]
    second = [tableau_content(t, 3) for t in semistandard_tableaux(lam, 3)]
    assert first == second
    assert len(first) == 8


# ---------------------------------------------------------------------------
# Clebsch-Gordan: the oracle's j x 1/2 coefficients are checked against the
# exact-rational reference in test_oracle.py
# ---------------------------------------------------------------------------
