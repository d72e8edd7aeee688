import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from schurcompress.errors import ParameterError
from schurcompress.schur_core import (
    Spectrum,
    WignerRotation,
    YoungDiagram,
    clebsch_gordan,
    clebsch_gordan_signed_square,
    enumerate_diagrams,
    gelfand_tsetlin_contents,
    irrep_dim,
    log_multiplicity,
    log_schur_polynomials,
    multiplicity_dim,
    qubit_multiplicity,
    schur_polynomial,
    schur_polynomial_brute,
    semistandard_tableaux,
    spectrum_of,
    tableau_content,
    wigner_d_matrix,
    wigner_small_d,
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


def test_enumerate_order_is_lex_decreasing():
    for n, d in [(6, 3), (8, 4), (5, 2)]:
        rows = [lam.rows for lam in enumerate_diagrams(n, d)]
        assert rows == sorted(rows, reverse=True)


@given(n=st.integers(0, 24), r=st.integers(1, 4))
def test_enumerate_count_matches_partition_recurrence(n, r):
    assert len(enumerate_diagrams(n, 4, r)) == count_partitions(n, r)


def test_young_diagram_validation():
    with pytest.raises(ParameterError):
        YoungDiagram((1, 2))
    with pytest.raises(ParameterError):
        YoungDiagram((2, -1))
    lam = YoungDiagram((3, 1))
    assert lam.boxes == 4 and lam.two_j == 2
    assert YoungDiagram.from_two_j(4, 2) == lam


def test_spectrum_validation_and_degeneracy():
    with pytest.raises(ParameterError):
        Spectrum((0.4, 0.6))
    with pytest.raises(ParameterError):
        Spectrum((0.7, 0.2))
    assert Spectrum((0.6, 0.4, 0.0)).rank == 2
    assert Spectrum((0.5, 0.3, 0.2)).degeneracy_m == 0
    assert Spectrum((0.5, 0.25, 0.25)).degeneracy_m == 1
    assert Spectrum((0.25, 0.25, 0.25, 0.25)).degeneracy_m == 6


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


def test_multiplicity_examples():
    assert multiplicity_dim(YoungDiagram((2, 1, 0))) == 2
    assert multiplicity_dim(YoungDiagram((9, 0))) == 1
    n4 = {lam.two_j: multiplicity_dim(lam) for lam in enumerate_diagrams(4, 2)}
    assert n4 == {4: 1, 2: 3, 0: 2}
    assert sum((two_j + 1) * m for two_j, m in n4.items()) == 16


def test_multiplicity_counts_standard_tableaux():
    for d in (2, 3, 4):
        for n in range(1, 9):
            for lam in enumerate_diagrams(n, d):
                assert multiplicity_dim(lam) == count_standard_tableaux(lam.rows)


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
    assert schur_polynomial(lam, sp) == pytest.approx(0.28, abs=1e-12)


def test_schur_uniform_spectrum_gives_dimension():
    # s_lambda(1,...,1) = d_lambda, stated homogeneously at the uniform spectrum
    for d in (2, 3, 4):
        uniform = Spectrum((1.0 / d,) * d)
        for n in range(1, 7):
            for lam in enumerate_diagrams(n, d):
                val = schur_polynomial(lam, uniform) * d ** n
                assert val == pytest.approx(irrep_dim(lam, d), rel=1e-11)


def test_schur_symmetric_row_geometric_sum():
    for n in (3, 8, 15):
        for p in (0.6, 0.75, 0.97):
            lam = YoungDiagram((n, 0))
            expected = (p ** (n + 1) - (1 - p) ** (n + 1)) / (2 * p - 1)
            assert schur_polynomial(lam, spectrum_of(p, 1 - p)) == pytest.approx(expected, rel=1e-12)


def test_schur_polynomial_matches_tableau_sum():
    rng = np.random.default_rng(7)
    for d in (2, 3, 4):
        for n in range(1, 9):
            sp = random_spectrum(rng, d)
            for lam in enumerate_diagrams(n, d):
                assert schur_polynomial(lam, sp) == pytest.approx(
                    schur_polynomial_brute(lam, sp), abs=1e-12)


def test_schur_zero_beyond_rank():
    sp = Spectrum((0.7, 0.3, 0.0))
    assert schur_polynomial(YoungDiagram((1, 1, 1)), sp) == 0.0


def test_schur_normalization_random_spectra():
    rng = np.random.default_rng(11)
    for d in (2, 3, 4):
        for n in (5, 10, 17):
            sp = random_spectrum(rng, d)
            total = sum(schur_polynomial(lam, sp) * multiplicity_dim(lam)
                        for lam in enumerate_diagrams(n, d))
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
            logs = log_schur_polynomials(n, sp)
            assert logs.shape == (len(diagrams),), (probs, n)
            for lam, value in zip(diagrams, logs):
                assert math.exp(value) == pytest.approx(
                    schur_polynomial_brute(lam, sp), rel=1e-13), (probs, lam)


def test_log_multiplicity_matches_exact_count():
    for d in (2, 3, 4):
        for n in range(13):
            for lam in enumerate_diagrams(n, d):
                assert log_multiplicity(lam) == pytest.approx(
                    math.log(multiplicity_dim(lam)), abs=1e-12)
    assert log_multiplicity(YoungDiagram((40, 0, 0))) == 0.0


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
# Clebsch-Gordan
# ---------------------------------------------------------------------------

def test_cg_frozen_values():
    assert clebsch_gordan(1, 1, 1, -1, 0, 0) == pytest.approx(1 / math.sqrt(2), abs=1e-14)
    assert clebsch_gordan(1, -1, 1, 1, 0, 0) == pytest.approx(-1 / math.sqrt(2), abs=1e-14)
    assert clebsch_gordan(1, 1, 1, 1, 2, 2) == pytest.approx(1.0, abs=1e-14)
    # M != m1 + m2 vanishes
    assert clebsch_gordan(2, 2, 1, 1, 3, 1) == 0.0


def test_cg_rejects_malformed_numbers():
    with pytest.raises(ParameterError):
        clebsch_gordan(1, 2, 1, -1, 0, 0)   # |m| > j
    with pytest.raises(ParameterError):
        clebsch_gordan(2, 1, 1, 1, 3, 2)    # parity of (j, m)
    with pytest.raises(ParameterError):
        clebsch_gordan(2, 0, 2, 0, 8, 0)    # triangle


def test_cg_orthogonality_spin1_spin_half():
    two_j1, two_j2 = 2, 1
    ms1 = range(-two_j1, two_j1 + 1, 2)
    ms2 = range(-two_j2, two_j2 + 1, 2)
    for m1 in ms1:
        for m2 in ms2:
            for m1p in ms1:
                for m2p in ms2:
                    total = 0.0
                    for two_jt in (1, 3):
                        for mt in range(-two_jt, two_jt + 1, 2):
                            total += (clebsch_gordan(two_j1, m1, two_j2, m2, two_jt, mt)
                                      * clebsch_gordan(two_j1, m1p, two_j2, m2p, two_jt, mt))
                    expected = 1.0 if (m1 == m1p and m2 == m2p) else 0.0
                    assert total == pytest.approx(expected, abs=1e-12)


@settings(deadline=None, max_examples=150)
@given(data=st.data())
def test_cg_matches_exact_rational(data):
    two_j1 = data.draw(st.integers(0, 10))
    two_j2 = data.draw(st.integers(0, 10))
    lo, hi = abs(two_j1 - two_j2), two_j1 + two_j2
    two_jt = data.draw(st.sampled_from(range(lo, hi + 1, 2)))
    two_m1 = data.draw(st.sampled_from(range(-two_j1, two_j1 + 1, 2) or [0]))
    two_m2 = data.draw(st.sampled_from(range(-two_j2, two_j2 + 1, 2) or [0]))
    two_mt = two_m1 + two_m2
    if abs(two_mt) > two_jt:
        return
    exact = clebsch_gordan_signed_square(two_j1, two_m1, two_j2, two_m2, two_jt, two_mt)
    expected = math.copysign(math.sqrt(abs(Fraction(exact))), exact) if exact else 0.0
    approx = clebsch_gordan(two_j1, two_m1, two_j2, two_m2, two_jt, two_mt)
    assert approx == pytest.approx(expected, abs=1e-12)


def test_cg_larger_momenta_stay_normalized():
    # column normalization sum_{m1} <j1 m1 j2 M-m1|J M>^2 = 1 at 2j = 40
    two_j1 = two_j2 = 20
    two_jt, two_mt = 40, 0
    total = sum(clebsch_gordan(two_j1, m1, two_j2, two_mt - m1, two_jt, two_mt) ** 2
                for m1 in range(-two_j1, two_j1 + 1, 2)
                if abs(two_mt - m1) <= two_j2)
    assert total == pytest.approx(1.0, abs=1e-11)


# ---------------------------------------------------------------------------
# Wigner matrices
# ---------------------------------------------------------------------------

def test_wigner_identity_rotation():
    mat = wigner_d_matrix(WignerRotation(0.0, 0.0, 0.0, 1))
    assert np.allclose(mat, np.eye(2))
    mat5 = wigner_d_matrix(WignerRotation(0.0, 0.0, 0.0, 5))
    assert np.allclose(mat5, np.eye(6))


def test_wigner_highest_weight_overlap():
    for two_j in (1, 4, 9, 16):
        for beta in (0.3, 1.1, 2.7):
            mat = wigner_d_matrix(WignerRotation(0.4, beta, 1.3, two_j))
            overlap = abs(mat[-1, -1]) ** 2
            assert overlap == pytest.approx(math.cos(beta / 2) ** (2 * two_j), abs=1e-12)


def test_wigner_unitarity_random_angles():
    rng = np.random.default_rng(3)
    for two_j in (1, 2, 7, 20, 33, 40):
        angles = rng.uniform(0, 2 * math.pi, size=3)
        mat = wigner_d_matrix(WignerRotation(angles[0], angles[1], angles[2], two_j))
        err = np.max(np.abs(mat @ mat.conj().T - np.eye(two_j + 1)))
        assert err < 1e-10


def test_wigner_small_d_is_real_orthogonal():
    for two_j in (6, 100, 256):
        d = wigner_small_d(two_j, 0.9)
        assert np.max(np.abs(d @ d.T - np.eye(two_j + 1))) < 1e-12


def test_wigner_small_d_spin_half_convention():
    # d(beta) = exp(-i beta J_y): <-1/2| d |+1/2> = sin(beta/2), ascending m
    c, s = math.cos(0.45), math.sin(0.45)
    assert np.allclose(wigner_small_d(1, 0.9), [[c, s], [-s, c]], rtol=0, atol=1e-15)
