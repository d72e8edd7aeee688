import math
from functools import reduce
from itertools import permutations

import numpy as np
import pytest

from schurcompress import oracle
from schurcompress.blocksim import (
    BlochVector,
    BlockState,
    block_weights,
    exact_protocol_error,
    product_state,
    trace_distance,
    validate_block_state,
)
from schurcompress.errors import (
    OracleMismatchError,
    ParameterError,
    ResourceLimitError,
    UnsupportedFeatureError,
)
from schurcompress.oracle import (
    block_spectrum_mismatch,
    character_projection_weights,
    dense_product_state,
    dense_protocol_error,
    dense_weights,
    extract_blocks,
    permutation_operator,
    schur_basis_qubits,
    schur_isometry,
    symmetric_group_character,
)
from schurcompress.schur_core import (
    Spectrum,
    YoungDiagram,
    enumerate_diagrams,
    multiplicity_dim,
    spectrum_of,
)

from reference import (
    clebsch_gordan_signed_square,
    coupled_basis_by_products,
    dense_protocol_error_by_residual,
)


def test_dense_product_state_basics():
    sp = spectrum_of(0.75, 0.25)
    single = dense_product_state(sp, 1)
    assert np.allclose(single, np.diag([0.75, 0.25]))
    mixed = dense_product_state(Spectrum((0.5, 0.5)), 3)
    assert np.allclose(mixed, np.eye(8) / 8)
    for n in (1, 3, 5):
        assert np.trace(dense_product_state(sp, n)).real == pytest.approx(1.0, abs=1e-14)


@pytest.mark.parametrize("n", [0, -1])
def test_oracle_entry_points_need_a_copy(n):
    for sp in (spectrum_of(0.75, 0.25), spectrum_of(0.5, 0.3, 0.2)):
        with pytest.raises(ParameterError, match="at least one copy"):
            dense_product_state(sp, n)
        with pytest.raises(ParameterError, match="at least one copy"):
            character_projection_weights(sp, n)
    for call in (lambda: schur_basis_qubits(n), lambda: schur_isometry(n),
                 lambda: extract_blocks(np.eye(1), n), lambda: permutation_operator((), 2),
                 lambda: dense_protocol_error(n, spectrum_of(0.75, 0.25), [YoungDiagram((1, 0))])):
        with pytest.raises(ParameterError, match="at least one copy"):
            call()


def test_dense_size_cap():
    with pytest.raises(ResourceLimitError):
        dense_product_state(spectrum_of(0.75, 0.25), 13)
    with pytest.raises(ResourceLimitError):
        dense_product_state(spectrum_of(0.5, 0.3, 0.2), 8)


def test_schur_basis_singlet_and_triplet():
    basis = schur_basis_qubits(2)
    assert sorted(basis) == [0, 2]
    assert len(basis[2]) == 1 and basis[2][0].shape == (4, 3)
    singlet = basis[0][0][:, 0]
    expected = np.array([0.0, 1.0, -1.0, 0.0]) / math.sqrt(2)
    assert np.allclose(singlet, expected, atol=1e-12)


def test_schur_basis_group_sizes_n4():
    basis = schur_basis_qubits(4)
    sizes = {two_j: (mats[0].shape[1], len(mats)) for two_j, mats in basis.items()}
    assert sizes == {4: (5, 1), 2: (3, 3), 0: (1, 2)}


def test_schur_basis_multiplicities_match():
    for n in range(1, 8):
        basis = schur_basis_qubits(n)
        for two_j, mats in basis.items():
            assert len(mats) == multiplicity_dim(YoungDiagram.from_two_j(n, two_j))


def test_schur_isometry_unitary():
    for n in range(2, 8):
        b = schur_isometry(n)
        assert np.max(np.abs(b.T @ b - np.eye(2 ** n))) < 1e-10


def test_coupling_matrix_matches_exact_rationals():
    # every coefficient of the j x 1/2 rule for 2j <= 40 against sign * sqrt of
    # Racah's formula in exact rationals, zeros included: those m' whose m' - s is
    # not an m of spin j
    for two_j in range(41):
        for two_s in (1, -1):
            for two_jt in [t for t in (two_j + 1, two_j - 1) if t >= 0]:
                expected = np.zeros(two_jt + 1)
                for i, two_mt in enumerate(range(-two_jt, two_jt + 1, 2)):
                    two_m = two_mt - two_s
                    if abs(two_m) <= two_j:
                        sq = clebsch_gordan_signed_square(two_j, two_m, 1, two_s, two_jt, two_mt)
                        expected[i] = math.copysign(math.sqrt(abs(sq)), sq)
                got = oracle._coupling_coefficients(two_j, two_s, two_jt)
                assert np.array_equal(got != 0, expected != 0), (two_j, two_s, two_jt)
                assert np.max(np.abs(got - expected)) <= 1e-15, (two_j, two_s, two_jt)


def test_sector_blocks_assemble_the_dense_coupled_basis():
    # the sector blocks skip Q's structural zeros at run time; this checks, for every
    # N the dense cap admits, that Q^T assembled from them equals the basis built by
    # dense products over the whole space, entry for entry
    for n in range(1, 13):
        want, spins = coupled_basis_by_products(n)
        got, views = oracle._dense_rows(n)
        assert np.array_equal(got, want), n
        assert [(two_j, copies.shape[0]) for two_j, copies in views] == [
            (two_j, mult) for two_j, mult, _ in spins]
        assert sum(block.size for block in oracle._spin_bases(n)[0]) == math.comb(2 * n, n)


def test_sector_gram_matches_the_dense_products():
    # G_jj and sqrt(D) ||C||_F from the sector blocks against V_a^T rho V_b with the
    # reference basis, for product states and a permutation-invariant random state;
    # a random state that is not invariant has a cross-spin part C far from zero
    rng = np.random.default_rng(41)
    frames = (None, BlochVector(1.0, 0.5), BlochVector(0.7, 0.0))
    cases = [(n, dense_product_state(Spectrum((0.75, 0.25)), n, orient))
             for n in range(1, 9) for orient in frames]
    cases += [(n, _symmetrized_random_state(n, rng)) for n in (3, 4, 5)]
    cases += [(n, _random_state(n, rng)) for n in (4, 6)]
    for n, dense in cases:
        qt, spins = coupled_basis_by_products(n)
        full = qt @ dense @ qt.T
        grams, bound = oracle._coupled_gram(dense, n)
        assert [two_j for two_j, _ in grams] == [two_j for two_j, _, _ in spins]
        for (two_j, gram), (_, mult, rows) in zip(grams, spins):
            want = full[rows, rows].reshape(mult, two_j + 1, mult, two_j + 1)
            assert gram.dtype == dense.dtype and np.max(np.abs(gram - want)) <= 1e-14, (n, two_j)
            full[rows, rows] = 0.0
        want = math.sqrt(2 ** n) * np.linalg.norm(full)
        assert bound == pytest.approx(want, rel=1e-13, abs=1e-14), n


PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]])
PAULI_Y_REAL = np.array([[0.0, -1.0], [1.0, 0.0]])  # sigma_y = i * this
PAULI_Z = np.diag([1.0, -1.0])  # |0> is spin up


def _spin_component(op: np.ndarray, v: np.ndarray, n: int) -> np.ndarray:
    """(1/2) sum_i op^(i) v: the 2x2 op on each qubit i of the columns of v."""
    t = v.reshape((2,) * n + (-1,))
    return sum(np.moveaxis(np.tensordot(op, t, axes=(1, i)), 0, i)
               for i in range(n)).reshape(v.shape) / 2.0


def test_schur_basis_columns_are_total_spin_eigenvectors():
    # an independent route to the batched coupling: every column must be |j, m>
    # of the total spin from Pauli sums, m ascending, and all must be orthonormal;
    # J_y^2 = -A^2 for the real A = (1/2) sum_i (sigma_y / i)^(i)
    for n in range(1, 10):
        for two_j, copies in schur_basis_qubits(n).items():
            v = np.hstack(copies)
            j = two_j / 2
            m = np.tile(np.arange(-two_j, two_j + 1, 2) / 2, len(copies))
            j2v = sum(sign * _spin_component(op, _spin_component(op, v, n), n)
                      for sign, op in ((1, PAULI_X), (-1, PAULI_Y_REAL), (1, PAULI_Z)))
            assert np.max(np.abs(j2v - j * (j + 1) * v)) < 1e-12, (n, two_j)
            assert np.max(np.abs(_spin_component(PAULI_Z, v, n) - v * m)) < 1e-12, (n, two_j)
        iso = schur_isometry(n)
        assert np.max(np.abs(iso.T @ iso - np.eye(2 ** n))) < 1e-12, n


def test_permutation_operator_moves_site_factors():
    # U_pi carries the factor of site k to site pi(k)
    rng = np.random.default_rng(5)
    for d in (2, 3):
        for n in range(1, 5):
            sites = rng.normal(size=(n, d)) + 1j * rng.normal(size=(n, d))
            product = reduce(np.kron, sites)
            for perm in permutations(range(n)):
                moved = reduce(np.kron, [sites[perm.index(s)] for s in range(n)])
                assert np.max(np.abs(permutation_operator(perm, d) @ product - moved)) < 1e-12


def test_extract_blocks_frozen_weights():
    sp = spectrum_of(0.75, 0.25)
    w2 = dense_weights(dense_product_state(sp, 2), 2)
    assert w2[2] == pytest.approx(0.8125, abs=1e-12)
    assert w2[0] == pytest.approx(0.1875, abs=1e-12)
    w4 = dense_weights(dense_product_state(sp, 4), 4)
    assert w4[4] == pytest.approx(0.47265625, abs=1e-12)
    assert w4[2] == pytest.approx(0.45703125, abs=1e-12)
    assert w4[0] == pytest.approx(0.0703125, abs=1e-12)


def _random_state(n: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.normal(size=(2 ** n, 2 ** n)) + 1j * rng.normal(size=(2 ** n, 2 ** n))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def _symmetrized_random_state(n: int, rng: np.random.Generator) -> np.ndarray:
    rho = _random_state(n, rng)
    out = np.zeros_like(rho)
    for perm in permutations(range(n)):
        u = permutation_operator(perm, 2)
        out += u @ rho @ u.T
    return out / math.factorial(n)


def test_extract_blocks_on_symmetrized_random_state():
    rng = np.random.default_rng(9)
    for n in (3, 4, 5):
        rho = _symmetrized_random_state(n, rng)
        state = extract_blocks(rho, n)
        validate_block_state(state)


def test_extracted_blocks_of_tiny_weight_validate():
    # the blocks of weight 7.5e-8 and 4.2e-14 are off Hermitian by 2.4e-10 and
    # 3e-5 as matrices, far inside the tolerance on the scale of the state
    dense = dense_product_state(Spectrum((0.999, 0.001)), 10, BlochVector(1.0, 0.5))
    validate_block_state(extract_blocks(dense, 10))


def test_dense_product_state_is_the_kronecker_power():
    for sp, orient, n in [(Spectrum((0.75, 0.25)), None, 6),
                          (Spectrum((0.75, 0.25)), BlochVector(1.0, 0.5), 5),
                          (Spectrum((0.9, 0.1)), BlochVector(0.7, 0.0), 4),
                          (Spectrum((0.75, 0.25)), None, 9),
                          (Spectrum((0.5, 0.3, 0.2)), None, 4),
                          (Spectrum((0.5, 0.3, 0.2)), None, 5)]:
        rho = dense_product_state(sp, 1, orient)
        got, want = dense_product_state(sp, n, orient), reduce(np.kron, [rho] * n)
        assert got.dtype == want.dtype and np.array_equal(got, want), (sp, orient, n)


def test_one_dense_state_serves_the_blocks_and_the_protocol_error():
    sp, orient, n = Spectrum((0.75, 0.25)), BlochVector(1.0, 0.5), 7
    state, protocol_error = oracle._qubit_reference(sp, n, orient)
    want = extract_blocks(dense_product_state(sp, n, orient), n)
    assert np.array_equal(state.weights, want.weights)
    assert all(np.array_equal(state.dense[i], mat) for i, mat in want.dense.items())
    keep = enumerate_diagrams(n, 2)[1:3]
    assert protocol_error(keep) == dense_protocol_error(n, sp, keep, orient)
    with pytest.raises(ParameterError, match="holds no block"):
        protocol_error([YoungDiagram((7, 0, 0))])


def _basis_state(bits: str) -> np.ndarray:
    dense = np.zeros((2 ** len(bits), 2 ** len(bits)))
    dense[int(bits, 2), int(bits, 2)] = 1.0
    return dense


@pytest.mark.parametrize("bits, message", [
    ("100", r"cross-multiplicity block \(2j=1, 0,1\) does not vanish"),
    ("0010", r"cross-multiplicity block \(2j=2, 0,1\) does not vanish"),
    ("001", r"multiplicity marginal of 2j=1 copy 0 is 1\.0, not 1/2"),
    ("0001", r"multiplicity marginal of 2j=2 copy 0 is 1\.0, not 1/3"),
])
def test_extract_blocks_rejects_states_that_are_not_permutation_invariant(bits, message):
    # |100> has weight on both spin-1/2 copies, which then overlap; |001> puts
    # all of its spin-1/2 weight on the copy coupled down from spin 1
    with pytest.raises(OracleMismatchError, match=f"^{message}$"):
        extract_blocks(_basis_state(bits), len(bits))


def test_extract_blocks_rejects_a_qudit_array():
    with pytest.raises(ParameterError, match="8 x 8"):
        extract_blocks(dense_product_state(Spectrum((0.5, 0.3, 0.2)), 3), 3)


def test_extract_blocks_names_the_first_offending_copies():
    copies = schur_basis_qubits(4)[2]
    psi = copies[1][:, 0] + copies[2][:, 0]
    with pytest.raises(OracleMismatchError, match=r"^cross-multiplicity block \(2j=2, 1,2\)"):
        extract_blocks(np.outer(psi, psi) / 2.0, 4)
    with pytest.raises(OracleMismatchError, match=r"^multiplicity marginal of 2j=2 copy 0 is "):
        extract_blocks(copies[1] @ copies[1].T / 3.0, 4)


def test_block_and_dense_weights_agree():
    rng = np.random.default_rng(13)
    for n in range(1, 9):
        p = rng.uniform(0.55, 0.95)
        orient = BlochVector(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
        sp = spectrum_of(p, 1 - p)
        dense = dense_product_state(sp, n, orient)
        oracle_state = extract_blocks(dense, n)
        ours = product_state(sp, n, orient)
        for lam, blk in ours.blocks.items():
            assert oracle_state.blocks[lam].weight == pytest.approx(blk.weight, abs=1e-10)
        assert block_spectrum_mismatch(ours, oracle_state) < 1e-10


def test_materialised_frames_agree_with_the_label_and_the_oracle():
    # the labelled error must match the oracle's, which builds the rotated
    # N-copy state as a dense matrix
    rng = np.random.default_rng(17)
    for n in range(2, 9):
        p = rng.uniform(0.55, 0.95)
        sp = spectrum_of(p, 1 - p)
        orient = BlochVector(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
        grid = sorted(enumerate_diagrams(n, 2), reverse=True)
        keep = grid[: max(1, len(grid) // 2)]
        labelled = exact_protocol_error(n, sp, keep, orient).exact_error
        assert labelled == pytest.approx(dense_protocol_error(n, sp, keep, orient), abs=1e-8), n


def test_trace_distance_in_one_frame_matches_the_dense_states():
    # two spectra held in one frame, oriented or lab, compare pair by pair;
    # the block sum must equal the trace distance of the dense N-copy states
    rng = np.random.default_rng(23)
    for n in range(1, 8):
        first, second = (spectrum_of(p, 1 - p) for p in rng.uniform(0.55, 0.95, size=2))
        orient = BlochVector(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
        for frame in (orient, None):
            diff = dense_product_state(first, n, frame) - dense_product_state(second, n, frame)
            dense = 0.5 * np.abs(np.linalg.eigvalsh(diff)).sum()
            blocks = trace_distance(product_state(first, n, frame), product_state(second, n, frame))
            assert dense > 1e-3
            assert blocks == pytest.approx(dense, abs=1e-10), (n, frame)


def test_trace_distance_reads_the_nearly_hermitian_oracle_blocks():
    # at N = 10, p = 0.999 the extracted block of weight 4.2e-14 is off Hermitian
    # by 3.0e-5; weighted, that is 1.2e-18 on the scale of the state, and passes
    sp = spectrum_of(0.999, 0.001)
    state = extract_blocks(dense_product_state(sp, 10, BlochVector(1.0, 0.5)), 10)
    off = {i: np.abs(mat - mat.conj().T).max() for i, mat in state.dense.items()}
    assert max(off.values()) > 1e-5 and state.weights[max(off, key=off.get)] < 1e-13
    even = BlockState.from_matrices(10, 2, state.weights, [
        (mat + mat.conj().T) / 2 for mat in state.dense.values()])
    lab = product_state(sp, 10)
    assert 0.5 < trace_distance(state, lab) <= 1.0
    assert trace_distance(state, lab) == pytest.approx(trace_distance(even, lab), abs=1e-15)


def test_dense_protocol_error_full_keep_is_zero():
    sp = spectrum_of(0.8, 0.2)
    err = dense_protocol_error(4, sp, enumerate_diagrams(4, 2))
    assert err < 1e-10


def test_dense_protocol_error_matches_block_level():
    sp = spectrum_of(0.75, 0.25)
    keep = [YoungDiagram((4, 0)), YoungDiagram((3, 1))]
    dense_err = dense_protocol_error(4, sp, keep)
    block_err = exact_protocol_error(4, sp, keep).exact_error
    assert dense_err == pytest.approx(block_err, abs=1e-8)


def test_dense_protocol_error_orientation_invariant():
    sp = spectrum_of(0.9, 0.1)
    keep = [YoungDiagram((5, 0)), YoungDiagram((4, 1))]
    plain = dense_protocol_error(5, sp, keep)
    rotated = dense_protocol_error(5, sp, keep, BlochVector(1.0, 0.5))
    assert rotated == pytest.approx(plain, abs=1e-8)


def test_dense_protocol_error_matches_the_whole_residual():
    # the coupled-basis route against the residual built in the computational
    # basis and diagonalized whole
    rng = np.random.default_rng(37)

    def check(n, sp, orient):
        grid = enumerate_diagrams(n, 2)
        for _ in range(3):
            mask = rng.random(len(grid)) < 0.5
            keep = [lam for lam, kept in zip(grid, mask) if kept] or grid[-1:]
            want = dense_protocol_error_by_residual(n, sp, keep, orient)
            got = dense_protocol_error(n, sp, keep, orient)
            assert got == pytest.approx(want, abs=1e-12), (n, sp, orient, keep)

    for n in range(1, 9):
        frames = (None, BlochVector(1.0, 0.5),
                  BlochVector(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi)))
        for sp in (Spectrum((0.75, 0.25)), Spectrum((0.999, 0.001))):
            for orient in frames:
                check(n, sp, orient)
    check(9, Spectrum((0.75, 0.25)), None)
    check(8, Spectrum((0.9, 0.1)), BlochVector(2.1, 1.3))


@pytest.mark.parametrize("eps", [0.0, 1e-6])
def test_dense_protocol_error_refuses_a_state_that_leaks_across_spins(monkeypatch, eps):
    # eps (u v^T + v u^T) with u and v basis columns of two different spins
    # leaves every diagonal spin block as it was; only the pinching bound sees it
    n, sp = 6, Spectrum((0.75, 0.25))
    basis = schur_basis_qubits(n)
    u, v = basis[6][0][:, 3], basis[2][1][:, 0]
    clean = oracle.dense_product_state

    def leaky(spectrum, n, orientation=None):
        return clean(spectrum, n, orientation) + eps * (np.outer(u, v) + np.outer(v, u))

    monkeypatch.setattr(oracle, "dense_product_state", leaky)
    keep = enumerate_diagrams(n, 2)[:2]
    if eps:
        with pytest.raises(OracleMismatchError, match=r"^pinching bound sqrt\(D\) \|\|C\|\|_F"):
            dense_protocol_error(n, sp, keep)
        with pytest.raises(OracleMismatchError, match="pinching bound"):
            oracle._qubit_reference(sp, n, None)[1](keep)
    else:
        assert dense_protocol_error(n, sp, keep) == pytest.approx(
            exact_protocol_error(n, sp, keep).exact_error, abs=1e-12)


def test_dense_protocol_error_rejects_a_keep_set_that_names_no_spin():
    for keep in ([], [YoungDiagram((4,))], [YoungDiagram((3, 0))]):
        with pytest.raises(ParameterError, match="holds no block"):
            dense_protocol_error(4, spectrum_of(0.75, 0.25), keep)


def test_dense_protocol_error_rejects_a_qudit_spectrum():
    with pytest.raises(UnsupportedFeatureError):
        dense_protocol_error(3, Spectrum((0.5, 0.3, 0.2)), enumerate_diagrams(3, 2))
    with pytest.raises(UnsupportedFeatureError, match="^dense qudit states are diagonal only$"):
        dense_product_state(Spectrum((0.5, 0.3, 0.2)), 2, BlochVector(1.0, 0.5))


def test_block_spectrum_mismatch_counts_a_block_weighted_on_one_side_only():
    # the singlet has weight on one side only: its whole weight 0.25 counts,
    # against 0.75 / 3 - 0.5 / 3 on the shared block
    ours = BlockState.from_matrices(2, 2, np.array([0.75, 0.25]), [np.eye(3) / 3, np.eye(1)])
    theirs = BlockState.from_matrices(2, 2, np.array([1.0, 0.0]), [np.eye(3) / 3, np.eye(1)])
    assert block_spectrum_mismatch(ours, theirs) == 0.25
    assert block_spectrum_mismatch(theirs, ours) == 0.25


def test_dense_protocol_error_random_keeps():
    rng = np.random.default_rng(31)
    for n in (4, 5, 6, 7, 8):
        p = rng.uniform(0.55, 0.95)
        sp = spectrum_of(p, 1 - p)
        orient = BlochVector(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
        grid = sorted(enumerate_diagrams(n, 2), reverse=True)
        for _ in range(3):
            mask = rng.random(len(grid)) < 0.5
            keep = [lam for lam, keepit in zip(grid, mask) if keepit] or [grid[0]]
            dense_err = dense_protocol_error(n, sp, keep, orient)
            block_err = exact_protocol_error(n, sp, keep, orient).exact_error
            assert dense_err == pytest.approx(block_err, abs=1e-8)


# ---------------------------------------------------------------------------
# Symmetric-group characters and the qudit oracle
# ---------------------------------------------------------------------------

def test_characters_s3_table():
    assert symmetric_group_character((3,), (1, 1, 1)) == 1
    assert symmetric_group_character((3,), (3,)) == 1
    assert symmetric_group_character((2, 1), (1, 1, 1)) == 2
    assert symmetric_group_character((2, 1), (2, 1)) == 0
    assert symmetric_group_character((2, 1), (3,)) == -1
    assert symmetric_group_character((1, 1, 1), (2, 1)) == -1


def test_characters_dimension_column():
    for n in range(1, 7):
        ident = tuple([1] * n)
        for lam in enumerate_diagrams(n, n):
            shape = tuple(r for r in lam.rows if r > 0)
            assert symmetric_group_character(shape, ident) == multiplicity_dim(lam)


def test_character_projection_weights_frozen():
    weights = character_projection_weights(spectrum_of(0.5, 0.3, 0.2), 3)
    assert weights[YoungDiagram((3, 0, 0))] == pytest.approx(0.41, abs=1e-10)
    assert weights[YoungDiagram((2, 1, 0))] == pytest.approx(0.56, abs=1e-10)
    assert weights[YoungDiagram((1, 1, 1))] == pytest.approx(0.03, abs=1e-10)


def test_character_projection_at_the_qudit_cap():
    # 3^7 = 2187 <= DENSE_DIM_CAP < 3^8, and all 5040 permutations of S_7
    sp = spectrum_of(0.5, 0.3, 0.2)
    oracle_weights = character_projection_weights(sp, 7)
    assert sum(oracle_weights.values()) == pytest.approx(1.0, abs=1e-10)
    ours = block_weights(7, sp)
    for lam, val in oracle_weights.items():
        assert ours[lam] == pytest.approx(val, abs=1e-10), lam


def test_character_projection_past_seven_copies_raises_before_any_permutation(monkeypatch):
    # 2^8 fits DENSE_DIM_CAP, but 8! = 40320 gathers would run for seconds (hours at 2^12)
    def no_permutations(_):
        raise AssertionError("permutations enumerated past the cap")

    monkeypatch.setattr(oracle, "permutations", no_permutations)
    with pytest.raises(ResourceLimitError):
        character_projection_weights(Spectrum((0.75, 0.25)), 8)


def test_character_projection_matches_schur_weights():
    for spectrum in (spectrum_of(0.5, 0.3, 0.2), spectrum_of(0.5, 0.25, 0.25),
                     spectrum_of(0.7, 0.2, 0.1)):
        for n in (2, 3, 4):
            oracle_weights = character_projection_weights(spectrum, n)
            ours = block_weights(n, spectrum)
            for lam, val in oracle_weights.items():
                assert ours[lam] == pytest.approx(val, abs=1e-8)
