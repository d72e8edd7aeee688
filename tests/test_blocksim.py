import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from schurcompress import blocksim, schur_core
from schurcompress.blocksim import (
    Block,
    BlochVector,
    BlockState,
    block_weights,
    decode,
    encode,
    exact_protocol_error,
    product_state,
    qubit_weight,
    qubit_weight_binomial,
    qubit_weights,
    random_block_state,
    trace_distance,
    trace_norm,
    uniform_dump,
    validate_block_state,
)
from schurcompress.errors import (
    ContractViolationError,
    ParameterError,
    ResourceLimitError,
    UnsupportedFeatureError,
)
from schurcompress.schur_core import (
    Spectrum,
    YoungDiagram,
    enumerate_diagrams,
    gelfand_tsetlin_contents,
    irrep_dim,
    multiplicity_dim,
    qubit_multiplicity,
    schur_polynomial_brute,
    spectrum_of,
)


def two_row(n, two_j):
    return YoungDiagram.from_two_j(n, two_j)


def exact_block_weights(n, probs) -> dict:
    """q_lambda = m_lambda s_lambda(p) at the exact binary values of probs, for every
    diagram: the Jacobi-Trudi determinant det(h_{l_i - i + j}) in rationals, where
    it cannot cancel the way it does in floats."""
    h = [Fraction(1)] + [Fraction(0)] * (n + len(probs))
    for x in map(Fraction, probs):
        for k in range(1, len(h)):
            h[k] += x * h[k - 1]
    weights = {}
    for lam in enumerate_diagrams(n, len(probs)):
        rows = lam.rows[: lam.num_rows]
        mat = [[h[r - i + j] if r - i + j >= 0 else 0 for j in range(len(rows))]
               for i, r in enumerate(rows)]
        weights[lam] = multiplicity_dim(lam) * _determinant(mat)
    return weights


def _determinant(mat) -> Fraction:
    if len(mat) <= 1:
        return mat[0][0] if mat else Fraction(1)
    return sum((-1) ** col * mat[0][col]
               * _determinant([row[:col] + row[col + 1:] for row in mat[1:]])
               for col in range(len(mat)))


# ---------------------------------------------------------------------------
# Weights
# ---------------------------------------------------------------------------

def test_qubit_weight_frozen_values():
    # frozen from the dense 4x4 / 16x16 projections
    assert qubit_weight(2, 0.75, 2) == pytest.approx(0.8125, abs=1e-14)
    assert qubit_weight(2, 0.75, 0) == pytest.approx(0.1875, abs=1e-14)
    assert qubit_weight(4, 0.75, 4) == pytest.approx(0.47265625, abs=1e-12)
    assert qubit_weight(4, 0.75, 2) == pytest.approx(0.45703125, abs=1e-12)
    assert qubit_weight(4, 0.75, 0) == pytest.approx(0.0703125, abs=1e-12)


def test_qubit_weight_maximally_mixed():
    for n in (2, 5, 12):
        for two_j in range(n % 2, n + 1, 2):
            expected = (two_j + 1) * qubit_multiplicity(n, two_j) * 2.0 ** (-n)
            assert qubit_weight(n, 0.5, two_j) == pytest.approx(expected, rel=1e-13)


def test_qubit_weight_pure():
    assert qubit_weight(8, 1.0, 8) == 1.0
    assert qubit_weight(8, 1.0, 4) == 0.0


def test_qubit_weight_rejects_bad_args():
    with pytest.raises(ParameterError):
        qubit_weight(4, 0.3, 2)
    with pytest.raises(ParameterError):
        qubit_weight(4, 0.75, 3)  # parity


def test_qubit_weights_normalized_at_large_n_maximally_mixed():
    # the multiplicity alone overflows a float here; its log does not
    assert abs(sum(qubit_weights(1100, 0.5).values()) - 1.0) < 1e-10


def test_qubit_weights_normalized_up_to_200():
    for p in (0.5, 0.6, 0.75, 0.9, 1.0):
        for n in (1, 2, 7, 50, 131, 200):
            total = sum(qubit_weights(n, p).values())
            assert abs(total - 1.0) < 1e-12, (p, n, total)


@settings(deadline=None, max_examples=60)
@given(p=st.floats(0.51, 0.99), n=st.integers(1, 200))
def test_binomial_difference_form_agrees(p, n):
    for two_j in range(n % 2, n + 1, 2):
        a = qubit_weight(n, p, two_j)
        b = qubit_weight_binomial(n, p, two_j)
        assert b == pytest.approx(a, rel=1e-10, abs=1e-280)


def test_block_weights_d3_frozen():
    # frozen from the explicit S_3 projector computation
    weights = block_weights(3, spectrum_of(0.5, 0.3, 0.2))
    assert weights[YoungDiagram((3, 0, 0))] == pytest.approx(0.41, abs=1e-12)
    assert weights[YoungDiagram((2, 1, 0))] == pytest.approx(0.56, abs=1e-12)
    assert weights[YoungDiagram((1, 1, 1))] == pytest.approx(0.03, abs=1e-12)


@pytest.mark.parametrize("probs, n", [
    ((0.5, 0.3, 0.2), 40), ((0.5, 0.3, 0.2), 60), ((0.98, 0.01, 0.01), 40),
    ((0.6, 0.2, 0.2), 60), ((0.4, 0.3, 0.2, 0.1), 30), ((0.5, 0.3, 0.2, 0.0), 12),
])
def test_block_weights_match_exact_rationals(probs, n):
    # float Jacobi-Trudi was off by 4e-2, 2e3 and 1e36 relative on the d = 3 rows;
    # beyond the rank the exact weight is 0, and so must ours be
    exact = exact_block_weights(n, probs)
    for lam, w in block_weights(n, Spectrum(probs)).items():
        assert abs(Fraction(w) - exact[lam]) <= Fraction(1e-12) * exact[lam], lam


@pytest.mark.parametrize("probs, n", [
    ((0.5, 0.3, 0.2), 400), ((0.98, 0.01, 0.01), 400), ((0.4, 0.3, 0.2, 0.1), 100),
])
def test_block_weights_normalized_at_large_n(probs, n):
    weights = list(block_weights(n, Spectrum(probs)).values())
    assert min(weights) >= 0.0
    assert abs(math.fsum(weights) - 1.0) < 1e-10


# ---------------------------------------------------------------------------
# Product states
# ---------------------------------------------------------------------------

def test_product_state_over_the_block_entry_cap_raises(monkeypatch):
    sp = spectrum_of(0.5, 0.3, 0.2)
    entries = sum(irrep_dim(lam, 3) for lam in enumerate_diagrams(20, 3))
    monkeypatch.setattr(blocksim, "BLOCK_ENTRY_CAP", entries - 1)
    with pytest.raises(ResourceLimitError):
        product_state(sp, 20)
    monkeypatch.setattr(blocksim, "BLOCK_ENTRY_CAP", entries)
    validate_block_state(product_state(sp, 20))


def test_rotated_product_state_counts_matrix_entries_against_the_cap(monkeypatch):
    sp = spectrum_of(0.75, 0.25)
    squares = sum((two_j + 1) ** 2 for two_j in range(0, 21, 2))
    monkeypatch.setattr(blocksim, "BLOCK_ENTRY_CAP", squares - 1)
    product_state(sp, 20)  # the diagonal blocks hold far fewer entries
    with pytest.raises(ResourceLimitError):
        product_state(sp, 20, BlochVector(0.4, 1.0))

def test_product_state_weights_and_invariants():
    state = product_state(spectrum_of(0.75, 0.25), 4)
    validate_block_state(state)
    assert state.weight(two_row(4, 4)) == pytest.approx(0.47265625, abs=1e-12)
    assert state.weight(two_row(4, 0)) == pytest.approx(0.0703125, abs=1e-12)


def test_product_state_pure_lives_in_symmetric_block():
    state = product_state(Spectrum((1.0, 0.0)), 6)
    assert state.weight(two_row(6, 6)) == 1.0
    assert all(blk.weight == 0.0 for lam, blk in state.blocks.items() if lam.two_j != 6)


def test_product_state_rotated_is_valid():
    state = product_state(spectrum_of(0.8, 0.2), 5, BlochVector(1.1, 0.4))
    validate_block_state(state)
    diag = product_state(spectrum_of(0.8, 0.2), 5)
    for lam, blk in state.blocks.items():
        assert blk.weight == diag.blocks[lam].weight  # weights ignore orientation
        mine = np.sort(np.linalg.eigvalsh(blk.matrix))
        theirs = np.sort(diag.blocks[lam].matrix)
        assert np.allclose(mine, theirs, atol=1e-12)


def test_product_state_qudit_diagonal():
    state = product_state(spectrum_of(0.5, 0.3, 0.2), 4)
    validate_block_state(state)
    total = sum(blk.weight for blk in state.blocks.values())
    assert total == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("sp, n", [(spectrum_of(0.75, 0.25), 7), (Spectrum((0.5, 0.5)), 6),
                                   (Spectrum((1.0, 0.0)), 5), (spectrum_of(0.5, 0.3, 0.2), 5),
                                   (Spectrum((0.6, 0.4, 0.0)), 4)])
def test_diagonal_states_keep_vector_blocks(sp, n):
    def assert_vectors(state):
        for blk in state.blocks.values():
            assert blk.matrix.ndim == 1 and blk.matrix.dtype == np.float64

    state = product_state(sp, n)
    keep = sorted(state.blocks, reverse=True)[:2]
    encoded = encode(state, keep)
    for each in (state, uniform_dump(n, sp.d, keep), encoded, decode(encoded)):
        assert_vectors(each)


def test_product_state_needs_no_tableau_walk(monkeypatch):
    def boom(*args, **kwargs):
        raise AssertionError("semistandard tableaux enumerated")

    for name in ("semistandard_tableaux", "tableau_content"):
        monkeypatch.setattr(schur_core, name, boom)
        monkeypatch.setattr(blocksim, name, boom, raising=False)
    state = product_state(spectrum_of(0.5, 0.3, 0.2), 12)
    validate_block_state(state)


@pytest.mark.parametrize("sp", [Spectrum((0.6, 0.4, 0.0)), Spectrum((0.5, 0.3, 0.2, 0.0))])
def test_block_diagonals_with_a_zero_eigenvalue(sp):
    # a letter of probability 0 zeroes the entries that use it and leaves the
    # others finite: the diagonal is the monomials over the Schur polynomial
    probs = np.array(sp.probs)
    for lam, blk in product_state(sp, 5).blocks.items():
        if blk.weight == 0.0:
            assert lam.num_rows > sp.rank and not np.any(blk.matrix)
            continue
        monomials = np.prod(probs ** gelfand_tsetlin_contents(lam, sp.d), axis=1)
        s_val = schur_polynomial_brute(lam, sp)
        assert monomials.sum() == pytest.approx(s_val, rel=1e-12)
        assert np.allclose(blk.matrix, monomials / s_val, rtol=1e-12, atol=0.0)


def test_product_state_qudit_rejects_rotation():
    with pytest.raises(UnsupportedFeatureError):
        product_state(spectrum_of(0.5, 0.3, 0.2), 3, BlochVector(0.3, 0.1))


def test_product_state_degenerate_spectrum():
    state = product_state(spectrum_of(0.5, 0.25, 0.25), 5)
    validate_block_state(state)


# ---------------------------------------------------------------------------
# Channels
# ---------------------------------------------------------------------------

def test_encode_full_keep_is_lossless():
    state = product_state(spectrum_of(0.75, 0.25), 6)
    enc = encode(state, list(state.blocks))
    assert enc.multiplicity_free
    for lam, blk in state.blocks.items():
        assert enc.blocks[lam].weight == blk.weight
        assert np.array_equal(enc.blocks[lam].matrix, blk.matrix)


def test_encode_rejects_empty_keep():
    state = product_state(spectrum_of(0.75, 0.25), 4)
    with pytest.raises(ParameterError):
        encode(state, [])


def test_encode_rejects_dump_outside_keep():
    state = product_state(spectrum_of(0.75, 0.25), 4)
    keep = {two_row(4, 4), two_row(4, 2)}
    bad_dump = uniform_dump(4, 2, list(state.blocks))  # supported everywhere
    with pytest.raises(ContractViolationError):
        encode(state, keep, bad_dump)


def test_encode_reroutes_tail_mass():
    state = product_state(spectrum_of(0.75, 0.25), 4)
    keep = [two_row(4, 4), two_row(4, 2)]
    enc = encode(state, keep)
    total = sum(blk.weight for blk in enc.blocks.values())
    assert total == pytest.approx(1.0, abs=1e-12)
    rerouted = sum(enc.blocks[lam].weight - state.blocks[lam].weight for lam in keep)
    assert rerouted == pytest.approx(0.0703125, abs=1e-12)
    assert two_row(4, 0) not in enc.blocks


def test_decode_requires_encoded_form():
    state = product_state(spectrum_of(0.75, 0.25), 4)
    with pytest.raises(ParameterError):
        decode(state)


def test_roundtrip_exact_on_product_states():
    for n in (3, 4, 7):
        state = product_state(spectrum_of(0.8, 0.2), n, BlochVector(0.5, 1.0))
        back = decode(encode(state, list(state.blocks)))
        assert trace_distance(state, back) == 0.0


def test_roundtrip_exact_on_random_block_states():
    rng = np.random.default_rng(21)
    for n, d in [(4, 2), (6, 2), (4, 3)]:
        for _ in range(10):
            state = random_block_state(n, d, rng)
            back = decode(encode(state, list(state.blocks)))
            assert trace_distance(state, back) < 1e-10


# ---------------------------------------------------------------------------
# Trace distance
# ---------------------------------------------------------------------------

def test_trace_distance_zero_on_self():
    state = product_state(spectrum_of(0.75, 0.25), 5)
    assert trace_distance(state, state) == 0.0


def _single_block_state(n, weights_and_mats):
    blocks = {lam: Block(w, m) for lam, (w, m) in weights_and_mats.items()}
    return BlockState(n=n, d=2, blocks=blocks)


def test_trace_distance_classical_total_variation():
    one = np.eye(1, dtype=complex)
    a = _single_block_state(2, {two_row(2, 2): (0.8, np.eye(3, dtype=complex) / 3),
                                two_row(2, 0): (0.2, one)})
    b = _single_block_state(2, {two_row(2, 2): (0.6, np.eye(3, dtype=complex) / 3),
                                two_row(2, 0): (0.4, one)})
    assert trace_distance(a, b) == pytest.approx(0.2, abs=1e-12)


def test_trace_distance_two_diagonal_blocks():
    m1 = np.diag([0.8, 0.2]).astype(complex)
    m2 = np.diag([0.6, 0.4]).astype(complex)
    a = _single_block_state(1, {two_row(1, 1): (1.0, m1)})
    b = _single_block_state(1, {two_row(1, 1): (1.0, m2)})
    assert trace_distance(a, b) == pytest.approx(0.2, abs=1e-12)


def test_trace_distance_rejects_mismatched_shapes():
    a = product_state(spectrum_of(0.75, 0.25), 4)
    b = product_state(spectrum_of(0.75, 0.25), 6)
    with pytest.raises(ParameterError):
        trace_distance(a, b)
    enc = encode(a, list(a.blocks))
    with pytest.raises(ParameterError):
        trace_distance(a, enc)


def test_trace_distance_is_a_metric_on_random_states():
    rng = np.random.default_rng(5)
    for _ in range(8):
        x = random_block_state(5, 2, rng)
        y = random_block_state(5, 2, rng)
        z = random_block_state(5, 2, rng)
        dxy = trace_distance(x, y)
        dyx = trace_distance(y, x)
        assert dxy == pytest.approx(dyx, abs=1e-12)
        assert dxy <= trace_distance(x, z) + trace_distance(z, y) + 1e-10
        assert 0.0 <= dxy <= 1.0 + 1e-12


def test_trace_norm_hermitian():
    h = np.diag([0.5, -0.25, 0.25]).astype(complex)
    assert trace_norm(h) == pytest.approx(1.0, abs=1e-13)
    assert trace_norm(np.diag(h).real) == pytest.approx(1.0, abs=1e-13)


def test_trace_distance_of_diagonal_states_needs_no_eigensolver(monkeypatch):
    def no_eigensolver(*args, **kwargs):
        raise AssertionError("eigensolver called on diagonal blocks")

    for name in ("eig", "eigh", "eigvals", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, no_eigensolver)
    for sp, n in ((spectrum_of(0.75, 0.25), 12), (spectrum_of(0.5, 0.3, 0.2), 6)):
        grid = sorted(enumerate_diagrams(n, sp.d), reverse=True)
        report = exact_protocol_error(n, sp, grid[:3])
        assert report.exact_error == pytest.approx(report.tail_mass, abs=1e-12)


# ---------------------------------------------------------------------------
# Protocol error
# ---------------------------------------------------------------------------

def test_exact_error_zero_for_full_keep():
    sp = spectrum_of(0.75, 0.25)
    report = exact_protocol_error(6, sp, enumerate_diagrams(6, 2))
    assert report.exact_error == 0.0
    assert report.tail_mass == 0.0
    assert isinstance(report.tail_mass, float)


def test_exact_error_sandwiched_by_tail():
    sp = spectrum_of(0.75, 0.25)
    keep = [two_row(4, 4), two_row(4, 2)]
    report = exact_protocol_error(4, sp, keep)
    assert report.tail_mass == pytest.approx(0.0703125, abs=1e-12)
    assert report.lower_bound <= report.exact_error <= report.tail_mass + 1e-12
    # dump mass with support inside the keep set makes the error exactly the tail
    assert report.exact_error == pytest.approx(report.tail_mass, abs=1e-12)


def test_exact_error_orientation_invariant():
    sp = spectrum_of(0.75, 0.25)
    keep = [two_row(8, 8), two_row(8, 6), two_row(8, 4)]
    rng = np.random.default_rng(2)
    values = []
    for _ in range(6):
        orient = BlochVector(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
        values.append(exact_protocol_error(8, sp, keep, orient).exact_error)
    assert max(values) - min(values) < 1e-10


def test_exact_error_monotone_in_keep_set():
    sp = spectrum_of(0.8, 0.2)
    grid = sorted(enumerate_diagrams(10, 2), reverse=True)
    errors = []
    for size in range(1, len(grid) + 1):
        errors.append(exact_protocol_error(10, sp, grid[:size]).exact_error)
    assert all(errors[i + 1] <= errors[i] + 1e-12 for i in range(len(errors) - 1))


def test_exact_error_custom_dump():
    sp = spectrum_of(0.75, 0.25)
    keep = [two_row(4, 4)]
    dump = BlockState(n=4, d=2, blocks={two_row(4, 4): Block(1.0, np.eye(5, dtype=complex) / 5)},
                      multiplicity_free=True)
    report = exact_protocol_error(4, sp, keep, dump_state=dump)
    assert report.exact_error == pytest.approx(report.tail_mass, abs=1e-12)


def test_qudit_protocol_error():
    sp = spectrum_of(0.5, 0.3, 0.2)
    diagrams = enumerate_diagrams(5, 3)
    keep = diagrams[:2]
    report = exact_protocol_error(5, sp, keep)
    assert report.lower_bound - 1e-12 <= report.exact_error <= report.tail_mass + 1e-12


def test_weights_summary_serializes():
    state = product_state(spectrum_of(0.75, 0.25), 4)
    summary = state.weights_summary()
    assert summary[0]["diagram"] == [4, 0]
    assert summary[0]["weight"] == pytest.approx(0.47265625, abs=1e-12)
    assert sum(item["weight"] for item in summary) == pytest.approx(1.0, abs=1e-12)
