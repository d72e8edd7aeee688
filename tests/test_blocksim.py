import functools
import math
import time
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from schurcompress import blocksim, schur_core
from schurcompress.blocksim import (
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
    validate_block_state,
)
from schurcompress.errors import (
    ContractViolationError,
    ParameterError,
    ResourceLimitError,
    UnsupportedFeatureError,
)
from schurcompress.planner import qubit_approx_plan, qudit_approx_plan, zero_error_plan
from schurcompress.schur_core import (
    Spectrum,
    YoungDiagram,
    enumerate_diagrams,
    irrep_dim,
    multiplicity_dim,
    spectrum_of,
)

from reference import (
    block_state,
    gelfand_tsetlin_contents,
    qubit_multiplicity,
    schur_polynomial_brute,
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


def test_weight_views_share_one_read_only_table():
    sp = spectrum_of(0.6, 0.3, 0.1)
    table = blocksim.weight_table(12, sp)
    assert not table.rows.flags.writeable and not table.weights.flags.writeable
    rows = list(map(tuple, table.rows.tolist()))
    state = product_state(sp, 12)
    assert [lam.rows for lam in state.blocks] == rows  # the view follows the rows
    assert not state.weights.flags.writeable
    assert block_weights(12, sp) == dict(zip(enumerate_diagrams(12, 3), table.weights.tolist()))
    qubits = qubit_weights(12, 0.75)
    assert list(qubits) == list(range(0, 13, 2))
    assert all(qubit_weight(12, 0.75, two_j) == w for two_j, w in qubits.items())


def test_block_weights_over_the_diagram_cap_raise(monkeypatch):
    monkeypatch.setattr(schur_core, "DIAGRAM_ENTRY_CAP", 100)
    block_weights(12, spectrum_of(0.5, 0.3, 0.2))  # 19 diagrams of 3 rows
    with pytest.raises(ResourceLimitError):
        block_weights(20, spectrum_of(0.5, 0.3, 0.2))


def test_block_weights_is_a_read_only_view_of_the_table():
    sp = spectrum_of(0.5, 0.3, 0.2)
    table = blocksim.weight_table(9, sp)
    view = block_weights(9, sp)
    diagrams = enumerate_diagrams(9, 3)
    assert list(view) == list(view.keys()) == diagrams
    assert view == dict(zip(diagrams, table.weights.tolist())) and dict(view) == view
    assert view.items() == list(zip(diagrams, table.weights.tolist()))
    lam = YoungDiagram((4, 3, 2))
    assert lam in view and view[lam] == view.get(lam) == table.weights[diagrams.index(lam)]
    assert type(view[lam]) is float
    for missing in (YoungDiagram((5, 5, 0)), YoungDiagram((9, 0)), YoungDiagram((9, 0, 0, 0))):
        assert missing not in view and view.get(missing) is None
        with pytest.raises(KeyError):
            view[missing]
    with pytest.raises(TypeError):
        view[lam] = 0.5
    with pytest.raises(TypeError):
        del view[lam]


def test_block_weights_length_and_values_build_no_young_diagram(monkeypatch):
    sp = spectrum_of(0.4, 0.3, 0.2, 0.1)
    calls, build = [], schur_core.young_diagrams

    def counted(rows):
        calls.append(len(rows))
        return build(rows)

    monkeypatch.setattr(schur_core, "young_diagrams", counted)
    monkeypatch.setattr(blocksim, "young_diagrams", counted)
    view = block_weights(40, sp)
    table = blocksim.weight_table(40, sp)
    assert len(view) == len(table.rows) and view.values() == table.weights.tolist()
    assert calls == []
    assert next(iter(view)) == YoungDiagram((40, 0, 0, 0)) and calls == [len(table.rows)]
    view[YoungDiagram((10, 10, 10, 10))]
    assert calls == [len(table.rows)]  # the keys are built once


@pytest.mark.parametrize("theta, phi", [(math.nan, 0.0), (0.0, math.nan), (math.inf, 1.0),
                                        (1.0, -math.inf)])
def test_bloch_vector_rejects_non_finite_angles(theta, phi):
    with pytest.raises(ParameterError):
        BlochVector(theta, phi)


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
    ((0.999999998, 1e-9, 1e-9), 40), ((0.7, 0.2, 0.099999999, 1e-9), 30),
])
def test_block_weights_match_exact_rationals(probs, n):
    # float Jacobi-Trudi was off by 4e-2, 2e3 and 1e36 relative on the d = 3 rows;
    # beyond the rank the exact weight is 0, and so must ours be
    exact = exact_block_weights(n, probs)
    for lam, w in block_weights(n, Spectrum(probs)).items():
        assert abs(Fraction(w) - exact[lam]) <= Fraction(1e-12) * exact[lam], lam


@pytest.mark.parametrize("probs, n", [
    ((0.5, 0.3, 0.2), 400), ((0.98, 0.01, 0.01), 400), ((0.4, 0.3, 0.2, 0.1), 100),
    ((0.999999998, 1e-9, 1e-9), 200), ((0.7, 0.2, 0.099999999, 1e-9), 120),
])
def test_block_weights_normalized_at_large_n(probs, n):
    weights = list(block_weights(n, Spectrum(probs)).values())
    assert min(weights) >= 0.0
    assert abs(math.fsum(weights) - 1.0) < 1e-10


# ---------------------------------------------------------------------------
# Product states
# ---------------------------------------------------------------------------

def test_product_state_over_the_block_entry_cap_raises(monkeypatch):
    # the cap bounds the (value, count) pairs a state stores: one per distinct
    # content of each shape, not one per tableau
    sp = spectrum_of(0.5, 0.3, 0.2)
    pairs = sum(len(np.unique(gelfand_tsetlin_contents(lam, 3), axis=0))
                for lam in enumerate_diagrams(20, 3))
    assert pairs < sum(irrep_dim(lam, 3) for lam in enumerate_diagrams(20, 3))
    monkeypatch.setattr(blocksim, "BLOCK_ENTRY_CAP", pairs - 1)
    with pytest.raises(ResourceLimitError):
        product_state(sp, 20)
    monkeypatch.setattr(blocksim, "BLOCK_ENTRY_CAP", pairs)
    validate_block_state(product_state(sp, 20))


def test_product_state_past_the_pair_cap_raises_before_any_kostka_table(monkeypatch):
    # d = 4, N = 40 under a cap of 2^20: the 49,364 content entries pass it and
    # the 2,766,344 pairs do not, so the pair count must stop the state before
    # any Kostka table is built (at N = 200 and the real cap a dense shape x
    # content Kostka matrix would take about 29 GB)
    def boom(*args, **kwargs):
        raise AssertionError("allocated past the cap")

    for name in ("_kostka_numbers", "_kostant_terms", "_kostant_table", "_compositions"):
        monkeypatch.setattr(blocksim, name, boom)
    monkeypatch.setattr(blocksim, "BLOCK_ENTRY_CAP", 2 ** 20)
    start = time.perf_counter()
    with pytest.raises(ResourceLimitError, match="pairs, N=40 needs at least"):
        product_state(spectrum_of(0.4, 0.3, 0.2, 0.1), 40)
    assert time.perf_counter() - start < 10.0


def test_product_state_over_the_content_table_cap_raises(monkeypatch):
    # every composition of N into d parts is one row of d contents; the size
    # depends on (N, d) alone, so it is checked before any block weight
    def boom(*args, **kwargs):
        raise AssertionError("weights computed past the cap")

    entries = math.comb(20 + 2, 2) * 3
    monkeypatch.setattr(blocksim, "BLOCK_ENTRY_CAP", entries - 1)
    monkeypatch.setattr(blocksim, "weight_table", boom)
    with pytest.raises(ResourceLimitError, match=f"content table capped .* needs {entries}"):
        product_state(spectrum_of(0.5, 0.3, 0.2), 20)


def test_kostant_caps_raise_before_anything_past_them_is_built(monkeypatch):
    # (0.6, 0.4, 0) at N = 12: the 7 shapes of two rows are live, which makes
    # 7 * 3 partial terms at the first position, and the Kostant table of
    # three rows is 9 * 5 = 45 entries
    def boom(*args, **kwargs):
        raise AssertionError("built past the cap")

    sp = Spectrum((0.6, 0.4, 0.0))
    with monkeypatch.context() as patch:
        patch.setattr(blocksim, "KOSTKA_CAP", 20)
        patch.setattr(blocksim, "_kostant_table", boom)
        with pytest.raises(ResourceLimitError, match="Kostant's sum capped at 20 partial terms, "
                                                     "which 7 shapes with 3 rows pass"):
            product_state(sp, 12)
    with monkeypatch.context() as patch:
        patch.setattr(blocksim, "KOSTKA_CAP", 44)
        patch.setattr(blocksim, "_lex_ranks", boom)
        with pytest.raises(ResourceLimitError, match="Kostant table capped at 44 entries, "
                                                     "N=12 with 3 rows needs 45"):
            product_state(sp, 12)
    validate_block_state(product_state(sp, 12))


def test_random_and_turned_blocks_count_against_the_cap(monkeypatch):
    rng = np.random.default_rng(4)
    squares = sum((two_j + 1) ** 2 for two_j in range(0, 9, 2))  # every dense block at N = 8
    monkeypatch.setattr(blocksim, "BLOCK_ENTRY_CAP", squares - 1)
    with pytest.raises(ResourceLimitError):
        random_block_state(8, 2, rng)
    monkeypatch.setattr(blocksim, "BLOCK_ENTRY_CAP", squares)
    lab = random_block_state(8, 2, rng)
    validate_block_state(lab)
    monkeypatch.setattr(blocksim, "BLOCK_ENTRY_CAP", 25)  # the 25 pairs of a product state
    turned = product_state(spectrum_of(0.75, 0.25), 8, BlochVector(0.3, 2.0))
    assert turned.dense == {} and len(turned.values) == 25  # the label holds no entries


def test_trace_distance_refuses_states_in_different_frames(monkeypatch):
    sp = spectrum_of(0.75, 0.25)
    lab = product_state(sp, 6)
    random_lab = random_block_state(6, 2, np.random.default_rng(5))
    first, second = BlochVector(0.3, 2.0), BlochVector(1.1, 0.4)
    meetings = [(random_lab, product_state(sp, 6, first)),
                (product_state(sp, 6, first), lab),
                (product_state(sp, 6, first), product_state(sp, 6, second)),
                (product_state(sp, 6, BlochVector(0.0, 0.7)), lab)]  # theta = 0: its own frame

    def boom(*args, **kwargs):
        raise AssertionError("a block was read")

    monkeypatch.setattr(blocksim, "_diagonals", boom)
    monkeypatch.setattr(blocksim, "_row_reduce", boom)
    for a, b in meetings:
        for x, y in ((a, b), (b, a)):
            with pytest.raises(UnsupportedFeatureError, match="states held in different frames"):
                trace_distance(x, y)
    monkeypatch.undo()
    same = product_state(sp, 6, first)
    assert trace_distance(same, product_state(sp, 6, BlochVector(0.3, 2.0))) == 0.0
    assert 0.0 < trace_distance(random_lab, lab) <= 1.0


def test_product_state_weights_and_invariants():
    state = product_state(spectrum_of(0.75, 0.25), 4)
    validate_block_state(state)
    assert state.blocks[two_row(4, 4)].weight == pytest.approx(0.47265625, abs=1e-12)
    assert state.blocks[two_row(4, 0)].weight == pytest.approx(0.0703125, abs=1e-12)


def test_product_state_pure_lives_in_symmetric_block():
    state = product_state(Spectrum((1.0, 0.0)), 6)
    assert state.blocks[two_row(6, 6)].weight == 1.0
    assert all(blk.weight == 0.0 for lam, blk in state.blocks.items() if lam.two_j != 6)


def test_product_state_rotated_is_valid():
    orient = BlochVector(1.1, 0.4)
    state = product_state(spectrum_of(0.8, 0.2), 5, orient)
    assert state.orientation == orient
    validate_block_state(state)
    diag = product_state(spectrum_of(0.8, 0.2), 5)
    assert diag.orientation is None and state.dense == {}
    for name in ("weights", "values", "counts", "offsets"):  # the label is all that differs
        assert np.array_equal(getattr(state, name), getattr(diag, name)), name


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
    for each in (state, encoded, decode(encoded)):
        assert_vectors(each)


@pytest.mark.parametrize("sp, n", [(spectrum_of(0.75, 0.25), 40), (spectrum_of(0.5, 0.3, 0.2), 12),
                                   (Spectrum((0.5, 0.3, 0.2, 0.0)), 8)])
def test_block_diagonals_do_not_depend_on_the_batching(sp, n):
    # the state holds one pair per distinct content, normalized for all shapes
    # at once; the diagonal of every block must match, as a multiset, a
    # reference that takes one shape at a time over its tableaux, and list
    # its pairs in layout order
    def one_shape(lam):
        contents = gelfand_tsetlin_contents(lam, sp.d)
        logs = contents[:, :sp.rank] @ np.log(sp.probs[:sp.rank])
        logs[contents[:, sp.rank:].any(axis=1)] = -np.inf
        rel = np.exp(logs - logs.max())
        return rel / rel.sum()

    state = product_state(sp, n)
    for i, (lam, blk) in enumerate(state.blocks.items()):
        reference = one_shape(lam) if blk.weight else np.zeros(irrep_dim(lam, sp.d))
        assert blk.matrix.shape == reference.shape, lam
        assert np.max(np.abs(np.sort(blk.matrix) - np.sort(reference))) <= 2.2e-16, lam
        run = slice(state.offsets[i], state.offsets[i + 1])
        if sp.d >= 3:
            assert np.array_equal(blk.matrix, np.repeat(state.values[run], state.counts[run])), lam


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
        assert np.allclose(np.sort(blk.matrix), np.sort(monomials / s_val), rtol=1e-12, atol=0.0)


def test_product_state_qudit_rejects_rotation():
    with pytest.raises(UnsupportedFeatureError):
        product_state(spectrum_of(0.5, 0.3, 0.2), 3, BlochVector(0.3, 0.1))


@pytest.mark.parametrize("d, n", [(9, 9), (8, 11)])
def test_content_counts_sum_to_irrep_dims_with_many_rows(d, n):
    # Kostant's sum runs over S_r with r = min(N, d): 9! and 8! orderings here,
    # too many tableaux for the histogram test
    probs = np.arange(d, 0, -1.0)
    state = product_state(Spectrum(tuple(probs / probs.sum())), n)
    dims = schur_core.irrep_dims(schur_core.diagram_rows(n, d)).astype(np.int64)
    assert np.array_equal(np.add.reduceat(state.counts, state.offsets[:-1]), dims)
    validate_block_state(state)


def test_product_state_degenerate_spectrum():
    state = product_state(spectrum_of(0.5, 0.25, 0.25), 5)
    validate_block_state(state)


@pytest.mark.parametrize("probs, n", [
    ((0.75, 0.25), 9), ((0.5, 0.3, 0.2), 7), ((0.5, 0.25, 0.25), 7), ((0.6, 0.4, 0.0), 7),
    ((0.4, 0.3, 0.2, 0.1), 6), ((0.5, 0.3, 0.2, 0.0), 6), ((0.3, 0.25, 0.2, 0.15, 0.1), 5),
])
def test_content_pairs_match_the_tableau_histogram(probs, n):
    # the Kostka numbers from Kostant's formula against a count of the
    # Gelfand-Tsetlin tableaux, and each value against its monomial over the
    # Schur polynomial summed over the tableaux
    sp = Spectrum(probs)
    state = product_state(sp, n)
    rows = schur_core.diagram_rows(n, sp.d)
    probs = np.array(probs)
    for i, lam in enumerate(enumerate_diagrams(n, sp.d)):
        run = slice(state.offsets[i], state.offsets[i + 1])
        values, counts = state.values[run], state.counts[run]
        assert counts.sum() == irrep_dim(lam, sp.d), lam
        if state.weights[i] == 0.0:  # an underflowed block: one zero pair
            assert lam.num_rows > sp.rank and values.tolist() == [0.0], lam
            continue
        contents, index, engine_counts, _ = blocksim._content_pairs(rows[i:i + 1], rows)
        contents = contents[index]
        assert np.array_equal(counts, engine_counts), lam
        expected, tally = np.unique(gelfand_tsetlin_contents(lam, sp.d), axis=0,
                                    return_counts=True)
        order = np.lexsort(contents.T[::-1])
        assert np.array_equal(contents[order], expected), lam
        assert np.array_equal(counts[order], tally), lam
        monomials = np.prod(probs ** contents, axis=1)
        np.testing.assert_allclose(values, monomials / schur_polynomial_brute(lam, sp),
                                   rtol=1e-12, atol=0.0)


@functools.lru_cache(maxsize=2)
def _all_pairs(n, d):
    """The content pairs of every shape of n boxes and d rows."""
    rows = schur_core.diagram_rows(n, d)
    return (rows, *blocksim._content_pairs(rows, rows))


@pytest.mark.parametrize("d, n", [(3, 100), (4, 30)])
def test_kostka_counts_sum_to_irrep_dims(d, n):
    # sum_c K_lambda,c = dim lambda for every shape, exact in int64
    rows, _, _, counts, sizes = _all_pairs(n, d)
    dims = schur_core.irrep_dims(rows).astype(np.int64)
    assert np.array_equal(np.add.reduceat(counts, np.cumsum(sizes) - sizes), dims)


@pytest.mark.parametrize("d, n", [(3, 100), (4, 30)])
def test_kostka_counts_satisfy_rsk(d, n):
    # RSK: sum_lambda m_lambda K_lambda,c = N! / prod_i c_i! for every
    # composition c, in Python ints; the only check that ties the Kostka
    # numbers to the multiplicities at large N
    rows, contents, index, counts, sizes = _all_pairs(n, d)
    shape = np.repeat(np.arange(len(rows)), sizes)
    terms = schur_core.multiplicity_dims(rows)[shape] * counts.astype(object)
    order = np.argsort(index, kind="stable")
    firsts = np.flatnonzero(np.diff(index[order], prepend=-1))
    assert np.array_equal(index[order][firsts], np.arange(len(contents)))
    sums = np.add.reduceat(terms[order], firsts)
    expected = [math.factorial(n) // math.prod(map(math.factorial, c))
                for c in contents.tolist()]
    assert sums.tolist() == expected


@pytest.mark.parametrize("probs, n", [
    ((0.5, 0.3, 0.2), 100), ((0.6, 0.4, 0.0), 100), ((0.5, 0.25, 0.25), 100),
    ((0.4, 0.3, 0.2, 0.1), 30),
])
def test_kostka_counts_sum_to_schur_polynomials(probs, n):
    # log sum_c K_lambda,c p^c, unnormalized, against the Gelfand-Tsetlin
    # engine, an algorithm independent of Kostant's formula
    sp = Spectrum(probs)
    rows, contents, index, counts, sizes = _all_pairs(n, sp.d)
    logs = contents[:, :sp.rank] @ np.log(sp.probs[:sp.rank])
    logs[contents[:, sp.rank:].any(axis=1)] = -np.inf
    terms = logs[index] + np.log(counts)
    inside = ~rows[:, sp.rank:].any(axis=1)
    terms, sizes = terms[np.repeat(inside, sizes)], sizes[inside]
    firsts = np.cumsum(sizes) - sizes
    top = np.maximum.reduceat(terms, firsts)
    sums = top + np.log(np.add.reduceat(np.exp(terms - np.repeat(top, sizes)), firsts))
    want = schur_core.log_schur_polynomials(schur_core.diagram_rows(n, sp.rank), sp)
    np.testing.assert_allclose(sums, want, rtol=0.0, atol=1e-12)


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


def test_encode_sizes_zero_blocks_without_irrep_dim(monkeypatch):
    def boom(*args, **kwargs):
        raise AssertionError("irrep_dim called per diagram")

    monkeypatch.setattr(schur_core, "irrep_dim", boom)
    monkeypatch.setattr(blocksim, "irrep_dim", boom, raising=False)
    report = exact_protocol_error(6, Spectrum((1.0, 0.0)), enumerate_diagrams(6, 2))
    assert report.exact_error == 0.0 and report.tail_mass == 0.0


def test_encode_rejects_empty_keep():
    state = product_state(spectrum_of(0.75, 0.25), 4)
    with pytest.raises(ParameterError):
        encode(state, [])


def test_keep_sets_that_name_no_block_raise():
    # a one-row diagram is no qubit block: the whole mass used to go to its dump,
    # and the error read 1.0 where the same partition as (4, 0) reads 0.527
    sp = Spectrum((0.75, 0.25))
    state = product_state(sp, 4)
    for keep in ([YoungDiagram((4,))], [YoungDiagram((3, 0))], np.zeros((0, 2), dtype=np.int64)):
        for call in (lambda: exact_protocol_error(4, sp, keep), lambda: encode(state, keep)):
            with pytest.raises(ParameterError, match="holds no block"):
                call()
    report = exact_protocol_error(4, sp, [YoungDiagram((4, 0))])
    assert report.exact_error == pytest.approx(0.52734375, abs=1e-12)
    assert report.tail_mass == pytest.approx(0.52734375, abs=1e-12)


def test_validate_rejects_weight_where_no_block_is_held():
    state = BlockState.from_matrices(2, 2, np.array([0.5, 0.5]), (np.eye(3) / 3, None))
    with pytest.raises(ContractViolationError, match=r"weight 0\.5 on block \[1, 1\]"):
        validate_block_state(state)


@pytest.mark.parametrize("weight, hermitian", [(0.5, False), (1e-4, True)])
def test_validate_weighs_the_hermitian_tolerance(weight, hermitian):
    # off Hermitian by 1e-9: 5e-10 on the scale of the state at weight 0.5,
    # 1e-13 at weight 1e-4, against a tolerance of 1e-12
    mat = np.eye(3) / 3
    mat[0, 1] += 1e-9
    state = BlockState.from_matrices(2, 2, np.array([weight, 1.0 - weight]), [mat, np.eye(1)])
    if hermitian:
        validate_block_state(state)
    else:
        with pytest.raises(ContractViolationError, match=r"^block \[2, 0\] not Hermitian$"):
            validate_block_state(state)


def test_dense_blocks_of_the_wrong_shape_raise_at_construction():
    # a 2 x 2 block on the dimension-3 row of N = 2 qubits used to pass
    # validate_block_state and then fail inside a numpy broadcast in encode
    weights = np.array([0.5, 0.5])
    with pytest.raises(ContractViolationError, match=r"^block \[2, 0\] is \(2, 2\), not 3 x 3$"):
        BlockState.from_matrices(2, 2, weights, [np.eye(2) / 2, np.eye(1)])
    with pytest.raises(ContractViolationError, match=r"^block \[2, 0\] is \(3,\), not 3 x 3$"):
        BlockState.from_matrices(2, 2, weights, [np.full(3, 1 / 3), np.eye(1)])
    with pytest.raises(ContractViolationError, match=r"^block \[2, 0\] is \(2, 2\), not 3 x 3$"):
        BlockState(2, 2, weights, np.array([True, False]), np.zeros(0), np.zeros(0, dtype=np.int64),
                   np.zeros(3, dtype=np.int64), dense={0: np.eye(2) / 2})
    validate_block_state(BlockState.from_matrices(2, 2, weights, [np.eye(3) / 3, np.eye(1)]))


def test_validate_rejects_a_count_off_by_one():
    # values normalized over a wrong Kostka count still have unit trace, so
    # only the counts against the dimension can catch it
    state = product_state(spectrum_of(0.5, 0.3, 0.2), 6)
    k = state.offsets[1]
    counts, values = state.counts.copy(), state.values.copy()
    counts[k] += 1
    run = slice(k, state.offsets[2])
    values[run] /= (values[run] * counts[run]).sum()
    broken = replace(state, values=values, counts=counts)
    dim = irrep_dim(YoungDiagram((5, 1, 0)), 3)
    message = rf"block \[5, 1, 0\] counts sum to {dim + 1}, not its dimension {dim}"
    with pytest.raises(ContractViolationError, match=message):
        validate_block_state(broken)


def test_encode_reroutes_tail_mass():
    state = product_state(spectrum_of(0.75, 0.25), 4)
    keep = [two_row(4, 4), two_row(4, 2)]
    enc = encode(state, keep)
    total = sum(blk.weight for blk in enc.blocks.values())
    assert total == pytest.approx(1.0, abs=1e-12)
    rerouted = sum(enc.blocks[lam].weight - state.blocks[lam].weight for lam in keep)
    assert rerouted == pytest.approx(0.0703125, abs=1e-12)
    assert two_row(4, 0) not in enc.blocks


def test_encode_mixes_dense_and_missing_blocks_with_the_dump():
    # the tail 0.4 of the discarded singlet goes 5 : 3 to the kept spins 2 and 1;
    # a dense block is mixed with the dump as a matrix, and a kept row the
    # state holds no block on gets the dump alone
    g = np.random.default_rng(3).normal(size=(5, 5))
    mat = g @ g.T / np.trace(g @ g.T)
    state = block_state(4, 2, {two_row(4, 4): (0.6, mat), two_row(4, 0): (0.4, np.ones((1, 1)))})
    enc = encode(state, [two_row(4, 4), two_row(4, 2)])
    mixed, alone = enc.blocks[two_row(4, 4)], enc.blocks[two_row(4, 2)]
    assert mixed.weight == pytest.approx(0.85, abs=1e-15)
    np.testing.assert_allclose(mixed.matrix, (0.6 * mat + 0.05 * np.eye(5)) / 0.85,
                               rtol=0.0, atol=1e-15)
    assert alone.weight == pytest.approx(0.15, abs=1e-15)
    np.testing.assert_allclose(alone.matrix, np.eye(3) / 3, rtol=0.0, atol=1e-15)
    back = decode(enc)
    validate_block_state(back)
    assert trace_distance(state, back) == pytest.approx(0.4, abs=1e-12)


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


def test_trace_distance_classical_total_variation():
    one = np.eye(1, dtype=complex)
    a = block_state(2, 2, {two_row(2, 2): (0.8, np.eye(3, dtype=complex) / 3),
                           two_row(2, 0): (0.2, one)})
    b = block_state(2, 2, {two_row(2, 2): (0.6, np.eye(3, dtype=complex) / 3),
                           two_row(2, 0): (0.4, one)})
    assert trace_distance(a, b) == pytest.approx(0.2, abs=1e-12)


def test_trace_distance_two_diagonal_blocks():
    m1 = np.diag([0.8, 0.2]).astype(complex)
    m2 = np.diag([0.6, 0.4]).astype(complex)
    a = block_state(1, 2, {two_row(1, 1): (1.0, m1)})
    b = block_state(1, 2, {two_row(1, 1): (1.0, m2)})
    assert trace_distance(a, b) == pytest.approx(0.2, abs=1e-12)


def test_trace_distance_rejects_a_non_hermitian_dense_block():
    # the trace norm reads one triangle: [[0.5, 0.3], [0, 0.5]] against 1/2 read 0
    skew = np.array([[0.5, 0.3], [0.0, 0.5]])
    half = BlockState.from_matrices(1, 2, np.array([1.0]), [np.eye(2) / 2])
    bad = BlockState.from_matrices(1, 2, np.array([1.0]), [skew])
    for a, b in ((bad, half), (half, bad), (bad, product_state(spectrum_of(0.5, 0.5), 1))):
        with pytest.raises(ContractViolationError, match=r"\[1, 0\] is not Hermitian"):
            trace_distance(a, b)
    # the tolerance is on the weighted difference, the scale of the state: the
    # same block at weight 1e-13 is off Hermitian by 3e-14 there
    weights = np.array([1.0 - 1e-13, 1e-13])
    light = BlockState.from_matrices(3, 2, weights, [np.eye(4) / 4, skew])
    even = BlockState.from_matrices(3, 2, weights, [np.eye(4) / 4, np.eye(2) / 2])
    assert trace_distance(light, even) <= 1e-13


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


def test_trace_distance_between_crossing_layouts(monkeypatch):
    # with a high underflow the skewed state's low-spin blocks and the flat
    # state's top block are one zero pair, so the two layouts differ and every
    # row is compared as its expanded diagonals
    monkeypatch.setattr(blocksim, "UNDERFLOW", 0.05)
    a = product_state(spectrum_of(0.9, 0.1), 8)
    b = product_state(spectrum_of(0.55, 0.45), 8)
    assert ((a.sizes == 1) & (b.sizes > 1)).any() and ((a.sizes > 1) & (b.sizes == 1)).any()
    expected = 0.5 * sum(np.abs(a.blocks[lam].weight * a.blocks[lam].matrix
                                - b.blocks[lam].weight * b.blocks[lam].matrix).sum()
                         for lam in a.blocks)
    assert trace_distance(a, b) == pytest.approx(expected, abs=1e-15)
    assert trace_distance(b, a) == pytest.approx(expected, abs=1e-15)


def _two_runs(counts_b):
    """Two N = 2 qubit states whose (2, 0) blocks hold different pairs: three
    values of count 1 against two values of the given counts."""
    weights, held = np.array([0.5, 0.5]), np.ones(2, dtype=bool)
    a = BlockState(2, 2, weights, held, np.array([0.5, 0.3, 0.2, 1.0]),
                   np.ones(4, dtype=np.int64), np.array([0, 3, 4]))
    b = BlockState(2, 2, weights, held, np.array([0.25, 0.5, 1.0]),
                   np.array(counts_b + [1]), np.array([0, 2, 3]))
    return a, b


def test_trace_distance_compares_runs_of_equal_total_count_by_position():
    # different pairs of one dimension meet as their expanded diagonals:
    # (0.5, 0.3, 0.2) against (0.25, 0.25, 0.5), both weighed 0.5
    a, b = _two_runs([2, 1])
    assert trace_distance(a, b) == pytest.approx(0.15, abs=1e-15)
    assert trace_distance(b, a) == pytest.approx(0.15, abs=1e-15)


def test_trace_distance_rejects_runs_of_different_total_count():
    a, b = _two_runs([2, 2])
    with pytest.raises(ContractViolationError, match=r"blocks \[2, 0\] differ in dimension"):
        trace_distance(a, b)
    with pytest.raises(ContractViolationError, match="differ in dimension"):
        trace_distance(b, a)


def _dense(state):
    """The block-diagonal matrix of a state's ``blocks`` view, weights applied."""
    mats = [blk.weight * (np.diag(blk.matrix) if blk.matrix.ndim == 1 else blk.matrix)
            for blk in state.blocks.values()]
    out = np.zeros((sum(map(len, mats)),) * 2, dtype=complex)
    start = 0
    for mat in mats:
        out[start:start + len(mat), start:start + len(mat)] = mat
        start += len(mat)
    return out


def test_qudit_product_state_meets_dense_blocks():
    # a d = 3 state stores one pair per content and a random state is dense, so
    # every block of the trace distance goes through the per-row path
    n, sp = 4, spectrum_of(0.5, 0.3, 0.2)
    state = product_state(sp, n)
    other = random_block_state(n, 3, np.random.default_rng(8))
    diff = np.linalg.eigvalsh(_dense(state) - _dense(other))
    assert trace_distance(state, other) == pytest.approx(0.5 * np.abs(diff).sum(), abs=1e-12)
    assert trace_distance(other, state) == pytest.approx(0.5 * np.abs(diff).sum(), abs=1e-12)


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

@pytest.mark.parametrize("n", [8, 64])
def test_rotated_protocol_error_needs_no_wigner_matrix_or_eigensolver(monkeypatch, n):
    def boom(*args, **kwargs):
        raise AssertionError("rotated state materialised")

    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, boom)
    sp = spectrum_of(0.75, 0.25)
    keep = sorted(enumerate_diagrams(n, 2), reverse=True)[: n // 4]
    rotated = exact_protocol_error(n, sp, keep, BlochVector(1.0, 0.5))
    assert rotated == exact_protocol_error(n, sp, keep)
    assert rotated.exact_error == pytest.approx(rotated.tail_mass, abs=1e-15)


def test_rotated_protocol_error_at_512_copies_runs_at_diagonal_cost():
    # a dense d(beta) D d(beta)^T per block took about 15 s at this size
    n, sp, orient = 512, spectrum_of(0.75, 0.25), BlochVector(1.0, 0.5)
    keep = qubit_approx_plan(n, 0.75, 0.01).keep
    start = time.perf_counter()
    product_state(sp, n, orient)
    report = exact_protocol_error(n, sp, keep, orient)
    assert time.perf_counter() - start < 1.0
    assert abs(report.exact_error - report.tail_mass) <= 1e-15


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


@pytest.mark.parametrize("n, sp, orient, plan", [
    (64, spectrum_of(0.75, 0.25), None, qubit_approx_plan(64, 0.75, 0.01)),
    (41, spectrum_of(0.8, 0.2), BlochVector(1.2, 0.4), qubit_approx_plan(41, 0.8, 0.05)),
    (20, spectrum_of(0.5, 0.3, 0.2), None, qudit_approx_plan(20, spectrum_of(0.5, 0.3, 0.2), 0.1)),
    (9, Spectrum((0.6, 0.4, 0.0)), None, zero_error_plan(9, 3, 2)),
])
def test_plan_rows_and_diagrams_give_identical_reports(n, sp, orient, plan):
    by_rows = exact_protocol_error(n, sp, plan.rows, orient)
    assert by_rows == exact_protocol_error(n, sp, plan.keep, orient)
    assert by_rows == exact_protocol_error(n, sp, list(plan.keep)[::-1] * 2, orient)


def test_protocol_error_builds_the_row_index_once(monkeypatch):
    sp, n = spectrum_of(0.5, 0.3, 0.2), 12
    keep = qudit_approx_plan(n, sp, 0.1).rows
    exact_protocol_error(n, sp, keep)  # warm the weight table
    calls = {"diagram_rows": 0, "keep_mask": 0}

    def counted(name, func):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return func(*args, **kwargs)
        return wrapper

    for name in calls:
        wrapped = counted(name, getattr(schur_core, name))
        monkeypatch.setattr(schur_core, name, wrapped)
        monkeypatch.setattr(blocksim, name, wrapped)
    exact_protocol_error(n, sp, keep)
    assert calls["diagram_rows"] <= 1 and calls["keep_mask"] <= 1, calls


def test_qudit_protocol_error():
    sp = spectrum_of(0.5, 0.3, 0.2)
    diagrams = enumerate_diagrams(5, 3)
    keep = diagrams[:2]
    report = exact_protocol_error(5, sp, keep)
    assert report.lower_bound - 1e-12 <= report.exact_error <= report.tail_mass + 1e-12
