"""Exact simulation of permutation-invariant N-copy states, block by block.

A permutation-invariant state on (C^d)^{ox N} decomposes as a direct sum over
Young diagrams of weight * (block matrix ox maximally-mixed multiplicity
factor).  ``BlockState`` follows the rows of ``diagram_rows(N, d)``: one
weight per row, and the diagonal blocks as runs of (eigenvalue, multiplicity)
pairs on one flat layout, row i's diagonal being ``values[k]`` repeated
``counts[k]`` times for k in ``offsets[i]:offsets[i + 1]``, in that order for
every d.  Blocks given as matrices (random states, the oracle, user input)
are held per row as dense Hermitian matrices.  Encoding drops the
multiplicity factors and sends the weight of discarded blocks to the maximally
mixed state on the kept ones, which mixes one value into every pair of a kept
row, so the encoded state keeps the input's layout.  Decoding re-appends the
factors, so trace distances between full-form states are exact block-by-block
sums.

The product-state block of lambda has eigenvalue p^c / s_lambda(p) on each
content c of its semistandard tableaux, stored once per distinct c with the
Kostka number K_lambda,c (Kostant's multiplicity formula; Humphreys,
*Introduction to Lie Algebras and Representation Theory*, par. 24) as its
count; for qubits every count is 1, in ascending m.  No reported number
depends on the basis a diagonal block is listed in.  Encode, decode, the
trace distance and ``validate_block_state`` are whole-array passes over the
pairs, and states derived from one another share their layout, so those
passes need no gather; any other row goes through a per-row path.
``BlockState.blocks`` is the {YoungDiagram: Block} view, built on first use.

A qubit product state turned to a Bloch orientation keeps the same pairs: the
orientation is a label on the state, and its blocks are diagonal in the frame
turned by U^{ox N}.  Encoding, decoding and the dump commute with U^{ox N}, so
no reported number depends on the frame, and blocks are never turned between
frames: the trace distance compares states held in one frame only, and a
label with theta = 0 and phi != 0 is a frame of its own.

BlockStates are immutable after construction; channels return new values, so
independent (N, spectrum, epsilon) points can be evaluated in parallel.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field, replace
from functools import cached_property, lru_cache
from typing import Iterable, NamedTuple

import numpy as np

from .errors import (
    ContractViolationError,
    ParameterError,
    ResourceLimitError,
    UnsupportedFeatureError,
)
from .schur_core import (
    Spectrum,
    YoungDiagram,
    _ranges,
    _weyl_dims,
    diagram_rows,
    irrep_dims,
    keep_mask,
    log_multiplicities,
    log_schur_polynomials,
    young_diagrams,
)

WEIGHT_SUM_TOL = 1e-10
PSD_TOL = 1e-10
HERMITIAN_TOL = 1e-12
UNDERFLOW = 1e-300
BLOCK_ENTRY_CAP = 2 ** 25  # entries one state stores: a (value, count) pair, or dim^2 per dense block
KOSTKA_CAP = 2 ** 26  # partial Kostant terms walked, or Kostant partition-function table entries


class Block(NamedTuple):
    """Weight and normalized block, in the frame named by the ``orientation``
    of the state that holds it (theta = 0 with phi != 0 being a frame of its
    own): a 1-D array is the diagonal of a diagonal block, a 2-D array is a
    full Hermitian matrix."""

    weight: float
    matrix: np.ndarray


@dataclass(frozen=True)
class BlochVector:
    """Orientation of the maximal-eigenvalue axis of a qubit state."""

    theta: float
    phi: float

    def __post_init__(self):
        if not (math.isfinite(self.theta) and math.isfinite(self.phi)):
            raise ParameterError(f"non-finite Bloch angles theta={self.theta}, phi={self.phi}")


@dataclass(frozen=True, eq=False)
class BlockState:
    """Weights and blocks of a permutation-invariant N-copy state.

    Every array is read-only and follows the rows of ``diagram_rows(n, d)``:
    ``weights``, and ``held``, the rows that hold a block (weight 0 elsewhere).
    Row i's diagonal block is the pairs ``values[k]``, ``counts[k]`` for k in
    ``offsets[i]:offsets[i + 1]``: an eigenvalue and its multiplicity, so the
    counts of a block sum to its dimension, and its basis is the pairs in that
    order, each value repeated count times.  A product state holds one pair
    per content c with Kostka number K_lambda,c > 0, in the order of
    ``_content_pairs`` (for qubits count 1 each, in ascending m).  ``dense``
    maps a row to its block when that is a full Hermitian matrix; such a row's
    pairs are unused, and its side must be the row's ``irrep_dims`` entry
    (ContractViolationError at construction).  ``orientation`` names the frame:
    None is the lab frame, a Bloch vector the frame turned by the N-fold qubit
    rotation that takes the lab z axis to it, where an oriented product state
    is diagonal.  Two states are in one frame when their labels are equal, so
    theta = 0 with phi != 0 is a frame of its own, not the lab frame.
    Spectra, traces and weights do not depend on the frame.
    """

    n: int
    d: int
    weights: np.ndarray
    held: np.ndarray
    values: np.ndarray
    counts: np.ndarray
    offsets: np.ndarray
    dense: Mapping[int, np.ndarray] = field(default_factory=dict)
    multiplicity_free: bool = False
    orientation: BlochVector | None = None

    def __post_init__(self):
        for array in (self.weights, self.held, self.values, self.counts, self.offsets):
            array.flags.writeable = False
        if self.dense:
            rows = diagram_rows(self.n, self.d)[list(self.dense)]
            for row, dim, mat in zip(rows.tolist(), irrep_dims(rows).tolist(), self.dense.values()):
                if np.shape(mat) != (dim, dim):
                    raise ContractViolationError(f"block {row} is {np.shape(mat)}, not {dim} x {dim}")

    @classmethod
    def from_matrices(cls, n: int, d: int, weights: np.ndarray,
                      matrices: Iterable[np.ndarray | None]) -> "BlockState":
        """The state holding, on each row of ``diagram_rows(n, d)``, the given
        block: None for no block, or a dense Hermitian matrix (``np.diag(v)``
        for a diagonal v).  The matrices are held as given."""
        matrices = list(matrices)
        return cls(n, d, np.asarray(weights, float),
                   np.array([mat is not None for mat in matrices], dtype=bool),
                   np.zeros(0), np.zeros(0, dtype=np.int64), np.zeros(len(matrices) + 1, np.int64),
                   {i: mat for i, mat in enumerate(matrices) if mat is not None})

    @cached_property
    def sizes(self) -> np.ndarray:
        """Pairs per row."""
        return np.diff(self.offsets)

    @cached_property
    def pair_rows(self) -> np.ndarray:
        """Rows that hold a diagonal block, as pairs."""
        mask = self.held.copy()
        mask[list(self.dense)] = False
        return mask

    @cached_property
    def blocks(self) -> dict[YoungDiagram, Block]:
        """The blocks the state holds, keyed by YoungDiagram in ``diagram_rows``
        order: a dense block as its matrix, a diagonal one as its pairs
        expanded in layout order."""
        held = np.flatnonzero(self.held)
        diagonals = _diagonals(self, np.flatnonzero(self.pair_rows))
        weights = self.weights.tolist()
        lams = young_diagrams(diagram_rows(self.n, self.d)[held])
        return {lam: Block(weights[i], self.dense.get(i, diagonals.get(i)))
                for lam, i in zip(lams, held.tolist())}


def _row_reduce(offsets: np.ndarray, pairs: np.ndarray, ufunc=np.add) -> np.ndarray:
    """``ufunc`` over the pairs of each row of a layout (0 for a row without any),
    in the dtype of ``pairs``."""
    sizes = np.diff(offsets)
    out = np.zeros(len(sizes), dtype=pairs.dtype)
    if sizes.any():
        out[sizes > 0] = ufunc.reduceat(pairs, offsets[:-1][sizes > 0])
    return out


def validate_block_state(state: BlockState) -> None:
    """Assert the ensemble invariants: weights sum to 1, the counts of each
    diagonal block sum to its dimension, blocks Hermitian and PSD with unit
    trace.  Raises for the first row, in ``diagram_rows`` order, that breaks one.
    Each tolerance applies to the weighted block w * B, on the scale of the
    state as in ``trace_distance``, so a block of weight 1e-13 may be off
    Hermitian by 1e-5, as the oracle's extracted blocks of tiny weight are."""
    total = sum(state.weights.tolist())
    if abs(total - 1.0) > WEIGHT_SUM_TOL:
        raise ContractViolationError(f"block weights sum to {total!r}")
    w = state.weights
    rows = diagram_rows(state.n, state.d)
    dims = irrep_dims(rows)
    dim = _row_reduce(state.offsets, state.counts)
    trace = _row_reduce(state.offsets, state.values * state.counts)
    psd = w * _row_reduce(state.offsets, state.values, np.minimum) < -PSD_TOL
    hermitian = np.zeros(len(w), dtype=bool)
    for i, mat in state.dense.items():
        if w[i] == 0.0:
            continue
        trace[i] = np.trace(mat).real
        hermitian[i] = w[i] * np.max(np.abs(mat - mat.conj().T)) > HERMITIAN_TOL
        psd[i] = not hermitian[i] and w[i] * np.linalg.eigvalsh(mat).min() < -PSD_TOL
    checks = {"weight": (w < 0) | (~state.held & (w != 0)),
              "dimension": state.pair_rows & (dim != dims),
              "Hermitian": hermitian,
              "trace": state.held & (w * np.abs(trace - 1.0) > WEIGHT_SUM_TOL), "PSD": psd}
    failing = np.flatnonzero(np.logical_or.reduce(list(checks.values())))
    if len(failing):
        i = failing[0]
        row = rows[i].tolist()
        raise ContractViolationError({
            "weight": f"weight {w[i]} on block {row}",
            "dimension": f"block {row} counts sum to {dim[i]}, not its dimension {dims[i]}",
            "Hermitian": f"block {row} not Hermitian",
            "trace": f"block {row} trace {trace[i]!r}",
            "PSD": f"block {row} not PSD",
        }[next(name for name, mask in checks.items() if mask[i])])


# ---------------------------------------------------------------------------
# Block weights
# ---------------------------------------------------------------------------

def qubit_weight(n: int, p: float, two_j: int) -> float:
    """Probability weight of the spin-j block of the N-fold qubit state: the
    ``qubit_weights`` entry at 2j.  ParameterError for a 2j that is no spin of
    N qubits (``YoungDiagram.from_two_j``)."""
    YoungDiagram.from_two_j(n, two_j)
    return qubit_weights(n, p)[two_j]


def qubit_weight_binomial(n: int, p: float, two_j: int) -> float:
    """The same weight from the binomial-difference expression.

    (2j+1)/(2 j0) * [B(N+1, p, N/2+j+1) - B(N+1, p, N/2-j)] with
    j0 = (p - 1/2)(N+1).  Only valid away from p = 1/2.
    """
    if not 0.5 < p <= 1.0:
        raise ParameterError(f"binomial-difference form needs p > 1/2, got {p}")
    YoungDiagram.from_two_j(n, two_j)
    two_j0 = (2.0 * p - 1.0) * (n + 1)

    def pmf(k: int) -> float:
        if p == 1.0:
            return 1.0 if k == n + 1 else 0.0
        log_val = (
            math.log(math.comb(n + 1, k))
            + k * math.log(p)
            + (n + 1 - k) * math.log1p(-p)
        )
        return math.exp(log_val)

    upper = pmf((n + two_j) // 2 + 1)
    lower = pmf((n - two_j) // 2)
    return (two_j + 1) / two_j0 * (upper - lower)


def qubit_weights(n: int, p: float) -> dict[int, float]:
    """All weights {2j: q_j} on the valid spin grid for N copies, ascending 2j:
    the ``weight_table`` of the spectrum (p, 1 - p), for 1/2 <= p <= 1."""
    if not 0.5 <= p <= 1.0:
        raise ParameterError(f"need 1/2 <= p <= 1, got {p}")
    table = weight_table(n, Spectrum((p, 1.0 - p)))
    rows = table.rows[::-1]  # ascending 2j = l_1 - l_2
    return dict(zip((rows[:, 0] - rows[:, 1]).tolist(), table.weights[::-1].tolist()))


def block_weights(n: int, spectrum: Spectrum) -> "BlockWeights":
    """Weights q_lambda = m_lambda s_lambda(p) of every block of the N-copy state:
    ``weight_table`` as a read-only mapping, in the order of ``diagram_rows``."""
    return BlockWeights(weight_table(n, spectrum))


@dataclass(frozen=True, eq=False)
class WeightTable:
    """Every block of the N-copy state: the (M, d) ``diagram_rows`` and the weight
    of each row, both read-only."""

    rows: np.ndarray
    weights: np.ndarray


class BlockWeights(Mapping):
    """A read-only {YoungDiagram: weight} view of a ``WeightTable``, in row order.

    ``len()`` and ``values()`` (a list) read the arrays; the YoungDiagram keys
    are built on first iteration or lookup.
    """

    def __init__(self, table: WeightTable):
        self._table = table

    @cached_property
    def _index(self) -> dict[YoungDiagram, int]:
        return {lam: i for i, lam in enumerate(young_diagrams(self._table.rows))}

    def __len__(self) -> int:
        return len(self._table.weights)

    def __iter__(self):
        return iter(self._index)

    def __getitem__(self, lam: YoungDiagram) -> float:
        return self._table.weights.item(self._index[lam])

    def values(self) -> list[float]:
        return self._table.weights.tolist()

    def items(self) -> list[tuple[YoungDiagram, float]]:
        return list(zip(self._index, self._table.weights.tolist()))


@lru_cache(maxsize=1)  # callers ask for the same (N, spectrum) several times in a row
def weight_table(n: int, spectrum: Spectrum) -> WeightTable:
    """Weights q_lambda = m_lambda s_lambda(p) for every d: exp(``log_multiplicities``
    + ``log_schur_polynomials``), so neither factor has to fit a float.  The sum
    does cancel: each log is about N H(p) in size and their sum is O(log N), so a
    few ulps of each are a relative error in the weight that grows with N (a
    median 2.1e-14 at p = (0.5, 0.3, 0.2), N = 100 and 7.3e-13 at N = 2000,
    against 60-digit mpmath).  Exactly 0 beyond the spectrum rank.
    ``diagram_rows(n, d)`` is built once; its rows within the rank go to the
    Schur recurrence.  The exponential is libm's ``math.exp``: ``np.exp``
    differs from it in the last bit for a few percent of arguments, which would
    reorder near-tied densities in ``greedy_budget_keep``."""
    rows = diagram_rows(n, spectrum.d)
    inside = ~rows[:, spectrum.rank:].any(axis=1)  # the rows of diagram_rows(n, rank)
    logs = (log_multiplicities(rows[inside])
            + log_schur_polynomials(rows[inside, :spectrum.rank], spectrum))
    weights = np.zeros(len(rows))
    weights[inside] = np.fromiter(map(math.exp, logs.tolist()), float, logs.size)
    weights.flags.writeable = False
    return WeightTable(rows, weights)


# ---------------------------------------------------------------------------
# Product-state construction
# ---------------------------------------------------------------------------

def _kostant_table(n: int, r: int) -> np.ndarray:
    """The Kostant partition function of A_{r-1} on every point it is read at
    for weights of n boxes: P(a), the number of ways to write sum_k a_k alpha_k
    as a sum of positive roots, for 0 <= a_k <= n - ceil(k n / r).

    A positive root e_i - e_j is the run of simple roots alpha_i..alpha_{j-1},
    so P is a coin-change count, one running sum per root.  Raises
    ResourceLimitError, before allocating it, when the table would hold more
    than KOSTKA_CAP entries.
    """
    shape = tuple(n - -(-k * n // r) + 1 for k in range(1, r))
    if math.prod(shape) > KOSTKA_CAP:
        raise ResourceLimitError(
            f"Kostant table capped at {KOSTKA_CAP} entries, N={n} with {r} rows needs "
            f"{math.prod(shape)}")
    table = np.zeros(shape, dtype=np.int64)
    table[(0,) * len(shape)] = 1
    for i in range(r - 1):
        for j in range(i + 1, r):  # the root alpha_i + .. + alpha_{j-1}
            run = range(i + 1, j)
            to = [slice(1, None) if k in run else slice(None) for k in range(r - 1)]
            frm = [slice(None, -1) if k in run else slice(None) for k in range(r - 1)]
            for x in range(1, shape[i]):  # ascending, so the root can be used again
                to[i], frm[i] = x, x - 1
                table[tuple(to)] += table[tuple(frm)]
    return table


def _kostant_terms(lam: np.ndarray, floor: np.ndarray
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The terms (lambda, w) of Kostant's formula that can count: those whose
    prefix sums of w(lambda + rho) (rows of ``lam``) reach ``floor`` at every
    position.  A depth-first walk over w, one position at a time, drops a
    prefix as soon as it falls short.  Returns each term's shape, w as a
    base-r number, its prefix sums (without the last, the total) and whether
    w is odd, grouped by shape.  Raises ResourceLimitError, before a step,
    when the walk would hold more than KOSTKA_CAP partial terms.
    """
    r = lam.shape[1]
    shape, key = np.arange(len(lam)), np.zeros(len(lam), dtype=np.int64)
    used, odd = np.zeros(len(lam), dtype=np.int64), np.zeros(len(lam), dtype=bool)
    prefix = np.zeros((len(lam), 0), dtype=np.int32)
    for k in range(r):
        if len(shape) * r > KOSTKA_CAP:
            raise ResourceLimitError(
                f"Kostant's sum capped at {KOSTKA_CAP} partial terms, which {len(lam)} shapes "
                f"with {r} rows pass")
        parent, j = np.repeat(np.arange(len(shape)), r), np.tile(np.arange(r), len(shape))
        total = (prefix[parent, -1] if k else 0) + lam[shape[parent], j]
        keep = (used[parent] >> j & 1) == 0
        if k < r - 1:
            keep &= total >= floor[k]
        parent, j, total = parent[keep], j[keep], total[keep]
        later = used[parent] >> (j + 1)  # the placed entries above j, each an inversion
        flips = sum(((later >> b) & 1 for b in range(r)), np.zeros(len(j), dtype=np.int64))
        odd = odd[parent] ^ (flips & 1).astype(bool)
        used, key, shape = used[parent] | 1 << j, key[parent] * r + j, shape[parent]
        if k < r - 1:
            prefix = np.column_stack([prefix[parent], total])
    return shape, key, prefix, odd


def _shape_blocks(lams: np.ndarray, mus: np.ndarray) -> list[np.ndarray]:
    """The row indices of ``lams`` in consecutive blocks of about 2^17
    (shape, content) cells against ``mus``."""
    return np.array_split(np.arange(len(lams)),
                          max(1, min(len(lams), len(lams) * len(mus) // 2 ** 17)))


def _pair_counts(lams: np.ndarray, mus: np.ndarray, orbits: np.ndarray, extra: int
                 ) -> np.ndarray:
    """The pairs of each shape in ``lams``: the compositions that sort to a
    partition ``mus[j]`` it dominates (no prefix sum larger), ``orbits[j]``
    each, which are exactly those with K_lambda,c > 0.  Counts a block of
    shapes at a time in row order and raises ResourceLimitError as soon as
    the pairs so far and ``extra`` more pass BLOCK_ENTRY_CAP, before the
    remaining shapes are looked at."""
    lam_sums = np.cumsum(lams, axis=1)[:, :-1]
    mu_sums = np.cumsum(mus, axis=1)[:, :-1]
    sizes, total = np.zeros(len(lams), dtype=np.int64), extra
    for block in _shape_blocks(lams, mus):
        inside = np.ones((len(block), len(mus)), dtype=bool)
        for k in range(lam_sums.shape[1]):
            inside &= mu_sums[:, k] <= lam_sums[block, k, None]
        sizes[block] = np.where(inside, orbits, 0).sum(axis=1)
        total += int(sizes[block].sum())
        _check_pairs(total, int(mus[0].sum()))
    return sizes


def _kostka_numbers(lams: np.ndarray, mus: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The Kostka numbers K > 0 of shapes ``lams`` and contents ``mus`` (rows
    of partitions of one n in ``diagram_rows`` order), grouped by shape in
    row order: the content row of each and K, the number of semistandard
    tableaux of that shape and content.

    Kostant's multiplicity formula in GL(r), r the most nonzero rows any
    partition of n can have: K = sum over w in S_r of sgn(w) P(w(lambda + rho)
    - (mu + rho)), with P the ``_kostant_table`` read at the simple-root
    coordinates a_k, the prefix sums of that weight, and zero unless every
    a_k >= 0.  Only the terms of ``_kostant_terms`` are summed,
    one w at a time over blocks of about 2^17 (lambda, mu), and only over the
    mu from the block's first shape on in lexicographic order (K = 0 unless
    mu <= lambda in dominance).
    """
    n = int(mus[0].sum())
    r = max(1, min(n, lams.shape[1]))
    rho = np.arange(r - 1, -1, -1, dtype=np.int32)
    lower = np.cumsum(mus[:, :r] + rho, axis=1, dtype=np.int32)[:, :-1]
    shape, key, upper, odd = _kostant_terms(lams[:, :r].astype(np.int32) + rho,
                                            lower.min(axis=0))
    table = _kostant_table(n, r)
    strides = [math.prod(table.shape[k + 1:]) for k in range(r - 1)]
    table = table.ravel()
    ranks = _lex_ranks(mus, n)[::-1]  # ascending
    found = []
    for block in _shape_blocks(lams, mus):
        lo = len(mus) - np.searchsorted(ranks, _lex_ranks(lams[block[:1]], n), "right")[0]
        part = np.zeros((len(block), len(mus) - lo), dtype=np.int64)
        terms = np.arange(*np.searchsorted(shape, [block[0], block[-1] + 1]))
        terms = terms[np.argsort(key[terms], kind="stable")]
        for w in np.split(terms, np.flatnonzero(np.diff(key[terms])) + 1):
            a = [upper[w, k, None] - lower[lo:, k] for k in range(r - 1)]
            inside = np.logical_and.reduce([x >= 0 for x in a]) if a else np.True_
            flat = sum((x * s for x, s in zip(a, strides)), np.intp(0))
            term = np.where(inside, table[np.where(inside, flat, 0)], 0)
            if odd[w[0]]:
                part[shape[w] - block[0]] -= term
            else:
                part[shape[w] - block[0]] += term
        i, j = np.nonzero(part)
        found.append((j + lo, part[i, j]))
    return tuple(np.concatenate(column) for column in zip(*found))


def _orbits(mus: np.ndarray) -> np.ndarray:
    """The number of compositions that sort to each partition (row of
    ``mus``): the distinct orderings of its parts, k! over the factorials of
    the part multiplicities among the first k parts, built for k = 1..d."""
    orbit, run = np.ones(len(mus), dtype=np.int64), np.ones(len(mus), dtype=np.int64)
    for k in range(1, mus.shape[1]):
        run = np.where(mus[:, k] == mus[:, k - 1], run + 1, 1)
        orbit = orbit * (k + 1) // run
    return orbit


def _lex_ranks(contents: np.ndarray, n: int) -> np.ndarray:
    """The position of each composition of n (a row of ``contents``) among all
    compositions of n into as many parts, in lexicographic order: before
    position k come the ones that agree up to k and are smaller at k,
    C(l + m, m) - C(l - c_k + m, m) of them, with l = n - (c_0 + .. + c_{k-1})
    and m the parts after k."""
    d = contents.shape[1]
    ways = np.array([[math.comb(left + m, m) for m in range(d)] for left in range(n + 1)],
                    dtype=np.int64)
    left = n - np.cumsum(contents, axis=1) + contents
    rank = np.zeros(len(contents), dtype=np.int64)
    for k in range(d - 1):
        rank += ways[left[:, k], d - 1 - k] - ways[left[:, k] - contents[:, k], d - 1 - k]
    return rank


def _compositions(n: int, mus: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every composition of n into d parts, grouped by the partition ``mus``
    row it sorts to (in row order, lexicographic within a group): the (C, d)
    contents and the start of each row's group (M + 1)."""
    d = mus.shape[1]
    contents, left = np.zeros((1, 0), dtype=np.int64), np.array([n])
    for _ in range(d - 1):
        owner, value = _ranges(np.zeros_like(left), left)
        contents = np.column_stack([contents[owner], value])
        left = left[owner] - value
    contents = np.column_stack([contents, left])
    ranks = _lex_ranks(mus, n)  # descending, as diagram_rows is
    part = len(mus) - 1 - np.searchsorted(ranks[::-1], _lex_ranks(-np.sort(-contents), n))
    starts = np.concatenate([[0], np.cumsum(np.bincount(part, minlength=len(mus)))])
    return contents[np.argsort(part, kind="stable")], starts


def _content_pairs(lams: np.ndarray, mus: np.ndarray, extra: int = 0
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The (content, Kostka number) pairs of every shape in ``lams`` (rows of
    partitions of n, ``mus`` being all of them): each content c with
    K_lambda,c > 0, grouped by shape.  Returns the (C, d) contents, the
    content index of each pair, its count, and the pairs per shape.

    For two rows the contents are (c, n - c) for c = lambda_2..lambda_1, each
    once, which is ascending m.  Otherwise K_lambda,c = K_lambda,sort(c), so
    ``_kostka_numbers`` over partitions suffices, and each (lambda, mu) with
    K > 0 expands to the compositions that sort to mu, in ``_compositions``
    order; ``_pair_counts`` counts them first.  Raises ResourceLimitError,
    before allocating them, when the pairs and ``extra`` more would be more
    than BLOCK_ENTRY_CAP.
    """
    n, d = int(mus[0].sum()), mus.shape[1]
    if d == 2:
        sizes = lams[:, 0] - lams[:, 1] + 1
        _check_pairs(int(sizes.sum()) + extra, n)
        _, index = _ranges(lams[:, 1], lams[:, 0])
        contents = np.column_stack([np.arange(n + 1), np.arange(n, -1, -1)])
        return contents, index, np.ones(len(index), dtype=np.int64), sizes
    orbits = _orbits(mus)
    sizes = _pair_counts(lams, mus, orbits, extra)
    mu, kostka = _kostka_numbers(lams, mus)
    contents, starts = _compositions(n, mus)
    runs = orbits[mu]
    index = np.repeat(starts[mu] - (np.cumsum(runs) - runs), runs)
    index += np.arange(len(index))  # each (lambda, mu) runs over the compositions of mu
    return contents, index, np.repeat(kostka, runs), sizes


def _check_pairs(pairs: int, n: int) -> None:
    if pairs > BLOCK_ENTRY_CAP:
        raise ResourceLimitError(
            f"product state capped at {BLOCK_ENTRY_CAP} pairs, N={n} needs at least {pairs}")


def _dims(rows: np.ndarray) -> np.ndarray:
    """``irrep_dims`` as int64; ResourceLimitError for a dimension past 2^62."""
    dims = _weyl_dims(rows)
    if len(dims) and dims.max() >= 2 ** 62:
        raise ResourceLimitError(f"block dimension {dims.max()} does not fit a 64-bit count")
    return dims.astype(np.int64)


def product_state(spectrum: Spectrum, n: int,
                  orientation: BlochVector | None = None) -> BlockState:
    """Block decomposition of the N-fold product of a single-copy state.

    The block of lambda is diagonal with eigenvalue p^c / s_lambda(p) on each
    content c, K_lambda,c times: one pair per distinct content
    (``_content_pairs``), normalized per shape by a stable log-space softmax
    so that deep tails do not lose the normalization.  A letter of
    probability 0 that a content does not use contributes a factor 1; one it
    uses, 0.  A block whose weight underflows is one zero pair.  For qubits
    any orientation is accepted: unless theta = phi = 0 (the lab frame) it
    becomes the state's frame label, and the blocks are the unrotated state's.
    For d > 2 only diagonal states are supported (rotating a qudit block needs
    irrep machinery this package deliberately omits, and every error formula
    is orientation independent).  Raises ResourceLimitError, before allocating any block,
    when the state would hold more than BLOCK_ENTRY_CAP pairs, and before
    computing any weight when for d > 2 the C(N + d - 1, d - 1) compositions
    of N, d entries each, would be more than BLOCK_ENTRY_CAP entries.
    """
    d = spectrum.d
    if n < 1:
        raise ParameterError(f"need at least one copy, got N={n}")
    rotated = orientation is not None and bool(orientation.theta or orientation.phi)
    if d > 2 and rotated:
        raise UnsupportedFeatureError("rotated states are only supported for qubits")
    entries = math.comb(n + d - 1, d - 1) * d if d > 2 else 0
    if entries > BLOCK_ENTRY_CAP:  # the contents of every composition, known before any weight
        raise ResourceLimitError(
            f"content table capped at {BLOCK_ENTRY_CAP} entries, N={n} with {d} rows needs "
            f"{entries}")
    table = weight_table(n, spectrum)
    live = table.weights >= UNDERFLOW
    dead = np.flatnonzero(~live)
    contents, index, counts, sizes = _content_pairs(table.rows[live], table.rows, len(dead))
    rank = spectrum.rank  # the zero eigenvalues come last
    logs = contents[:, :rank] @ np.log(spectrum.probs[:rank])
    if rank < d:
        logs[contents[:, rank:].any(axis=1)] = -np.inf
    logs = logs[index]
    starts = np.cumsum(sizes) - sizes
    logs -= np.repeat(np.maximum.reduceat(logs, starts), sizes)
    values = np.exp(logs, out=logs)
    values /= np.repeat(np.add.reduceat(values * counts, starts), sizes)
    row_sizes = np.ones(len(live), dtype=np.int64)
    row_sizes[live] = sizes
    if len(dead):  # one zero pair of count dim lambda per underflowed block
        slot = np.repeat(live, row_sizes)
        values, live_values = np.zeros(len(slot)), values
        values[slot] = live_values
        counts, live_counts = np.empty(len(slot), dtype=np.int64), counts
        counts[slot], counts[~slot] = live_counts, _dims(table.rows[dead])
    return BlockState(n, d, np.where(live, table.weights, 0.0), np.ones(len(live), dtype=bool),
                      values, counts, np.concatenate([[0], np.cumsum(row_sizes)]),
                      orientation=orientation if rotated else None)


def _diagonals(state: BlockState, rows: np.ndarray) -> dict[int, np.ndarray]:
    """The diagonal of the block of each given row that holds pairs: its
    values in layout order, each repeated count times."""
    return {i: np.repeat(state.values[k:k + s], state.counts[k:k + s])
            for i, k, s in zip(rows.tolist(), state.offsets[rows].tolist(),
                               state.sizes[rows].tolist())}


def random_block_state(n: int, d: int, rng: np.random.Generator) -> BlockState:
    """A random permutation-invariant state: random weights, random PSD blocks.
    Raises ResourceLimitError, before allocating any block, when the dense
    blocks would hold more than BLOCK_ENTRY_CAP entries."""
    dims = irrep_dims(diagram_rows(n, d)).tolist()
    entries = sum(dim ** 2 for dim in dims)
    if entries > BLOCK_ENTRY_CAP:
        raise ResourceLimitError(
            f"random state capped at {BLOCK_ENTRY_CAP} block entries, N={n} needs {entries}")
    raw = rng.random(len(dims)) + 1e-3
    matrices = []
    for dim in dims:
        g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        mat = g @ g.conj().T
        matrices.append(mat / np.trace(mat).real)
    return BlockState.from_matrices(n, d, raw / raw.sum(), matrices)


# ---------------------------------------------------------------------------
# Channels
# ---------------------------------------------------------------------------

def _kept(keep: Iterable[YoungDiagram] | np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``keep_mask``, raising ParameterError when the keep set names no row."""
    kept = keep_mask(keep, rows)
    if not kept.any():
        raise ParameterError("keep set holds no block of the state")
    return kept


def encode(state: BlockState, keep: Iterable[YoungDiagram] | np.ndarray) -> BlockState:
    """Keep the selected blocks, drop multiplicity factors, reroute the tail.

    ``keep`` is a (K, d) row array or YoungDiagrams.  The weight of every
    discarded block, the tail, goes to the maximally mixed state on the kept
    representation spaces: kept row lambda gains w_dump = tail * dim lambda /
    d_enc on the block 1/dim lambda, which fits every frame.  The result is
    flagged multiplicity-free and held in the frame and on the layout of
    ``state``.

    Per kept row: a block no input weighs is zero, one the dump does not
    touch passes through exactly, and any other is (w_in * block + w_dump *
    1/dim lambda) / (w_in + w_dump).  Diagonal blocks take that in one pass
    over the pairs; a row the state holds as a dense block, or not at all,
    is mixed on its own as a matrix.
    """
    rows = diagram_rows(state.n, state.d)
    kept = _kept(keep, rows)
    dims = np.zeros(len(rows), dtype=np.int64)
    dims[kept] = _dims(rows[kept])
    d_enc = sum(dims.tolist())
    tail = sum(state.weights[~kept].tolist())
    w_in = np.where(kept, state.weights, 0.0)
    w_dump = np.zeros(len(rows))
    w_dump[kept] = [tail * (dim / d_enc) for dim in dims[kept].tolist()]
    w_out = w_in + w_dump

    sizes = state.sizes
    values = np.repeat(w_in, sizes)
    values *= state.values
    values += np.repeat(w_dump * (1.0 / np.maximum(dims, 1)), sizes)
    values /= np.repeat(np.where(w_out > 0, w_out, 1.0), sizes)  # w_out = 0: 0 * v + 0 stays 0
    untouched = kept & state.pair_rows & (w_dump == 0) & (w_out > 0)
    if untouched.any():
        np.copyto(values, state.values, where=np.repeat(untouched, sizes))

    blocks = {}
    for i in np.flatnonzero(kept & ~state.pair_rows).tolist():
        dim, a, b, total = int(dims[i]), w_in[i], w_dump[i], w_out[i]
        mat = state.dense[i] if i in state.dense else np.zeros((dim, dim))  # no block held
        if total == 0.0:
            blocks[i] = np.zeros((dim, dim))
        elif b == 0.0:
            blocks[i] = mat  # untouched block passes through exactly
        else:
            blocks[i] = (a * mat + b * (np.eye(dim) / dim)) / total
    return BlockState(state.n, state.d, w_out, kept, values, state.counts, state.offsets,
                      blocks, multiplicity_free=True, orientation=state.orientation)


def decode(encoded: BlockState) -> BlockState:
    """Re-append the implied maximally mixed multiplicity factor per block."""
    if not encoded.multiplicity_free:
        raise ParameterError("decode expects a multiplicity-free (encoded) state")
    return replace(encoded, multiplicity_free=False)


# ---------------------------------------------------------------------------
# Trace distance
# ---------------------------------------------------------------------------

def _promoted(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Two blocks in a common form: a diagonal meeting a full matrix becomes one."""
    if a.ndim == b.ndim:
        return a, b
    return (np.diag(a) if a.ndim == 1 else a), (np.diag(b) if b.ndim == 1 else b)


def trace_norm(matrix: np.ndarray) -> float:
    """Sum of absolute eigenvalues of a Hermitian block (or of a diagonal)."""
    if matrix.ndim == 1:
        return float(np.abs(matrix).sum())
    return float(np.abs(np.linalg.eigvalsh(matrix)).sum())


def trace_distance(a: BlockState, b: BlockState) -> float:
    """Half the trace norm of the difference of two full-form block states.

    Block diagonality plus the shared maximally mixed multiplicity factors
    make the block-by-block sum exact, taken in row order.  The two states
    must be held in one frame: UnsupportedFeatureError, before any block is
    read, when their ``orientation`` labels differ, which they do for a label
    with theta = 0 and phi != 0 against the lab frame.  When the two states
    share their layout, as a state and ``decode(encode(state))`` do, two
    diagonal blocks differ by sum |w_a v_a - w_b v_b| * count over their
    pairs, in one pass.  Every other row is compared on its own, a diagonal
    block as its expanded vector; ContractViolationError when its two blocks
    differ in dimension, or when their weighted difference w_a A - w_b B has an
    anti-Hermitian part with an entry above HERMITIAN_TOL (the trace norm reads
    one triangle).  Weighted, the tolerance is on the scale of the state, so a
    block of weight 1e-13 may be off Hermitian by 1e-5, as the oracle's
    extracted blocks of tiny weight are.
    """
    if a.n != b.n or a.d != b.d:
        raise ParameterError("states must share N and d")
    if a.multiplicity_free or b.multiplicity_free:
        raise ParameterError("trace distance is defined between decoded (full) states")
    if a.orientation != b.orientation:
        raise UnsupportedFeatureError(
            f"states held in different frames: {a.orientation} and {b.orientation}")
    both = a.held & b.held
    per_row = np.where(both, 0.0, a.weights + b.weights)  # a side without the block weighs 0
    shared = ((a.offsets is b.offsets or np.array_equal(a.offsets, b.offsets))
              and (a.counts is b.counts or np.array_equal(a.counts, b.counts)))
    diagonal = both & a.pair_rows & b.pair_rows & shared
    if diagonal.any():
        diff = np.repeat(a.weights, a.sizes) * a.values
        diff -= np.repeat(b.weights, a.sizes) * b.values
        np.abs(diff, out=diff)
        diff *= a.counts
        per_row[diagonal] = _row_reduce(a.offsets, diff)[diagonal]
    rows_dense = np.flatnonzero(both & ~diagonal)
    diag_a = _diagonals(a, rows_dense[a.pair_rows[rows_dense]])
    diag_b = _diagonals(b, rows_dense[b.pair_rows[rows_dense]])
    for i in rows_dense.tolist():
        mat_a, mat_b = _promoted(a.dense.get(i, diag_a.get(i)), b.dense.get(i, diag_b.get(i)))
        if mat_a.shape != mat_b.shape:
            row = diagram_rows(a.n, a.d)[i].tolist()
            raise ContractViolationError(f"the two blocks {row} differ in dimension")
        diff = a.weights[i] * mat_a - b.weights[i] * mat_b
        if diff.ndim == 2 and np.max(np.abs(diff - diff.conj().T)) > 2 * HERMITIAN_TOL:
            row = diagram_rows(a.n, a.d)[i].tolist()
            raise ContractViolationError(f"the weighted difference of the blocks {row} is not "
                                         f"Hermitian within {HERMITIAN_TOL}")
        if np.any(diff):
            per_row[i] = trace_norm(diff)
    return 0.5 * sum(per_row.tolist())


# ---------------------------------------------------------------------------
# End-to-end protocol error
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ErrorReport:
    """Exact protocol error alongside the closed-form sandwich around it."""

    exact_error: float
    tail_mass: float
    lower_bound: float  # tail_mass / 2, valid for any block-truncation protocol


def exact_protocol_error(n: int, spectrum: Spectrum,
                         keep: Iterable[YoungDiagram] | np.ndarray,
                         orientation: BlochVector | None = None) -> ErrorReport:
    """Exact encode-decode error plus the tail-mass bounds around it; ``keep``
    is a (K, d) row array, such as a plan's ``rows``, or YoungDiagrams.  The
    row index and the keep mask are built once, in ``encode``; the product
    state holds every row, so the encoded state's rows are the kept ones."""
    state = product_state(spectrum, n, orientation)
    encoded = encode(state, keep)
    err = trace_distance(state, decode(encoded))
    tail = sum(state.weights[~encoded.held].tolist(), 0.0)
    return ErrorReport(exact_error=err, tail_mass=tail, lower_bound=0.5 * tail)
