"""Exact simulation of permutation-invariant N-copy states, block by block.

A permutation-invariant state on (C^d)^{ox N} decomposes as a direct sum over
Young diagrams of weight * (block matrix ox maximally-mixed multiplicity
factor).  ``BlockState`` stores the weights and the block matrices in the
order of the rows of ``diagram_rows(N, d)``; the multiplicity factor is
implied.  Keep sets are (K, d) row arrays or YoungDiagrams, read by
``keep_mask``, so the channels walk that one index and never build, hash or
sort diagrams; ``BlockState.blocks``, a {YoungDiagram: Block} view, is built
on first use.  Encoding drops the multiplicity factors and reroutes the
weight of discarded blocks into a dump state; decoding re-appends them.
Because both sides share the same implied factors, trace distances between
full-form states are exact block-by-block sums.

A block that is diagonal in its basis (Gelfand-Tsetlin order, which is
ascending m for qubits) is stored as the 1-D real vector of its diagonal; only
blocks that are not diagonal (random or user-supplied blocks) are 2-D
Hermitian matrices.  A qubit product state turned to a Bloch orientation
keeps the same vectors: the orientation is a label on the state, and its
blocks are diagonal in the frame turned by U^{ox N}.  Encode, decode and the
trace distance compare blocks directly whenever both states share a frame,
and a vector with all entries equal (such as the uniform dump's) fits every
frame.  Only where a block meets one held in another frame is it turned into
that frame as a dense matrix by the Wigner rotation.  So diagonal and oriented
product states, the uniform dump and everything encoded from them stay
vectors, and their trace distances are plain sums of absolute values.

BlockStates are immutable after construction; channels return new values, so
independent (N, spectrum, epsilon) points can be evaluated in parallel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
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
    _gt_level,
    diagram_rows,
    irrep_dims,
    keep_mask,
    log_multiplicities,
    log_schur_polynomials,
    wigner_d_matrix,
)

WEIGHT_SUM_TOL = 1e-10
PSD_TOL = 1e-10
UNDERFLOW = 1e-300
BLOCK_ENTRY_CAP = 2 ** 25  # entries held by the blocks of one state: dim, or dim^2 if dense
GT_BATCH = 4096  # tableaux per batch of shapes when building product-state diagonals


class Block(NamedTuple):
    """Weight and normalized block, in the frame of the state that holds it: a
    1-D array is the diagonal of a diagonal block, a 2-D array is a full
    Hermitian matrix."""

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

    ``weights`` (read-only) and ``matrices`` follow the rows of
    ``diagram_rows(n, d)``; a matrix is None, and its weight 0, where the
    state holds no block.  ``orientation`` names the frame the blocks are held
    in: None is the lab frame, a Bloch vector the frame turned by the N-fold
    qubit rotation that takes the lab z axis to it, where an oriented product
    state is diagonal.  Spectra, traces and weights do not depend on the frame.
    """

    n: int
    d: int
    weights: np.ndarray
    matrices: tuple[np.ndarray | None, ...]
    multiplicity_free: bool = False
    orientation: BlochVector | None = None

    def __post_init__(self):
        self.weights.flags.writeable = False

    @cached_property
    def blocks(self) -> dict[YoungDiagram, Block]:
        """The blocks the state holds, keyed by YoungDiagram in ``diagram_rows`` order."""
        rows = diagram_rows(self.n, self.d).tolist()
        return {YoungDiagram(row): Block(w, mat)
                for row, w, mat in zip(rows, self.weights.tolist(), self.matrices)
                if mat is not None}


def validate_block_state(state: BlockState) -> None:
    """Assert the ensemble invariants: weights sum to 1, blocks PSD with unit trace."""
    total = sum(state.weights.tolist())
    if abs(total - 1.0) > WEIGHT_SUM_TOL:
        raise ContractViolationError(f"block weights sum to {total!r}")
    rows = diagram_rows(state.n, state.d).tolist()
    for row, w, mat in zip(rows, state.weights.tolist(), state.matrices):
        if w < 0 or (mat is None and w):
            raise ContractViolationError(f"weight {w} on block {row}")
        if mat is None or (w == 0.0 and not np.any(mat)):
            continue  # no block, or an underflowed one stored as an explicit zero
        if mat.ndim == 2 and np.max(np.abs(mat - mat.conj().T)) > 1e-12:
            raise ContractViolationError(f"block {row} not Hermitian")
        trace = np.trace(mat).real if mat.ndim == 2 else mat.sum()
        if abs(trace - 1.0) > WEIGHT_SUM_TOL:
            raise ContractViolationError(f"block {row} trace {trace!r}")
        eigs = np.linalg.eigvalsh(mat) if mat.ndim == 2 else mat
        if eigs.min() < -PSD_TOL:
            raise ContractViolationError(f"block {row} not PSD")


# ---------------------------------------------------------------------------
# Block weights
# ---------------------------------------------------------------------------

def qubit_weight(n: int, p: float, two_j: int) -> float:
    """Probability weight of the spin-j block of the N-fold qubit state: the
    ``block_weights`` entry of the spectrum (p, 1 - p) at ((N + 2j)/2, (N - 2j)/2)."""
    if two_j < 0 or two_j > n or (n - two_j) % 2:
        raise ParameterError(f"invalid 2j={two_j} for N={n}")
    return float(_qubit_table(n, p).weights[(n - two_j) // 2])


def qubit_weight_binomial(n: int, p: float, two_j: int) -> float:
    """The same weight from the binomial-difference expression.

    (2j+1)/(2 j0) * [B(N+1, p, N/2+j+1) - B(N+1, p, N/2-j)] with
    j0 = (p - 1/2)(N+1).  Only valid away from p = 1/2.
    """
    if not 0.5 < p <= 1.0:
        raise ParameterError(f"binomial-difference form needs p > 1/2, got {p}")
    if two_j < 0 or two_j > n or (n - two_j) % 2:
        raise ParameterError(f"invalid 2j={two_j} for N={n}")
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


def _qubit_table(n: int, p: float) -> "WeightTable":
    if not 0.5 <= p <= 1.0:
        raise ParameterError(f"need 1/2 <= p <= 1, got {p}")
    return weight_table(n, Spectrum((p, 1.0 - p)))


def qubit_weights(n: int, p: float) -> dict[int, float]:
    """All weights {2j: q_j} on the valid spin grid for N copies, ascending 2j."""
    table = _qubit_table(n, p)
    rows = table.rows[::-1]  # ascending 2j = l_1 - l_2
    return dict(zip((rows[:, 0] - rows[:, 1]).tolist(), table.weights[::-1].tolist()))


def block_weights(n: int, spectrum: Spectrum) -> dict[YoungDiagram, float]:
    """Weights q_lambda = m_lambda s_lambda(p) of every block of the N-copy state:
    ``weight_table`` as a mapping, in the order of ``diagram_rows``."""
    table = weight_table(n, spectrum)
    return dict(zip(map(YoungDiagram, table.rows.tolist()), table.weights.tolist()))


@dataclass(frozen=True, eq=False)
class WeightTable:
    """Every block of the N-copy state: the (M, d) ``diagram_rows`` and the weight
    of each row, both read-only."""

    rows: np.ndarray
    weights: np.ndarray


@lru_cache(maxsize=1)  # callers ask for the same (N, spectrum) several times in a row
def weight_table(n: int, spectrum: Spectrum) -> WeightTable:
    """Weights q_lambda = m_lambda s_lambda(p) for every d: exp(``log_multiplicities``
    + ``log_schur_polynomials``), so neither factor has to fit a float and nothing
    cancels.  Exactly 0 beyond the spectrum rank.  The exponential is libm's
    ``math.exp``: ``np.exp`` differs from it in the last bit for a few percent of
    arguments, which would reorder near-tied densities in ``greedy_budget_keep``."""
    rows = diagram_rows(n, spectrum.d)
    inside = ~rows[:, spectrum.rank:].any(axis=1)  # the rows of diagram_rows(n, rank)
    logs = log_multiplicities(rows[inside]) + log_schur_polynomials(n, spectrum)
    weights = np.zeros(len(rows))
    weights[inside] = np.fromiter(map(math.exp, logs.tolist()), float, logs.size)
    weights.flags.writeable = False
    return WeightTable(rows, weights)


# ---------------------------------------------------------------------------
# Product-state construction
# ---------------------------------------------------------------------------

def _block_diagonals(rows: np.ndarray, spectrum: Spectrum) -> list[np.ndarray]:
    """Normalized diagonal of the block of every shape in ``rows`` for a diagonal
    state, each in Gelfand-Tsetlin order.

    Diagonal entries are the content monomials p^{content(T)} over the
    semistandard tableaux of the shape, normalized per shape via a stable
    softmax so that deep tails do not lose the normalization.  A letter of
    probability 0 that a tableau does not use contributes a factor 1; one it
    uses, 0.  The shapes go through the branching rule together, in batches
    of consecutive shapes that start within GT_BATCH tableaux of each other.
    """
    rank = spectrum.rank  # the zero eigenvalues come last
    log_p = np.log(spectrum.probs[:rank])
    dims = irrep_dims(rows).astype(np.int64)
    offsets = np.cumsum(dims) - dims
    cuts = np.flatnonzero(np.diff(offsets // GT_BATCH)) + 1
    out: list[np.ndarray] = []
    for batch in np.split(np.arange(len(rows)), cuts):
        contents, owner = _gt_level(rows[batch])
        logs = contents[:, :rank] @ log_p
        if rank < spectrum.d:
            logs[contents[:, rank:].any(axis=1)] = -np.inf
        starts = offsets[batch] - offsets[batch[0]]
        rel = np.exp(logs - np.maximum.reduceat(logs, starts)[owner])
        out += np.split(rel / np.add.reduceat(rel, starts)[owner], starts[1:])
    return out


def _rotation(frame: BlochVector | None, dim: int) -> np.ndarray:
    """Wigner matrix of the spin block of dimension dim that turns the lab frame
    into the given one (the identity for the lab frame)."""
    if frame is None:
        return np.eye(dim)
    return wigner_d_matrix(dim - 1, frame.phi, frame.theta)


def _rotated(mat: np.ndarray, source: BlochVector | None,
             target: BlochVector | None) -> np.ndarray:
    """A qubit spin block held in frame ``source``, as a dense matrix in frame ``target``."""
    turn = _rotation(target, len(mat)).conj().T @ _rotation(source, len(mat))
    out = (turn * mat if mat.ndim == 1 else turn @ mat) @ turn.conj().T
    return (out + out.conj().T) / 2.0


def _in_frame(state: BlockState, frame: BlochVector | None) -> BlockState:
    """The state with its blocks held in the given frame.

    A diagonal block with all entries equal is a multiple of the identity and
    fits every frame, so it passes through; every other block is turned into
    a dense matrix.  Raises ResourceLimitError, before allocating any, when
    those matrices would hold more than BLOCK_ENTRY_CAP entries.
    """
    if state.orientation == frame:
        return state
    matrices = list(state.matrices)
    moved = [i for i, mat in enumerate(matrices)
             if mat is not None and (mat.ndim == 2 or (mat != mat[0]).any())]
    entries = sum(len(matrices[i]) ** 2 for i in moved)
    if entries > BLOCK_ENTRY_CAP:
        raise ResourceLimitError(
            f"rotated blocks capped at {BLOCK_ENTRY_CAP} entries, N={state.n} needs {entries}")
    for i in moved:
        matrices[i] = _rotated(matrices[i], state.orientation, frame)
    return replace(state, matrices=tuple(matrices), orientation=frame)


def product_state(spectrum: Spectrum, n: int,
                  orientation: BlochVector | None = None) -> BlockState:
    """Block decomposition of the N-fold product of a single-copy state.

    For qubits any orientation is accepted: it becomes the state's frame
    label, and the blocks are the same diagonals as the unrotated state's.
    For d > 2 only diagonal states are supported (rotating a qudit block needs
    irrep machinery this package deliberately omits, and every error formula
    is orientation independent).  Raises ResourceLimitError, before
    allocating any block, when the blocks would hold more than
    BLOCK_ENTRY_CAP floats: one per basis state of every irrep.
    """
    d = spectrum.d
    if n < 1:
        raise ParameterError(f"need at least one copy, got N={n}")
    rotated = orientation is not None and bool(orientation.theta or orientation.phi)
    if d > 2 and rotated:
        raise UnsupportedFeatureError("rotated states are only supported for qubits")
    table = weight_table(n, spectrum)
    dims = irrep_dims(table.rows)
    entries = int(dims.sum())
    if entries > BLOCK_ENTRY_CAP:
        raise ResourceLimitError(
            f"product state capped at {BLOCK_ENTRY_CAP} block entries, N={n} needs {entries}")
    live = table.weights >= UNDERFLOW
    diagonals = iter(_block_diagonals(table.rows[live], spectrum))
    matrices = tuple(next(diagonals) if alive else np.zeros(dim)
                     for dim, alive in zip(dims.tolist(), live.tolist()))
    return BlockState(n=n, d=d, weights=np.where(live, table.weights, 0.0), matrices=matrices,
                      orientation=orientation if rotated else None)


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
    return BlockState(n=n, d=d, weights=raw / raw.sum(), matrices=tuple(matrices))


# ---------------------------------------------------------------------------
# Channels
# ---------------------------------------------------------------------------

def uniform_dump(n: int, d: int, keep: Iterable[YoungDiagram] | np.ndarray) -> BlockState:
    """The default dump state: maximally mixed over the kept representation spaces.
    ``keep`` is a (K, d) row array or YoungDiagrams."""
    rows = diagram_rows(n, d)
    kept = keep_mask(keep, rows)
    if not kept.any():
        raise ParameterError("keep set holds no block of the state")
    dims = irrep_dims(rows[kept]).tolist()
    d_enc = sum(dims)
    weights, matrices = np.zeros(len(rows)), [None] * len(rows)
    for i, dim in zip(np.flatnonzero(kept).tolist(), dims):
        weights[i], matrices[i] = dim / d_enc, np.full(dim, 1.0 / dim)
    return BlockState(n, d, weights, tuple(matrices), multiplicity_free=True)


def encode(state: BlockState, keep: Iterable[YoungDiagram] | np.ndarray,
           dump_state: BlockState | None = None) -> BlockState:
    """Keep the selected blocks, drop multiplicity factors, reroute the tail.

    ``keep`` is a (K, d) row array or YoungDiagrams.  The weight of every
    discarded block is added to the kept blocks according to the dump state's
    distribution.  The result is flagged multiplicity-free and held in the
    frame of ``state``; a dump block that does not fit that frame is turned
    into it.
    """
    rows = diagram_rows(state.n, state.d)
    kept = keep_mask(keep, rows)
    if not kept.any():
        raise ParameterError("keep set holds no block of the state")
    if dump_state is None:
        dump_state = uniform_dump(state.n, state.d, rows[kept])
    if (dump_state.n, dump_state.d) != (state.n, state.d):
        raise ContractViolationError("dump state must share N and d with the state")
    stray = (dump_state.weights > 0) & ~kept
    if stray.any():
        raise ContractViolationError(
            f"dump state has weight on discarded block {rows[stray][0].tolist()}")
    dump_state = _in_frame(dump_state, state.orientation)
    weights_in, weights_dump = state.weights.tolist(), dump_state.weights.tolist()
    tail = sum(state.weights[~kept].tolist())
    weights, matrices = np.zeros(len(rows)), [None] * len(rows)
    for i in np.flatnonzero(kept).tolist():
        w_in, mat_in = weights_in[i], state.matrices[i]
        w_dump, mat_dump = tail * weights_dump[i], dump_state.matrices[i]
        w_out = w_in + w_dump
        if w_out == 0.0:
            sized = mat_in if mat_in is not None else mat_dump
            if sized is not None:  # else neither input holds the block: it stays absent
                matrices[i] = np.zeros(len(sized))
        elif w_dump == 0.0:
            weights[i], matrices[i] = w_in, mat_in  # untouched block passes through exactly
        elif w_in > 0.0:
            mat_in, mat_dump = _promoted(mat_in, mat_dump)
            weights[i], matrices[i] = w_out, (w_in * mat_in + w_dump * mat_dump) / w_out
        else:
            weights[i], matrices[i] = w_out, w_dump * mat_dump / w_out
    return BlockState(state.n, state.d, weights, tuple(matrices), multiplicity_free=True,
                      orientation=state.orientation)


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
    make the block-by-block sum exact.  Blocks of ``b`` that do not fit the
    frame of ``a`` are turned into it.
    """
    if a.n != b.n or a.d != b.d:
        raise ParameterError("states must share N and d")
    if a.multiplicity_free or b.multiplicity_free:
        raise ParameterError("trace distance is defined between decoded (full) states")
    b = _in_frame(b, a.orientation)
    total = 0.0
    for w_a, mat_a, w_b, mat_b in zip(a.weights.tolist(), a.matrices,
                                      b.weights.tolist(), b.matrices):
        if mat_a is None or mat_b is None:
            total += w_a + w_b  # a side without the block has weight 0 on it
            continue
        mat_a, mat_b = _promoted(mat_a, mat_b)
        diff = w_a * mat_a - w_b * mat_b
        if np.any(diff):
            total += trace_norm(diff)
    return 0.5 * total


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
                         orientation: BlochVector | None = None,
                         dump_state: BlockState | None = None) -> ErrorReport:
    """Exact encode-decode error plus the tail-mass bounds around it; ``keep``
    is a (K, d) row array, such as a plan's ``rows``, or YoungDiagrams."""
    state = product_state(spectrum, n, orientation)
    rows = weight_table(n, spectrum).rows  # diagram_rows(n, d), cached by product_state
    kept = keep_mask(keep, rows)  # encode raises if it names no block
    err = trace_distance(state, decode(encode(state, rows[kept], dump_state)))
    tail = sum(state.weights[~kept].tolist(), 0.0)
    return ErrorReport(exact_error=err, tail_mass=tail, lower_bound=0.5 * tail)
