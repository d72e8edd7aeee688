"""Exact simulation of permutation-invariant N-copy states, block by block.

A permutation-invariant state on (C^d)^{ox N} decomposes as a direct sum over
Young diagrams of weight * (block matrix ox maximally-mixed multiplicity
factor).  ``BlockState`` stores the weights and the block matrices; the
multiplicity factor is implied.  Encoding drops the multiplicity factors and
reroutes the weight of discarded blocks into a dump state; decoding re-appends
the multiplicity factors.  Because both sides share the same implied factors,
trace distances between full-form states are exact block-by-block sums.

A block that is diagonal in its basis (Gelfand-Tsetlin order, which is
ascending m for qubits) is stored as the 1-D real vector of its diagonal; only
blocks that are not diagonal (rotated qubit states, random or user-supplied
blocks) are 2-D Hermitian matrices.  Diagonal product states, the uniform dump and everything
encoded from them stay vectors, so their trace distances are plain sums of
absolute values.

BlockStates are immutable after construction; channels return new values, so
independent (N, spectrum, epsilon) points can be evaluated in parallel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Mapping, NamedTuple

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
    WignerRotation,
    enumerate_diagrams,
    gelfand_tsetlin_contents,
    irrep_dim,
    log_multiplicity,
    log_schur_polynomials,
    wigner_d_matrix,
)

WEIGHT_SUM_TOL = 1e-10
PSD_TOL = 1e-10
UNDERFLOW = 1e-300
BLOCK_ENTRY_CAP = 2 ** 25  # floats held by all blocks of one product state


class Block(NamedTuple):
    """Weight and normalized block: a 1-D array is the diagonal of a diagonal
    block, a 2-D array is a full Hermitian matrix."""

    weight: float
    matrix: np.ndarray


@dataclass(frozen=True)
class BlochVector:
    """Orientation of the maximal-eigenvalue axis of a qubit state."""

    theta: float
    phi: float


@dataclass(frozen=True, eq=False)
class BlockState:
    n: int
    d: int
    blocks: Mapping[YoungDiagram, Block]
    multiplicity_free: bool = False

    def weight(self, diagram: YoungDiagram) -> float:
        blk = self.blocks.get(diagram)
        return blk.weight if blk is not None else 0.0

    def weights(self) -> dict[YoungDiagram, float]:
        return {lam: blk.weight for lam, blk in self.blocks.items()}

    def weights_summary(self) -> list[dict]:
        """JSON-friendly listing of (diagram, weight), heaviest first."""
        items = sorted(self.blocks.items(), key=lambda kv: (-kv[1].weight, kv[0]))
        return [{"diagram": list(lam.rows), "weight": blk.weight} for lam, blk in items]


def validate_block_state(state: BlockState, tol: float = WEIGHT_SUM_TOL) -> None:
    """Assert the ensemble invariants: weights sum to 1, blocks PSD with unit trace."""
    total = sum(blk.weight for blk in state.blocks.values())
    if abs(total - 1.0) > tol:
        raise ContractViolationError(f"block weights sum to {total!r}")
    for lam, (w, mat) in state.blocks.items():
        if w < 0:
            raise ContractViolationError(f"negative weight {w} on {lam}")
        if w == 0.0 and not np.any(mat):
            continue  # underflowed block, stored as an explicit zero
        if mat.ndim == 2 and np.max(np.abs(mat - mat.conj().T)) > 1e-12:
            raise ContractViolationError(f"block {lam} not Hermitian")
        trace = np.trace(mat).real if mat.ndim == 2 else mat.sum()
        if abs(trace - 1.0) > tol:
            raise ContractViolationError(f"block {lam} trace {trace!r}")
        eigs = np.linalg.eigvalsh(mat) if mat.ndim == 2 else mat
        if eigs.min() < -PSD_TOL:
            raise ContractViolationError(f"block {lam} not PSD")


# ---------------------------------------------------------------------------
# Block weights
# ---------------------------------------------------------------------------

def qubit_weight(n: int, p: float, two_j: int) -> float:
    """Probability weight of the spin-j block of the N-fold qubit state: the
    ``block_weights`` entry of the spectrum (p, 1 - p) at ((N + 2j)/2, (N - 2j)/2)."""
    if two_j < 0 or two_j > n or (n - two_j) % 2:
        raise ParameterError(f"invalid 2j={two_j} for N={n}")
    return qubit_weights(n, p)[two_j]


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


def qubit_weights(n: int, p: float) -> dict[int, float]:
    """All weights {2j: q_j} on the valid spin grid for N copies, ascending 2j."""
    if not 0.5 <= p <= 1.0:
        raise ParameterError(f"need 1/2 <= p <= 1, got {p}")
    return {lam.two_j: w for lam, w in reversed(_weight_items(n, Spectrum((p, 1.0 - p))))}


def block_weights(n: int, spectrum: Spectrum) -> dict[YoungDiagram, float]:
    """Weights q_lambda = m_lambda s_lambda(p) of every block of the N-copy state, for
    every d: exp(``log_multiplicity`` + ``log_schur_polynomials``), so neither factor
    has to fit a float and nothing cancels.  Exactly 0 beyond the spectrum rank."""
    return dict(_weight_items(n, spectrum))


@lru_cache(maxsize=1)  # callers ask for the same (N, spectrum) several times in a row
def _weight_items(n: int, spectrum: Spectrum) -> tuple[tuple[YoungDiagram, float], ...]:
    """The items of ``block_weights``, in the order of ``enumerate_diagrams``."""
    rank = spectrum.rank
    logs = iter(log_schur_polynomials(n, spectrum).tolist())  # diagrams within the rank
    return tuple((lam, math.exp(log_multiplicity(lam) + next(logs))
                  if lam.num_rows <= rank else 0.0) for lam in enumerate_diagrams(n, spectrum.d))


# ---------------------------------------------------------------------------
# Product-state construction
# ---------------------------------------------------------------------------

def _block_diagonal(lam: YoungDiagram, spectrum: Spectrum) -> np.ndarray:
    """Normalized diagonal of the block for a diagonal state, Gelfand-Tsetlin order.

    Diagonal entries are the content monomials p^{content(T)} over the
    semistandard tableaux of the shape, normalized via a stable softmax so
    that deep tails do not lose the normalization.  A letter of probability 0
    that a tableau does not use contributes a factor 1; one it uses, 0.
    """
    contents = gelfand_tsetlin_contents(lam, spectrum.d)
    rank = spectrum.rank  # the zero eigenvalues come last
    logs = contents[:, :rank] @ np.log(spectrum.probs[:rank])
    if rank < spectrum.d:
        logs[contents[:, rank:].any(axis=1)] = -np.inf
    rel = np.exp(logs - logs.max())
    return rel / rel.sum()


def _rotated(diag: np.ndarray, orientation: BlochVector) -> np.ndarray:
    """The spin block with the given diagonal, turned to the given orientation."""
    rot = wigner_d_matrix(WignerRotation(orientation.phi, orientation.theta, 0.0, diag.size - 1))
    mat = (rot * diag) @ rot.conj().T
    return (mat + mat.conj().T) / 2.0


def product_state(spectrum: Spectrum, n: int,
                  orientation: BlochVector | None = None) -> BlockState:
    """Block decomposition of the N-fold product of a single-copy state.

    For qubits any orientation is accepted; for d > 2 only diagonal states
    are supported (rotating a qudit block needs irrep machinery this package
    deliberately omits, and every error formula is orientation independent).
    Raises ResourceLimitError, before allocating any block, when the blocks
    would hold more than BLOCK_ENTRY_CAP floats: one per basis state of every
    irrep, squared for rotated blocks.
    """
    d = spectrum.d
    if n < 1:
        raise ParameterError(f"need at least one copy, got N={n}")
    rotated = orientation is not None and bool(orientation.theta or orientation.phi)
    if d > 2 and rotated:
        raise UnsupportedFeatureError("rotated states are only supported for qubits")
    entries = sum(irrep_dim(lam, d) ** (2 if rotated else 1) for lam in enumerate_diagrams(n, d))
    if entries > BLOCK_ENTRY_CAP:
        raise ResourceLimitError(
            f"product state capped at {BLOCK_ENTRY_CAP} block entries, N={n} needs {entries}")
    blocks: dict[YoungDiagram, Block] = {}
    for lam, w in block_weights(n, spectrum).items():
        if w < UNDERFLOW:
            blocks[lam] = Block(0.0, np.zeros(irrep_dim(lam, d)))
            continue
        diag = _block_diagonal(lam, spectrum)
        blocks[lam] = Block(w, _rotated(diag, orientation) if rotated else diag)
    return BlockState(n=n, d=d, blocks=blocks, multiplicity_free=False)


def random_block_state(n: int, d: int, rng: np.random.Generator) -> BlockState:
    """A random permutation-invariant state: random weights, random PSD blocks."""
    diagrams = enumerate_diagrams(n, d)
    raw = rng.random(len(diagrams)) + 1e-3
    weights = raw / raw.sum()
    blocks = {}
    for lam, w in zip(diagrams, weights):
        dim = irrep_dim(lam, d)
        g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        mat = g @ g.conj().T
        mat /= np.trace(mat).real
        blocks[lam] = Block(float(w), mat)
    return BlockState(n=n, d=d, blocks=blocks)


# ---------------------------------------------------------------------------
# Channels
# ---------------------------------------------------------------------------

def uniform_dump(n: int, d: int, keep: Iterable[YoungDiagram]) -> BlockState:
    """The default dump state: maximally mixed over the kept representation spaces."""
    kept = sorted(set(keep), reverse=True)
    if not kept:
        raise ParameterError("keep set must not be empty")
    dims = {lam: irrep_dim(lam, d) for lam in kept}
    d_enc = sum(dims.values())
    blocks = {lam: Block(dims[lam] / d_enc, np.full(dims[lam], 1.0 / dims[lam]))
              for lam in kept}
    return BlockState(n=n, d=d, blocks=blocks, multiplicity_free=True)


def encode(state: BlockState, keep: Iterable[YoungDiagram],
           dump_state: BlockState | None = None) -> BlockState:
    """Keep the selected blocks, drop multiplicity factors, reroute the tail.

    The weight of every discarded block is added to the kept blocks according
    to the dump state's distribution.  The result is flagged multiplicity-free.
    """
    kept = set(keep)
    if not kept:
        raise ParameterError("keep set must not be empty")
    if dump_state is None:
        dump_state = uniform_dump(state.n, state.d, kept)
    for lam, blk in dump_state.blocks.items():
        if blk.weight > 0 and lam not in kept:
            raise ContractViolationError(f"dump state has weight on discarded block {lam}")
    tail = sum(blk.weight for lam, blk in state.blocks.items() if lam not in kept)
    blocks: dict[YoungDiagram, Block] = {}
    for lam in sorted(kept, reverse=True):
        w_in = state.weight(lam)
        mat_in = state.blocks[lam].matrix if lam in state.blocks else None
        dump_blk = dump_state.blocks.get(lam)
        w_dump = tail * dump_blk.weight if dump_blk is not None else 0.0
        w_out = w_in + w_dump
        if w_out == 0.0:
            blocks[lam] = Block(0.0, np.zeros(irrep_dim(lam, state.d)))
            continue
        if w_dump == 0.0:
            blocks[lam] = Block(w_in, mat_in)  # untouched block passes through exactly
            continue
        if w_in > 0.0:
            mat_in, mat_dump = _promoted(mat_in, dump_blk.matrix)
            acc = w_in * mat_in + w_dump * mat_dump
        else:
            acc = w_dump * dump_blk.matrix
        blocks[lam] = Block(w_out, acc / w_out)
    return BlockState(n=state.n, d=state.d, blocks=blocks, multiplicity_free=True)


def decode(encoded: BlockState) -> BlockState:
    """Re-append the implied maximally mixed multiplicity factor per block."""
    if not encoded.multiplicity_free:
        raise ParameterError("decode expects a multiplicity-free (encoded) state")
    return BlockState(n=encoded.n, d=encoded.d, blocks=dict(encoded.blocks),
                      multiplicity_free=False)


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
    make the block-by-block sum exact.
    """
    if a.n != b.n or a.d != b.d:
        raise ParameterError("states must share N and d")
    if a.multiplicity_free or b.multiplicity_free:
        raise ParameterError("trace distance is defined between decoded (full) states")
    total = 0.0
    for lam in sorted(set(a.blocks) | set(b.blocks), reverse=True):
        blk_a = a.blocks.get(lam)
        blk_b = b.blocks.get(lam)
        if blk_a is None:
            total += blk_b.weight
            continue
        if blk_b is None:
            total += blk_a.weight
            continue
        mat_a, mat_b = _promoted(blk_a.matrix, blk_b.matrix)
        diff = blk_a.weight * mat_a - blk_b.weight * mat_b
        if not np.any(diff):
            continue
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

    def as_dict(self) -> dict:
        return {
            "exact_error": self.exact_error,
            "tail_mass": self.tail_mass,
            "lower_bound": self.lower_bound,
        }


def exact_protocol_error(n: int, spectrum: Spectrum,
                         keep: Iterable[YoungDiagram],
                         orientation: BlochVector | None = None,
                         dump_state: BlockState | None = None) -> ErrorReport:
    """Exact encode-decode error plus the tail-mass bounds around it."""
    state = product_state(spectrum, n, orientation)
    kept = set(keep)
    restored = decode(encode(state, kept, dump_state))
    err = trace_distance(state, restored)
    tail = sum((blk.weight for lam, blk in state.blocks.items() if lam not in kept), 0.0)
    return ErrorReport(exact_error=err, tail_mass=tail, lower_bound=0.5 * tail)
