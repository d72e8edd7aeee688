"""Dense reference implementations for small copy counts.

Everything here works in the full d^N-dimensional space: Kronecker powers,
a Schur basis built one qubit at a time by coupling a spin j with a spin 1/2
(the two-term Condon-Shortley j x 1/2 rule, written out here), block
extraction by explicit projection, and the protocol error in that basis.
These paths share no code with the block-level simulator beyond the data
types (a ``BlockState`` follows the rows of ``diagram_rows``, descending 2j),
``enumerate_diagrams`` and ``multiplicity_dim``, so agreement between the two
is a real cross-check.

Every entry point takes N >= 1 copies.  Hard size caps: d^N <= 4096, and
N! <= 7! for the character projection.  The inputs stay literal: rho^{ox N} is
a dense matrix in the computational basis, used as an arbitrary Hermitian
matrix, with the same structure assertions whatever the input.  The qubit
basis Q^T is stored by magnetization sector: |j, m> lives on the strings of
Hamming weight N/2 - m, so Q^T is a permutation of N + 1 square blocks
holding C(2N, N) entries, and only products with Q's structural zeros are
skipped.  Every projection reads the Gram matrix G = Q^T rho Q one row sector
at a time.  Its diagonal spin blocks give the extracted blocks and the
protocol error, half the summed trace norms of the residual's diagonal spin
blocks, one dense Hermitian eigendecomposition per spin.  By pinching the
full residual's trace norm is within sqrt(D) ||C||_F of that sum, where C,
the cross-spin part of G, is checked to vanish.  ``oracle-check`` builds
rho^{ox N} and G once for both.  Tr[rho^{ox N} U_pi] is read as a gather of
d^N entries of the dense state rather than through a built U_pi.  A real rho
is held as a real array.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import permutations
from typing import Iterable

import numpy as np

from .errors import (
    OracleMismatchError,
    ParameterError,
    ResourceLimitError,
    UnsupportedFeatureError,
)
from .blocksim import BlockState, BlochVector
from .schur_core import (
    Spectrum,
    YoungDiagram,
    enumerate_diagrams,
    multiplicity_dim,
)

DENSE_DIM_CAP = 4096
PERMUTATION_CAP = math.factorial(7)  # the most N! that DENSE_DIM_CAP admits for d >= 3
STRUCTURE_TOL = 1e-10


def _check_cap(d: int, n: int) -> None:
    if n < 1:
        raise ParameterError(f"need at least one copy, got N={n}")
    if d ** n > DENSE_DIM_CAP:
        raise ResourceLimitError(f"dense path capped at dim {DENSE_DIM_CAP}, got {d}^{n}")


def single_qubit_state(p: float, orientation: BlochVector | None) -> np.ndarray:
    """2x2 density matrix with max eigenvalue p along the given Bloch axis."""
    rho = np.diag([p, 1.0 - p]).astype(complex)
    if orientation is None or not (orientation.theta or orientation.phi):
        return rho
    th, ph = orientation.theta, orientation.phi
    u = np.array([
        [math.cos(th / 2), -math.sin(th / 2)],
        [np.exp(1j * ph) * math.sin(th / 2), np.exp(1j * ph) * math.cos(th / 2)],
    ])
    return u @ rho @ u.conj().T


def dense_product_state(spectrum: Spectrum, n: int,
                        orientation: BlochVector | None = None) -> np.ndarray:
    """rho^{ox N} as an explicit d^N x d^N matrix: real when rho is (diagonal or
    turned only about y), so its products and eigenvalues run in real arithmetic."""
    d = spectrum.d
    _check_cap(d, n)
    if d == 2:
        rho = single_qubit_state(spectrum.max_eigenvalue, orientation)
    else:
        if orientation is not None and (orientation.theta or orientation.phi):
            raise UnsupportedFeatureError("dense qudit states are diagonal only")
        rho = np.diag(spectrum.probs)
    if not rho.imag.any():
        rho = rho.real
    full = rho
    for _ in range(n - 1):  # np.kron(full, rho), one strided product per entry of rho
        out = np.empty((len(full), d, len(full), d), rho.dtype)
        for a, b in np.ndindex(d, d):
            np.multiply(full, rho[a, b], out=out[:, a, :, b])
        full = out.reshape(len(full) * d, len(full) * d)
    return full


# ---------------------------------------------------------------------------
# Schur basis for qubits, by iterated coupling
# ---------------------------------------------------------------------------

def _coupling_coefficients(two_j: int, two_s: int, two_jt: int) -> np.ndarray:
    """<j, m'-s; 1/2, s | j', m'> for one s, j' = j +- 1/2 and every m' of j'
    ascending, zero where m' - s is no m of j: the Condon-Shortley j x 1/2 rule.
    With sigma = 2s = +-1 and M = 2m' it is sqrt((2j+1 + sigma M) / (2(2j+1)))
    going up and -sigma sqrt((2j+1 - sigma M) / (2(2j+1))) going down."""
    two_mt = np.arange(-two_jt, two_jt + 1, 2)
    if two_jt == two_j + 1:
        return np.sqrt((two_j + 1 + two_s * two_mt) / (2 * (two_j + 1)))
    return -two_s * np.sqrt((two_j + 1 - two_s * two_mt) / (2 * (two_j + 1)))


def _spin_rows(n: int) -> list[tuple[int, int, int]]:
    """(2j, m_j, first) for the spins of N qubits, descending 2j: spin j = N/2 - w
    has m_j = C(N, w) - C(N, w-1) copies, which follow the C(N, w-1) copies of
    the larger spins in every magnetization sector that holds j."""
    below = [0] + [math.comb(n, w) for w in range(n // 2)]
    return [(n - 2 * w, math.comb(n, w) - below[w], below[w]) for w in range(n // 2 + 1)]


@lru_cache(maxsize=2)
def _spin_bases(n: int):
    """(blocks, columns, spins): the coupled basis Q^T of N qubits by magnetization
    sector.  Sector w holds |j, m> for m = N/2 - w, every copy of every spin
    j >= |m|, on the C(N, w) strings of Hamming weight w: Q^T is a permutation
    of diag(Q_0, ..., Q_N), C(2N, N) floats in all.  ``blocks[w]`` is the
    read-only square Q_w, ``columns[w]`` its strings, and ``spins`` is
    ``_spin_rows(n)``: spin j's copies are one run of rows at the same place
    in every sector that holds it.

    One coupling step adds qubit k+1 as the last tensor factor: string r becomes
    2r (|0>, spin up, same sector) and 2r + 1 (|1>, next sector), and the copies
    of spin j go to j' = j +- 1/2 as [a_+ (rows of old Q_w) | a_- (rows of old
    Q_{w-1})], a_s the j x 1/2 coefficient: a row scaling and a copy.  Copies
    coupled down from 2j'+1 come before those coupled up from 2j'-1.
    """
    _check_cap(2, n)
    # one qubit: sector 0 is |0> (m = +1/2), sector 1 is |1> (m = -1/2)
    blocks, columns = [np.ones((1, 1)), np.ones((1, 1))], [np.array([0]), np.array([1])]
    empty, no_strings = np.zeros((0, 0)), np.zeros(0, int)
    for k in range(1, n):  # k qubits coupled so far
        runs, row = [], 0  # the copies of spin j coupled to j', in the new row order
        for two_j, mult, first in _spin_rows(k):
            for two_jt in (two_j + 1, two_j - 1)[:1 + (two_j > 0)]:
                coeffs = {s: _coupling_coefficients(two_j, s, two_jt) for s in (1, -1)}
                runs.append((two_jt, row, mult, first, coeffs))
                row += mult
        sectors = []
        for w, halves in enumerate(zip(blocks + [empty], [empty] + blocks)):
            two_mt, size = k + 1 - 2 * w, math.comb(k + 1, w)
            block, col = np.zeros((size, size)), 0
            for two_s, old in zip((1, -1), halves):
                for two_jt, row, mult, first, coeffs in runs:
                    if row >= size:  # the spins below |m'| are not in this sector
                        break
                    if first + mult <= len(old):  # |j, m' - s> is in the old sector
                        np.multiply(old[first:first + mult], coeffs[two_s][(two_mt + two_jt) // 2],
                                    out=block[row:row + mult, col:col + len(old)])
                col += len(old)
            sectors.append(block)
        blocks = sectors
        columns = [np.concatenate((2 * low, 2 * high + 1))
                   for low, high in zip(columns + [no_strings], [no_strings] + columns)]
    for block in blocks:
        block.flags.writeable = False
    return tuple(blocks), tuple(columns), _spin_rows(n)


def _dense_rows(n: int) -> tuple[np.ndarray, list[tuple[int, np.ndarray]]]:
    """Q^T assembled as one new 2^N x 2^N orthogonal matrix from the sector
    blocks, and per spin (2j, its rows viewed as (m_j, 2j+1, 2^N)): spins in
    descending 2j, each spin's rows copy by copy, each copy's |j, m> ascending m."""
    blocks, columns, spins = _spin_bases(n)
    dense, views, start = np.zeros((2 ** n, 2 ** n)), [], 0
    for two_j, mult, first in spins:
        copies = dense[start:start + mult * (two_j + 1)].reshape(mult, two_j + 1, -1)
        for w, (block, cols) in enumerate(zip(blocks, columns)):
            if first + mult <= len(block):
                copies[:, (n - 2 * w + two_j) // 2, cols] = block[first:first + mult]
        views.append((two_j, copies))
        start += mult * (two_j + 1)
    return dense, views


def schur_basis_qubits(n: int) -> dict[int, list[np.ndarray]]:
    """Orthonormal total-spin basis of N qubits grouped by (2j, multiplicity copy).

    Returns {2j: [V_1, V_2, ...]} where each V is a 2^N x (2j+1) isometry whose
    columns are |j, m> for ascending m.  Coupling order: qubit 1 with 2, the
    result with 3, and so on; the copy order follows that tree, which is an
    arbitrary but fixed convention.  Computational |0> is spin up (m = +1/2).
    The V are views of one 2^N x 2^N matrix assembled anew on every call.
    """
    return {two_j: list(copies.transpose(0, 2, 1)) for two_j, copies in _dense_rows(n)[1]}


def schur_isometry(n: int) -> np.ndarray:
    """All basis columns side by side, spins in descending 2j: a full 2^N x 2^N
    orthogonal matrix Q, assembled anew from the sector blocks on every call."""
    return _dense_rows(n)[0].T


def _real_times(real: np.ndarray, other: np.ndarray) -> np.ndarray:
    """real @ other in real arithmetic: a complex ``other`` is read as its rows of
    (re, im) pairs, so ``real`` is never promoted to complex."""
    if not np.iscomplexobj(other):
        return real @ other
    pairs = np.ascontiguousarray(other, dtype=np.complex128).view(np.float64)
    return (real @ pairs).view(np.complex128)


def _coupled_gram(dense: np.ndarray, n: int):
    """The Gram matrix G = Q^T rho Q of a Hermitian rho in the coupled basis:
    per spin (2j, G_jj viewed as (m, k, m, k), so that entry [a, :, b, :] is
    V_a^T rho V_b), in row order, and sqrt(D) ||C||_F, with C the cross-spin
    blocks of G.  One row sector w at a time, T_w = Q_w rho[S_w, S_>=w] gives
    the sector blocks G_wv = T_w[:, S_v] Q_v^T for v >= w, each as the left
    product Q_v T_w[:, S_v]^T, so that Q stays real.  As G is Hermitian, G_vw is
    G_wv's conjugate transpose, and ||C||^2 counts the cross-spin entries of
    G_ww once and those of G_wv twice.  Only Q's structural zeros are skipped."""
    blocks, columns, spins = _spin_bases(n)
    grams = [(two_j, np.empty((mult, two_j + 1) * 2, dense.dtype)) for two_j, mult, _ in spins]
    cross = 0.0
    for w, block in enumerate(blocks):
        t = _real_times(block, dense[np.ix_(columns[w], np.concatenate(columns[w:]))])
        t = np.ascontiguousarray(t.T)  # T_w^T: each sector's rows are pairs _real_times reads
        for v, part in enumerate(np.split(t, np.cumsum([len(b) for b in blocks[w:-1]])), start=w):
            gt = _real_times(blocks[v], part)  # G_wv^T
            for (two_j, mult, first), (_, gram) in zip(spins, grams):
                if first + mult > min(gt.shape):  # j is not in both sectors, nor a smaller spin
                    break
                run = slice(first, first + mult)
                i, l = (n - 2 * w + two_j) // 2, (n - 2 * v + two_j) // 2  # m ascending
                gram[:, i, :, l] = gt[run, run].T
                if v > w:
                    gram[:, l, :, i] = gt[run, run].conj()
                gt[run, run] = 0.0
            cross += (2.0 if v > w else 1.0) * float(np.vdot(gt, gt).real)
    return grams, math.sqrt(2 ** n * cross)


def extract_blocks(dense: np.ndarray, n: int) -> BlockState:
    """Project a dense permutation-invariant qubit state onto its blocks.

    Asserts the structure the decomposition promises, within 1e-10 on the scale
    of the state: cross-multiplicity blocks vanish, and each of the m copies has
    trace weight / m.  Raises OracleMismatchError otherwise, which signals
    a bug upstream rather than bad input; the message names the first
    offending copies.  A ``dense`` that is not 2^N x 2^N raises ParameterError.
    """
    _check_cap(2, n)
    if dense.shape != (2 ** n, 2 ** n):
        raise ParameterError(f"a dense state of {n} qubits is {2 ** n} x {2 ** n}, "
                             f"got shape {dense.shape}")
    return _blocks(_coupled_gram(dense, n)[0], n)


def _blocks(grams, n: int) -> BlockState:
    """``extract_blocks`` from the diagonal spin blocks of ``_coupled_gram``."""
    blocks = []
    for two_j, gram in grams:
        lam = YoungDiagram.from_two_j(n, two_j)
        mult = len(gram)
        if mult != multiplicity_dim(lam):
            raise OracleMismatchError(f"coupling produced wrong multiplicity for 2j={two_j}")
        cross = np.abs(gram).max(axis=(1, 3))
        np.fill_diagonal(cross, 0.0)
        bad = np.argwhere(cross > STRUCTURE_TOL)
        if len(bad):
            a, b = bad[0]
            raise OracleMismatchError(
                f"cross-multiplicity block (2j={two_j}, {a},{b}) does not vanish")
        traces = np.einsum("akak->a", gram).real
        weight = float(traces.sum())
        if weight <= STRUCTURE_TOL ** 2:
            blocks.append((max(weight, 0.0), np.zeros((two_j + 1, two_j + 1), complex)))
            continue
        bad = np.flatnonzero(np.abs(traces - weight / mult) > STRUCTURE_TOL)
        if len(bad):
            a = bad[0]
            raise OracleMismatchError(
                f"multiplicity marginal of 2j={two_j} copy {a} is {traces[a] / weight}, not 1/{mult}")
        blocks.append((weight, np.einsum("akal->kl", gram) / weight))
    weights, matrices = zip(*blocks)
    return BlockState.from_matrices(n, 2, np.array(weights), matrices)


def dense_weights(dense: np.ndarray, n: int) -> dict[int, float]:
    """Block weights {2j: q_j} of a dense qubit state via projection."""
    state = extract_blocks(dense, n)
    return {lam.two_j: blk.weight for lam, blk in state.blocks.items()}


def _block_spectrum(mat: np.ndarray) -> np.ndarray:
    """Sorted eigenvalues of a block given as a Hermitian matrix or a diagonal."""
    return np.sort(mat) if mat.ndim == 1 else np.linalg.eigvalsh(mat)


def block_spectrum_mismatch(block_state: BlockState, oracle_state: BlockState) -> float:
    """Worst mismatch between the weighted eigenvalues w * eig of two states.

    Basis independent, which is the point: the coupled basis fixes the
    multiplicity convention arbitrarily, so entrywise comparison would test
    a convention, not the physics.  For the same reason it reads a block
    state in whatever frame it is held.  Both states share N; their blocks
    are compared row by row, and a block one side lacks counts its weight:
    the scale the trace norm sees, so roundoff in a light block stays light.
    """
    worst = 0.0
    ours, theirs = block_state.blocks, oracle_state.blocks
    for lam, w, w_other in zip(enumerate_diagrams(block_state.n, block_state.d),
                               block_state.weights.tolist(), oracle_state.weights.tolist()):
        if w > 0 and w_other > 0:
            diff = np.abs(w * _block_spectrum(ours[lam].matrix)
                          - w_other * _block_spectrum(theirs[lam].matrix))
            worst = max(worst, float(np.max(diff)))
        else:
            worst = max(worst, abs(w - w_other))
    return worst


# ---------------------------------------------------------------------------
# Dense protocol error
# ---------------------------------------------------------------------------

def dense_protocol_error(n: int, spectrum: Spectrum,
                         keep: Iterable[YoungDiagram],
                         orientation: BlochVector | None = None) -> float:
    """(1/2) || rho - decode(encode(rho)) ||_1 evaluated in the coupled basis Q.

    Per kept spin the channel keeps B_j, sum_a V_a^T rho V_a plus its share of
    the tail mass in the maximally mixed dump, tail * ((2j+1)/d_enc) * 1/(2j+1),
    and returns sum_a V_a (B_j / m_j) V_a^T; a dropped spin returns nothing.
    With G = Q^T rho Q the residual is G - 1_m ox B_j/m on each kept spin's
    diagonal block, G on a dropped one's, and C, the cross-spin part of G, off
    them.  The error is (1/2) sum_j ||R_jj||_1, one dense Hermitian
    eigendecomposition per spin; by pinching the full trace norm is within
    sqrt(D) ||C||_F of it, and a bound above 1e-10 raises OracleMismatchError.
    Qubits only (the qudit oracle validates weights, not channels): a spectrum
    with d != 2 raises UnsupportedFeatureError.
    """
    _check_cap(2, n)
    if spectrum.d != 2:
        raise UnsupportedFeatureError(f"the dense protocol error is for qubits, got d={spectrum.d}")
    kept = _kept_spins(n, keep)
    return _protocol_error(*_coupled_gram(dense_product_state(spectrum, n, orientation), n), kept)


def _qubit_reference(spectrum: Spectrum, n: int, orientation: BlochVector | None):
    """``extract_blocks`` of the dense qubit product state, and its ``dense_protocol_error``
    as a function of the keep set, from one dense state and one Gram matrix."""
    grams, bound = _coupled_gram(dense_product_state(spectrum, n, orientation), n)

    def protocol_error(keep: Iterable[YoungDiagram]) -> float:
        return _protocol_error(grams, bound, _kept_spins(n, keep))

    return _blocks(grams, n), protocol_error


def _kept_spins(n: int, keep: Iterable[YoungDiagram]) -> set[int]:
    """The 2j of the spins of N qubits that ``keep`` names; ParameterError for none."""
    keep = set(keep)
    kept = {two_j for two_j in range(n % 2, n + 1, 2) if YoungDiagram.from_two_j(n, two_j) in keep}
    if not kept:
        raise ParameterError("keep set holds no block of the state")
    return kept


def _protocol_error(grams, bound: float, kept: set[int]) -> float:
    """(1/2) sum_j ||R_jj||_1 from the ``_coupled_gram`` of the state."""
    if bound > STRUCTURE_TOL:
        raise OracleMismatchError(f"pinching bound sqrt(D) ||C||_F = {bound:.3g} of the "
                                  f"cross-spin blocks exceeds {STRUCTURE_TOL}")
    d_enc = sum(two_j + 1 for two_j in kept)
    tail = sum((np.einsum("akak->", gram).real for two_j, gram in grams if two_j not in kept), 0.0)
    norm = 0.0
    for two_j, gram in grams:
        mult, k = gram.shape[:2]
        residual = gram.reshape(mult * k, mult * k)
        if two_j in kept:  # B_j plus its share of the tail, tail * ((2j+1)/d_enc) * 1/(2j+1)
            block = np.einsum("akal->kl", gram) + tail * ((two_j + 1) / d_enc) * (np.eye(k) / k)
            residual = residual - np.kron(np.eye(mult), block / mult)
        norm += float(np.sum(np.abs(np.linalg.eigvalsh(residual))))
    return 0.5 * norm


# ---------------------------------------------------------------------------
# Qudit weights via symmetric-group character projection
# ---------------------------------------------------------------------------

def _cycle_type(perm: tuple[int, ...]) -> tuple[int, ...]:
    n = len(perm)
    seen = [False] * n
    cycles = []
    for i in range(n):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        cycles.append(length)
    return tuple(sorted(cycles, reverse=True))


@lru_cache(maxsize=None)
def symmetric_group_character(shape: tuple[int, ...], cycle_type: tuple[int, ...]) -> int:
    """Character of the symmetric-group irrep `shape` on class `cycle_type`.

    Murnaghan-Nakayama recursion in beta-number form: removing a border strip
    of length t is replacing a beta number b by b - t, with sign (-1)^(number
    of beta numbers strictly between b - t and b).
    """
    shape = tuple(r for r in shape if r > 0)
    if not cycle_type:
        return 1 if not shape else 0
    k = len(shape) if shape else 1
    betas = [shape[i] + (k - 1 - i) for i in range(k)] if shape else [0]
    t = cycle_type[0]
    rest = cycle_type[1:]
    total = 0
    beta_set = set(betas)
    for b in betas:
        nb = b - t
        if nb < 0 or nb in beta_set:
            continue
        height = sum(1 for x in betas if nb < x < b)
        new_betas = sorted((x for x in betas if x != b), reverse=True)
        new_betas.append(nb)
        new_betas.sort(reverse=True)
        m = len(new_betas)
        new_shape = tuple(new_betas[i] - (m - 1 - i) for i in range(m))
        total += (-1) ** height * symmetric_group_character(new_shape, rest)
    return total


def _permuted_indices(perm: tuple[int, ...], d: int) -> np.ndarray:
    """src with U_pi[i, src[i]] = 1: U_pi carries site k's factor to site perm[k],
    and site 0 is the most significant digit of a basis index."""
    n = len(perm)
    inverse = sorted(range(n), key=perm.__getitem__)  # argsort
    return np.arange(d ** n).reshape((d,) * n).transpose(inverse).ravel()


def permutation_operator(perm: tuple[int, ...], d: int) -> np.ndarray:
    """The unitary that permutes the N tensor factors of (C^d)^{ox N}."""
    _check_cap(d, len(perm))
    dim = d ** len(perm)
    op = np.zeros((dim, dim))
    op[np.arange(dim), _permuted_indices(perm, d)] = 1.0
    return op


def character_projection_weights(spectrum: Spectrum, n: int) -> dict[YoungDiagram, float]:
    """Block weights of a diagonal qudit state from explicit group projectors.

    q_lambda = Tr[rho^{ox N} P_lambda] with P_lambda the central projector
    (m_lambda / N!) sum_pi chi_lambda(pi) U_pi.  Tr[rho^{ox N} U_pi] is the sum
    of the d^N entries rho^{ox N}[src[i], i] for every permutation, summed per
    cycle type; no U_pi is built.  N! permutations, so raises ResourceLimitError,
    before the first one, when N! > PERMUTATION_CAP (N > 7).
    """
    d = spectrum.d
    _check_cap(d, n)
    if math.factorial(n) > PERMUTATION_CAP:
        raise ResourceLimitError(
            f"character projection capped at {PERMUTATION_CAP} permutations, N={n} needs {n}!")
    dim = d ** n
    entries = dense_product_state(spectrum, n).ravel()  # real: rho is diagonal
    cols = np.arange(dim)
    class_traces: dict[tuple[int, ...], float] = {}
    for perm in permutations(range(n)):
        ctype = _cycle_type(perm)
        trace = entries[_permuted_indices(perm, d) * dim + cols].sum()
        class_traces[ctype] = class_traces.get(ctype, 0.0) + trace
    out = {}
    for lam in enumerate_diagrams(n, d):
        shape = tuple(r for r in lam.rows if r > 0)
        total = sum(symmetric_group_character(shape, ctype) * trace
                    for ctype, trace in class_traces.items())
        out[lam] = float(multiplicity_dim(lam) / math.factorial(n) * total)
    return out
