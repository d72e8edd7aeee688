"""Dense reference implementations for small copy counts.

Everything here works in the full d^N-dimensional space: Kronecker powers,
a Schur basis built by sequential angular-momentum coupling, block extraction
by explicit projection, and the protocol error evaluated literally.  These
paths share no code with the block-level simulator beyond the Clebsch-Gordan
coefficients, so agreement between the two is a real cross-check.

Hard size cap: d^N <= 4096.  No performance tuning, by design.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import permutations

import numpy as np

from .errors import OracleMismatchError, ResourceLimitError, UnsupportedFeatureError
from .blocksim import Block, BlockState, BlochVector, uniform_dump
from .schur_core import (
    Spectrum,
    YoungDiagram,
    clebsch_gordan,
    enumerate_diagrams,
    multiplicity_dim,
)

DENSE_DIM_CAP = 4096
STRUCTURE_TOL = 1e-10


def _check_cap(d: int, n: int) -> None:
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
    """rho^{ox N} as an explicit d^N x d^N matrix."""
    d = spectrum.d
    _check_cap(d, n)
    if d == 2:
        rho = single_qubit_state(spectrum.max_eigenvalue, orientation)
    else:
        if orientation is not None and (orientation.theta or orientation.phi):
            raise UnsupportedFeatureError("dense qudit states are diagonal only")
        rho = np.diag(spectrum.probs).astype(complex)
    full = rho
    for _ in range(n - 1):
        full = np.kron(full, rho)
    return full


# ---------------------------------------------------------------------------
# Schur basis for qubits, by iterated coupling
# ---------------------------------------------------------------------------

@lru_cache(maxsize=8)
def schur_basis_qubits(n: int) -> dict[int, list[np.ndarray]]:
    """Orthonormal total-spin basis of N qubits grouped by (2j, multiplicity copy).

    Returns {2j: [V_1, V_2, ...]} where each V is a 2^N x (2j+1) isometry whose
    columns are |j, m> for ascending m.  Coupling order: qubit 1 with 2, the
    result with 3, and so on; the copy order follows that tree, which is an
    arbitrary but fixed convention.  Computational |0> is spin up (m = +1/2).
    """
    _check_cap(2, n)
    up = np.array([1.0, 0.0])
    down = np.array([0.0, 1.0])
    # ascending m: col 0 is m=-1/2 -> |1>, col 1 is m=+1/2 -> |0>
    level: dict[int, list[np.ndarray]] = {1: [np.column_stack([down, up])]}
    for _ in range(n - 1):
        nxt: dict[int, list[np.ndarray]] = {}
        for two_j, copies in sorted(level.items(), reverse=True):
            for v in copies:
                for two_jt in (two_j + 1, two_j - 1):
                    if two_jt < 0:
                        continue
                    cols = []
                    for two_mt in range(-two_jt, two_jt + 1, 2):
                        vec = None
                        for idx_m, two_m in enumerate(range(-two_j, two_j + 1, 2)):
                            two_s = two_mt - two_m
                            if two_s not in (-1, 1):
                                continue
                            coef = clebsch_gordan(two_j, two_m, 1, two_s, two_jt, two_mt)
                            if coef == 0.0:
                                continue
                            spin = up if two_s == 1 else down
                            term = coef * np.kron(v[:, idx_m], spin)
                            vec = term if vec is None else vec + term
                        cols.append(vec)
                    nxt.setdefault(two_jt, []).append(np.column_stack(cols))
        level = nxt
    return level


def schur_isometry(n: int) -> np.ndarray:
    """All basis columns side by side: a full 2^N x 2^N orthogonal matrix."""
    basis = schur_basis_qubits(n)
    cols = []
    for two_j in sorted(basis, reverse=True):
        cols.extend(basis[two_j])
    return np.column_stack(cols)


def extract_blocks(dense: np.ndarray, n: int) -> BlockState:
    """Project a dense permutation-invariant qubit state onto its blocks.

    Asserts the structure the decomposition promises: cross-multiplicity
    blocks vanish and the multiplicity marginal is exactly maximally mixed,
    both within 1e-10.  Raises OracleMismatchError otherwise, which signals
    a bug upstream rather than bad input.
    """
    basis = schur_basis_qubits(n)
    blocks: dict[YoungDiagram, Block] = {}
    for two_j, copies in sorted(basis.items(), reverse=True):
        mult = len(copies)
        if mult != multiplicity_dim(YoungDiagram.from_two_j(n, two_j)):
            raise OracleMismatchError(f"coupling produced wrong multiplicity for 2j={two_j}")
        compressed = [dense @ v for v in copies]  # cache the expensive right product
        inner = [[v.conj().T @ cw for cw in compressed] for v in copies]
        for a in range(mult):
            for b in range(mult):
                if a != b and np.max(np.abs(inner[a][b])) > STRUCTURE_TOL:
                    raise OracleMismatchError(
                        f"cross-multiplicity block (2j={two_j}, {a},{b}) does not vanish")
        weight = sum(np.trace(inner[a][a]).real for a in range(mult))
        lam = YoungDiagram.from_two_j(n, two_j)
        if weight <= STRUCTURE_TOL ** 2:
            blocks[lam] = Block(max(weight, 0.0), np.zeros((two_j + 1, two_j + 1), complex))
            continue
        for a in range(mult):
            marg = np.trace(inner[a][a]).real / weight
            if abs(marg - 1.0 / mult) > STRUCTURE_TOL:
                raise OracleMismatchError(
                    f"multiplicity marginal of 2j={two_j} copy {a} is {marg}, not 1/{mult}")
        total = sum(inner[a][a] for a in range(mult))
        blocks[lam] = Block(weight, total / weight)
    return BlockState(n=n, d=2, blocks=blocks)


def dense_weights(dense: np.ndarray, n: int) -> dict[int, float]:
    """Block weights {2j: q_j} of a dense qubit state via projection."""
    state = extract_blocks(dense, n)
    return {lam.two_j: blk.weight for lam, blk in state.blocks.items()}


def _block_spectrum(mat: np.ndarray) -> np.ndarray:
    """Sorted eigenvalues of a block given as a Hermitian matrix or a diagonal."""
    return np.sort(mat) if mat.ndim == 1 else np.linalg.eigvalsh(mat)


def block_spectrum_mismatch(block_state: BlockState, oracle_state: BlockState) -> float:
    """Worst mismatch between per-block eigenvalue spectra of two states.

    Basis independent, which is the point: the coupled basis fixes the
    multiplicity convention arbitrarily, so entrywise comparison would test
    a convention, not the physics.  For the same reason it reads a block
    state in whatever frame it is held.
    """
    worst = 0.0
    for lam, blk in block_state.blocks.items():
        other = oracle_state.blocks.get(lam)
        if other is None:
            worst = max(worst, blk.weight)
            continue
        mine = _block_spectrum(blk.matrix) if blk.weight > 0 else None
        theirs = _block_spectrum(other.matrix) if other.weight > 0 else None
        if mine is None or theirs is None:
            worst = max(worst, abs(blk.weight - other.weight))
            continue
        worst = max(worst, float(np.max(np.abs(mine - theirs))))
    return worst


# ---------------------------------------------------------------------------
# Dense protocol error
# ---------------------------------------------------------------------------

def dense_protocol_error(n: int, spectrum: Spectrum,
                         keep, orientation: BlochVector | None = None,
                         dump_state: BlockState | None = None) -> float:
    """(1/2) || rho - decode(encode(rho)) ||_1 evaluated in the full space.

    The encode-decode composite is assembled from the coupled basis columns;
    the trace norm comes from a dense Hermitian eigendecomposition.  Qubits
    only (the qudit oracle validates weights, not channels).
    """
    _check_cap(2, n)
    kept = {lam if isinstance(lam, YoungDiagram) else YoungDiagram.from_two_j(n, lam)
            for lam in keep}
    if dump_state is None:
        dump_state = uniform_dump(n, 2, kept)
    if dump_state.orientation is not None:
        raise UnsupportedFeatureError("the dense oracle takes dump states in the lab frame")
    dense = dense_product_state(spectrum, n, orientation)
    basis = schur_basis_qubits(n)
    out = np.zeros_like(dense)
    tail = 0.0
    for two_j, copies in sorted(basis.items(), reverse=True):
        lam = YoungDiagram.from_two_j(n, two_j)
        mult = len(copies)
        if lam in kept:
            # sum_b V_b^dag rho V_b, spread uniformly over copies a
            inner = sum(v.conj().T @ dense @ v for v in copies)
            for v in copies:
                out += v @ inner @ v.conj().T / mult
        else:
            proj_weight = sum(np.trace(v.conj().T @ dense @ v).real for v in copies)
            tail += proj_weight
    for lam, blk in dump_state.blocks.items():
        if blk.weight == 0.0:
            continue
        mat = np.diag(blk.matrix) if blk.matrix.ndim == 1 else blk.matrix
        for v in basis[lam.two_j]:
            out += tail * blk.weight * (v @ mat @ v.conj().T) / len(basis[lam.two_j])
    diff = dense - out
    eigs = np.linalg.eigvalsh((diff + diff.conj().T) / 2.0)
    return 0.5 * float(np.sum(np.abs(eigs)))


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


def permutation_operator(perm: tuple[int, ...], d: int) -> np.ndarray:
    """The unitary that permutes the N tensor factors of (C^d)^{ox N}."""
    n = len(perm)
    dim = d ** n
    op = np.zeros((dim, dim))
    for idx in range(dim):
        digits = []
        x = idx
        for _ in range(n):
            digits.append(x % d)
            x //= d
        digits.reverse()  # site 0 is the most significant digit
        moved = [digits[perm.index(i)] for i in range(n)]
        j = 0
        for t in moved:
            j = j * d + t
        op[j, idx] = 1.0
    return op


def character_projection_weights(spectrum: Spectrum, n: int) -> dict[YoungDiagram, float]:
    """Block weights of a diagonal qudit state from explicit group projectors.

    q_lambda = Tr[rho^{ox N} P_lambda] with P_lambda the central projector
    (m_lambda / N!) sum_pi chi_lambda(pi) U_pi.  Exponential in N; intended
    for N <= 5.
    """
    d = spectrum.d
    _check_cap(d, n)
    dense = dense_product_state(spectrum, n)
    ops: dict[tuple[int, ...], np.ndarray] = {}
    classes: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    for perm in permutations(range(n)):
        classes.setdefault(_cycle_type(perm), []).append(perm)
    out = {}
    for lam in enumerate_diagrams(n, d):
        shape = tuple(r for r in lam.rows if r > 0)
        proj = np.zeros_like(dense)
        for ctype, members in classes.items():
            chi = symmetric_group_character(shape, ctype)
            if chi == 0:
                continue
            if ctype not in ops:
                ops[ctype] = sum(permutation_operator(p, d) for p in members)
            proj = proj + chi * ops[ctype]
        proj *= multiplicity_dim(lam) / math.factorial(n)
        out[lam] = float(np.trace(proj @ dense).real)
    return out
