"""Independent references the tests check the package against.

None of this is on a package path: a direct walk over semistandard tableaux,
the Schur polynomial summed over it, the binomial-difference qubit
multiplicity, the Clebsch-Gordan square in exact rationals, the tableau
contents of a shape in Gelfand-Tsetlin order from the branching rule, the
log Schur polynomials of rank >= 3 by branching over rows one l_1 at a time
(``log_schur_planes``), the diagram table built one column at a time with
every earlier column gathered again (``diagram_rows_by_columns``), the
Cauchy identity on the engine's weights, the dense protocol error as the
trace norm of the whole residual in the computational basis
(``dense_protocol_error_by_residual``), and the dense qubit coupled basis
built by matrix products over the whole space (``coupled_basis_by_products``,
from the j x 1/2 rule as a matrix, ``coupling_matrix``), and the heaviest
block truncation under a dimension budget by a search over every subset
(``best_budget_keep``).  The
Schur polynomial of each diagram is a thin lookup into the package's batched
engine, and ``block_state`` lays out a hand-written
{YoungDiagram: (weight, matrix)} mapping on the rows a ``BlockState`` is
indexed by.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations
from typing import Iterator, Sequence

import numpy as np

from schurcompress.blocksim import BlockState
from schurcompress.oracle import dense_product_state, schur_basis_qubits
from schurcompress.schur_core import (
    Spectrum,
    YoungDiagram,
    _ranges,
    diagram_rows,
    enumerate_diagrams,
    irrep_dims,
    log_schur_polynomials,
)

# The closed forms that need no partitions or branching check the engine at the
# frontier sizes to this tolerance in log (measured residuals: below 1e-13 up to
# N = 400; up to 2.3e-13, a few units in the last place, at d = 3, N = 2000).
LOG_IDENTITY_TOL = 1e-12


def semistandard_tableaux(diagram: YoungDiagram, d: int) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Yield all semistandard fillings with entries 1..d, in a fixed order.

    Rows weakly increase, columns strictly increase.  The order is
    lexicographic in the row-reading word; no other code relies on it.
    """
    lam = [r for r in diagram.rows if r > 0]
    if not lam:
        yield ()
        return
    if len(lam) > d:
        return
    rows: list[list[int]] = [[0] * r for r in lam]

    def fill(i: int, j: int) -> Iterator[tuple[tuple[int, ...], ...]]:
        if i == len(lam):
            yield tuple(tuple(row) for row in rows)
            return
        ni, nj = (i, j + 1) if j + 1 < lam[i] else (i + 1, 0)
        lo = 1
        if j > 0:
            lo = max(lo, rows[i][j - 1])
        if i > 0:
            lo = max(lo, rows[i - 1][j] + 1)
        for v in range(lo, d + 1):
            rows[i][j] = v
            yield from fill(ni, nj)
        rows[i][j] = 0

    yield from fill(0, 0)


def tableau_content(tableau: Sequence[Sequence[int]], d: int) -> tuple[int, ...]:
    """Count of each entry 1..d in the tableau."""
    counts = [0] * d
    for row in tableau:
        for v in row:
            counts[v - 1] += 1
    return tuple(counts)


def schur_polynomial_brute(diagram: YoungDiagram, spectrum: Spectrum) -> float:
    """s_lambda(p) as the content monomial summed over every semistandard tableau;
    exponential in the diagram size."""
    d = spectrum.d
    total = 0.0
    for tab in semistandard_tableaux(diagram, d):
        term = 1.0
        for v, count in enumerate(tableau_content(tab, d)):
            term *= spectrum.probs[v] ** count
        total += term
    return total


def schur_polynomials(n: int, spectrum: Spectrum) -> dict[YoungDiagram, float]:
    """{lambda: s_lambda(p)} for every diagram of n boxes with at most d rows: exp
    of the entries of ``log_schur_polynomials``, and 0 beyond the spectrum rank."""
    values = dict.fromkeys(enumerate_diagrams(n, spectrum.d), 0.0)
    inside = diagram_rows(n, spectrum.d, spectrum.rank)
    logs = log_schur_polynomials(inside[:, :spectrum.rank], spectrum)
    for row, log_s in zip(inside.tolist(), logs.tolist()):
        values[YoungDiagram(row)] = math.exp(log_s)
    return values


def _weights(delta: float, gap: np.ndarray) -> np.ndarray:
    """exp(-delta * gap) where gap >= 0, else 0: the factor (x_k / x_i)^(l_i - mu_i)
    of the normalised branching rule, with gap = l_i - mu_i."""
    return np.exp(-delta * gap.clip(0)) * (gap >= 0)


def _interlacing_sums(t: np.ndarray, top: int, n: int, delta: np.ndarray,
                      plane: np.ndarray | None = None) -> np.ndarray:
    """Sums over the mu interlacing lambda = (top, l_2, .., l_k), on a table
    normalised by its dominant monomial.

    t[mu] = s_mu(x_1..x_{k-1}) / prod_i x_i^mu_i, dense over every mu of at most n
    boxes (0 where no partition), and delta[i] = log(x_{i+1} / x_k) >= 0.  The
    branching rule divided by x^lambda reads
    s_lambda(x_1..x_k) / x^lambda = sum over mu of prod_i exp(-delta[i] (l_i - mu_i)) t[mu].
    One axis at a time, in one buffer: weight the axis of mu_i (0 where mu_i > l_i),
    then a reverse running sum turns it into the axis of l_{i+1}.  Every partial
    sum holds its anchor term mu_i = l_i, of weight 1 and value >= 1: so nothing
    overflows (no value exceeds the irrep dimension), a term that underflows is
    below 2^-1074 of its sum, and nothing is subtracted.

    Returns the sums dense over (l_2, .., l_k) with |lambda| <= n; or, given the
    rows (l_2, .., l_k) of a ``plane`` of lambdas, only theirs: the last axis is
    then summed once per lambda, over mu_{k-1} in [l_k, l_{k-1}].
    """
    # mu_{j+1} <= l_{j+1}, and l_2..l_{j+1} share at most n - top boxes
    cuts = [min(top, (n - top) // j) + 1 for j in range(1, t.ndim)]
    s = t[(slice(0, top + 1),) + tuple(slice(0, c) for c in cuts)]
    s = s * _weights(delta[0], np.arange(top, -1, -1)).reshape((-1,) + (1,) * (s.ndim - 1))
    s[cuts[0] - 1] = s[cuts[0] - 1:].sum(axis=0)  # every mu_1 >= l_2 = cuts[0] - 1 at once
    s = s[: cuts[0]]
    summed = s.ndim if plane is None else s.ndim - 1  # a plane sums its last axis per lambda
    for i in range(s.ndim):
        if i:
            gap = np.arange(s.shape[i - 1])[:, None] - np.arange(s.shape[i])
            s *= _weights(delta[i], gap).reshape(gap.shape + (1,) * (s.ndim - i - 1))
        if i < summed:
            flipped = np.flip(s, i)
            np.add.accumulate(flipped, axis=i, out=flipped)
    if plane is None:
        return s
    lower = np.arange(s.shape[-1]) >= plane[:, -1:]
    return s[tuple(plane[:, :-1].T)].sum(axis=1, where=lower)


def log_schur_planes(n: int, spectrum: Spectrum) -> np.ndarray:
    """log s_lambda(p) for each row of ``diagram_rows(n, rank)``, rank >= 3, by
    Gelfand-Tsetlin branching over rows rather than differences.

    Level k is held normalised by its dominant monomial, N_k[lambda] =
    s_lambda(x_1..x_k) / prod_i x_i^l_i, dense over every lambda of at most n
    boxes (axis i of length n // (i + 1) + 1): level 2 is the geometric sum
    expm1(-(l_1 - l_2 + 1) delta) / expm1(-delta), each middle level is built
    one l_1 at a time by ``_interlacing_sums``, and the top level is only
    evaluated at |lambda| = n, one plane of rows (l_2, .., l_r) per l_1.
    """
    log_x = np.log(spectrum.positive())
    r = log_x.size
    assert r >= 3, "ranks 1 and 2 are closed forms"
    if n == 0:
        return np.array([0.0])
    rows = diagram_rows(n, r)
    delta = log_x[:, None] - log_x  # delta[i, k] = log(x_{i+1} / x_{k+1}), >= 0 for i <= k
    a, b = np.ogrid[: n + 1, : n // 2 + 1]
    count = (a - b + 1).clip(0)  # terms of the geometric sum, 0 where b > a
    if delta[0, 1] == 0.0:
        table = count * 1.0
    else:
        table = np.expm1(-delta[0, 1] * count) / math.expm1(-delta[0, 1])
    for k in range(3, r):
        t, table = table, np.zeros([n // (i + 1) + 1 for i in range(k)])
        for top in range(n + 1):
            s = _interlacing_sums(t, top, n, delta[: k - 1, k - 1])
            region = tuple(slice(0, min(m, size)) for m, size in zip(s.shape, table.shape[1:]))
            table[(top,) + region] = s[region]
    # rows come in one block per lambda_1 = n, n - 1, ..; each is a plane of (l_2, .., l_r)
    blocks = np.split(rows[:, 1:], np.cumsum(np.bincount(n - rows[:, 0]))[:-1])
    out = [_interlacing_sums(table, n - i, n, delta[:-1, -1], block)
           for i, block in enumerate(blocks)]
    return np.log(np.concatenate(out)) + rows @ log_x


def diagram_rows_by_columns(n: int, d: int, r: int) -> np.ndarray:
    """``diagram_rows(n, d, r)`` without its cap, closed form or cache: one column
    at a time, each level re-gathering every earlier column by its prefix."""
    rows = np.empty((1, 0), dtype=np.int64)
    left = np.array([n], dtype=np.int64)
    for k in range(min(r, max(n, 1)), 0, -1):  # rows past the n-th are 0
        hi = np.minimum(left, rows[:, -1]) if rows.shape[1] else left
        lo = -(-left // k)
        owner, value = _ranges(lo, hi)
        value = lo[owner] + hi[owner] - value  # each range descending
        rows = np.column_stack([rows[owner], value])
        left = left[owner] - value
    return np.pad(rows, ((0, 0), (0, d - rows.shape[1])))


def cauchy_identity_residual(n: int, spectrum: Spectrum) -> float:
    """Left minus right side, in log, of the Cauchy identity
    sum over lambda of dim(lambda) s_lambda(p) = [t^N] prod_i (1 - p_i t)^(-d)
    (Macdonald I (4.3)), the left side from ``log_schur_polynomials``.

    dim(lambda), not m_lambda, weights the blocks, so the multiplicities take
    no part, and s_lambda(p) = 0 past the rank.  The right side is a
    convolution of positive terms: (1 - x t)^(-d) = sum_k C(k + d - 1, d - 1)
    x^k t^k, with x = p_i / p_1.
    """
    d, probs = spectrum.d, spectrum.probs
    rows = diagram_rows(n, d, spectrum.rank)
    logs = (np.log(irrep_dims(rows).astype(float))
            + log_schur_polynomials(rows[:, :spectrum.rank], spectrum))
    top = logs.max()
    lhs = float(top + math.log(np.exp(logs - top).sum()))
    k = np.arange(n + 1)
    binomials = np.array([float(math.comb(j + d - 1, d - 1)) for j in range(n + 1)])
    series = np.ones(1)
    for p in probs:
        series = np.convolve(series, binomials * (p / probs[0]) ** k)[: n + 1]
    return lhs - (n * math.log(probs[0]) + math.log(series[n]))


def best_budget_keep(weights: dict, dims: dict, budget: float) -> tuple[float, tuple]:
    """The largest kept mass over every subset of the blocks whose dimensions sum
    to at most ``budget``, and the first subset (in ``combinations`` order over
    the keys of ``weights``) that reaches it.  Visits all 2^M subsets: M <= 20."""
    blocks = list(weights)
    if len(blocks) > 20:
        raise ValueError(f"{len(blocks)} blocks is too many for a subset search")
    best: tuple[float, tuple] = (0.0, ())
    for size in range(len(blocks) + 1):
        for chosen in combinations(blocks, size):
            mass = sum(weights[lam] for lam in chosen)
            if sum(dims[lam] for lam in chosen) <= budget and mass > best[0]:
                best = (mass, chosen)
    return best


def block_state(n: int, d: int, blocks: dict) -> BlockState:
    """The BlockState holding {YoungDiagram: (weight, matrix)}, each block on its
    row of ``diagram_rows(n, d)``, and no block elsewhere."""
    index = {row: i for i, row in enumerate(map(tuple, diagram_rows(n, d).tolist()))}
    weights, matrices = np.zeros(len(index)), [None] * len(index)
    for lam, (w, mat) in blocks.items():
        i = index[lam.padded(d).rows]
        weights[i], matrices[i] = w, mat
    return BlockState.from_matrices(n, d, weights, matrices)


def gelfand_tsetlin_contents(diagram: YoungDiagram, d: int) -> np.ndarray:
    """Content vectors of the semistandard tableaux of one shape, entries 1..d, as
    an (irrep_dim, d) array in Gelfand-Tsetlin order: sorted by the shape of the
    entries <= d - 1, then <= d - 2, and so on, each shape compared
    lexicographically.  For two rows (a, b) the contents are (c, a + b - c) for
    c = b..a, ascending m for spins."""
    rows = np.array([diagram.padded(d).rows], dtype=np.int64)
    contents, _ = _gt_level(rows)
    return contents


def _gt_level(shapes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Contents of the tableaux with entries 1..k of every shape in ``shapes``
    (M, k), grouped by shape in Gelfand-Tsetlin order, and each one's shape.

    Branching rule: a tableau of shape lambda with entries <= k is a tableau
    of an interlacing shape mu (lambda_{i+1} <= mu_i <= lambda_i) with entries
    <= k - 1, plus |lambda| - |mu| boxes holding k.
    """
    m, k = shapes.shape
    if k == 1:
        return shapes, np.arange(m)
    owner = np.arange(m)
    mu = np.empty((m, 0), dtype=np.int64)
    for i in range(k - 1):  # mu in lexicographic order
        sel, value = _ranges(shapes[owner, i + 1], shapes[owner, i])
        owner = owner[sel]
        mu = np.column_stack([mu[sel], value])
    sub, sub_owner = _gt_level(mu)
    owner = owner[sub_owner]
    return np.column_stack([sub, shapes.sum(axis=1)[owner] - sub.sum(axis=1)]), owner


def qubit_multiplicity(n: int, two_j: int) -> int:
    """m_j for two-row diagrams: C(N, (N-2j)/2) - C(N, (N-2j)/2 - 1)."""
    k = (n - two_j) // 2
    low = math.comb(n, k - 1) if k >= 1 else 0
    return math.comb(n, k) - low


def clebsch_gordan_signed_square(two_j1: int, two_m1: int, two_j2: int, two_m2: int,
                                 two_jt: int, two_mt: int) -> Fraction:
    """sign(CG) * CG^2 as an exact rational, from Racah's single-sum formula over
    every k whose factorial arguments are all >= 0.  Takes valid quantum numbers
    (doubled) that satisfy the triangle rule."""
    if two_mt != two_m1 + two_m2:
        return Fraction(0)

    def f(two_x: int) -> int:
        return math.factorial(two_x // 2)

    pref = Fraction(
        (two_jt + 1)
        * f(two_j1 + two_j2 - two_jt) * f(two_j1 - two_j2 + two_jt)
        * f(-two_j1 + two_j2 + two_jt)
        * f(two_j1 + two_m1) * f(two_j1 - two_m1)
        * f(two_j2 + two_m2) * f(two_j2 - two_m2)
        * f(two_jt + two_mt) * f(two_jt - two_mt),
        f(two_j1 + two_j2 + two_jt + 2),
    )
    a = (two_j1 + two_j2 - two_jt) // 2
    acc = Fraction(0)
    for k in range(a + 1):
        args = (k, a - k, (two_j1 - two_m1) // 2 - k,
                (two_j2 + two_m2) // 2 - k, (two_jt - two_j2 + two_m1) // 2 + k,
                (two_jt - two_j1 - two_m2) // 2 + k)
        if min(args) >= 0:
            acc += Fraction((-1) ** k, math.prod(map(math.factorial, args)))
    square = pref * acc * acc
    return square if acc >= 0 else -square


def dense_protocol_error_by_residual(n: int, spectrum: Spectrum, keep,
                                     orientation=None) -> float:
    """(1/2) || rho - decode(encode(rho)) ||_1 with the residual built in the
    computational basis and diagonalized whole: per kept spin B_j, the sum of
    V_a^T rho V_a over its copies plus tail * ((2j+1)/d_enc) * 1/(2j+1), goes back
    as sum_a V_a (B_j / m_j) V_a^T."""
    dense = dense_product_state(spectrum, n, orientation)
    kept = {lam.two_j for lam in keep}
    sums = {two_j: sum(v.T @ dense @ v for v in copies)
            for two_j, copies in schur_basis_qubits(n).items()}
    d_enc = sum(two_j + 1 for two_j in kept)
    tail = sum(np.trace(block).real for two_j, block in sums.items() if two_j not in kept)
    residual = dense.astype(complex)
    for two_j in kept:
        block = sums[two_j] + tail * ((two_j + 1) / d_enc) * (np.eye(two_j + 1) / (two_j + 1))
        copies = schur_basis_qubits(n)[two_j]
        residual -= sum(v @ block @ v.T for v in copies) / len(copies)
    return 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(residual))))


def coupling_matrix(two_j: int, two_s: int, two_jt: int) -> np.ndarray:
    """<j m; 1/2 s | j' m'> for one s and j' = j +- 1/2 as a matrix, rows ascending
    m and columns ascending m', with only the diagonal m' = m + s nonzero."""
    two_mt = np.arange(-two_j, two_j + 1, 2) + two_s
    if two_jt == two_j + 1:
        coeff = np.sqrt((two_j + 1 + two_s * two_mt) / (2 * (two_j + 1)))
    else:
        coeff = -two_s * np.sqrt((two_j + 1 - two_s * two_mt) / (2 * (two_j + 1)))
    return coeff[:, None] * np.eye(two_j + 1, two_jt + 1, (two_s + two_jt - two_j) // 2)


def coupled_basis_by_products(n: int) -> tuple[np.ndarray, list[tuple[int, int, slice]]]:
    """(Q^T, spins): the coupled basis of N qubits as one dense 2^N x 2^N matrix,
    built one qubit at a time by two matrix products C_s^T B per spin, zeros
    and all, and (2j, m_j, its rows) per spin in row order, descending 2j.  Spin
    j holds m_j (2j+1) consecutive rows, copy by copy, each copy's |j, m> for
    ascending m; copies coupled down from 2j'+1 come before those coupled up
    from 2j'-1, and the new qubit is the last tensor factor, |0> spin up."""
    # ascending m: row 0 is m=-1/2 -> |1>, row 1 is m=+1/2 -> |0>
    basis, spins = np.array([[0.0, 1.0], [1.0, 0.0]]), [(1, 1, slice(0, 2))]
    for _ in range(n - 1):
        dim = basis.shape[1]
        sources: dict[int, list[tuple[int, np.ndarray]]] = {}
        for two_j, mult, rows in spins:
            for two_jt in (two_j + 1, two_j - 1):
                if two_jt >= 0:
                    block = basis[rows].reshape(mult, two_j + 1, dim)
                    sources.setdefault(two_jt, []).append((two_j, block))
        nxt, spins, start = np.empty((2 * dim, dim, 2)), [], 0
        for two_jt, parts in sorted(sources.items(), reverse=True):
            first = start
            for two_j, block in parts:
                stop = start + len(block) * (two_jt + 1)
                new = nxt[start:stop].reshape(len(block), two_jt + 1, dim, 2)
                for bit, two_s in enumerate((1, -1)):  # |0> is spin up
                    new[..., bit] = np.matmul(coupling_matrix(two_j, two_s, two_jt).T, block)
                start = stop
            spins.append((two_jt, (start - first) // (two_jt + 1), slice(first, start)))
        basis = nxt.reshape(2 * dim, 2 * dim)
    return basis, spins
