"""Independent references the tests check the package against.

None of this is on a package path: a direct walk over semistandard tableaux,
the Schur polynomial summed over it, the binomial-difference qubit
multiplicity, the Clebsch-Gordan square in exact rationals and the tableau
contents of a shape in Gelfand-Tsetlin order from the branching rule.  The
Schur polynomial of each diagram is a thin lookup into the package's batched
engine, and ``block_state``
lays out a hand-written {YoungDiagram: (weight, matrix)} mapping on the
rows a ``BlockState`` is indexed by.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterator, Sequence

import numpy as np

from schurcompress.blocksim import BlockState
from schurcompress.schur_core import (
    Spectrum,
    YoungDiagram,
    _ranges,
    diagram_rows,
    enumerate_diagrams,
    log_schur_polynomials,
)


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
    inside = diagram_rows(n, spectrum.d, spectrum.rank).tolist()
    for row, log_s in zip(inside, log_schur_polynomials(n, spectrum).tolist()):
        values[YoungDiagram(row)] = math.exp(log_s)
    return values


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
