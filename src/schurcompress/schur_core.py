"""Representation-theoretic combinatorics for the Schur-Weyl block picture.

Everything in here is a pure function of its arguments: Young diagrams,
irrep and multiplicity dimensions (exact big integers; logs via lgamma) and
log Schur polynomials (Gelfand-Tsetlin branching).  Half-integer spins are
passed around as doubled integers 2j so they stay exact and hashable.

Whole families of diagrams travel as one (M, d) integer array of rows
(``diagram_rows``); ``irrep_dims`` and ``log_multiplicities`` take such an
array, and ``keep_mask`` reads a keep set against one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import ParameterError, ResourceLimitError

SUM_TOL = 1e-12
DIAGRAM_ENTRY_CAP = 2 ** 21  # ints held by one diagram_rows array (diagrams * d)
SCHUR_TABLE_CAP = 2 ** 25    # floats held by the dense table of log_schur_polynomials


@dataclass(frozen=True, order=True)
class YoungDiagram:
    """A partition of N into weakly decreasing rows (trailing zeros allowed).

    For qubits (two rows) the total-spin label j corresponds to the diagram
    ((N + 2j)/2, (N - 2j)/2); ``two_j`` recovers 2j = rows[0] - rows[1].
    """

    rows: tuple[int, ...]

    def __post_init__(self):
        rows = tuple(map(int, self.rows))
        object.__setattr__(self, "rows", rows)
        if rows != tuple(sorted(rows, reverse=True)):
            raise ParameterError(f"rows not weakly decreasing: {rows}")
        if rows and rows[-1] < 0:
            raise ParameterError(f"negative row length in {rows}")

    @property
    def boxes(self) -> int:
        return sum(self.rows)

    @property
    def num_rows(self) -> int:
        """Number of nonzero rows."""
        return sum(1 for r in self.rows if r > 0)

    @property
    def two_j(self) -> int:
        """Doubled total-spin label for two-row diagrams."""
        if len(self.rows) != 2:
            raise ParameterError("two_j is only defined for two-row diagrams")
        return self.rows[0] - self.rows[1]

    @classmethod
    def from_two_j(cls, n: int, two_j: int) -> "YoungDiagram":
        if two_j < 0 or two_j > n or (n - two_j) % 2:
            raise ParameterError(f"invalid spin label 2j={two_j} for N={n}")
        return cls(((n + two_j) // 2, (n - two_j) // 2))

    def padded(self, d: int) -> "YoungDiagram":
        if self.num_rows > d:
            raise ParameterError(f"{self.rows} has more than {d} nonzero rows")
        return YoungDiagram(tuple(self.rows[:d]) + (0,) * (d - len(self.rows)))

    def __repr__(self) -> str:
        return f"YoungDiagram({self.rows})"


@dataclass(frozen=True)
class Spectrum:
    """Sorted eigenvalue vector of the single-copy state.

    probs must be finite, weakly decreasing, non-negative and sum to 1 within
    1e-12.
    ``degeneracy_m`` counts repeated positive eigenvalues: m = sum_i mu_i with
    mu_i = #{j > i : p_j = p_i}, taken over positive entries only.
    """

    probs: tuple[float, ...]

    def __post_init__(self):
        probs = tuple(float(p) for p in self.probs)
        object.__setattr__(self, "probs", probs)
        if not probs:
            raise ParameterError("empty spectrum")
        if not all(math.isfinite(p) for p in probs):
            raise ParameterError(f"non-finite eigenvalue in {probs}")
        if any(p < 0 for p in probs):
            raise ParameterError(f"negative eigenvalue in {probs}")
        if any(probs[i] < probs[i + 1] for i in range(len(probs) - 1)):
            raise ParameterError(f"spectrum not sorted descending: {probs}")
        if abs(sum(probs) - 1.0) > SUM_TOL:
            raise ParameterError(f"spectrum sums to {sum(probs)!r}, not 1")

    @property
    def d(self) -> int:
        return len(self.probs)

    @property
    def rank(self) -> int:
        return sum(1 for p in self.probs if p > 0)

    @property
    def max_eigenvalue(self) -> float:
        return self.probs[0]

    @property
    def degeneracy_m(self) -> int:
        r = self.rank
        m = 0
        for i in range(r):
            m += sum(1 for j in range(i + 1, r) if _same_eigenvalue(self.probs[j], self.probs[i]))
        return m

    def positive(self) -> tuple[float, ...]:
        return tuple(p for p in self.probs if p > 0)


def _same_eigenvalue(a: float, b: float) -> bool:
    return abs(a - b) <= 1e-12


def spectrum_of(*probs: float) -> Spectrum:
    """The Spectrum of eigenvalues in any order: ParameterError unless their sum, in
    that order, is within 1e-9 of 1; then divided by it and sorted descending."""
    vals = [float(p) for p in probs]
    total = sum(vals)
    if abs(total - 1.0) > 1e-9:
        raise ParameterError(f"spectrum sums to {total!r}, not 1 (within 1e-9)")
    return Spectrum(tuple(sorted((v / total for v in vals), reverse=True)))


# ---------------------------------------------------------------------------
# Diagram enumeration and dimensions
# ---------------------------------------------------------------------------

def _ranges(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every integer lo[i]..hi[i] for every i, as (index i, value), grouped by i."""
    lengths = hi - lo + 1
    owner = np.repeat(np.arange(lo.size), lengths)
    offset = lo + lengths - np.cumsum(lengths)  # value minus position
    return owner, np.arange(owner.size) + offset[owner]


def diagram_rows(n: int, d: int, r: int | None = None) -> np.ndarray:
    """All partitions of n into at most r parts, padded to d rows, as an (M, d)
    int64 array in lexicographically decreasing order (read-only).

    Built one column at a time: a prefix with ``left`` boxes still to place in
    k rows takes every next row from ceil(left / k), which keeps the rest
    fillable, up to min(left, previous row).  Raises ResourceLimitError,
    before the array grows past it, when it would hold more than
    DIAGRAM_ENTRY_CAP entries.
    """
    if r is None:
        r = d
    if n < 0:
        raise ParameterError(f"negative box count {n}")
    if r < 1 or r > d:
        raise ParameterError(f"need 1 <= r <= d, got r={r}, d={d}")
    rows = np.empty((1, 0), dtype=np.int64)
    left = np.array([n], dtype=np.int64)
    for k in range(min(r, max(n, 1)), 0, -1):  # rows past the n-th are 0
        hi = np.minimum(left, rows[:, -1]) if rows.shape[1] else left
        lo = -(-left // k)
        count = int((hi - lo + 1).sum())
        if count * d > DIAGRAM_ENTRY_CAP:
            raise ResourceLimitError(
                f"diagram table capped at {DIAGRAM_ENTRY_CAP} entries, N={n} with "
                f"{d} rows needs at least {count * d}")
        owner, value = _ranges(lo, hi)
        value = lo[owner] + hi[owner] - value  # each range descending
        rows = np.column_stack([rows[owner], value])
        left = left[owner] - value
    rows = np.pad(rows, ((0, 0), (0, d - rows.shape[1])))
    rows.flags.writeable = False
    return rows


def enumerate_diagrams(n: int, d: int, r: int | None = None) -> list[YoungDiagram]:
    """The rows of ``diagram_rows(n, d, r)`` as YoungDiagrams, in its order."""
    return [YoungDiagram(row) for row in diagram_rows(n, d, r).tolist()]


def diagram_array(diagrams: Sequence[YoungDiagram], d: int) -> np.ndarray:
    """The rows of the diagrams as an (M, d) int64 array, each padded (or cut at
    trailing zeros) to d rows; ParameterError for more than d nonzero rows."""
    rows = [lam.rows if len(lam.rows) == d else lam.padded(d).rows for lam in diagrams]
    return np.array(rows, dtype=np.int64).reshape(len(rows), d)


def keep_mask(keep: Iterable[YoungDiagram] | np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Which rows of an (M, d) diagram array a keep set names, as a boolean mask:
    ``keep`` is a (K, d) row array or YoungDiagrams, and a diagram without d rows,
    like a row not in ``rows``, names nothing.  One dict of the rows per call."""
    d = rows.shape[1]
    array = isinstance(keep, np.ndarray)
    if array and (keep.ndim != 2 or keep.shape[1] != d):
        raise ParameterError(f"keep rows need {d} columns, got an array of shape {keep.shape}")
    keys = map(tuple, keep.tolist()) if array else (lam.rows for lam in keep)
    index = {row: i for i, row in enumerate(map(tuple, rows.tolist()))}
    mask = np.zeros(len(rows), dtype=bool)
    mask[[i for i in map(index.get, keys) if i is not None]] = True
    return mask


def irrep_dims(rows: np.ndarray) -> np.ndarray:
    """Dimension of the GL(d) irrep of every row of an (M, d) diagram array, as
    exact Python ints (an object array).

    Weyl formula: prod_{i<j} (l_i - l_j - i + j) / prod_{k<d} k!.  Rows at and
    past L, the most nonzero rows of any diagram, are 0 in every diagram, so
    their pairs give prod_{k<d-L} k! whatever the diagram; only pairs with
    i < L are multiplied, over prod_{d-L<=k<d} k!.
    """
    d = rows.shape[1]
    top = int((rows > 0).sum(axis=1).max(initial=0))
    i, j = np.nonzero(np.arange(top)[:, None] < np.arange(d))  # every pair i < j, i < L
    num = np.multiply.reduce((rows[:, i] - rows[:, j] + (j - i)).astype(object), axis=1)
    den = math.prod(map(math.factorial, range(d - top, d)))
    assert not (num % den).any(), "Weyl numerator must be divisible by the superfactorial"
    return num // den


def irrep_dim(diagram: YoungDiagram, d: int) -> int:
    """Dimension of the GL(d) irrep labeled by the diagram (exact integer):
    ``irrep_dims`` of one row."""
    return irrep_dims(diagram_array([diagram], d))[0]


def multiplicity_dims(rows: np.ndarray) -> np.ndarray:
    """Dimension of the symmetric-group multiplicity space of every row of an
    (M, d) diagram array, as exact Python ints (an object array).

    The number of standard Young tableaux of the shape, over any L >= its nonzero
    rows (the most of any diagram, as in ``irrep_dims``): multinomial(N; l_0..l_{L-1})
    * prod_{i<j<L} (l_i - l_j + j - i) / (l_i + L - j).  The multinomial is a product
    of ``math.comb``, at most d^N, and no k! up to N is built.
    """
    top = int((rows > 0).sum(axis=1).max(initial=0))
    lam = rows[:, :top]
    i, j = np.nonzero(np.arange(top)[:, None] < np.arange(top))  # every pair i < j < L
    binomials = np.frompyfunc(math.comb, 2, 1)(lam.cumsum(axis=1), lam).astype(object)
    num = (np.multiply.reduce(binomials, axis=1)
           * np.multiply.reduce((lam[:, i] - lam[:, j] + (j - i)).astype(object), axis=1))
    den = np.multiply.reduce((lam[:, i] + top - j).astype(object), axis=1)
    assert not (num % den).any(), "multiplicity formula must divide exactly"
    return num // den


def multiplicity_dim(diagram: YoungDiagram) -> int:
    """Dimension of the symmetric-group multiplicity space (exact integer):
    ``multiplicity_dims`` of one row."""
    return multiplicity_dims(np.array([diagram.rows], dtype=np.int64))[0]


# ---------------------------------------------------------------------------
# Log Schur polynomials by Gelfand-Tsetlin branching
# ---------------------------------------------------------------------------

def _two_row_log_schur(a: np.ndarray, b: np.ndarray, log_x: np.ndarray) -> np.ndarray:
    """log s_(a,b)(x_1, x_2) = log(x_1^a x_2^b (1 - r^(a-b+1)) / (1 - r)), r = x_2 / x_1 <= 1,
    for arrays a >= b; the geometric sum goes through expm1 and is a - b + 1 at r = 1."""
    delta = log_x[0] - log_x[1]
    out = a * log_x[0] + b * log_x[1]
    if delta == 0.0:
        return out + np.log(a - b + 1.0)
    return out + np.log(-np.expm1(-(a - b + 1) * delta)) - math.log(-math.expm1(-delta))


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


def log_schur_polynomials(n: int, spectrum: Spectrum) -> np.ndarray:
    """log s_lambda(p) for each row of ``diagram_rows(n, rank)``, in that order.

    Gelfand-Tsetlin branching over the positive eigenvalues x_1 >= .. >= x_r,
    s_lambda(x_1..x_k) = sum over mu interlacing lambda of
    x_k^(|lambda| - |mu|) s_mu(x_1..x_{k-1}), adds positive terms only.  Level k
    is held normalised by its dominant monomial, N_k[lambda] =
    s_lambda(x_1..x_k) / prod_i x_i^l_i, a plain float in [1, dim lambda]; its
    branching weights (x_k / x_i)^(l_i - mu_i) are at most 1, so the sums run in
    linear space with nothing subtracted (``_interlacing_sums``), and
    log s_lambda = log N_r[lambda] + sum_i l_i log x_i.  Two variables are a
    closed form, the geometric sum expm1(-(a - b + 1) delta) / expm1(-delta):
    for r = 2 the answer (in log form), else a dense table over every mu of at
    most n boxes (axis i of length n // (i + 1) + 1), as is each middle level.
    The top level is only evaluated at |lambda| = n: one lambda_1 at a time, its
    rows (l_2, .., l_{r-1}) are gathered before the last axis, which is one
    weighted sum over mu_{r-1} in [l_r, l_{r-1}] per lambda.  Raises
    ResourceLimitError, before allocating it, when the largest dense table
    would hold more than SCHUR_TABLE_CAP floats.
    """
    log_x = np.log(spectrum.positive())
    r = log_x.size
    if r == 1 or n == 0:
        return np.array([n * log_x[0]])
    if r == 2:
        a = np.arange(n, (n - 1) // 2, -1)
        return _two_row_log_schur(a, n - a, log_x)
    entries = math.prod(n // (i + 1) + 1 for i in range(r - 1))
    if entries > SCHUR_TABLE_CAP:
        raise ResourceLimitError(
            f"Schur table capped at {SCHUR_TABLE_CAP} entries, N={n} at rank {r} needs {entries}")
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


def log_multiplicities(rows: np.ndarray) -> np.ndarray:
    """log multiplicity_dim of every row of an (M, d) diagram array.

    Over the ell nonzero rows of each diagram: log N! - sum_i log (l_i + ell - 1 - i)!
    + sum_{i<j} log(l_i - l_j + j - i), each sum taken in index order from tables
    of ``math.lgamma`` and ``math.log``.  A one-row diagram gives exactly 0.
    """
    m, d = rows.shape
    n = rows.sum(axis=1)
    ell = (rows > 0).sum(axis=1)
    size = int(n.max(initial=0)) + d + 1
    log_factorial = np.fromiter(map(math.lgamma, range(1, size + 1)), float, size)
    log_int = np.fromiter(map(math.log, range(1, size)), float, size - 1)
    factorials = np.zeros(m)
    for i in range(d):
        factorials += log_factorial[np.where(i < ell, rows[:, i] + ell - 1 - i, 0)]
    pairs = np.zeros(m)
    for i in range(d):
        for j in range(i + 1, d):
            pairs += np.where(j < ell, log_int[rows[:, i] - rows[:, j] + (j - i - 1)], 0.0)
    return (log_factorial[n] - factorials) + pairs
