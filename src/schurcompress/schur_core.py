"""Representation-theoretic combinatorics for the Schur-Weyl block picture.

Everything in here is a pure function of its arguments: Young diagrams,
irrep and multiplicity dimensions (exact big integers; logs via lgamma) and
log Schur polynomials.  Half-integer spins are passed around as doubled
integers 2j so they stay exact and hashable.

Whole families of diagrams travel as one (M, d) integer array of rows
(``diagram_rows``); ``irrep_dims``, ``log_multiplicities`` and
``log_schur_polynomials`` take such an array, ``keep_mask`` reads a keep set
against one, and ``young_diagrams`` turns one into YoungDiagrams with a single
check.

``log_schur_polynomials`` works in difference coordinates: s_lambda / x^lambda
depends only on a_i = l_i - l_(i+1), so each Gelfand-Tsetlin level is one dense
table over (a_1, .., a_(k-1)), built from the level below by one first-order
recurrence per axis that only multiplies by ratios x_k / x_i <= 1 and adds.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
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

    One table per (n, d, r) and cap: the last two built are cached and shared,
    so every caller in one command reads the same read-only array, and a table
    built under another DIAGRAM_ENTRY_CAP is never reused.  Raises
    ResourceLimitError, before the array grows past it, when it would hold more
    than DIAGRAM_ENTRY_CAP entries.

    At most two nonzero rows (min(r, n) <= 2) is the closed form
    (n - k, k, 0, ..), k = 0 .. n // 2 (one row when r = 1), checked against
    the cap before it is written.  Otherwise the table is built one level at a
    time: a prefix with ``left`` boxes still to place in k rows takes every
    next row from ceil(left / k), which keeps the rest fillable, up to
    min(left, previous row); each level keeps only its values and the prefix
    each extends, and every column is gathered once at the end.
    """
    if r is None:
        r = d
    if n < 0:
        raise ParameterError(f"negative box count {n}")
    if d < 1:
        raise ParameterError(f"need d >= 1, got d={d}")
    if r < 1 or r > d:
        raise ParameterError(f"need 1 <= r <= d, got r={r}, d={d}")
    return _diagram_table(n, d, r, DIAGRAM_ENTRY_CAP)


def _check_diagram_count(count: int, n: int, d: int, cap: int) -> None:
    if count * d > cap:
        raise ResourceLimitError(
            f"diagram table capped at {cap} entries, N={n} with {d} rows needs at least "
            f"{count * d}")


@lru_cache(maxsize=2)
def _diagram_table(n: int, d: int, r: int, cap: int) -> np.ndarray:
    """``diagram_rows(n, d, r)`` under the cap ``cap`` (read-only)."""
    if min(r, n) <= 2:
        count = 1 if r == 1 else n // 2 + 1
        _check_diagram_count(count, n, d, cap)
        rows = np.zeros((count, d), dtype=np.int64)
        k = np.arange(count)
        rows[:, 0] = n - k
        if r > 1:
            rows[:, 1] = k
    else:
        levels = []  # per column: (the prefix each entry extends, its value)
        left = value = np.array([n], dtype=np.int64)
        for k in range(min(r, n), 0, -1):  # rows past the n-th are 0
            hi = np.minimum(left, value)
            lo = -(-left // k)
            _check_diagram_count(int((hi - lo + 1).sum()), n, d, cap)
            owner, value = _ranges(lo, hi)
            value = lo[owner] + hi[owner] - value  # each range descending
            left = left[owner] - value
            levels.append((owner, value))
        rows = np.zeros((len(value), d), dtype=np.int64)
        at = levels.pop()[0]  # every row's prefix, at the column being read
        rows[:, len(levels)] = value
        for col in range(len(levels) - 1, -1, -1):
            owner, value = levels[col]
            rows[:, col] = value[at]
            if col:
                at = owner[at]
    rows.flags.writeable = False
    return rows


def young_diagrams(rows: np.ndarray) -> list[YoungDiagram]:
    """The rows of an (M, d) int array as YoungDiagrams, in its order.

    The array is checked once: the first row that is not weakly decreasing and
    non-negative raises YoungDiagram's own ParameterError.  No diagram is then
    checked or sorted again, which makes this about three times faster than
    calling YoungDiagram per row.
    """
    bad = (rows[:, 1:] > rows[:, :-1]).any(axis=1) | (rows < 0).any(axis=1)
    if bad.any():
        YoungDiagram(tuple(rows[bad.argmax()].tolist()))
    new, put = object.__new__, object.__setattr__
    out = []
    for row in map(tuple, rows.tolist()):
        lam = new(YoungDiagram)
        put(lam, "rows", row)
        out.append(lam)
    return out


def enumerate_diagrams(n: int, d: int, r: int | None = None) -> list[YoungDiagram]:
    """The rows of ``diagram_rows(n, d, r)`` as YoungDiagrams, in its order."""
    return young_diagrams(diagram_rows(n, d, r))


def diagram_array(diagrams: Sequence[YoungDiagram], d: int) -> np.ndarray:
    """The rows of the diagrams as an (M, d) int64 array, each padded (or cut at
    trailing zeros) to d rows; ParameterError for more than d nonzero rows."""
    rows = [lam.rows if len(lam.rows) == d else lam.padded(d).rows for lam in diagrams]
    return np.array(rows, dtype=np.int64).reshape(len(rows), d)


@lru_cache(maxsize=4)
def _place_values(base: int, d: int) -> np.ndarray:
    """The place values -base^(d-1), .., -base^0 of ``keep_mask``'s numbers
    (read-only): int64 when base^d fits one, exact Python ints otherwise.
    Cached, since building them costs a tenth of a call on a 31-row table."""
    scale = np.array([-base ** k for k in range(d - 1, -1, -1)],
                     dtype=object if base ** d > 2 ** 63 else np.int64)
    scale.flags.writeable = False
    return scale


def keep_mask(keep: Iterable[YoungDiagram] | np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Which rows of an (M, d) diagram array in ``diagram_rows`` order a keep set
    names, as a boolean mask: ``keep`` is a (K, d) row array or YoungDiagrams, and
    a diagram without d rows, like a row not in ``rows``, names nothing.

    Every row is read as a negated big-endian number in base b = t + 2, with
    t = rows[0, 0] the largest entry of the table, so the table's numbers ascend
    and one ``np.searchsorted`` places every keep row.  Two rows with entries in
    [-1, t + 1] differ by less than b in every place, so their numbers are equal
    only when they are: array entries are clipped to that range, and a
    YoungDiagram is skipped when its first, largest entry passes t.
    """
    d = rows.shape[1]
    top = rows.item(0) if len(rows) else -1
    if isinstance(keep, np.ndarray):
        if keep.ndim != 2 or keep.shape[1] != d:
            raise ParameterError(f"keep rows need {d} columns, got an array of shape {keep.shape}")
        keep = np.minimum(np.maximum(keep, -1), top + 1)
    else:
        keep = [lam.rows for lam in keep if len(lam.rows) == d and lam.rows[0] <= top]
        keep = np.fromiter(itertools.chain.from_iterable(keep), np.int64,
                           len(keep) * d).reshape(-1, d)
    mask = np.zeros(len(rows), dtype=bool)
    if len(rows) and len(keep):
        scale = _place_values(top + 2, d)
        keys, want = rows.dot(scale), keep.dot(scale)
        at = keys.searchsorted(want)
        mask.put(at[keys.take(at, mode="clip") == want], True)
    return mask


def _weyl_dims(rows: np.ndarray) -> np.ndarray:
    """``irrep_dims`` in int64 when that is exact, in Python ints otherwise.

    Every Weyl factor l_i - l_j + j - i is at least 1, so no product, partial or
    whole, passes the product over the pairs of each pair's largest factor; the
    factors are multiplied in int64 when that bound is below 2^63, and as exact
    Python ints (an object array) otherwise.
    """
    rows = np.asarray(rows, dtype=np.int64)
    d = rows.shape[1]
    if d == 2:  # one pair, over 0! 1! = 1
        return rows[:, 0] - rows[:, 1] + 1
    top = int((rows > 0).sum(axis=1).max(initial=0))
    i, j = np.nonzero(np.arange(top)[:, None] < np.arange(d))  # every pair i < j, i < L
    factors = rows[:, i] - rows[:, j] + (j - i)
    if math.prod(np.abs(factors).max(axis=0, initial=1).tolist()) >= 2 ** 63:
        factors = factors.astype(object)
    num = np.multiply.reduce(factors, axis=1)
    den = math.prod(map(math.factorial, range(d - top, d)))
    assert not (num % den).any(), "Weyl numerator must be divisible by the superfactorial"
    return num // den


def irrep_dims(rows: np.ndarray) -> np.ndarray:
    """Dimension of the GL(d) irrep of every row of an (M, d) diagram array, as
    exact Python ints (an object array).

    Weyl formula: prod_{i<j} (l_i - l_j - i + j) / prod_{k<d} k!.  Rows at and
    past L, the most nonzero rows of any diagram, are 0 in every diagram, so
    their pairs give prod_{k<d-L} k! whatever the diagram; only pairs with
    i < L are multiplied, over prod_{d-L<=k<d} k!.
    """
    return _weyl_dims(rows).astype(object)


def irrep_dim(diagram: YoungDiagram, d: int) -> int:
    """Dimension of the GL(d) irrep labeled by the diagram (exact integer): the
    Weyl formula of ``irrep_dims`` on one tuple of rows."""
    rows = diagram.rows if len(diagram.rows) == d else diagram.padded(d).rows
    top = diagram.num_rows
    num = 1
    for i in range(top):
        for j in range(i + 1, d):
            num *= rows[i] - rows[j] + j - i
    return num // math.prod(map(math.factorial, range(d - top, d)))


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
    """Dimension of the symmetric-group multiplicity space (exact integer): the
    formula of ``multiplicity_dims`` on one tuple, over the diagram's own
    nonzero rows."""
    lam = diagram.rows[:diagram.num_rows]
    top, boxes, num, den = len(lam), 0, 1, 1
    for i, row in enumerate(lam):
        boxes += row
        num *= math.comb(boxes, row)
        for j in range(i + 1, top):
            num *= row - lam[j] + j - i
            den *= row + top - j
    return num // den


# ---------------------------------------------------------------------------
# Log Schur polynomials by Gelfand-Tsetlin branching in difference coordinates
# ---------------------------------------------------------------------------

def _two_row_log_schur(a: np.ndarray, b: np.ndarray, log_x: np.ndarray) -> np.ndarray:
    """log s_(a,b)(x_1, x_2) = log(x_1^a x_2^b (1 - r^(a-b+1)) / (1 - r)), r = x_2 / x_1 <= 1,
    for arrays a >= b; the geometric sum goes through expm1 and is a - b + 1 at r = 1."""
    delta = log_x[0] - log_x[1]
    out = a * log_x[0] + b * log_x[1]
    if delta == 0.0:
        return out + np.log(a - b + 1.0)
    return out + np.log(-np.expm1(-(a - b + 1) * delta)) - math.log(-math.expm1(-delta))


def log_schur_polynomials(rows: np.ndarray, spectrum: Spectrum) -> np.ndarray:
    """log s_lambda(p) for each row of an (M, r) array of partitions of one N into
    at most r parts, r the spectrum rank, in its order: ``diagram_rows(N, rank)``
    or any of its rows, built by the caller before the table (whose build
    peaks above its result).

    Over the positive eigenvalues x_1 >= .. >= x_r, the normalised Schur function
    N_k(lambda) = s_lambda(x_1..x_k) / prod_i x_i^l_i depends only on the
    differences a_i = l_i - l_(i+1) (shifting every row by c multiplies both
    by (x_1..x_k)^c), and is a plain float in [1, dim lambda].  Level k is one
    dense table over (a_1, .., a_(k-1)), axis i of length N // (i + 1) + 1.
    Level 2 is the geometric sum G(a) = expm1(-(a + 1) delta) / expm1(-delta),
    delta = log(x_1 / x_2).  Gelfand-Tsetlin branching, divided by x^lambda,
    weights each mu_i = l_i - e_i by u_i^e_i, u_i = x_k / x_i <= 1, for
    0 <= e_i <= a_i; that sum is one first-order recurrence per axis, run on
    shifted slices in place:

    1. a new last axis c: R[.., z, c] = N_(k-1)[.., z] + u_(k-1) R[.., z + 1, c - 1];
    2. each axis j = k - 3 .. 1 (0-based), y on axis j - 1:
       R[.., y, b, ..] += u_(j+1) R[.., y + 1, b - 1, ..];
    3. axis 0, ascending: R[a] += u_1 R[a - 1].

    Steps 1 and 2 update one slice [.., y, 1:, ..] at a time, y descending, so
    each slice is a contiguous run and no temporary outgrows one slice.
    A slice past the end of an axis drops only terms of more than N boxes.
    Every step multiplies by u <= 1 and adds a positive term, and every entry
    keeps its anchor term (all e_i = 0) of weight 1 and value >= 1: nothing
    overflows, a term that underflows is below 2^-1074 of its sum, and nothing
    is subtracted.  Then log s_lambda = log N_r[a(lambda)] + sum_i l_i log x_i.
    For r = 2 the geometric sum is the answer (``_two_row_log_schur``).  Raises
    ResourceLimitError, before allocating it, when the level-r table would
    hold more than SCHUR_TABLE_CAP floats.
    """
    log_x = np.log(spectrum.positive())
    r = log_x.size
    if rows.ndim != 2 or rows.shape[1] != r:
        raise ParameterError(f"rows need {r} columns, the spectrum rank, got shape {rows.shape}")
    n = int(rows[0].sum()) if len(rows) else 0
    if r == 1 or n == 0:
        return np.full(len(rows), n * log_x[0])
    if r == 2:
        return _two_row_log_schur(rows[:, 0], rows[:, 1], log_x)
    entries = math.prod(n // (i + 1) + 1 for i in range(r - 1))
    if entries > SCHUR_TABLE_CAP:
        raise ResourceLimitError(
            f"Schur table capped at {SCHUR_TABLE_CAP} entries, N={n} at rank {r} needs {entries}")
    delta = log_x[0] - log_x[1]
    terms = np.arange(1.0, n + 2)  # a + 1 terms of the geometric sum
    table = terms if delta == 0.0 else np.expm1(-delta * terms) / math.expm1(-delta)
    for k in range(3, r + 1):
        u = np.exp(log_x[k - 1] - log_x[: k - 1])  # u[i] = x_k / x_(i+1)
        prev, table = table, np.empty(table.shape + (n // (k - 1) + 1,))
        table[...] = prev[..., None]
        for z in range(prev.shape[-1] - 2, -1, -1):  # step 1
            table[..., z, 1:] += u[k - 2] * table[..., z + 1, :-1]
        for j in range(k - 3, 0, -1):  # step 2
            head = (slice(None),) * (j - 1)
            for y in range(table.shape[j - 1] - 2, -1, -1):
                table[head + (y, slice(1, None))] += u[j] * table[head + (y + 1, slice(0, -1))]
        for a in range(1, n + 1):  # step 3
            table[a] += u[0] * table[a - 1]
    return np.log(table[tuple((rows[:, :-1] - rows[:, 1:]).T)]) + rows @ log_x


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
