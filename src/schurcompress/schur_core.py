"""Representation-theoretic combinatorics for the Schur-Weyl block picture.

Everything in here is a pure function of its arguments: Young diagrams,
irrep and multiplicity dimensions (exact big integers; logs via lgamma), tableau
contents and log Schur polynomials (Gelfand-Tsetlin branching), SU(2)
Clebsch-Gordan coefficients and Wigner rotation matrices.  Half-integer
angular momenta are passed around as doubled integers (2j, 2m) so they stay
exact and hashable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterator, Sequence

import numpy as np

from .errors import ParameterError

SUM_TOL = 1e-12


@dataclass(frozen=True, order=True)
class YoungDiagram:
    """A partition of N into weakly decreasing rows (trailing zeros allowed).

    For qubits (two rows) the total-spin label j corresponds to the diagram
    ((N + 2j)/2, (N - 2j)/2); ``two_j`` recovers 2j = rows[0] - rows[1].
    """

    rows: tuple[int, ...]

    def __post_init__(self):
        rows = tuple(int(r) for r in self.rows)
        object.__setattr__(self, "rows", rows)
        if any(r < 0 for r in rows):
            raise ParameterError(f"negative row length in {rows}")
        if any(rows[i] < rows[i + 1] for i in range(len(rows) - 1)):
            raise ParameterError(f"rows not weakly decreasing: {rows}")

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
    """Convenience constructor: sorts descending, renormalizes tiny drift."""
    vals = sorted((float(p) for p in probs), reverse=True)
    total = sum(vals)
    if abs(total - 1.0) > 1e-9:
        raise ParameterError(f"probabilities sum to {total!r}, not 1")
    return Spectrum(tuple(v / total for v in vals))


# ---------------------------------------------------------------------------
# Diagram enumeration and dimensions
# ---------------------------------------------------------------------------

def _partitions_at_most(n: int, max_part: int, parts_left: int) -> Iterator[tuple[int, ...]]:
    if n == 0:
        yield ()
        return
    if parts_left == 0 or max_part == 0:
        return
    # smallest admissible first part keeps the remainder fillable
    lo = -(-n // parts_left)  # ceil(n / parts_left)
    for first in range(min(n, max_part), lo - 1, -1):
        for rest in _partitions_at_most(n - first, first, parts_left - 1):
            yield (first,) + rest


def enumerate_diagrams(n: int, d: int, r: int | None = None) -> list[YoungDiagram]:
    """All partitions of n into at most r parts, padded to d rows.

    Output is in lexicographically decreasing order; the count equals the
    number of partitions of n into at most r parts.
    """
    if r is None:
        r = d
    if n < 0:
        raise ParameterError(f"negative box count {n}")
    if r < 1 or r > d:
        raise ParameterError(f"need 1 <= r <= d, got r={r}, d={d}")
    return [YoungDiagram(p + (0,) * (d - len(p))) for p in _partitions_at_most(n, n, r)]


def irrep_dim(diagram: YoungDiagram, d: int) -> int:
    """Dimension of the GL(d) irrep labeled by the diagram (exact integer).

    Weyl formula: prod_{i<j} (l_i - l_j - i + j) / prod_{k<d} k!.
    """
    lam = diagram.padded(d).rows
    num = 1
    for i in range(d):
        for j in range(i + 1, d):
            num *= lam[i] - lam[j] + j - i
    den = 1
    for k in range(1, d):
        den *= math.factorial(k)
    q, rem = divmod(num, den)
    assert rem == 0, "Weyl numerator must be divisible by the superfactorial"
    return q


def multiplicity_dim(diagram: YoungDiagram) -> int:
    """Dimension of the symmetric-group multiplicity space (exact integer).

    Equals the number of standard Young tableaux of the shape:
    N! * prod_{i<j} (l_i - l_j + j - i) / prod_i (l_i + d - i)!.
    """
    lam = diagram.rows
    d = len(lam)
    n = sum(lam)
    num = math.factorial(n)
    for i in range(d):
        for j in range(i + 1, d):
            num *= lam[i] - lam[j] + j - i
    den = 1
    for i in range(d):
        den *= math.factorial(lam[i] + d - 1 - i)
    q, rem = divmod(num, den)
    assert rem == 0, "multiplicity formula must divide exactly"
    return q


def qubit_multiplicity(n: int, two_j: int) -> int:
    """m_j for two-row diagrams: C(N, (N-2j)/2) - C(N, (N-2j)/2 - 1)."""
    k = (n - two_j) // 2
    low = math.comb(n, k - 1) if k >= 1 else 0
    return math.comb(n, k) - low


# ---------------------------------------------------------------------------
# Semistandard tableaux and Schur polynomials
# ---------------------------------------------------------------------------

def semistandard_tableaux(diagram: YoungDiagram, d: int) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Yield all semistandard fillings with entries 1..d, in a fixed order.

    Rows weakly increase, columns strictly increase.  The order is
    lexicographic in the row-reading word; no other code relies on it.  This
    walk is the test reference for ``gelfand_tsetlin_contents``, which block
    construction uses instead.
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


def _ranges(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every integer lo[i]..hi[i] for every i, as (index i, value), grouped by i."""
    lengths = hi - lo + 1
    owner = np.repeat(np.arange(lo.size), lengths)
    offset = lo + lengths - np.cumsum(lengths)  # value minus position
    return owner, np.arange(owner.size) + offset[owner]


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


def gelfand_tsetlin_contents(diagram: YoungDiagram, d: int) -> np.ndarray:
    """Content vectors of all semistandard tableaux of the shape, entries 1..d.

    Returns an integer array of shape (irrep_dim(diagram, d), d) whose row t
    counts the entries 1..d of tableau t.  Tableaux come in Gelfand-Tsetlin
    order, the canonical basis order of diagonal blocks: sorted by the shape
    of their entries <= d - 1, then of their entries <= d - 2, and so on down
    to <= 1, each shape compared lexicographically.  For two rows (a, b) the
    contents are (c, a + b - c) for c = b..a, which is ascending m for spins.
    """
    rows = diagram.padded(d).rows
    contents, _ = _gt_level(np.array([rows], dtype=np.int64))
    return contents


def tableau_content(tableau: Sequence[Sequence[int]], d: int) -> tuple[int, ...]:
    """Count of each entry 1..d in the tableau."""
    counts = [0] * d
    for row in tableau:
        for v in row:
            counts[v - 1] += 1
    return tuple(counts)


def _two_row_log_schur(a: np.ndarray, b: np.ndarray, log_x: np.ndarray) -> np.ndarray:
    """log s_(a,b)(x_1, x_2) = log(x_1^a x_2^b (1 - r^(a-b+1)) / (1 - r)), r = x_2 / x_1 <= 1,
    for arrays a >= b; the geometric sum goes through expm1 and is a - b + 1 at r = 1."""
    delta = log_x[0] - log_x[1]
    out = a * log_x[0] + b * log_x[1]
    if delta == 0.0:
        return out + np.log(a - b + 1.0)
    return out + np.log(-np.expm1(-(a - b + 1) * delta)) - math.log(-math.expm1(-delta))


def _interlacing_sums(t: np.ndarray, top: int, n: int) -> np.ndarray:
    """log sum of exp(t[mu]) over the mu interlacing lambda = (top, l_2, .., l_k), dense
    over (l_2, .., l_k) with |lambda| <= n (-inf where no partition).  One axis at
    a time, in one buffer: mask every mu_i above l_i, then a reverse running
    logaddexp turns the axis of mu_i into that of l_{i+1}.  Nothing is subtracted."""
    # mu_{j+1} <= l_{j+1}, and l_2..l_{j+1} share at most n - top boxes
    cuts = [min(top, (n - top) // j) + 1 for j in range(1, t.ndim)]
    s = t[(slice(top, None, -1),) + tuple(slice(0, c) for c in cuts)]
    s = np.logaddexp.accumulate(s, axis=0)[::-1][: cuts[0]]
    for i in range(1, s.ndim):
        above = np.arange(s.shape[i]) > np.arange(s.shape[i - 1])[:, None]
        np.copyto(s, -np.inf, where=above.reshape(above.shape + (1,) * (s.ndim - i - 1)))
        flipped = np.flip(s, i)
        np.logaddexp.accumulate(flipped, axis=i, out=flipped)
    return s


def log_schur_polynomials(n: int, spectrum: Spectrum) -> np.ndarray:
    """log s_lambda(p) for each lambda in ``enumerate_diagrams(n, d, rank)``, in that order.

    Gelfand-Tsetlin branching over the positive eigenvalues x_1 >= .. >= x_r,
    s_lambda(x_1..x_k) = sum over mu interlacing lambda of
    x_k^(|lambda| - |mu|) s_mu(x_1..x_{k-1}), adds positive terms only, so it
    runs in log space without cancellation.  Level k - 1 is held at x / x_k,
    which makes x_k = 1.  Two variables are a closed form: the answer for
    r = 2, else a dense table over every mu of at most n boxes (axis i of
    length n // (i + 1) + 1), as is each middle level; the top level is only
    evaluated at |lambda| = n, one lambda_1 at a time.
    """
    log_x = np.log(spectrum.positive())
    r = log_x.size
    if r == 1 or n == 0:
        return np.array([n * log_x[0]])
    if r == 2:
        a = np.arange(n, (n - 1) // 2, -1)
        return _two_row_log_schur(a, n - a, log_x)
    a, b = np.ogrid[: n + 1, : n // 2 + 1]
    table = np.where(b <= a, _two_row_log_schur(a, np.minimum(a, b), log_x - log_x[2]), -np.inf)
    for k in range(3, r):
        t, table = table, np.full([n // (i + 1) + 1 for i in range(k)], -np.inf)
        for top in range(n + 1):
            s = _interlacing_sums(t, top, n)
            region = tuple(slice(0, min(m, size)) for m, size in zip(s.shape, table.shape[1:]))
            table[(top,) + region] = s[region]
        for i, m in enumerate(table.shape):  # rescale to x / x_{k+1}
            table += ((log_x[k - 1] - log_x[k]) * np.arange(m)).reshape((m,) + (1,) * (k - 1 - i))
    out = []
    for top in range(n, -(-n // r) - 1, -1):
        s = _interlacing_sums(table, top, n)
        out += [s[rest + (0,) * (r - 1 - len(rest))]
                for rest in _partitions_at_most(n - top, top, r - 1)]
    return np.array(out) + n * log_x[-1]


def log_multiplicity(diagram: YoungDiagram) -> float:
    """log multiplicity_dim from lgamma, over the nonzero rows (one row gives exactly 0)."""
    lam = diagram.rows[: diagram.num_rows]
    ell = len(lam)
    out = math.lgamma(sum(lam) + 1) - sum(math.lgamma(lam[i] + ell - i) for i in range(ell))
    return out + sum(math.log(lam[i] - lam[j] + j - i)
                     for i in range(ell) for j in range(i + 1, ell))


def schur_polynomial(diagram: YoungDiagram, spectrum: Spectrum) -> float:
    """s_lambda evaluated at the spectrum: exp of ``log_schur_polynomials``, which
    evaluates every diagram of the same size.  0 beyond the spectrum rank."""
    n, d, r = diagram.boxes, spectrum.d, spectrum.rank
    if diagram.num_rows > r:
        return 0.0
    position = enumerate_diagrams(n, d, r).index(diagram.padded(d))
    return math.exp(log_schur_polynomials(n, spectrum)[position])


def schur_polynomial_brute(diagram: YoungDiagram, spectrum: Spectrum) -> float:
    """Independent evaluation: sum the content monomial over all SSYT.

    Exponential in the diagram size; meant as a test oracle, kept in the
    package so the tableau order and the polynomial can be audited together.
    """
    d = spectrum.d
    total = 0.0
    for tab in semistandard_tableaux(diagram, d):
        term = 1.0
        for v, count in enumerate(tableau_content(tab, d)):
            term *= spectrum.probs[v] ** count
        total += term
    return total


# ---------------------------------------------------------------------------
# SU(2) Clebsch-Gordan coefficients (doubled-integer quantum numbers)
# ---------------------------------------------------------------------------

def _check_momentum(two_j: int, two_m: int, name: str) -> None:
    if two_j < 0:
        raise ParameterError(f"{name}: negative 2j={two_j}")
    if abs(two_m) > two_j or (two_j - two_m) % 2:
        raise ParameterError(f"{name}: invalid 2m={two_m} for 2j={two_j}")


def _cg_bounds(two_j1, two_m1, two_j2, two_m2, two_jt):
    """Triangle checks plus the summation range of the Racah single-sum form."""
    if (two_j1 + two_j2 + two_jt) % 2:
        raise ParameterError("couplings 2j1+2j2+2J must be even")
    if two_jt < abs(two_j1 - two_j2) or two_jt > two_j1 + two_j2:
        raise ParameterError(f"triangle violated: 2j1={two_j1}, 2j2={two_j2}, 2J={two_jt}")
    a = (two_j1 + two_j2 - two_jt) // 2
    k_lo = max(0, (two_j2 - two_jt - two_m1) // 2, (two_j1 - two_jt + two_m2) // 2)
    k_hi = min(a, (two_j1 - two_m1) // 2, (two_j2 + two_m2) // 2)
    return a, k_lo, k_hi


def clebsch_gordan(two_j1: int, two_m1: int, two_j2: int, two_m2: int,
                   two_jt: int, two_mt: int) -> float:
    """<j1 m1; j2 m2 | J M> in the Condon-Shortley convention.

    Racah's single-sum factorial formula, evaluated in log space with sign
    tracking; stable through 2j ~ 60.  Returns 0 when M != m1 + m2.
    """
    _check_momentum(two_j1, two_m1, "j1")
    _check_momentum(two_j2, two_m2, "j2")
    _check_momentum(two_jt, two_mt, "J")
    if two_mt != two_m1 + two_m2:
        return 0.0
    a, k_lo, k_hi = _cg_bounds(two_j1, two_m1, two_j2, two_m2, two_jt)
    if k_lo > k_hi:
        return 0.0

    def lf(two_x: int) -> float:
        return _log_factorial(two_x // 2)

    log_pref = (
        math.log(two_jt + 1)
        + lf(two_j1 + two_j2 - two_jt) + lf(two_j1 - two_j2 + two_jt)
        + lf(-two_j1 + two_j2 + two_jt) - lf(two_j1 + two_j2 + two_jt + 2)
        + lf(two_j1 + two_m1) + lf(two_j1 - two_m1)
        + lf(two_j2 + two_m2) + lf(two_j2 - two_m2)
        + lf(two_jt + two_mt) + lf(two_jt - two_mt)
    )
    logs = []
    for k in range(k_lo, k_hi + 1):
        log_den = (
            _log_factorial(k) + _log_factorial(a - k)
            + _log_factorial((two_j1 - two_m1) // 2 - k)
            + _log_factorial((two_j2 + two_m2) // 2 - k)
            + _log_factorial((two_jt - two_j2 + two_m1) // 2 + k)
            + _log_factorial((two_jt - two_j1 - two_m2) // 2 + k)
        )
        logs.append((k, -log_den))
    peak = max(v for _, v in logs)
    acc = 0.0
    for k, v in logs:
        acc += (-1.0) ** k * math.exp(v - peak)
    if acc == 0.0:
        return 0.0
    return math.copysign(math.exp(0.5 * log_pref + peak + math.log(abs(acc))), acc)


def clebsch_gordan_signed_square(two_j1: int, two_m1: int, two_j2: int, two_m2: int,
                                 two_jt: int, two_mt: int) -> Fraction:
    """sign(CG) * CG^2 as an exact rational: the test oracle for the float path."""
    _check_momentum(two_j1, two_m1, "j1")
    _check_momentum(two_j2, two_m2, "j2")
    _check_momentum(two_jt, two_mt, "J")
    if two_mt != two_m1 + two_m2:
        return Fraction(0)
    a, k_lo, k_hi = _cg_bounds(two_j1, two_m1, two_j2, two_m2, two_jt)
    if k_lo > k_hi:
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
    acc = Fraction(0)
    for k in range(k_lo, k_hi + 1):
        den = (
            math.factorial(k) * math.factorial(a - k)
            * math.factorial((two_j1 - two_m1) // 2 - k)
            * math.factorial((two_j2 + two_m2) // 2 - k)
            * math.factorial((two_jt - two_j2 + two_m1) // 2 + k)
            * math.factorial((two_jt - two_j1 - two_m2) // 2 + k)
        )
        acc += Fraction((-1) ** k, den)
    square = pref * acc * acc
    return square if acc >= 0 else -square


@lru_cache(maxsize=None)
def _log_factorial(n: int) -> float:
    return math.log(math.factorial(n)) if n > 1 else 0.0


# ---------------------------------------------------------------------------
# Wigner rotation matrices
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WignerRotation:
    """Euler angles (z-y-z) plus the doubled spin of the target irrep."""

    alpha: float
    beta: float
    gamma: float
    two_j: int

    def __post_init__(self):
        if self.two_j < 0:
            raise ParameterError(f"negative 2j={self.two_j}")


def wigner_small_d(two_j: int, beta: float) -> np.ndarray:
    """The real rotation-about-y matrix d^j(beta) = exp(-i beta J_y), ascending m.

    J_y is tridiagonal in the J_z basis with the exactly known spectrum -j..j,
    so d^j(beta) = V exp(-i beta diag(m)) V^dag from LAPACK's eigenvectors V of
    J_y.  This stays orthogonal to machine precision at any 2j, where a
    factorial closed form loses digits from 2j ~ 40 and overflows near 2j = 100.
    """
    ms = np.arange(-two_j, two_j + 1, 2) / 2.0
    # <m+1| J_+ |m> = sqrt((j - m)(j + m + 1)); J_y = (J_+ - J_-) / 2i
    ladder = np.sqrt((two_j / 2.0 - ms[:-1]) * (two_j / 2.0 + ms[:-1] + 1.0))
    j_y = np.diag(-0.5j * ladder, -1) + np.diag(0.5j * ladder, 1)
    _, vecs = np.linalg.eigh(j_y)  # eigenvalues ascending, so they are ms
    return ((vecs * np.exp(-1j * beta * ms)) @ vecs.conj().T).real


def wigner_d_matrix(rotation: WignerRotation) -> np.ndarray:
    """Full (2j+1)-dimensional unitary D(alpha, beta, gamma), ascending m.

    D = exp(-i alpha Jz) d(beta) exp(-i gamma Jz).
    """
    two_j = rotation.two_j
    small = wigner_small_d(two_j, rotation.beta)
    ms = np.arange(-two_j, two_j + 1, 2) / 2.0
    left = np.exp(-1j * rotation.alpha * ms)
    right = np.exp(-1j * rotation.gamma * ms)
    return left[:, None] * small * right[None, :]
