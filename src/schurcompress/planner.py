"""Truncation-set selection, qubit counts, and every closed-form bound.

Plans pick which Schur-Weyl blocks to keep and turn the kept dimension into
qubit counts.  Dimensions are exact big integers throughout; qubit counts are
integer ceilings obtained by bit-length comparison, never floating logs.
Log convention: qubit counts and bound formulas use log base 2; the single
entropy-style term eta(x) = -x ln x is natural log, as is conventional.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .blocksim import block_weights
from .errors import NotApplicableError, ParameterError
from .schur_core import (
    Spectrum,
    YoungDiagram,
    enumerate_diagrams,
    irrep_dim,
    log_multiplicity,
)


def ceil_log2(x: int) -> int:
    """Smallest k with 2^k >= x, computed exactly on integers."""
    if x < 1:
        raise ParameterError(f"ceil_log2 needs a positive integer, got {x}")
    return (x - 1).bit_length()


# ---------------------------------------------------------------------------
# Plans
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CompressionPlan:
    n: int
    d: int
    spectrum: tuple[float, ...] | None
    epsilon: float | None
    keep: tuple[YoungDiagram, ...]
    d_enc: int
    qubit_count: int
    hybrid_qubits: int
    hybrid_bits: int
    bound_qubits: float | None

    def keep_two_j(self) -> list[int]:
        """Spin labels of the kept blocks (two-row diagrams only)."""
        return sorted(lam.two_j for lam in self.keep)

    def as_dict(self) -> dict:
        return {
            "n": self.n,
            "d": self.d,
            "spectrum": list(self.spectrum) if self.spectrum is not None else None,
            "epsilon": self.epsilon,
            "keep": [list(lam.rows) for lam in self.keep],
            "d_enc": self.d_enc,
            "qubit_count": self.qubit_count,
            "hybrid_qubits": self.hybrid_qubits,
            "hybrid_bits": self.hybrid_bits,
            "bound_qubits": self.bound_qubits,
        }


def _finish_plan(n: int, d: int, spectrum, epsilon, keep: Sequence[YoungDiagram],
                 bound_qubits: float | None) -> CompressionPlan:
    keep = tuple(sorted(set(keep), reverse=True))
    if not keep:
        raise ParameterError("plan would keep no blocks")
    dims = [irrep_dim(lam, d) for lam in keep]
    d_enc = sum(dims)
    return CompressionPlan(
        n=n, d=d,
        spectrum=tuple(spectrum.probs) if isinstance(spectrum, Spectrum) else spectrum,
        epsilon=epsilon,
        keep=keep,
        d_enc=d_enc,
        qubit_count=ceil_log2(d_enc),
        hybrid_qubits=ceil_log2(max(dims)),
        hybrid_bits=ceil_log2(len(keep)),
        bound_qubits=bound_qubits,
    )


def zero_error_plan(n: int, d: int, r: int | None = None) -> CompressionPlan:
    """Keep every block with at most r rows: lossless for any rank-r spectrum.

    For qubits with even N the kept dimension is exactly (N/2+1)^2, so the
    qubit count equals ceil(2 log2(N+2) - 2).  The hybrid variant measures
    the block label first: ceil(log2(N+1)) qubits plus ceil(log2(N/2+1))
    classical bits.
    """
    if n < 1:
        raise ParameterError(f"need N >= 1, got {n}")
    plan = _finish_plan(n, d, None, None, enumerate_diagrams(n, d, r), None)
    if d == 2 and n % 2 == 0:
        assert plan.d_enc == (n // 2 + 1) ** 2
    return plan


def qubit_spin_grid(n: int) -> range:
    """Valid doubled spin labels for N qubits."""
    return range(n % 2, n + 1, 2)


def qubit_approx_plan(n: int, p: float, epsilon: float,
                      half_width: int | None = None) -> CompressionPlan:
    """Keep a strip of spin blocks around the typical label.

    The strip is centered on the largest grid point below 2*j0 = (2p-1)(N+1)
    and extends floor(sqrt(N ln(2/eps))) either side, clipped to the valid
    grid.  Flooring the center keeps the kept dimension under the closed-form
    bound (2j0+1)(2 sqrt(N ln(2/eps)) + 1) whenever the strip is not clipped.
    half_width overrides the default width, for the partially-known-spectrum
    regime where the strip must be broadened by hand.
    """
    if n < 1:
        raise ParameterError(f"need N >= 1, got {n}")
    if not 0.5 < p <= 1.0:
        raise NotApplicableError(
            f"strip construction needs p > 1/2 (got p={p}); at p = 1/2 the ensemble is trivial")
    if not 0.0 < epsilon < 1.0:
        raise ParameterError(f"need 0 < epsilon < 1, got {epsilon}")
    if half_width is None:
        half_width = math.floor(math.sqrt(n * math.log(2.0 / epsilon)))
    parity = n % 2
    two_j0 = (2.0 * p - 1.0) * (n + 1)
    two_jc = parity + 2 * math.floor((two_j0 - parity) / 2.0)
    two_jc = min(max(two_jc, parity), n)
    lo = max(parity, two_jc - 2 * half_width)
    hi = min(n, two_jc + 2 * half_width)
    keep = [YoungDiagram.from_two_j(n, two_j) for two_j in range(lo, hi + 1, 2)]
    bound = (1.5 * math.log2(n)
             + math.log2(4.0 * (2.0 * p - 1.0) * math.sqrt(math.log(2.0 / epsilon)))
             + 1.0)
    return _finish_plan(n, 2, (p, 1.0 - p), epsilon, keep, bound)


def total_variation_radius(n: int, d: int, epsilon: float) -> float:
    """Ball radius sqrt((d(d+1)/2 ln(N+1) + ln(1/eps)) / (2N)).

    Chosen so the concentration bound evaluated at this radius equals eps.
    """
    if n < 1:
        raise ParameterError(f"need N >= 1, got {n}")
    if not 0.0 < epsilon <= 1.0:
        raise ParameterError(f"need 0 < epsilon <= 1, got {epsilon}")
    return math.sqrt((d * (d + 1) / 2.0 * math.log(n + 1) + math.log(1.0 / epsilon))
                     / (2.0 * n))


def row_fraction_distance(lam: YoungDiagram, spectrum: Spectrum) -> float:
    """Total-variation distance between the normalized rows and the spectrum."""
    n = lam.boxes
    rows = lam.padded(spectrum.d).rows
    return 0.5 * sum(abs(r / n - p) for r, p in zip(rows, spectrum.probs))


def qudit_approx_plan(n: int, spectrum: Spectrum, epsilon: float) -> CompressionPlan:
    """Keep every block whose normalized row lengths sit within the
    total-variation ball of radius x_eps around the spectrum.

    The qubit-count bound is
      (2dr - r^2 - 1 - m)/2 * log2(N+d-1) + (r-1)/2 * log2[4d(d+1)ln(N+1) + 8 ln(1/eps)],
    with r the rank and m the degeneracy count.  Each repeated eigenvalue
    lowers the bound by exactly half a log2(N+d-1), the dividend the
    degeneracy buys in the leading term.
    """
    d = spectrum.d
    r = spectrum.rank
    m = spectrum.degeneracy_m
    x_eps = total_variation_radius(n, d, epsilon)
    keep = [lam for lam in enumerate_diagrams(n, d, r)
            if row_fraction_distance(lam, spectrum) <= x_eps]
    if not keep:
        raise ParameterError("total-variation ball contains no diagram; N too small for this spectrum")
    log_factor = 4.0 * d * (d + 1) * math.log(n + 1) + 8.0 * math.log(1.0 / epsilon)
    bound = ((2 * d * r - r * r - 1 - m) / 2.0 * math.log2(n + d - 1)
             + (r - 1) / 2.0 * math.log2(log_factor))
    return _finish_plan(n, d, spectrum, epsilon, keep, bound)


# ---------------------------------------------------------------------------
# Bounds
# ---------------------------------------------------------------------------

def qubit_error_upper_bound(n: int, p: float, epsilon: float) -> float:
    """Closed-form bound on the strip protocol's error:
    eps^(2N/(N+1)) + exp(-2 (2p-1)^2 N^2 / (N+1)) / (2p-1)."""
    if not 0.5 < p <= 1.0:
        raise NotApplicableError(f"bound needs p > 1/2, got {p}")
    main = epsilon ** (2.0 * n / (n + 1.0))
    hoeffding = math.exp(-2.0 * (2.0 * p - 1.0) ** 2 * n * n / (n + 1.0)) / (2.0 * p - 1.0)
    return main + hoeffding


def error_threshold_copies(p: float, epsilon: float, cap: int = 1 << 30) -> int:
    """Smallest N with qubit_error_upper_bound(N, p, eps) < eps.

    The bound is strictly decreasing in N, so a doubling search followed by
    bisection is exact.
    """
    if qubit_error_upper_bound(1, p, epsilon) < epsilon:
        return 1
    hi = 2
    while qubit_error_upper_bound(hi, p, epsilon) >= epsilon:
        hi *= 2
        if hi > cap:
            raise ParameterError("no threshold below the search cap")
    lo = hi // 2  # bound(lo) >= eps, bound(hi) < eps
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if qubit_error_upper_bound(mid, p, epsilon) < epsilon:
            hi = mid
        else:
            lo = mid
    return hi


def truncation_lower_bound(n: int, spectrum: Spectrum,
                           keep: Iterable[YoungDiagram]) -> float:
    """Half the discarded weight: the error floor for any protocol that is
    covariant and preserves the block label.

    The discarded weights are summed directly; 1 - (kept mass) would turn the
    roundoff of the kept weights into a spurious floor when little is dropped.
    """
    kept = set(keep)
    return 0.5 * sum(w for lam, w in block_weights(n, spectrum).items() if lam not in kept)


def keyl_werner_tail_bound(n: int, d: int, x: float) -> float:
    """Concentration of measured block labels around the spectrum:
    Prob[d(p_lambda, p) > x] <= (N+1)^(d(d+1)/2) * exp(-2 N x^2)."""
    if x <= 0:
        raise ParameterError(f"need x > 0, got {x}")
    return (n + 1) ** (d * (d + 1) / 2.0) * math.exp(-2.0 * n * x * x)


def spectrum_tail_mass(n: int, spectrum: Spectrum, x: float) -> float:
    """Empirical tail: total weight of blocks farther than x from the spectrum."""
    weights = block_weights(n, spectrum)
    return sum(w for lam, w in weights.items() if row_fraction_distance(lam, spectrum) > x)


def spectrum_estimate(n: int, two_j: int) -> float:
    """Point estimate of the max eigenvalue from a measured spin label:
    1/2 + j/(N+1)."""
    if two_j < 0 or two_j > n:
        raise ParameterError(f"invalid 2j={two_j} for N={n}")
    return 0.5 + two_j / (2.0 * (n + 1.0))


def pure_state_lower_bound(n: int, epsilon: float) -> float:
    """Qubits needed to compress pure-state ensembles with tolerance eps:
    (1 - 2 eps) log2(N+1) - 2 eta(eps), eta(x) = -x ln x.

    Mixed-base on purpose: the leading term is a qubit count (base 2), the
    entropy correction keeps its natural-log form.
    """
    if not 0.0 <= epsilon < 0.5:
        raise ParameterError(f"need 0 <= epsilon < 1/2, got {epsilon}")
    eta = 0.0 if epsilon == 0.0 else -epsilon * math.log(epsilon)
    return (1.0 - 2.0 * epsilon) * math.log2(n + 1) - 2.0 * eta


# ---------------------------------------------------------------------------
# Budgeted (greedy) truncation, for the covariant lower-bound trend
# ---------------------------------------------------------------------------

def greedy_budget_keep(n: int, spectrum: Spectrum, dim_budget: float) -> list[YoungDiagram]:
    """Largest-mass keep set under a dimension budget.

    Blocks are added in order of decreasing weight density q / d_lambda,
    which minimizes the discarded mass among block truncations at this
    budget.  At least one block is always kept.
    """
    items = list(block_weights(n, spectrum).items())
    dims = {lam: irrep_dim(lam, spectrum.d) for lam, _ in items}
    items.sort(key=lambda kv: (-kv[1] / dims[kv[0]], kv[0]))
    keep: list[YoungDiagram] = []
    used = 0
    for lam, _ in items:
        if used + dims[lam] <= dim_budget:
            keep.append(lam)
            used += dims[lam]
    if not keep:
        keep.append(items[0][0])
    return keep


# ---------------------------------------------------------------------------
# Maximally-mixed-state preparation model
# ---------------------------------------------------------------------------

class MixedPrepModel(NamedTuple):
    entangled_pairs: int       # n with m in (2^(n-1), 2^n]
    success_prob: float        # m / 2^n, in (1/2, 1]
    failure_bound: float       # (1 - m/2^n)^rounds
    ops_order: str


def mixed_prep_cost(m_lambda: int, rounds: int) -> MixedPrepModel:
    """Repeat-until-success model for preparing a rank-m maximally mixed state.

    Each round prepares n = ceil(log2 m) entangled pairs and post-selects,
    succeeding with probability m / 2^n > 1/2; the failure probability after
    l rounds is (1 - m/2^n)^l <= 2^-l.  Overall operation count is O(N^2).
    """
    if m_lambda < 1 or rounds < 1:
        raise ParameterError("need m_lambda >= 1 and rounds >= 1")
    pairs = (m_lambda - 1).bit_length()
    success = m_lambda / (1 << pairs)
    failure = (1.0 - success) ** rounds
    assert failure <= 2.0 ** -rounds + 1e-15
    return MixedPrepModel(pairs, success, failure, "N^2")


class MixedPrepSample(NamedTuple):
    failure_frequency: float
    round_success_frequency: float
    rounds_simulated: int


def simulate_mixed_prep(m_lambda: int, rounds: int, trials: int,
                        seed: int = 0) -> MixedPrepSample:
    """Monte-Carlo check of the repeat-until-success model."""
    model = mixed_prep_cost(m_lambda, rounds)
    rng = np.random.default_rng(seed)
    draws = rng.random((trials, rounds)) < model.success_prob
    failed = ~draws.any(axis=1)
    return MixedPrepSample(
        failure_frequency=float(failed.mean()),
        round_success_frequency=float(draws.mean()),
        rounds_simulated=trials * rounds,
    )


# ---------------------------------------------------------------------------
# Circuit-level resource model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ResourceEstimate:
    index_register_qubits: int
    representation_register_qubits: int
    multiplicity_register_qubits: int
    ancilla_qubits: int
    coherent_qubits: int
    encoding_ops_order: str
    decoding_ops_order: str

    def as_dict(self) -> dict:
        return {
            "index_register_qubits": self.index_register_qubits,
            "representation_register_qubits": self.representation_register_qubits,
            "multiplicity_register_qubits": self.multiplicity_register_qubits,
            "ancilla_qubits": self.ancilla_qubits,
            "coherent_qubits": self.coherent_qubits,
            "encoding_ops_order": self.encoding_ops_order,
            "decoding_ops_order": self.decoding_ops_order,
        }


def _max_qubit_multiplicity(n: int) -> int:
    """The largest m_j over the spins of N qubits, exactly.

    m_j rises to one peak and falls after it, so bisection on the float
    log-multiplicities finds the peak to within one spin; only that spin and
    its neighbours are evaluated as big integers, as
    m_j = C(N, k) (N - 2k + 1) / (N - k + 1) with k = N/2 - j.  One
    ``math.comb`` gives the first binomial and exact ratios the others:
    ``math.comb(65536, 32640)`` alone takes 0.1 s on CPython 3.11 and 0.6 s
    on 3.10, and exact m_j for every spin took about a minute at N = 16384.
    """
    spins = qubit_spin_grid(n)

    def log_m(i: int) -> float:
        return log_multiplicity(YoungDiagram.from_two_j(n, spins[i]))

    lo, hi = 0, len(spins) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if log_m(mid + 1) > log_m(mid):
            lo = mid + 1
        else:
            hi = mid
    k_lo = (n - spins[min(lo + 1, len(spins) - 1)]) // 2
    binom, best = math.comb(n, k_lo), 0
    for k in range(k_lo, (n - spins[max(lo - 1, 0)]) // 2 + 1):
        best = max(best, binom * (n - 2 * k + 1) // (n - k + 1))
        binom = binom * (n - k) // (k + 1)
    return best


def circuit_resource_estimate(n: int) -> ResourceEstimate:
    """Register widths and operation-count orders of the qubit circuits.

    The block-label register indexes N/2+1 spin values, the representation
    register holds up to N+1 amplitudes, and the multiplicity register must
    fit the largest multiplicity space.  The ancilla is the O(log N) workspace
    of the basis-change circuit, taken concretely as ceil(log2(N+1)); only
    label + representation + ancilla stay coherent.  Encoding is dominated by
    the basis change (poly(N)) plus the unary index embedding (N log^2 N);
    decoding adds mixed-state preparation over the kept strip, N^(5/2).
    """
    if n < 2:
        raise ParameterError(f"need N >= 2, got {n}")
    index = ceil_log2(n // 2 + 1)
    representation = ceil_log2(n + 1)
    ancilla = ceil_log2(n + 1)
    return ResourceEstimate(
        index_register_qubits=index,
        representation_register_qubits=representation,
        multiplicity_register_qubits=ceil_log2(_max_qubit_multiplicity(n)),
        ancilla_qubits=ancilla,
        coherent_qubits=index + representation + ancilla,
        encoding_ops_order="poly(N) + N*log(N)^2",
        decoding_ops_order="N^(5/2)",
    )
