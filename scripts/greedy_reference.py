"""Check the greedy keep sets and their lower bounds against a per-diagram reference.

    python scripts/greedy_reference.py [N d ...]    (default: 100 4 400 3 16384 2)

For each (N, d), at the spectrum p = (d, d - 1, .., 1) / (d (d + 1) / 2) and the
budgets N^1.2, N^1.4 and N^2, the reference sorts the diagrams by
(-q / dim, diagram), with q from ``block_weights`` and dim from the scalar
``irrep_dim``, and adds a diagram whenever the exact int sum of the kept
dimensions stays within the budget.  ``greedy_budget_keep`` must return the same
diagrams in the same order, and ``truncation_lower_bound`` must be half the
discarded weight, summed in row order as the package sums it.  Exits 1 naming
the first size and budget that differ.
"""

import sys
import time

import numpy as np

from schurcompress.blocksim import block_weights
from schurcompress.planner import greedy_budget_keep, truncation_lower_bound
from schurcompress.schur_core import irrep_dim, spectrum_of


def reference_keep(weights: dict, dims: dict, budget: float) -> list:
    """First fit over the diagrams by decreasing density, then ascending diagram."""
    order = sorted(weights, key=lambda lam: (-weights[lam] / dims[lam], lam))
    keep, used = [], 0
    for lam in order:
        if used + dims[lam] <= budget:
            keep.append(lam)
            used += dims[lam]
    return keep or order[:1]


def check(n: int, d: int) -> str | None:
    """The first mismatch at (N, d), or None."""
    spectrum = spectrum_of(*(k / (d * (d + 1) / 2) for k in range(d, 0, -1)))
    weights = dict(block_weights(n, spectrum).items())
    dims = {lam: irrep_dim(lam, d) for lam in weights}
    for exponent in (1.2, 1.4, 2.0):
        budget = float(n) ** exponent
        want = reference_keep(weights, dims, budget)
        got = greedy_budget_keep(n, spectrum, budget)
        if got != want:
            at = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b),
                      min(len(got), len(want)))
            return (f"budget N^{exponent}: greedy keep set differs from the reference at "
                    f"position {at} of {len(got)} and {len(want)}")
        kept = set(want)
        tail = 0.5 * float(np.array([w for lam, w in weights.items() if lam not in kept]).sum())
        bound = truncation_lower_bound(n, spectrum, got)
        if bound != tail:
            return f"budget N^{exponent}: lower bound {bound!r}, the reference {tail!r}"
    return None


def main(argv: list[str]) -> int:
    sizes = list(map(int, argv)) if argv else [100, 4, 400, 3, 16384, 2]
    for n, d in zip(sizes[::2], sizes[1::2]):
        start = time.perf_counter()
        problem = check(n, d)
        if problem:
            print(f"N={n}, d={d}: {problem}")
            return 1
        print(f"N={n}, d={d}: greedy keep sets and lower bounds match "
              f"in {time.perf_counter() - start:.2f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
