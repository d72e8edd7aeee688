"""Check that the Kostka counts of every shape sum to its irrep dimension.

    python scripts/kostka_row_sums.py [N d]    (default N = 200, d = 3)

Builds the (content, Kostka number) pairs of every shape of N boxes and at
most d rows, as product states store them, and compares sum_c K_lambda,c with
``irrep_dims`` exactly in int64.  Exits 1 naming the first shape that
differs.  At the default size that is 26,532,801 pairs.
"""

import sys

import numpy as np

from schurcompress import blocksim, schur_core


def main(argv: list[str]) -> int:
    n, d = map(int, argv) if argv else (200, 3)
    rows = schur_core.diagram_rows(n, d)
    _, _, counts, sizes = blocksim._content_pairs(rows, rows)
    sums = np.add.reduceat(counts, np.cumsum(sizes) - sizes)
    dims = schur_core.irrep_dims(rows).astype(np.int64)
    bad = np.flatnonzero(sums != dims)
    if len(bad):
        i = bad[0]
        print(f"shape {rows[i].tolist()}: counts sum to {sums[i]}, dimension {dims[i]}")
        return 1
    print(f"N={n}, d={d}: the counts of all {len(rows)} shapes ({counts.size} pairs) "
          f"sum to their dimensions")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
