"""Check the Schur weights against the Cauchy identity at large sizes.

    python scripts/cauchy_identity.py [N d ...]    (default: 2000 3 300 4 100 5)

For each (N, d), at the spectrum p = (d, d - 1, .., 1) / (d (d + 1) / 2),
sum over lambda of dim(lambda) s_lambda(p) must equal [t^N] prod_i (1 - p_i t)^(-d)
to LOG_IDENTITY_TOL in log.  The identity is the one the tests check
(``cauchy_identity_residual`` in ``tests/reference.py``).  Exits 1 naming the
first size past the tolerance.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from reference import LOG_IDENTITY_TOL, cauchy_identity_residual  # noqa: E402

from schurcompress.schur_core import spectrum_of  # noqa: E402


def main(argv: list[str]) -> int:
    sizes = list(map(int, argv)) if argv else [2000, 3, 300, 4, 100, 5]
    for n, d in zip(sizes[::2], sizes[1::2]):
        spectrum = spectrum_of(*(k / (d * (d + 1) / 2) for k in range(d, 0, -1)))
        start = time.perf_counter()
        residual = cauchy_identity_residual(n, spectrum)
        print(f"N={n}, d={d}: residual {residual:.2e} in {time.perf_counter() - start:.2f} s")
        if not abs(residual) <= LOG_IDENTITY_TOL:
            print(f"N={n}, d={d}: the Cauchy identity misses by {residual!r}, "
                  f"past {LOG_IDENTITY_TOL}")
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
