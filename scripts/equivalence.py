"""Digest the package's answers on a fixed grid, and compare two digests.

    python scripts/equivalence.py --out FILE [--size tiny|full]
    python scripts/equivalence.py --compare A B

A digest is one JSON file of items.  Each item records a sha256 of its bytes
(stdout and exit code for a command; bytes, dtype and shape for an array) and,
when there are at most 10^4 of them, its floats (the numbers a command prints,
or a float array's entries).  The items are:

- ``golden/<file>``: each command of ``CASES`` in ``tests/test_golden.py``;
- ``cli-mix/seed=<s>/<point>``: the cli-mix points of ``perfbench/workloads.py``
  for seeds 1-3 at the chosen size;
- ``state/<spectrum>/N=<n>/<array>``: ``product_state``'s weights, values,
  counts and offsets, and ``exact_protocol_error`` (exact error, tail mass,
  lower bound) at the epsilon = 0.1 plan, on the grid of ``STATES`` (the tiny
  size keeps N <= 12).

Only public package calls are made, so the script digests whichever package
comes first on the path: run it once per tree, for instance with
``PYTHONPATH=<other checkout>/src``, and compare.  ``--compare`` names every
item that differs, with its largest absolute and relative float difference,
and exits 1 if any item differs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import re
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "tests"), str(ROOT / "perfbench")]

import workloads  # noqa: E402  (perfbench/workloads.py)
from test_golden import CASES  # noqa: E402

from schurcompress import Spectrum, exact_protocol_error, product_state  # noqa: E402
from schurcompress.planner import qudit_approx_plan  # noqa: E402

FLOAT_LIMIT = 10 ** 4
NUMBER = re.compile(r"[-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?")
TINY_N = 12
STATES = (  # (spectrum, N values)
    ((0.5, 0.3, 0.2), range(1, 61)),
    ((0.6, 0.2, 0.2), range(1, 41)),
    ((0.6, 0.4, 0.0), range(1, 41)),
    ((0.999999998, 1e-9, 1e-9), (20, 60, 100)),  # rows whose weight underflows
    ((0.4, 0.3, 0.2, 0.1), range(1, 31)),
    ((0.3, 0.25, 0.2, 0.15, 0.1), range(1, 17)),
    ((0.25, 0.25, 0.25, 0.25), range(1, 21)),
)


def _item(data: bytes, floats) -> dict:
    floats = list(floats)
    return {"sha256": hashlib.sha256(data).hexdigest(),
            "floats": floats if len(floats) <= FLOAT_LIMIT else None}


def command_item(code: int, text: str) -> dict:
    return _item(f"{code}\n{text}".encode(), map(float, NUMBER.findall(text)))


def array_item(array: np.ndarray) -> dict:
    array = np.ascontiguousarray(array)
    data = f"{array.dtype.str} {array.shape}\n".encode() + array.tobytes()
    return _item(data, array.ravel().tolist() if array.dtype.kind == "f" else [])


def state_items(probs: tuple[float, ...], n: int) -> dict[str, dict]:
    spectrum = Spectrum(probs)
    state = product_state(spectrum, n)
    items = {name: array_item(getattr(state, name))
             for name in ("weights", "values", "counts", "offsets")}
    report = exact_protocol_error(n, spectrum, qudit_approx_plan(n, spectrum, 0.1).rows)
    items["error"] = array_item(np.array([report.exact_error, report.tail_mass,
                                          report.lower_bound]))
    label = ",".join(map(repr, probs))
    return {f"state/({label})/N={n}/{name}": item for name, item in items.items()}


def digest(size: str) -> dict[str, dict]:
    items = {f"golden/{name}": command_item(*workloads.run_cli(argv))
             for name, argv in sorted(CASES.items())}
    for seed in (1, 2, 3):
        for point in next(workloads.passes("cli-mix", seed, size)):
            out: dict = {}
            for name, step in point.steps:
                out[name] = step(out)
            items[f"cli-mix/seed={seed}/{point.name}"] = command_item(*out["cli"])
    for probs, ns in STATES:
        for n in ns:
            if size == "full" or n <= TINY_N:
                items.update(state_items(probs, n))
    return items


def float_gap(a: list | None, b: list | None) -> str:
    """The largest absolute and relative difference of two float lists."""
    if a is None or b is None:
        return "floats not recorded"
    if len(a) != len(b):
        return f"{len(a)} floats against {len(b)}"
    x, y = np.array(a, dtype=float), np.array(b, dtype=float)
    gap = np.abs(x - y)
    scale = np.maximum(np.abs(x), np.abs(y))
    rel = gap / np.where(scale > 0, scale, 1.0)
    return f"max abs {gap.max(initial=0.0):.3g}, max rel {rel.max(initial=0.0):.3g}"


def compare(path_a: str, path_b: str) -> int:
    a, b = (json.loads(Path(p).read_text())["items"] for p in (path_a, path_b))
    differ = 0
    for name in sorted(a.keys() | b.keys()):
        if name not in a or name not in b:
            print(f"{name}: only in {path_a if name in a else path_b}")
        elif a[name]["sha256"] != b[name]["sha256"]:
            print(f"{name}: {float_gap(a[name]['floats'], b[name]['floats'])}")
        else:
            continue
        differ += 1
    print(f"{differ} of {len(a.keys() | b.keys())} items differ")
    return 1 if differ else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    action = parser.add_mutually_exclusive_group(required=True)
    action.add_argument("--out", help="write the digest of this package to this file")
    action.add_argument("--compare", nargs=2, metavar=("A", "B"), help="compare two digests")
    parser.add_argument("--size", choices=("tiny", "full"), default="full")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    items = digest(args.size)
    Path(args.out).write_text(json.dumps({"size": args.size, "items": items}) + "\n")
    print(f"{len(items)} items written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
