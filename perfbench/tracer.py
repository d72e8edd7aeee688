"""Span tracing of the package's layers, from outside the package.

The layers are the five modules of ``schurcompress``.  While installed, a
``Tracer`` replaces every public function of a layer, in its defining module
and in every module that imported it by name, with a wrapper that records a
span: name, start, end and the index of the enclosing span.  Generator
functions get one span per ``next()``, so time spent by the consumer between
items is not charged to the generator.  Spans stay in memory; ``spans()``
returns them as arrays for writing out at the end of a run.

A span's self time is its duration minus the durations of its direct
children; calls nest strictly on one thread, so children never overlap.
Observers inspect arguments and results (matrix sizes, diagonal inputs); they
run inside a ``trace.observe`` span so their cost is charged to no layer.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter
from contextlib import contextmanager

import numpy as np

PACKAGE = "schurcompress"
LAYERS = ("schur_core", "blocksim", "planner", "oracle", "cli")
OBSERVE = "trace.observe"

# Function groups behind the named per-layer metrics.
GROUP_SELF = {
    "schur_core.tableaux_self_s": ("schur_core.semistandard_tableaux",),
    "schur_core.multiplicity_self_s": ("schur_core.multiplicity_dim",
                                       "schur_core.qubit_multiplicity"),
    "schur_core.schur_polynomial_self_s": ("schur_core.schur_polynomial",
                                           "schur_core.complete_homogeneous"),
    "schur_core.wigner_self_s": ("schur_core.wigner_d_matrix", "schur_core.wigner_small_d"),
    "blocksim.jacobi_self_s": ("blocksim.jacobi_eigenvalues",),
    "planner.greedy_self_s": ("planner.greedy_budget_keep",),
    "planner.tail_self_s": ("planner.spectrum_tail_mass", "planner.truncation_lower_bound"),
}
GROUP_INCLUSIVE = {
    "blocksim.product_state_s": "blocksim.product_state",
    "blocksim.encode_s": "blocksim.encode",
    "blocksim.trace_distance_s": "blocksim.trace_distance",
}
GROUP_CALLS = {
    "schur_core.multiplicity_calls": ("schur_core.multiplicity_dim",
                                      "schur_core.qubit_multiplicity"),
    "blocksim.jacobi_calls": ("blocksim.jacobi_eigenvalues",),
}


def _is_traceable(obj, module_name: str) -> bool:
    plain = inspect.isfunction(obj)
    cached = callable(obj) and hasattr(obj, "cache_clear") and hasattr(obj, "__wrapped__")
    return (plain or cached) and getattr(obj, "__module__", None) == module_name


def layer_functions() -> dict[str, object]:
    """``{"layer.name": function}`` for every public function of every layer."""
    out = {}
    for layer in LAYERS:
        mod = sys.modules[f"{PACKAGE}.{layer}"]
        for attr, obj in vars(mod).items():
            if not attr.startswith("_") and _is_traceable(obj, mod.__name__):
                out[f"{layer}.{attr}"] = obj
    return out


def clear_package_caches() -> None:
    """Empty every ``functools`` cache in the package, as a fresh process has them."""
    for name, mod in list(sys.modules.items()):
        if name == PACKAGE or name.startswith(PACKAGE + "."):
            for obj in vars(mod).values():
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()


def _observe_jacobi(tracer: "Tracer", args, kwargs, result) -> None:
    mat = np.asarray(args[0] if args else kwargs["matrix"])
    tracer.maxima["blocksim.jacobi_dim_max"] = max(
        tracer.maxima.get("blocksim.jacobi_dim_max", 0), int(mat.shape[0]))
    if not np.any(mat - np.diag(np.diag(mat))):
        tracer.counts["blocksim.jacobi_diag_inputs"] += 1


def _observe_product_state(tracer: "Tracer", args, kwargs, result) -> None:
    tracer.counts["blocksim.block_bytes"] += sum(
        blk.matrix.nbytes for blk in result.blocks.values())


def _observe_oracle(tracer: "Tracer", args, kwargs, result) -> None:
    if isinstance(result, np.ndarray) and result.ndim:
        tracer.maxima["oracle.dense_dim_max"] = max(
            tracer.maxima.get("oracle.dense_dim_max", 0), int(max(result.shape)))


OBSERVERS = {
    "blocksim.jacobi_eigenvalues": _observe_jacobi,
    "blocksim.product_state": _observe_product_state,
}


class Tracer:
    """In-memory span recorder; ``installed()`` patches the layers while active."""

    def __init__(self):
        self.enabled = True
        self.reset()

    def reset(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self._stack: list[int] = []
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.maxima: dict[str, int] = {}

    # -- span recording -------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    def _observe(self, observer, args, kwargs, result) -> None:
        idx = self._open(OBSERVE)
        try:
            observer(self, args, kwargs, result)
        finally:
            self._close(idx)

    def _traced_items(self, name: str, gen):
        while True:
            idx = self._open(name)
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                self._close(idx)
            self.counts[name + ".yielded"] += 1
            yield item

    def _wrap(self, name: str, fn):
        tracer = self
        observer = OBSERVERS.get(name)
        if observer is None and name.startswith("oracle."):
            observer = _observe_oracle

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                if not tracer.enabled:
                    return fn(*args, **kwargs)
                tracer.calls[name] += 1
                return tracer._traced_items(name, fn(*args, **kwargs))
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            tracer.calls[name] += 1
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if observer is not None:
                tracer._observe(observer, args, kwargs, result)
            return result
        return wrapper

    # -- patching -------------------------------------------------------

    @contextmanager
    def installed(self):
        """Patch the layers for the duration of the block."""
        wrappers = {id(fn): (fn, self._wrap(name, fn))
                    for name, fn in layer_functions().items()}
        modules = [mod for key, mod in list(sys.modules.items())
                   if key == PACKAGE or key.startswith(PACKAGE + ".")]
        patches = []
        try:
            for mod in modules:
                for attr, obj in list(vars(mod).items()):
                    hit = wrappers.get(id(obj))
                    if hit is not None and hit[0] is obj:
                        patches.append((mod, attr, obj))
                        setattr(mod, attr, hit[1])
            yield self
        finally:
            for mod, attr, obj in reversed(patches):
                setattr(mod, attr, obj)

    # -- analysis -------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics of the spans recorded since the last ``reset``."""
        spans = self.spans()
        names, name_idx, parents = spans["names"], spans["name"], spans["parent"]
        dur = spans["end"] - spans["start"]
        child = parents >= 0
        self_time = dur - np.bincount(parents[child], weights=dur[child], minlength=len(dur))
        self_by_name = dict(zip(names, np.bincount(name_idx, weights=self_time,
                                                   minlength=len(names))))
        incl_by_name = dict(zip(names, np.bincount(name_idx, weights=dur,
                                                   minlength=len(names))))

        out: dict[str, float] = {}
        for layer in LAYERS:
            prefix = layer + "."
            out[f"{layer}.self_s"] = float(sum(
                t for n, t in self_by_name.items() if n.startswith(prefix)))
            out[f"{layer}.calls"] = sum(c for n, c in self.calls.items() if n.startswith(prefix))
        for metric, group in GROUP_SELF.items():
            out[metric] = float(sum(self_by_name.get(n, 0.0) for n in group))
        for metric, name in GROUP_INCLUSIVE.items():
            out[metric] = float(incl_by_name.get(name, 0.0))
        for metric, group in GROUP_CALLS.items():
            out[metric] = sum(self.calls[n] for n in group)
        out["schur_core.tableaux_yielded"] = self.counts["schur_core.semistandard_tableaux.yielded"]
        jacobi = out["blocksim.jacobi_calls"]
        out["blocksim.jacobi_dim_max"] = self.maxima.get("blocksim.jacobi_dim_max", 0)
        out["blocksim.jacobi_diag_input_frac"] = (
            self.counts["blocksim.jacobi_diag_inputs"] / jacobi if jacobi else 0.0)
        out["blocksim.block_bytes"] = self.counts["blocksim.block_bytes"]
        out["oracle.dense_dim_max"] = self.maxima.get("oracle.dense_dim_max", 0)
        return out

    def spans(self) -> dict[str, np.ndarray]:
        """The recorded spans as arrays, for writing out."""
        names = sorted(set(self.names))
        index = {name: i for i, name in enumerate(names)}
        return {
            "name": np.array([index[n] for n in self.names], dtype=np.int64),
            "start": np.array(self.starts),
            "end": np.array(self.ends),
            "parent": np.array(self.parents, dtype=np.int64),
            "names": np.array(names, dtype=str),
        }
