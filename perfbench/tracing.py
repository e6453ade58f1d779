"""In-memory span tracer installed around the program's public functions.

The tracer wraps, from the benchmark's side, every public function of the
eight layer modules, the cached lookups of ``verify.Workspace`` and the report
serialisers of ``verify.RatioReport``.  ``verify``, ``spectral`` and
``seqnorms`` import library functions by name, so each wrapper is bound into
every ``mixsmooth`` module that holds the original object, not only into the
defining module.  ``uninstall`` puts every original back.

Each call records one span: name, start, end, parent span, item id, and the
rows pushed through it where the layer has rows.  Spans stay in memory until
the benchmark writes them out at the end of the run.
"""

from __future__ import annotations

import inspect
import itertools
import sys
import threading
import time

PACKAGE = "mixsmooth"
LAYERS = ("core", "lorentz", "spectral", "smoothness", "approx", "seqnorms", "verify", "cli")

# Workspace methods that cache a library result.  ``poly``, ``shape`` and
# ``bold`` are left out: they never call a library function themselves, so
# the hit/miss rule below cannot classify them.
WORKSPACE_LOOKUPS = (
    "norm", "deriv_norm", "block_norms", "tails", "y_at", "kernel_residual",
    "mod_grid", "modulus", "semi", "seq_norm", "thm1_rhs", "thm2_rhs", "thm3",
)
WORKSPACE_PREFIX = "verify.Workspace."
REPORT_METHODS = ("to_json", "to_csv")

# Spans that start a new item when no item is open on the thread.
ITEM_SPANS = frozenset({"verify.run_check", "bench.item"})


def _result_rows(result) -> tuple[int, int]:
    return int(getattr(result, "size", len(result))), 0


def _batch_rows(result) -> tuple[int, int]:
    # result holds one magnitude per grid point of each transformed row
    return int(result.shape[0]), int(result.size)


# (rows, grid cells) pushed through a layer, read off its result: one output
# norm or sample row per input row.
VOLUME = {
    "core.evaluate_coeff_batch": _batch_rows,
    "lorentz.batch_norms": _result_rows,
    "smoothness.difference_norms": _result_rows,
    "spectral.block_norms": _result_rows,
    "spectral.tail_square_norms": _result_rows,
    "spectral.angle_residual_norms": _result_rows,
}


def _public_functions(module):
    for name in getattr(module, "__all__", ()):
        obj = getattr(module, name, None)
        if inspect.isfunction(obj) and obj.__module__ == module.__name__:
            yield name, obj


class Tracer:
    """Records spans of one traced pass at a time; see the module docstring."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._pool_span = None
        self._installed: list[tuple] = []

    # -- recording -------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, fn, volume=None, keyed: bool = False):
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent, item = stack[-1]
            elif threading.current_thread() is threading.main_thread():
                parent, item = None, None
            else:
                # a parallel_map worker thread starts with an empty stack
                parent, item = tracer._pool_span, None
            sid = next(tracer._ids)
            if item is None and name in ITEM_SPANS:
                item = sid
            key = (name, id(args[0]), args[1:], tuple(sorted(kwargs.items()))) if keyed else None
            stack.append((sid, item))
            if name == "verify.parallel_map":
                tracer._pool_span = sid
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            rows, cells = volume(result) if volume else (0, 0)
            tracer.spans.append((sid, name, parent, start, end, item, rows, cells, key))
            return result

        traced.__wrapped__ = fn
        return traced

    def bench_item(self, call):
        """Run ``call()`` as one benchmark item span; returns its result."""
        return self.span("bench.item", call)()

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        if self._installed:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        for layer in LAYERS:
            module = sys.modules[f"{PACKAGE}.{layer}"]
            for fname, original in _public_functions(module):
                name = f"{layer}.{fname}"
                wrapper = self.span(name, original, volume=VOLUME.get(name))
                for holder in modules:
                    for attr, value in list(vars(holder).items()):
                        if value is original:
                            self._installed.append((holder, attr, original))
                            setattr(holder, attr, wrapper)
        verify = sys.modules[f"{PACKAGE}.verify"]
        for cls, methods, keyed in (
            (verify.Workspace, WORKSPACE_LOOKUPS, True),
            (verify.RatioReport, REPORT_METHODS, False),
        ):
            for attr in methods:
                original = vars(cls)[attr]
                name = f"verify.{cls.__name__}.{attr}"
                self._installed.append((cls, attr, original))
                setattr(cls, attr, self.span(name, original, keyed=keyed))

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._installed):
            setattr(holder, attr, original)
        self._installed.clear()

    def take(self) -> list[tuple]:
        """Return the spans recorded so far and start a fresh list."""
        spans, self.spans = self.spans, []
        self._pool_span = None
        return spans


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def summarize(spans: list[tuple]) -> dict:
    """Per-span-name calls, rows, cells, busy and self time, plus cache and pool figures.

    Self time is a span's duration minus the part of its interval that its
    child spans cover.  A Workspace lookup is a miss when it has a direct
    child span from a library layer (it built its value) and a hit otherwise;
    ``dup_builds`` counts misses whose (method, arguments) had missed before.
    """
    children: dict[int, list[tuple]] = {}
    for span in spans:
        if span[2] is not None:
            children.setdefault(span[2], []).append(span)
    stats: dict[str, dict] = {}
    hits = misses = dup_builds = 0
    missed_keys = set()
    pool_wall = pool_child = 0.0
    for sid, name, parent, start, end, item, rows, cells, key in spans:
        kids = children.get(sid, ())
        entry = stats.setdefault(
            name, {"calls": 0, "rows": 0, "cells": 0, "busy_s": 0.0, "self_s": 0.0}
        )
        entry["calls"] += 1
        entry["rows"] += rows
        entry["cells"] += cells
        entry["busy_s"] += end - start
        entry["self_s"] += (end - start) - _covered([(k[3], k[4]) for k in kids], start, end)
        if key is not None:
            if any(not k[1].startswith(WORKSPACE_PREFIX) for k in kids):
                misses += 1
                if key in missed_keys:
                    dup_builds += 1
                missed_keys.add(key)
            else:
                hits += 1
        if name == "verify.parallel_map":
            pool_wall += end - start
            pool_child += sum(k[4] - k[3] for k in kids if k[1] == "verify.run_check")
    lookups = hits + misses
    return {
        "spans": stats,
        "workspace": {
            "hits": hits,
            "misses": misses,
            "hit_ratio": hits / lookups if lookups else 0.0,
            "dup_builds": dup_builds,
        },
        "parallel_overlap": pool_child / pool_wall if pool_wall else 0.0,
    }
