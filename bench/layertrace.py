"""Outside-in layer trace: wrappers around namlite's public functions.

The wrappers exist only while a traced round runs. Each target is replaced
at every place the program looks it up: every loaded ``namlite`` module
attribute bound to the original function (``namlite.train.forward_pass``
and ``namlite.select.forward_pass`` alike), plus ``Adam.step`` on its
class. Functions a module imports at call time (``explain`` importing
``persist.model_hash``) resolve to the wrapper through the module
attribute. Nothing under ``src/namlite`` changes.

Each call records a span (id, parent, name, thread, start, end). Spans stay
in memory; the worker writes them out when the run ends and reduces them
with :func:`reduce_spans`.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
from contextlib import contextmanager

import numpy as np

# (module, attribute, span name). Layers are named after namlite's modules.
TARGETS = (
    ("namlite.data", "transform", "data.transform"),
    ("namlite.data", "fit_bins", "data.fit_bins"),
    ("namlite.core", "forward_pass", "core.forward_pass"),
    ("namlite.core", "backward_pass", "core.backward_pass"),
    ("namlite.core", "bin_tables", "core.bin_tables"),
    ("namlite.core", "pair_bin_tables", "core.pair_bin_tables"),
    ("namlite.train", "Adam.step", "train.adam_step"),
    ("namlite.train", "finalize", "train.finalize"),
    ("namlite.train", "fit_single_split", "train.fit_single_split"),
    ("namlite.survival", "cox_fit", "survival.cox_fit"),
    ("namlite.survival", "ipcw_weights", "survival.ipcw_weights"),
    ("namlite.survival", "calibration_table", "survival.calibration_table"),
    ("namlite.explain", "feature_importance", "explain.feature_importance"),
    ("namlite.explain", "shape_function", "explain.shape_function"),
    ("namlite.explain", "pair_shape_function", "explain.pair_shape_function"),
    ("namlite.explain", "calibration", "explain.calibration"),
    ("namlite.explain", "render_svg", "explain.render_svg"),
    ("namlite.persist", "model_hash", "persist.model_hash"),
    ("namlite.persist", "dumps_model", "persist.dumps_model"),
    ("namlite.persist", "loads_model", "persist.loads_model"),
)

# Span names whose self time and call count are reported.
SELF_S = (
    "data.transform", "data.fit_bins", "core.forward_pass", "core.backward_pass",
    "core.bin_tables", "core.pair_bin_tables", "train.adam_step", "train.finalize",
    "survival.cox_fit", "survival.ipcw_weights", "survival.calibration_table",
    "explain.feature_importance", "explain.shape_function",
    "explain.pair_shape_function", "explain.calibration", "explain.render_svg",
    "persist.model_hash", "persist.dumps_model", "persist.loads_model",
)
CALLS = (
    "core.forward_pass", "core.bin_tables", "core.pair_bin_tables",
    "train.adam_step", "survival.cox_fit", "persist.model_hash",
)


class Tracer:
    """Span recorder plus the counters taken at the same boundaries."""

    def __init__(self):
        self.spans: list[tuple] = []  # (id, parent, name, thread, start, end)
        self.counts = {"data.transform.rows": 0, "core.table_cells": 0,
                       "core.cells_touched": 0}
        self.param_bytes = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patched: list[tuple] = []

    def _stack(self) -> list:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield sid
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((sid, parent, name, threading.get_ident(), start, end))

    def _count(self, key: str, n: int) -> None:
        with self._lock:
            self.counts[key] += n

    def _wrap(self, name: str, fn):
        hook = _HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if hook is not None:
                hook(self, result, *args, **kwargs)
            return result

        return wrapper

    def install(self) -> None:
        """Replace every target at each place a namlite module binds it."""
        mods = [m for n, m in list(sys.modules.items())
                if m is not None and (n == "namlite" or n.startswith("namlite."))]
        for modname, attr, name in TARGETS:
            owner = sys.modules[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[meth]
                setattr(cls, meth, self._wrap(name, orig))
                self._patched.append((cls, meth, orig))
                continue
            orig = getattr(owner, attr)
            wrapped = self._wrap(name, orig)
            for mod in mods:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, key, wrapped)
                        self._patched.append((mod, key, orig))

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._patched):
            setattr(owner, key, orig)
        self._patched.clear()


# --- counters taken after the wrapped call returns ------------------------------


def _transform_rows(tr: Tracer, result, *args, **kwargs) -> None:
    tr._count("data.transform.rows", int(result.codes.shape[0]))


def _forward_cells(tr: Tracer, result, core, codes, pair_codes=None,
                   eta_offset=None, compute_feats=True, compute_pairs=True) -> None:
    """Dense table rows evaluated versus distinct cells the codes index."""
    from namlite.core import flat_pair_codes, param_dict

    M = core.feats.padded
    cells = touched = 0
    if compute_feats:
        p = core.feats.n_features
        cells += p * M
        touched += np.unique(codes + np.arange(p)[None, :] * M).size
    if compute_pairs and core.pairs is not None and core.pairs.n_pairs > 0:
        q = core.pairs.n_pairs
        if pair_codes is None:
            pair_codes = flat_pair_codes(core, codes)
        cells += q * M * M
        touched += np.unique(pair_codes + np.arange(q)[None, :] * (M * M)).size
    tr._count("core.table_cells", cells)
    tr._count("core.cells_touched", touched)
    nbytes = sum(v.nbytes for v in param_dict(core).values())
    with tr._lock:
        tr.param_bytes = max(tr.param_bytes, nbytes)


_HOOKS = {"data.transform": _transform_rows, "core.forward_pass": _forward_cells}


# --- reduction --------------------------------------------------------------------


def self_times(spans) -> dict[int, float]:
    """Each span's duration minus the time its same-thread children cover."""
    covered: dict[int, float] = {}
    thread_of = {s[0]: s[3] for s in spans}
    for sid, parent, _, thread, start, end in spans:
        if parent is not None and thread_of.get(parent) == thread:
            covered[parent] = covered.get(parent, 0.0) + (end - start)
    return {s[0]: (s[5] - s[4]) - covered.get(s[0], 0.0) for s in spans}


def reduce_spans(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced round (counters included)."""
    own = self_times(tracer.spans)
    self_s = {name: 0.0 for name in SELF_S}
    calls = {name: 0 for name in CALLS}
    split_max = 0.0
    for sid, _, name, _, start, end in tracer.spans:
        if name in self_s:
            self_s[name] += own[sid]
        if name in calls:
            calls[name] += 1
        if name == "train.fit_single_split":
            split_max = max(split_max, end - start)
    out = {f"{n}.self_s": v for n, v in self_s.items()}
    out.update({f"{n}.calls": v for n, v in calls.items()})
    out.update(tracer.counts)
    cells = tracer.counts["core.table_cells"]
    out["core.cell_use_ratio"] = tracer.counts["core.cells_touched"] / cells if cells else 0.0
    out["core.param_mb"] = tracer.param_bytes / 1e6
    out["train.split_max_s"] = split_max
    return out
