"""One workload in one fresh process: set up, then timed rounds, then checks.

Started by ``run.py``; prints one JSON object on its last stdout line.
With ``--setup-only`` it stops once the inputs exist, so ``run.py`` can
time set-up several times. BLAS is pinned to one thread here, before numpy
is imported.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import namlite as nl  # noqa: E402

if not Path(nl.__file__).resolve().is_relative_to(ROOT / "src"):
    sys.exit(f"namlite imported from {nl.__file__}, not from {ROOT / 'src'}")
from layertrace import Tracer, reduce_spans  # noqa: E402
from workloads import CHECKS, WORKLOADS, test_loss  # noqa: E402

ROW_CALLS = 500  # single-row predicts per round
MIN_ROUNDS = 2  # with ROW_CALLS, leaves >= 10 samples beyond p99
MIN_TRACE_ROUNDS = 2  # one untraced, one traced
# Short operations repeat within a round so their medians rest on more samples.
PREDICT_REPEATS = 10
SAVE_LOAD_REPEATS = 5
PER_ROUND = 3 + PREDICT_REPEATS + ROW_CALLS + 2 * SAVE_LOAD_REPEATS


def explain_all(model, inputs, name: str) -> dict:
    """The full explain export; returns what the checks read."""
    exports = []
    importance = {}
    for mode in ("include", "ignore", "stratify"):
        rep = nl.feature_importance(model, inputs.train, mode=mode)
        exports.append(("csv", nl.importance_to_csv(rep)))
        exports.append(("svg", nl.render_svg(rep, "importance-bars")))
        importance[mode] = [(e.name, e.mean) for e in rep.entries]
    shapes = {}
    for feat in model.feature_names:
        sh = nl.shape_function(model, feat)
        exports.append(("csv", nl.shape_to_csv(sh)))
        kind = "shape-line" if sh.kind == "continuous" else "shape-category-bars"
        exports.append(("svg", nl.render_svg(sh, kind)))
        shapes[feat] = (sh.labels, sh.blocks[0].mean)
    pair_shapes = {}
    for a, b in model.selected_pairs:
        ps = nl.pair_shape_function(model, a, b)
        exports.append(("csv", nl.pair_shape_to_csv(ps)))
        exports.append(("svg", nl.render_svg(ps, "pair-heatmap")))
        pair_shapes[(ps.feature_a, ps.feature_b)] = ps.mean
    cal_sizes = []
    if name == "survival":
        cal = nl.calibration(model, inputs.test, inputs.y_test)
        exports.append(("csv", nl.calibration_to_csv(cal)))
        for c in cal:
            exports.append(("svg", nl.render_svg(c, "calibration")))
        cal_sizes = [[b.size for b in c.bins] for c in cal]
    return {"exports": exports, "importance": importance, "shapes": shapes,
            "pair_shapes": pair_shapes, "calibration_sizes": cal_sizes}


class Round:
    """Timed operations of one round, each under an ``op.*`` span when traced."""

    def __init__(self, tracer: Tracer | None):
        self.tracer = tracer
        self.times: dict[str, list[float]] = {}
        self.row_ms: list[float] = []
        self.done = 0

    def op(self, name: str):
        return nullcontext() if self.tracer is None else self.tracer.span(f"op.{name}")

    def timed(self, key: str, fn, *args, **kwargs):
        with self.op(key):
            t0 = time.perf_counter()
            out = fn(*args, **kwargs)
            self.times.setdefault(key, []).append(time.perf_counter() - t0)
        self.done += 1
        return out


def run_round(wl, inputs, model_path: Path, tracer: Tracer | None):
    """One round of the fixed sequence; returns (Round, outputs or None).

    An operation that raises ends the round; it and the operations after
    it count as failed, and the round's outputs are not checked.
    """
    rd = Round(tracer)
    if tracer is not None:
        tracer.install()
    try:
        cfg = nl.TrainConfig(**wl.config)
        model = rd.timed("fit_s", nl.fit, inputs.train, inputs.y_train, cfg,
                         selected_pairs=list(wl.pairs) or None)
        path = rd.timed("path_s", nl.regularization_path, inputs.train, inputs.y_train,
                        cfg, wl.path_init_reg, max_steps=wl.path_steps)
        for _ in range(PREDICT_REPEATS):
            pred = rd.timed("predict_s", model.predict, inputs.test)
        row_pred = []
        for row in inputs.rows:
            with rd.op("predict_row"):
                t0 = time.perf_counter()
                p = model.predict(row)
                rd.row_ms.append((time.perf_counter() - t0) * 1e3)
            row_pred.append(p[0])
            rd.done += 1
        for _ in range(SAVE_LOAD_REPEATS):
            rd.timed("save_s", nl.save_model, model, model_path)
            loaded = rd.timed("load_s", nl.load_model, model_path)
        ex = rd.timed("explain_s", explain_all, model, inputs, wl.name)
    except Exception:
        traceback.print_exc()
        return rd, None
    finally:
        if tracer is not None:
            tracer.uninstall()
    # Everything below is checking, outside the timed and traced region.
    out = dict(ex)
    out.update(
        pred=pred,
        row_pred=np.asarray(row_pred),
        loaded_pred=loaded.predict(inputs.test),
        hash=nl.model_hash(model),
        loaded_hash=nl.model_hash(loaded),
        path_last=path.records[-1].selected_feats,
        path_steps=len(path.records),
        feats_pruned=len(model.feature_names) - path.records[-1].num_feats,
        eval_times=model.eval_times,
        bin_edges={bm.feature: bm.edges for bm in model.bin_maps},
        epochs=sum(len(h) for sp in model.splits for h in sp.history.values()),
        model_bytes=model_path.stat().st_size,
    )
    return rd, out


def blas_tag() -> str:
    try:
        cfg = np.show_config(mode="dicts")
        blas = cfg["Build Dependencies"]["blas"]
        return f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except (TypeError, KeyError):  # older numpy has no dict mode
        return "unknown"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    wl = WORKLOADS[args.workload]
    inputs = wl.make(args.seed, n_calls=ROW_CALLS)
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    model_path = RESULTS / f"{wl.name}-{os.getpid()}.model.json"
    check = CHECKS[wl.name]
    plain, traced = [], []  # (Round, outputs, wall seconds[, per-layer metrics])
    failed = 0
    failures: dict[str, int] = {}
    spans = []
    min_rounds = MIN_TRACE_ROUNDS if args.trace else MIN_ROUNDS
    n_rounds = 0
    start = time.perf_counter()
    longest = 0.0
    try:
        # Whole rounds only: stop before a round that would overrun the budget.
        while n_rounds < min_rounds or time.perf_counter() - start + longest <= args.seconds:
            tracer = Tracer() if args.trace and n_rounds % 2 == 1 else None
            n_rounds += 1
            t0 = time.perf_counter()
            rd, out = run_round(wl, inputs, model_path, tracer)
            wall = time.perf_counter() - t0
            longest = max(longest, wall)
            failed += PER_ROUND - rd.done
            if out is None:
                continue
            for key, ok in check(inputs, out).items():
                if not ok:
                    failures[key] = failures.get(key, 0) + 1
            if tracer is None:
                plain.append((rd, out, wall))
                continue
            layer = reduce_spans(tracer)
            layer["select.path_steps"] = out["path_steps"]
            layer["select.feats_pruned"] = out["feats_pruned"]
            layer["train.epochs"] = out["epochs"]
            traced.append((rd, out, wall, layer))
            spans.append(tracer.spans)
    finally:
        model_path.unlink(missing_ok=True)
    if not plain or (args.trace and not traced):
        print("no round completed", file=sys.stderr)
        return 1

    times = {k: float(np.median([t for r in plain for t in r[0].times[k]]))
             for k in plain[0][0].times}
    row_ms = np.concatenate([r[0].row_ms for r in plain])
    n_test = len(next(iter(inputs.test.values())))
    first = plain[0][1]
    metrics = {
        "fit_s": times["fit_s"],
        "path_s": times["path_s"],
        "predict_rows_per_s": n_test / times["predict_s"],
        "predict_row_p50_ms": float(np.percentile(row_ms, 50)),
        "predict_row_p99_ms": float(np.percentile(row_ms, 99)),
        "save_s": times["save_s"],
        "load_s": times["load_s"],
        "explain_s": times["explain_s"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "model_mb": first["model_bytes"] / 1e6,
        "test_loss": test_loss(wl.name, inputs, first["pred"], first["eval_times"]),
    }
    result = {
        "ready": ready,
        "rounds": n_rounds,
        "predict_row_calls": int(row_ms.size),
        "attempted": n_rounds * PER_ROUND,
        "failed": failed,
        "check_failures": failures,
        "correct": not failures,
        "metrics": metrics,
        "round_times": [dict(r[0].times, row_p50_ms=float(np.percentile(r[0].row_ms, 50)),
                             row_p99_ms=float(np.percentile(r[0].row_ms, 99)))
                        for r in plain],
        "tags": {"nproc": os.cpu_count(), "numpy": np.__version__, "blas": blas_tag()},
    }
    if args.trace:
        layers = {k: float(np.median([r[3][k] for r in traced])) for k in traced[0][3]}
        plain_wall = float(np.median([r[2] for r in plain]))
        traced_wall = float(np.median([r[2] for r in traced]))
        layers["trace.overhead_ratio"] = traced_wall / plain_wall - 1.0
        result["per_layer"] = layers
        spans_path = RESULTS / f"{wl.name}-s{args.seed}-spans.jsonl"
        with open(spans_path, "w", encoding="utf-8") as fh:
            for r, round_spans in enumerate(spans):
                for sid, parent, name, thread, t0, t1 in round_spans:
                    fh.write(json.dumps({"round": r, "id": sid, "parent": parent,
                                         "name": name, "thread": thread,
                                         "start": t0, "end": t1}) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
