"""Command-line front-end: train, predict, select, path, explain, calibrate.

Run configs are JSON objects with explicit keys; every key is either a
run-level key (data paths, column names, output directory) or a field of
TrainConfig / SelectionConfig. Exit codes: 0 ok, 2 config error, 3 data
error, 4 training failure.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

import numpy as np

from . import explain as ex
from .data import _first_bad_token, _parse_numeric, read_csv
from .errors import ConfigError, DataError, TrainingError
from .persist import dumps_model, load_model, model_hash
from .select import SelectionConfig, _rank_auc, regularization_path, select_features
from .survival import SURVIVAL_DTYPE, censoring_curve
from .train import TrainConfig, fit, loss_bce, loss_ipcw, loss_mse

__all__ = ["main"]

RUN_KEYS = (
    "train_csv",
    "test_csv",
    "target",
    "time_col",
    "event_col",
    "output_dir",
    "features",
    "pairs",
)


# --- config and data loading ---------------------------------------------


def _load_run(path) -> tuple[dict, TrainConfig, SelectionConfig]:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from None
    except UnicodeDecodeError as e:
        raise ConfigError(f"config {path} is not UTF-8 text ({e.reason})") from None
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError(f"config {path} is not valid JSON: {e}") from None
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    tnames = set(TrainConfig.__dataclass_fields__)
    snames = set(SelectionConfig.__dataclass_fields__)
    run, tr, sel = {}, {}, {}
    for k, v in raw.items():
        if k in RUN_KEYS:
            run[k] = v
        elif k in tnames:
            tr[k] = v
        elif k in snames:
            sel[k] = v
        else:
            raise ConfigError(f"unknown config key {k!r}")
    if "train_csv" not in run:
        raise ConfigError("config requires 'train_csv'")
    run.setdefault("output_dir", ".")
    for key in ("train_csv", "output_dir", "test_csv", "target", "time_col", "event_col"):
        if run.get(key) is None and key not in ("train_csv", "output_dir"):
            run.pop(key, None)  # an optional key given as null reads as not given
        elif not isinstance(run[key], str):
            raise ConfigError(f"{key!r} must be a string, got {run[key]!r}")
    feats, pairs = run.get("features"), run.get("pairs")
    if feats is not None and not _is_names(feats):
        raise ConfigError(f"'features' must be a list of column names, got {feats!r}")
    if pairs is not None and not (
        isinstance(pairs, list) and all(_is_names(p) and len(p) == 2 for p in pairs)
    ):
        raise ConfigError(f"'pairs' must be a list of [name, name] lists, got {pairs!r}")
    return run, TrainConfig.from_dict(tr), SelectionConfig(**sel)


def _is_names(v) -> bool:
    return isinstance(v, list) and all(isinstance(x, str) for x in v)


def _read_table(path) -> dict:
    try:
        return read_csv(path)
    except OSError as e:
        raise DataError(f"cannot read {path}: {e}") from None


def _numeric_column(table: dict, name: str, what: str) -> np.ndarray:
    if name not in table:
        raise DataError(f"{what} column {name!r} missing from data")
    vals = list(table[name])
    arr = _parse_numeric(vals)
    if arr is None:
        raise DataError(
            f"{what} column {name!r} has non-numeric value {_first_bad_token(vals)}"
        )
    if np.isnan(arr).any():
        raise DataError(f"{what} column {name!r} has missing values")
    return arr


def _targets(table: dict, run: dict, task: str) -> tuple[np.ndarray, list[str]]:
    if task == "survival":
        tcol = run.get("time_col", "time")
        ecol = run.get("event_col", "event")
        time = _numeric_column(table, tcol, "time")
        event = _numeric_column(table, ecol, "event")
        if not np.all(np.isin(event, (0.0, 1.0))):
            raise DataError(f"event column {ecol!r} must contain only 0/1")
        labels = np.empty(time.size, dtype=SURVIVAL_DTYPE)
        labels["time"] = time
        labels["event"] = event.astype(bool)
        return labels, [tcol, ecol]
    target = run.get("target")
    if not target:
        raise ConfigError(f"config requires 'target' for task {task!r}")
    return _numeric_column(table, target, "target"), [target]


def _feature_table(table: dict, drop: set[str]) -> dict:
    feats = {k: v for k, v in table.items() if k not in drop}
    if not feats:
        raise DataError("no feature columns left after removing label columns")
    return feats


def _training_inputs(run: dict, cfg: TrainConfig):
    table = _read_table(run["train_csv"])
    y, label_cols = _targets(table, run, cfg.task)
    return _feature_table(table, set(label_cols)), y, label_cols


def _out_dir(path: str) -> None:
    """Create the output directory `path` if it is missing; ConfigError if that fails."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as e:
        raise ConfigError(f"cannot create output directory {path}: {e}") from None


def _write(path: str, text: str) -> str:
    """Write `text` to `path`, creating its directory first; ConfigError if either fails.

    Every output directory is made here, so a refused run leaves none behind.
    """
    if os.path.dirname(path):
        _out_dir(os.path.dirname(path))
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as e:
        raise ConfigError(f"cannot write {path}: {e}") from None
    print(f"wrote {path}")
    return path


def _safe(name: str) -> str:
    return re.sub(r"[^\w.-]", "_", name)


# --- commands ----------------------------------------------------------------


def _test_metrics(model, feats: dict, y: np.ndarray) -> dict:
    preds = model.predict(feats)
    if model.task == "regression":
        mse = loss_mse(preds, y)
        var = float(np.var(y))
        return {
            "test_rmse": float(np.sqrt(mse)),
            "test_r2": 1.0 - mse / var if var > 0 else 0.0,
        }
    if model.task == "classification":
        if not np.all(np.isin(y, (0.0, 1.0))):
            raise DataError("classification test targets must be 0/1")
        return {"test_auc": _rank_auc(y, preds), "test_bce": loss_bce(preds, y)}
    censor = censoring_curve(y)
    return {"test_ipcw": loss_ipcw(preds, y, model.eval_times, censor)}


def cmd_train(args) -> int:
    run, cfg, _ = _load_run(args.config)
    feats, y, label_cols = _training_inputs(run, cfg)
    pairs = [tuple(p) for p in run.get("pairs") or []] or None
    model = fit(
        feats, y, cfg, selected_feats=run.get("features"), selected_pairs=pairs
    )
    metrics = {"val_loss": float(np.mean([sp.val_loss for sp in model.splits]))}
    if run.get("test_csv"):
        ttable = _read_table(run["test_csv"])
        ty, _ = _targets(ttable, run, cfg.task)
        metrics.update(_test_metrics(model, _feature_table(ttable, set(label_cols)), ty))
    # Written only now, so a run refused above leaves no file behind.
    out = run["output_dir"]
    model_path = os.path.join(out, "model.json")
    report = {
        "metrics": metrics,
        "metadata": {
            "model_hash": model_hash(model),
            "model_file": model_path,
            "config": model.config.to_dict(),
        },
    }
    _write(model_path, dumps_model(model) + "\n")
    _write(os.path.join(out, "metrics.json"), json.dumps(report, indent=2) + "\n")
    for k in sorted(metrics):
        print(f"{k}={metrics[k]!r}")
    return 0


def cmd_predict(args) -> int:
    model = load_model(args.model)
    table = _read_table(args.data)
    preds = model.predict(table)
    if model.task == "survival":
        header = [f"cdf@{repr(float(t))}" for t in model.eval_times]
        rows = preds
    else:
        header = ["prediction"]
        rows = preds[:, None]
    lines = [",".join(header)]
    lines += [",".join(repr(float(v)) for v in row) for row in rows]
    text = "\n".join(lines) + "\n"
    if args.out:
        _write(args.out, text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_select(args) -> int:
    run, cfg, sel = _load_run(args.config)
    feats, y, _ = _training_inputs(run, cfg)
    res = select_features(feats, y, cfg, sel=sel)
    payload = {
        "features": res.selected_feats,
        "pairs": [list(p) for p in res.selected_pairs],
        "gates": res.gate_values,
        "pair_gates": {f"{a} x {b}": v for (a, b), v in res.pair_gate_values.items()},
        "metadata": {
            "reg_param": sel.reg_param,
            "pair_reg_param": sel.pair_reg_param,
            "config": cfg.to_dict(),
        },
    }
    out = run["output_dir"]
    _write(os.path.join(out, "selected.json"), json.dumps(payload, indent=2) + "\n")
    print(f"selected {len(res.selected_feats)} features, {len(res.selected_pairs)} pairs")
    return 0


def cmd_path(args) -> int:
    run, cfg, sel = _load_run(args.config)
    feats, y, _ = _training_inputs(run, cfg)
    res = regularization_path(
        feats,
        y,
        cfg,
        args.init_reg_param,
        sel=sel,
        ladder_factor=args.ladder_factor,
        max_steps=args.max_steps,
    )
    out = run["output_dir"]
    lines = ["reg_param,num_feats,val_loss,val_score"]
    for r in res.records:
        lines.append(f"{r.reg_param!r},{r.num_feats},{r.val_loss!r},{r.val_score!r}")
    _write(os.path.join(out, "path.csv"), "\n".join(lines) + "\n")
    feats_json = {
        "feats": {str(k): v for k, v in sorted(res.feats.items())},
        "metadata": {"init_reg_param": args.init_reg_param, "config": cfg.to_dict()},
    }
    _write(os.path.join(out, "feats.json"), json.dumps(feats_json, indent=2) + "\n")
    return 0


def cmd_explain(args) -> int:
    if not (args.importance or args.shape or args.pair):
        raise ConfigError("nothing to do: pass --importance, --shape, or --pair")
    if args.importance and not args.data:
        raise ConfigError("--importance requires --data (the training CSV)")
    if args.importance and args.svg_dir and args.top_n < 1:
        raise ConfigError(f"top_n must be an integer >= 1, got {args.top_n!r}")
    model = load_model(args.model)
    if args.importance:
        table = _read_table(args.data)
        rep = ex.feature_importance(model, table, mode=args.mode, pooled=args.pooled)
        _write(os.path.join(args.out_dir, "importance.csv"), ex.importance_to_csv(rep))
        if args.svg_dir:
            svg = ex.render_svg(rep, "importance-bars", top_n=args.top_n)
            _write(os.path.join(args.svg_dir, "importance.svg"), svg)
    for feat in args.shape or []:
        exp = ex.shape_function(model, feat, eval_times=args.eval_times)
        name = _safe(feat)
        _write(os.path.join(args.out_dir, f"shape_{name}.csv"), ex.shape_to_csv(exp))
        if args.svg_dir:
            kind = "shape-line" if exp.kind == "continuous" else "shape-category-bars"
            for bi in range(len(exp.blocks)):
                suffix = "" if len(exp.blocks) == 1 else f"_t{bi}"
                svg = ex.render_svg(exp, kind, block=bi)
                _write(os.path.join(args.svg_dir, f"shape_{name}{suffix}.svg"), svg)
    for a, b in args.pair or []:
        t = args.eval_times[0] if args.eval_times else None
        pexp = ex.pair_shape_function(model, a, b, eval_time=t)
        name = f"pair_{_safe(a)}_{_safe(b)}"
        _write(os.path.join(args.out_dir, f"{name}.csv"), ex.pair_shape_to_csv(pexp))
        if args.svg_dir:
            svg = ex.render_svg(pexp, "pair-heatmap")
            _write(os.path.join(args.svg_dir, f"{name}.svg"), svg)
    return 0


def cmd_calibrate(args) -> int:
    model = load_model(args.model)
    if model.task != "survival":
        raise ConfigError("calibration requires a survival model")
    table = _read_table(args.data)
    run = {"time_col": args.time_col, "event_col": args.event_col}
    labels, _ = _targets(table, run, "survival")
    exports = ex.calibration(
        model, table, labels, eval_times=args.eval_times, n_bins=args.bins
    )
    _write(
        os.path.join(args.out_dir, "calibration.csv"), ex.calibration_to_csv(exports)
    )
    if args.svg_dir:
        for i, exp in enumerate(exports):
            svg = ex.render_svg(exp, "calibration")
            _write(os.path.join(args.svg_dir, f"calibration_t{i}.svg"), svg)
    return 0


# --- parser --------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="namlite",
        description="Kernel-smoothed bin-embedding additive models with gated feature selection.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    t = sub.add_parser("train", help="fit an ensemble from a JSON run config")
    t.add_argument("config")
    t.set_defaults(func=cmd_train)

    pr = sub.add_parser("predict", help="write predictions for a CSV")
    pr.add_argument("model")
    pr.add_argument("data")
    pr.add_argument("--out", default=None)
    pr.set_defaults(func=cmd_predict)

    se = sub.add_parser("select", help="run gated feature selection")
    se.add_argument("config")
    se.set_defaults(func=cmd_select)

    pa = sub.add_parser("path", help="sweep the sparsity ladder")
    pa.add_argument("config")
    pa.add_argument("--init-reg-param", type=float, required=True)
    pa.add_argument("--ladder-factor", type=float, default=2.0)
    pa.add_argument("--max-steps", type=int, default=20)
    pa.set_defaults(func=cmd_path)

    x = sub.add_parser("explain", help="export importances, shapes, and pair surfaces")
    x.add_argument("model")
    x.add_argument("--data", default=None)
    x.add_argument("--importance", action="store_true")
    x.add_argument("--mode", choices=ex.IMPORTANCE_MODES, default="include")
    x.add_argument("--pooled", action="store_true")
    x.add_argument("--top-n", type=int, default=10)
    x.add_argument("--shape", action="append", metavar="FEATURE")
    x.add_argument("--pair", action="append", nargs=2, metavar=("A", "B"))
    x.add_argument("--eval-times", type=float, nargs="+", default=None)
    x.add_argument("--out-dir", default=".")
    x.add_argument("--svg-dir", default=None)
    x.set_defaults(func=cmd_explain)

    c = sub.add_parser("calibrate", help="predicted-vs-KM calibration tables")
    c.add_argument("model")
    c.add_argument("data")
    c.add_argument("--time-col", default="time")
    c.add_argument("--event-col", default="event")
    c.add_argument("--eval-times", type=float, nargs="+", default=None)
    c.add_argument("--bins", type=int, default=10)
    c.add_argument("--out-dir", default=".")
    c.add_argument("--svg-dir", default=None)
    c.set_defaults(func=cmd_calibrate)
    return p


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except DataError as e:
        print(f"data error: {e}", file=sys.stderr)
        return 3
    except TrainingError as e:
        print(f"training error: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
