"""Print a JSON fingerprint of namlite's training outputs, or compare two.

    python scripts/output_fingerprint.py > fingerprint.json
    python scripts/output_fingerprint.py --probe > probe.json
    python scripts/output_fingerprint.py --compare before.json after.json

Fits small seeded models on synthetic data and records, for each, the
``model_hash``; it also records every gate value of ``select_features``
and every ``regularization_path`` record. Floats are written with
``repr``, so two checkouts whose outputs are bit-identical print
byte-identical JSON. Run it in both and ``cmp`` the files to check that
a refactor left training unchanged.

A change that reorders float sums moves results in the last bits and
every hash with them. ``--probe`` prints, for the same fits, their
predictions on a fixed probe table and their selected features and
pairs instead of the hash, and the same gates and path records as
numbers. ``--compare`` applies the pass rule to two such files: every
name, count and selection is identical, and every float is within
``TOLERANCE``. It exits 0 on a pass and 1 otherwise.

The script imports namlite from the ``src`` directory next to it, not
from an installed copy.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

import namlite as nl  # noqa: E402
from namlite.survival import as_survival_labels  # noqa: E402

BASE = dict(n_val_splits=3, batch_size=64, max_epochs=4, early_stop_patience=2,
            embedding_dim=4, hidden_sizes=(8,), max_bins=8, seed=7)

# Largest absolute difference the compare mode allows between two floats.
TOLERANCE = 1e-12


def _table(rng, n: int, p: int) -> dict:
    return {f"x{j:02d}": rng.uniform(-1, 1, n) for j in range(p)}


def _data(seed: int, n: int, p: int):
    rng = np.random.default_rng(seed)
    table = _table(rng, n, p)
    x = [table[f"x{j:02d}"] for j in range(p)]
    signal = np.sin(2 * x[0]) + x[1] + np.sign(x[2]) * np.sign(x[3])
    reg = signal + 0.1 * rng.normal(size=n)
    cls = (rng.random(n) < 1 / (1 + np.exp(-2 * signal))).astype(float)
    t_event = rng.exponential(np.exp(-0.5 * signal))
    t_censor = rng.exponential(1.5, n)
    surv = as_survival_labels((t_event <= t_censor, np.minimum(t_event, t_censor)))
    return table, reg, cls, surv


def _probe_table(p: int) -> dict:
    """Fixed rows to predict on: out-of-range values included, row 0 all missing."""
    table = {k: 1.2 * v for k, v in _table(np.random.default_rng(2024), 32, p).items()}
    for col in table.values():
        col[0] = np.nan
    return table


COLORS = ["red", "green", "blue", "teal", "NA", " ", None]
SHAPES = ["round", "square", "oval"]


def _cat_table(rng, n: int, colors: list, flags: list, shapes: list) -> dict:
    """Two continuous columns plus a categorical list with missing cells and
    tokens, a binary column of numeric strings and a string-array column."""
    table = _table(rng, n, 2)
    table["color"] = [colors[i] for i in rng.integers(len(colors), size=n)]
    table["flag"] = [flags[i] for i in rng.integers(len(flags), size=n)]
    table["shape"] = np.array(shapes)[rng.integers(len(shapes), size=n)]
    return table


def _cat_data(seed: int, n: int):
    rng = np.random.default_rng(seed)
    table = _cat_table(rng, n, COLORS, ["1", "2.0"], SHAPES)
    effect = {"red": 1.0, "green": -0.5, "blue": 0.25, "teal": -1.0}
    signal = (np.sin(2 * table["x00"]) + [effect.get(c, 0.0) for c in table["color"]]
              + 0.5 * (np.array(table["flag"]) == "1") + 0.3 * (table["shape"] == "oval"))
    return table, signal + 0.1 * rng.normal(size=n)


def _cat_probe_table() -> dict:
    """Fixed rows with unseen categories beside the seen ones, row 0 all missing."""
    table = _cat_table(np.random.default_rng(2025), 32, COLORS + ["purple", "Red"],
                       ["1", "2.0", "3", "1.0"], SHAPES + ["hexagon"])
    table["x00"][0] = table["x01"][0] = np.nan
    table["color"][0], table["flag"][0] = None, "NA"
    table["shape"][0] = ""
    return table


def _cfg(**kw) -> nl.TrainConfig:
    return nl.TrainConfig(**{**BASE, **kw})


def _fits(probe: bool) -> dict:
    table, reg, cls, surv = _data(0, 400, 5)
    wide, wide_reg, _, _ = _data(1, 300, 22)
    cats, cats_reg = _cat_data(3, 400)
    runs = {
        "mains_monotone_t1": (table, reg, _cfg(monotone={"x01": 1}), None),
        "cls_selected_pairs": (table, cls, _cfg(task="classification"),
                               [("x02", "x03"), ("x00", "x04")]),
        "cls_screened_2": (table, cls, _cfg(task="classification", num_pairs=2), None),
        "reg_screened_22_features": (wide, wide_reg, _cfg(num_pairs=1, max_epochs=2), None),
        "surv_screened_km": (table, surv, _cfg(task="survival", num_pairs=1,
                                               n_eval_times=5), None),
        "surv_screened_cox": (table, surv, _cfg(task="survival", num_pairs=1, n_eval_times=5,
                                                censor_estimator="cox"), None),
        "reg_categorical": (cats, cats_reg, _cfg(), [("color", "shape")]),
    }
    out = {}
    for name, (tab, y, cfg, pairs) in runs.items():
        ens = nl.fit(tab, y, cfg, selected_pairs=pairs)
        pairs_out = [list(p) for p in ens.selected_pairs]
        if probe:
            rows = _cat_probe_table() if tab is cats else _probe_table(len(tab))
            preds = ens.predict(rows)
            out[name] = {"predictions": preds.tolist(), "selected_feats": ens.feature_names,
                         "selected_pairs": pairs_out}
        else:
            out[name] = {"model_hash": nl.model_hash(ens), "selected_pairs": pairs_out}
    return out


def _gates(res, num) -> dict:
    return {
        "selected_feats": res.selected_feats,
        "selected_pairs": [list(p) for p in res.selected_pairs],
        "gate_values": {k: num(v) for k, v in res.gate_values.items()},
        "pair_gate_values": {f"{a}*{b}": num(v) for (a, b), v in res.pair_gate_values.items()},
    }


def _selections(num) -> dict:
    table, reg, cls, surv = _data(0, 400, 5)
    wide, wide_reg, _, _ = _data(1, 300, 22)
    pairs = nl.SelectionConfig(reg_param=1e-3, pair_reg_param=1e-3, select_pairs=True)
    return {
        "cls_pairs": _gates(nl.select_features(table, cls, _cfg(task="classification"), pairs),
                            num),
        "surv_pairs": _gates(nl.select_features(
            table, surv, _cfg(task="survival", n_eval_times=5, censor_estimator="cox"), pairs),
            num),
        "reg_pairs_22_features": _gates(nl.select_features(
            wide, wide_reg, _cfg(max_epochs=2), pairs), num),
    }


def _records(path, num) -> list:
    return [[num(r.reg_param), r.num_feats, num(r.val_loss), num(r.val_score),
             list(r.selected_feats)] for r in path.records]


def _paths(num) -> dict:
    table, reg, cls, _ = _data(0, 400, 5)
    pairs = nl.SelectionConfig(reg_param=1e-3, pair_reg_param=1e-3, select_pairs=True)
    return {
        "reg": _records(nl.regularization_path(table, reg, _cfg(), 1e-4, max_steps=8), num),
        "cls_pairs": _records(nl.regularization_path(
            table, cls, _cfg(task="classification"), 1e-4, pairs, max_steps=8), num),
    }


def fingerprint(probe: bool = False) -> dict:
    """The whole document: hashes (exact mode) or probe predictions, gates, paths."""
    num = float if probe else repr
    return {"fits": _fits(probe), "select_features": _selections(num),
            "regularization_path": _paths(num)}


def compare(a, b, tol: float = TOLERANCE) -> tuple[list[str], float]:
    """Where two probe documents break the pass rule, and the largest float gap.

    Floats may differ by at most `tol` (equal infinities and two NaNs
    match). Everything else must be identical: keys, list lengths,
    strings such as feature names, and integers such as feature counts.
    """
    problems: list[str] = []
    worst = 0.0

    def walk(x, y, where: str) -> None:
        nonlocal worst
        if isinstance(x, dict) and isinstance(y, dict):
            if x.keys() != y.keys():
                problems.append(f"{where}: keys {sorted(x)} != {sorted(y)}")
                return
            for k in sorted(x):
                walk(x[k], y[k], f"{where}.{k}")
        elif isinstance(x, list) and isinstance(y, list):
            if len(x) != len(y):
                problems.append(f"{where}: length {len(x)} != {len(y)}")
                return
            for i, (u, v) in enumerate(zip(x, y)):
                walk(u, v, f"{where}[{i}]")
        elif isinstance(x, float) and isinstance(y, float):
            if x == y or (math.isnan(x) and math.isnan(y)):
                return
            gap = abs(x - y)
            worst = math.inf if math.isnan(gap) else max(worst, gap)
            if not gap <= tol:
                problems.append(f"{where}: {x!r} vs {y!r} (gap {gap:.3g} > {tol:g})")
        elif type(x) is not type(y) or x != y:
            problems.append(f"{where}: {x!r} != {y!r}")

    walk(a, b, "")
    return problems, worst


def _compare_files(before: str, after: str) -> int:
    docs = [json.loads(Path(p).read_text()) for p in (before, after)]
    problems, worst = compare(*docs)
    for section in sorted(docs[0]):
        if section in docs[1]:
            _, gap = compare(docs[0][section], docs[1][section])
            print(f"{section}: largest float gap {gap:.3g}")
    for line in problems[:20]:
        print(f"  {line}")
    if problems:
        print(f"FAIL: {len(problems)} differences (largest float gap {worst:.3g}, "
              f"tolerance {TOLERANCE:g})")
        return 1
    print(f"PASS: selections identical, largest float gap {worst:.3g} <= {TOLERANCE:g}")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    mode = ap.add_mutually_exclusive_group()
    mode.add_argument("--probe", action="store_true",
                      help="print predictions, selections, gates and paths as numbers")
    mode.add_argument("--compare", nargs=2, metavar=("BEFORE", "AFTER"),
                      help="check two --probe files against the pass rule")
    args = ap.parse_args(argv)
    if args.compare:
        return _compare_files(*args.compare)
    print(json.dumps(fingerprint(args.probe), indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
