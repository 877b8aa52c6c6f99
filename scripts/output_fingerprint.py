"""Print a JSON fingerprint of namlite's training outputs.

    python scripts/output_fingerprint.py > fingerprint.json

Fits small seeded models on synthetic data and records, for each, the
``model_hash``; it also records every gate value of ``select_features``
and every ``regularization_path`` record. Floats are written with
``repr``, so two checkouts whose outputs are bit-identical print
byte-identical JSON. Run it in both and ``cmp`` the files to check that
a refactor left training unchanged. It imports namlite from the ``src``
directory next to this script, not from an installed copy.
"""

from __future__ import annotations

import json
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


def _cfg(**kw) -> nl.TrainConfig:
    return nl.TrainConfig(**{**BASE, **kw})


def _fits() -> dict:
    table, reg, cls, surv = _data(0, 400, 5)
    wide, wide_reg, _, _ = _data(1, 300, 22)
    runs = {
        "mains_monotone_t1": (table, reg, _cfg(monotone={"x01": 1}, threads=1), None),
        "mains_monotone_t2": (table, reg, _cfg(monotone={"x01": 1}, threads=2), None),
        "cls_selected_pairs": (table, cls, _cfg(task="classification"),
                               [("x02", "x03"), ("x00", "x04")]),
        "cls_screened_2": (table, cls, _cfg(task="classification", num_pairs=2), None),
        "reg_screened_22_features": (wide, wide_reg, _cfg(num_pairs=1, max_epochs=2), None),
        "surv_screened_km": (table, surv, _cfg(task="survival", num_pairs=1,
                                               n_eval_times=5), None),
        "surv_screened_cox": (table, surv, _cfg(task="survival", num_pairs=1, n_eval_times=5,
                                                censor_estimator="cox"), None),
    }
    out = {}
    for name, (tab, y, cfg, pairs) in runs.items():
        ens = nl.fit(tab, y, cfg, selected_pairs=pairs)
        out[name] = {"model_hash": nl.model_hash(ens),
                     "selected_pairs": [list(p) for p in ens.selected_pairs]}
    return out


def _gates(res) -> dict:
    return {
        "selected_feats": res.selected_feats,
        "selected_pairs": [list(p) for p in res.selected_pairs],
        "gate_values": {k: repr(v) for k, v in res.gate_values.items()},
        "pair_gate_values": {f"{a}*{b}": repr(v) for (a, b), v in res.pair_gate_values.items()},
    }


def _selections() -> dict:
    table, reg, cls, surv = _data(0, 400, 5)
    wide, wide_reg, _, _ = _data(1, 300, 22)
    pairs = nl.SelectionConfig(reg_param=1e-3, pair_reg_param=1e-3, select_pairs=True)
    return {
        "cls_pairs": _gates(nl.select_features(table, cls, _cfg(task="classification"), pairs)),
        "surv_pairs": _gates(nl.select_features(
            table, surv, _cfg(task="survival", n_eval_times=5, censor_estimator="cox"), pairs)),
        "reg_pairs_22_features": _gates(nl.select_features(
            wide, wide_reg, _cfg(max_epochs=2), pairs)),
    }


def _records(path) -> list:
    return [[repr(r.reg_param), r.num_feats, repr(r.val_loss), repr(r.val_score),
             list(r.selected_feats)] for r in path.records]


def _paths() -> dict:
    table, reg, cls, _ = _data(0, 400, 5)
    pairs = nl.SelectionConfig(reg_param=1e-3, pair_reg_param=1e-3, select_pairs=True)
    return {
        "reg": _records(nl.regularization_path(table, reg, _cfg(), 1e-4, max_steps=8)),
        "cls_pairs": _records(nl.regularization_path(
            table, cls, _cfg(task="classification"), 1e-4, pairs, max_steps=8)),
    }


def main() -> int:
    doc = {"fits": _fits(), "select_features": _selections(),
           "regularization_path": _paths()}
    print(json.dumps(doc, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
