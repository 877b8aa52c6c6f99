"""Acceptance gate: one test per numbered criterion, tolerances pinned.

The conftest report hook prints one PASS/FAIL line per criterion so a
plain pytest run shows the gate outcome at a glance.
"""

import time

import numpy as np
from scipy.stats import rankdata

from namlite import explain as ex
from namlite.core import (
    KernelConfig,
    flat_pair_codes,
    forward_pass,
    sigmoid,
    smooth_step,
    smoothing_operator,
)
from namlite.data import transform
from namlite.persist import dumps_model, load_model, model_hash, save_model
from namlite.select import SelectionConfig, regularization_path, select_features
from namlite.survival import as_survival_labels, censoring_curve, cox_fit, kaplan_meier
from namlite.train import TrainConfig, fit, loss_ipcw

from conftest import random_codes, tiny_core
from oracles import fd_worst, predict_linked


# --- shared oracles ----------------------------------------------------------


def _auc(y: np.ndarray, scores: np.ndarray) -> float:
    """Rank AUC: pairwise win fraction with ties counted half."""
    ranks = rankdata(scores)
    n_pos = int((y == 1).sum())
    n_neg = y.size - n_pos
    return float((ranks[y == 1].sum() - n_pos * (n_pos + 1) / 2) / (n_pos * n_neg))


def _km_brute(event: np.ndarray, times: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Risk-set product over distinct event times up to each query point."""
    out = np.ones(queries.size)
    for qi, q in enumerate(queries):
        s = 1.0
        for d in np.unique(times[event]):
            if d <= q:
                at_risk = int((times >= d).sum())
                deaths = int((event & (times == d)).sum())
                s *= 1.0 - deaths / at_risk
        out[qi] = s
    return out


def _additive_data(rng, n):
    """Smooth + step + linear signal with sigma=0.1 noise."""
    x1 = rng.uniform(0, 1, n)
    x2 = rng.uniform(0, 1, n)
    x3 = rng.uniform(0, 1, n)
    y = np.sin(2 * np.pi * x1) + (x2 > 0.5) + 0.5 * x3 + rng.normal(0, 0.1, n)
    return {"x1": x1, "x2": x2, "x3": x3}, y


def _midpoints(bm, lo=0.0, hi=1.0):
    """Observed-bin midpoints for a continuous feature on a known support."""
    e = np.asarray(bm.edges)
    return (np.concatenate([[lo], e]) + np.concatenate([e, [hi]])) / 2


# --- criteria ------------------------------------------------------------------


def test_criterion_01_gradient_oracle():
    t0 = time.monotonic()
    worst = 0.0
    for s in range(10):
        rng = np.random.default_rng(s)
        p = int(rng.integers(1, 6))
        n_bins = rng.integers(2, 9, size=p)
        d = int(rng.integers(2, 9))
        out = 3 if s % 5 == 0 else 1
        pairs = [(0, 1)] if p >= 2 and s % 3 == 0 else None
        mono = None
        if out == 1 and s % 4 == 0:
            mono = np.zeros(p, dtype=np.int64)
            mono[int(rng.integers(0, p))] = 1 if s % 2 == 0 else -1
        core = tiny_core(
            rng,
            n_bins=n_bins,
            out_dim=out,
            embedding_dim=d,
            hidden_sizes=(6,),
            pairs=pairs,
            mono_dir=mono,
        )
        if mono is not None:
            core.feats.mono_off[:] = rng.normal(size=p)
        codes = random_codes(rng, 8, core.feats.n_bins)
        target = rng.normal(size=(8, out))
        worst = max(worst, fd_worst(core, codes, target, reg=0.05, preg=0.02))
    assert worst < 1e-4
    assert time.monotonic() - t0 < 10.0


def test_criterion_02_smooth_step_exactness():
    for g in (0.01, 1.0, 100.0):
        vals = smooth_step(np.array([-g / 2, 0.0, g / 2]), g)
        assert vals[0] == 0.0
        assert vals[1] == 0.5
        assert vals[2] == 1.0


def test_criterion_03_kernel_behavior():
    t0 = time.monotonic()
    # phi=0 keeps every valid bin row an exact one-hot.
    for n, M in ((5, 8), (3, 8), (50, 51)):
        S = smoothing_operator(n, M, KernelConfig(phi=0.0, size=5))
        np.testing.assert_array_equal(S[: n + 1], np.eye(M)[: n + 1])
        np.testing.assert_array_equal(S[n + 1 :], 0.0)
        emb = np.random.default_rng(n).normal(size=(M, 4))
        np.testing.assert_array_equal((S @ emb)[: n + 1], emb[: n + 1])
    # Heavier smoothing on the same noisy data never adds wiggle.
    rng = np.random.default_rng(7)
    x = rng.uniform(0, 1, 1000)
    y = np.sin(2 * np.pi * x) + rng.normal(0, 2.0, 1000)
    tvs = []
    for phi in (1.0, 3.0, 10.0, 50.0):
        cfg = TrainConfig(
            task="regression", n_val_splits=5, batch_size=128, max_epochs=60,
            early_stop_patience=10, learning_rate=1e-2, embedding_dim=8,
            hidden_sizes=(16,), kernel_weight=phi, kernel_size=10,
            max_bins=64, seed=0,
        )
        mean = ex.shape_function(
            fit({"x": x}, y, cfg), "x", include_missing=False
        ).blocks[0].mean
        tvs.append(float(np.sum(np.abs(np.diff(mean)))))
    assert all(b <= a + 1e-9 for a, b in zip(tvs, tvs[1:])), tvs
    assert time.monotonic() - t0 < 60.0


def test_criterion_04_additive_recovery():
    t0 = time.monotonic()
    table, y = _additive_data(np.random.default_rng(0), 5000)
    test_table, test_y = _additive_data(np.random.default_rng(1), 2000)
    cfg = TrainConfig(
        task="regression", n_val_splits=3, batch_size=128, max_epochs=60,
        early_stop_patience=8, embedding_dim=8, hidden_sizes=(32,),
        max_bins=32, seed=0,
    )
    m = fit(table, y, cfg)
    pred = m.predict(test_table)
    r2 = 1 - np.sum((test_y - pred) ** 2) / np.sum((test_y - test_y.mean()) ** 2)
    assert r2 > 0.9
    truth = {
        "x1": lambda v: np.sin(2 * np.pi * v),
        "x2": lambda v: (v > 0.5).astype(float),
        "x3": lambda v: 0.5 * v,
    }
    for j, name in enumerate(["x1", "x2", "x3"]):
        mean = ex.shape_function(m, name, include_missing=False).blocks[0].mean
        d = mean - truth[name](_midpoints(m.bin_maps[j]))
        rmse = float(np.sqrt(np.mean((d - d.mean()) ** 2)))
        assert rmse < 0.15, (name, rmse)
    assert time.monotonic() - t0 < 120.0


INFORMATIVE = ["x1", "x2", "x3", "x4", "x5"]


def test_criterion_05_selection_recovery():
    t0 = time.monotonic()
    rng = np.random.default_rng(0)
    n = 5000
    table = {f"x{j}": rng.uniform(0, 1, n) for j in range(1, 6)}
    y = (
        np.sin(2 * np.pi * table["x1"])
        + (table["x2"] > 0.5)
        + 0.5 * table["x3"]
        + np.cos(2 * np.pi * table["x4"])
        + np.abs(2 * table["x5"] - 1)
        + rng.normal(0, 0.1, n)
    )
    for j in range(45):
        table[f"n{j:02d}"] = rng.uniform(0, 1, n)
    cfg = TrainConfig(
        task="regression", n_val_splits=3, batch_size=128, max_epochs=20,
        early_stop_patience=5, learning_rate=1e-2, embedding_dim=8,
        hidden_sizes=(32,), max_bins=32, seed=0,
    )
    path = regularization_path(table, y, cfg, 0.002, SelectionConfig())
    hit = None
    for rec in path.records:
        sel = set(rec.selected_feats)
        if set(INFORMATIVE) <= sel and len(sel - set(INFORMATIVE)) <= 2:
            hit = rec
            break
    assert hit is not None, [(r.reg_param, r.selected_feats) for r in path.records]
    res = select_features(table, y, cfg, SelectionConfig(reg_param=hit.reg_param))
    sel = set(res.selected_feats)
    assert set(INFORMATIVE) <= sel
    assert len(sel - set(INFORMATIVE)) <= 2
    for name, gate in res.gate_values.items():
        if name not in sel:
            assert gate == 0.0
    assert time.monotonic() - t0 < 300.0


def test_criterion_06_interaction_necessity():
    rng = np.random.default_rng(0)
    n = 5000
    x1 = rng.uniform(-1, 1, n)
    x2 = rng.uniform(-1, 1, n)
    x3 = rng.uniform(-1, 1, n)
    y = ((x1 > 0) ^ (x2 > 0)).astype(float)
    y = np.where(rng.random(n) < 0.05, 1 - y, y)
    train = {"x1": x1[:4000], "x2": x2[:4000], "x3": x3[:4000]}
    test = {"x1": x1[4000:], "x2": x2[4000:], "x3": x3[4000:]}
    base = dict(
        task="classification", n_val_splits=3, batch_size=128, max_epochs=40,
        early_stop_patience=6, embedding_dim=8, hidden_sizes=(16,),
        max_bins=16, seed=0,
    )
    mains = fit(train, y[:4000], TrainConfig(**base))
    assert _auc(y[4000:], mains.predict(test)) < 0.55
    paired = fit(train, y[:4000], TrainConfig(**base, num_pairs=1))
    assert paired.selected_pairs == [("x1", "x2")]
    assert _auc(y[4000:], paired.predict(test)) > 0.9


def test_criterion_07_centering_identity():
    rng = np.random.default_rng(14)
    n = 400
    xa = rng.uniform(0, 1, n)
    xb = rng.uniform(0, 1, n)
    table = {"a": xa, "b": xb}
    base = dict(
        n_val_splits=2, batch_size=64, max_epochs=8, embedding_dim=4,
        hidden_sizes=(8,), max_bins=8, seed=1,
    )
    models = [
        fit(table, xa * xb + rng.normal(0, 0.1, n),
            TrainConfig(task="regression", num_pairs=1, **base)),
        fit(table, (xa > xb).astype(float),
            TrainConfig(task="classification", **base)),
        fit(table,
            as_survival_labels((rng.random(n) < 0.7, rng.exponential(1.0, n) + 1e-3)),
            TrainConfig(task="survival", n_eval_times=4, **base)),
    ]
    for ens in models:
        codes = transform(table, ens.bin_maps).codes
        for sp in ens.splits:
            gates = np.concatenate([stack.gates(g) for stack, g in sp.core.stacks()])
            assert np.all((gates == 0.0) | (gates == 1.0))
            eta = forward_pass(sp.core, codes, flat_pair_codes(sp.core, codes)).eta
            raw = sigmoid(eta) if sp.core.link == "sigmoid" else eta
            assert np.max(np.abs(predict_linked(sp, codes) - raw)) < 1e-9


def test_criterion_08_survival_oracles():
    # (a) every censoring pattern up to n=8, distinct and tied times
    grids = [np.arange(1.0, n + 1) for n in range(1, 9)]
    grids.append(np.array([1.0, 1.0, 2.0, 3.0, 3.0, 3.0, 4.0, 5.0]))
    for times in grids:
        n = times.size
        queries = np.unique(np.concatenate([[0.0], times - 0.5, times, times + 0.5]))
        for mask in range(2**n):
            event = (mask >> np.arange(n)) & 1 == 1
            curve = kaplan_meier(as_survival_labels((event, times)))
            got = np.array([curve.survival_at(q) for q in queries])
            np.testing.assert_allclose(got, _km_brute(event, times, queries), atol=1e-14)
    # (b) one-binary-covariate proportional hazards, true beta = 1
    betas = []
    for seed in range(10):
        r = np.random.default_rng(seed)
        xb = (r.random(2000) < 0.5).astype(float)
        t_event = r.exponential(1.0, 2000) / np.exp(xb)
        t_cens = r.exponential(1.0 / 0.3, 2000)
        labels = as_survival_labels((t_event <= t_cens, np.minimum(t_event, t_cens)))
        betas.append(float(cox_fit(xb, labels).beta[0]))
    assert abs(float(np.mean(betas)) - 1.0) < 0.15
    # (c) no censoring: weighted loss collapses to the plain Brier mean
    r = np.random.default_rng(3)
    labels = as_survival_labels((np.ones(40, dtype=bool), r.uniform(0.1, 5.0, 40)))
    times = np.array([0.5, 1.0, 2.0, 4.0])
    cdf = r.uniform(0.01, 0.99, size=(40, 4))
    ind = (labels["time"][:, None] <= times[None, :]).astype(float)
    brier = float(np.mean((cdf - ind) ** 2))
    assert abs(loss_ipcw(cdf, labels, times, censoring_curve(labels)) - brier) < 1e-12


def _known_cdf_data(rng, n):
    """Exponential event times with an additive log rate, light censoring."""
    x1 = rng.uniform(0, 1, n)
    x2 = rng.uniform(0, 1, n)
    x3 = rng.uniform(0, 1, n)
    rate = np.exp(x1 - 0.5 + x2 - 0.5 + x3 - 0.5)
    t_event = rng.exponential(1.0 / rate)
    t_cens = rng.exponential(4.0, n)
    labels = as_survival_labels((t_event <= t_cens, np.minimum(t_event, t_cens)))
    return {"x1": x1, "x2": x2, "x3": x3}, labels


def test_criterion_09_survival_calibration():
    table, labels = _known_cdf_data(np.random.default_rng(11), 5000)
    test_table, test_labels = _known_cdf_data(np.random.default_rng(12), 5000)
    cfg = TrainConfig(
        task="survival", n_val_splits=3, batch_size=128, max_epochs=80,
        early_stop_patience=10, embedding_dim=16, hidden_sizes=(32,),
        max_bins=16, n_eval_times=9, seed=0,
    )
    m = fit(table, labels, cfg)
    median_t = float(m.eval_times[m.eval_times.size // 2])
    cal = ex.calibration(m, test_table, test_labels, eval_times=[median_t], n_bins=10)[0]
    assert cal.eval_time == median_t
    assert len(cal.bins) >= 3
    worst = max(abs(b.km_cdf - b.mean_pred) for b in cal.bins)
    assert worst < 0.05, worst


def test_criterion_10_monotone_constraints():
    rng = np.random.default_rng(3)
    n = 4000
    x1 = rng.uniform(0, 1, n)
    x2 = rng.uniform(0, 1, n)
    eta = 3.0 * (x1 - 0.5) - 3.0 * (x2 - 0.5)
    y = (rng.random(n) < sigmoid(eta)).astype(float)
    train = {"x1": x1[:3000], "x2": x2[:3000]}
    test = {"x1": x1[3000:], "x2": x2[3000:]}
    base = dict(
        task="classification", n_val_splits=3, batch_size=128, max_epochs=40,
        early_stop_patience=6, embedding_dim=8, hidden_sizes=(16,),
        max_bins=16, seed=0,
    )
    unconstrained = fit(train, y[:3000], TrainConfig(**base))
    constrained = fit(train, y[:3000], TrainConfig(**base, monotone={"x1": 1, "x2": -1}))
    for name, direction in (("x1", 1), ("x2", -1)):
        block = ex.shape_function(constrained, name, include_missing=False).blocks[0]
        for split_curve in block.values:
            assert np.all(np.diff(split_curve) * direction >= 0)
    auc_gap = _auc(y[3000:], unconstrained.predict(test)) - _auc(
        y[3000:], constrained.predict(test)
    )
    assert auc_gap < 0.02, auc_gap


def test_criterion_11_missing_bin_stratification():
    rng = np.random.default_rng(21)
    n = 3000
    hidden = rng.uniform(0, 1, n)
    x2 = rng.uniform(0, 1, n)
    y = (rng.random(n) < sigmoid(4.5 * (x2 - 0.5))).astype(float)
    # 30% missingness overall, concentrated on the positive class.
    x1 = hidden.copy()
    x1[rng.random(n) < np.where(y == 1, 0.55, 0.05)] = np.nan
    table = {"x1": x1, "x2": x2}
    for j in range(5):
        col = rng.uniform(0, 1, n)
        col[rng.random(n) < 0.3] = np.nan
        table[f"n{j}"] = col
    cfg = TrainConfig(
        task="classification", n_val_splits=3, batch_size=128, max_epochs=40,
        early_stop_patience=6, embedding_dim=8, hidden_sizes=(16,),
        max_bins=16, seed=0,
    )
    m = fit(table, y, cfg)
    strat = ex.feature_importance(m, table, mode="stratify")
    missing_scores = {e.name: e.missing_mean for e in strat.entries}
    noise_median = float(np.median([missing_scores[f"n{j}"] for j in range(5)]))
    assert missing_scores["x1"] > 5 * noise_median
    include = [e.name for e in ex.feature_importance(m, table, mode="include").entries]
    ignore = [e.name for e in ex.feature_importance(m, table, mode="ignore").entries]
    assert include != ignore
    assert include.index("x1") < include.index("x2")
    assert ignore.index("x2") < ignore.index("x1")


def test_criterion_12_reproducibility_and_persistence(tmp_path):
    rng = np.random.default_rng(5)
    n = 300
    table = {"a": rng.uniform(0, 1, n), "b": rng.uniform(0, 1, n)}
    y = table["a"] - table["b"] + rng.normal(0, 0.1, n)
    cfg = TrainConfig(
        task="regression", n_val_splits=2, batch_size=64, max_epochs=5,
        embedding_dim=4, hidden_sizes=(8,), max_bins=8, seed=9,
    )
    first = fit(table, y, cfg)
    second = fit(table, y, cfg)
    assert model_hash(first) == model_hash(second)
    assert dumps_model(first) == dumps_model(second)
    path = tmp_path / "model.json"
    save_model(first, path)
    assert load_model(path).predict(table).tobytes() == first.predict(table).tobytes()
