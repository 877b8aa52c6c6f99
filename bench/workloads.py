"""The three benchmark workloads: input generators, configs and output checks.

Every input comes from the workload seed alone. The program sees only the
generated tables and labels; the truth the generator keeps (noise-free
function, planted pair, uncensored event times) is used by the checks,
which are computed here, apart from namlite.

This module imports numpy but not namlite, so the checks can be run on
outputs that were corrupted by hand (see ``tests/test_checks.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# --- inputs -------------------------------------------------------------------


@dataclass
class Inputs:
    """One workload's generated data plus the truth kept back from the model."""

    train: dict  # column name -> values
    y_train: object  # targets, or {"event", "time"} for survival
    test: dict
    y_test: object
    truth: dict  # generator-side facts the checks compare against
    rows: list  # single-row tables for the latency loop
    row_idx: np.ndarray  # held-out row behind each entry of ``rows``


def _take(table: dict, idx) -> dict:
    """Row subset of a table; list columns stay lists, arrays stay arrays."""
    out = {}
    for name, col in table.items():
        if isinstance(col, list):
            out[name] = [col[i] for i in idx]
        else:
            out[name] = col[idx]
    return out


def _split(table: dict, n_train: int) -> tuple[dict, dict]:
    n = len(next(iter(table.values())))
    return _take(table, np.arange(n_train)), _take(table, np.arange(n_train, n))


def _single_rows(test: dict, n_rows: int, n_calls: int) -> tuple[list, np.ndarray]:
    idx = np.arange(n_calls) % n_rows
    return [_take(test, [int(i)]) for i in idx], idx


def _mask(rng, values: np.ndarray, rate: float) -> np.ndarray:
    out = values.astype(np.float64).copy()
    out[rng.uniform(size=out.size) < rate] = np.nan
    return out


def _mask_cat(rng, values: np.ndarray, rate: float) -> list:
    miss = rng.uniform(size=values.size) < rate
    return [None if m else str(v) for v, m in zip(values.tolist(), miss.tolist())]


# mains: four signal features among twelve, about 5% of every column missing.
MAINS_SIGNAL = ("wave", "step", "dose", "trend")
MAINS_NOISE = ("n0", "n1", "n2", "n3", "n4", "n5", "color", "grade")
MISSING_RATE = 0.05
MAINS_NOISE_SD = 0.5


def mains_truth(wave, step, dose, trend) -> dict[str, np.ndarray]:
    """Per-feature noise-free contributions of the mains generator."""
    return {
        "wave": np.sin(2.0 * np.pi * wave),
        "step": (step > 0.5).astype(np.float64),
        "dose": 1.5 * dose**2,
        "trend": 0.8 * trend,
    }


def make_mains(seed: int, n_calls: int, scale: float = 1.0) -> Inputs:
    rng = np.random.default_rng([seed, 1])
    n_train = int(20000 * scale)
    n = n_train + int(4000 * scale)
    raw = {
        "wave": rng.uniform(0.0, 1.0, n),
        "step": rng.uniform(0.0, 1.0, n),
        "dose": rng.uniform(0.0, 1.0, n),
        "trend": rng.uniform(-1.0, 1.0, n),
        "n0": rng.normal(0.0, 1.0, n),
        "n1": rng.uniform(0.0, 1.0, n),
        "n2": rng.lognormal(0.0, 1.0, n),
        "n3": rng.normal(5.0, 2.0, n),
        "n4": rng.uniform(-3.0, 3.0, n),
        "n5": rng.exponential(1.0, n),
    }
    parts = mains_truth(raw["wave"], raw["step"], raw["dose"], raw["trend"])
    f = sum(parts.values())
    y = f + rng.normal(0.0, MAINS_NOISE_SD, n)
    table = {name: _mask(rng, col, MISSING_RATE) for name, col in raw.items()}
    table["color"] = _mask_cat(rng, rng.choice(["red", "green", "blue", "gray", "teal"], n), MISSING_RATE)
    table["grade"] = _mask_cat(rng, rng.choice(["A", "B", "C", "D"], n), MISSING_RATE)
    train, test = _split(table, n_train)
    rows, idx = _single_rows(test, n - n_train, n_calls)
    truth = {
        "f_test": f[n_train:],
        "wave_train": raw["wave"][:n_train],
    }
    return Inputs(train, y[:n_train], test, y[n_train:], truth, rows, idx)


# pairs: eight features, one planted interaction with no main effect. The
# fit is given the planted pair and one pair without an interaction.
PAIRS_PLANTED = ("f5", "f6")
PAIRS_FITTED = (("f0", "f1"), PAIRS_PLANTED)


def checkerboard(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.sign(a - 0.5) * np.sign(b - 0.5)


def pairs_logit(X: np.ndarray) -> np.ndarray:
    """Two mains plus a checkerboard on (f5, f6), whose margins are flat."""
    return (
        -0.3
        + 1.2 * np.sin(2.0 * np.pi * X[:, 0])
        + 2.0 * (X[:, 1] - 0.5)
        + 2.0 * checkerboard(X[:, 5], X[:, 6])
    )


def make_pairs(seed: int, n_calls: int, scale: float = 1.0) -> Inputs:
    rng = np.random.default_rng([seed, 2])
    n_train = int(5000 * scale)
    n = n_train + int(2000 * scale)
    X = rng.uniform(0.0, 1.0, (n, 8))
    prob = 1.0 / (1.0 + np.exp(-pairs_logit(X)))
    y = (rng.uniform(size=n) < prob).astype(np.float64)
    table = {f"f{j}": X[:, j].copy() for j in range(8)}
    train, test = _split(table, n_train)
    rows, idx = _single_rows(test, n - n_train, n_calls)
    truth = {"prob_test": prob[n_train:]}
    return Inputs(train, y[:n_train], test, y[n_train:], truth, rows, idx)


# survival: Weibull event times, censoring that depends on a covariate.
def survival_eta(X: np.ndarray, site: np.ndarray) -> np.ndarray:
    return (
        1.0 * np.sin(2.0 * np.pi * X[:, 0])
        + 1.2 * X[:, 1]
        - 0.8 * (X[:, 2] > 0.5)
        + 0.5 * (site == "b")
    )


def make_survival(seed: int, n_calls: int, scale: float = 1.0) -> Inputs:
    rng = np.random.default_rng([seed, 3])
    n_train = int(8000 * scale)
    n = n_train + int(2000 * scale)
    X = rng.uniform(0.0, 1.0, (n, 9))
    site = rng.choice(["a", "b", "c", "d"], n)
    eta = survival_eta(X, site)
    t_event = (-np.log(rng.uniform(size=n)) / (0.5 * np.exp(eta))) ** (1.0 / 1.5)
    t_censor = rng.exponential(1.0 / (0.3 * np.exp(0.8 * X[:, 3])), n)
    time = np.minimum(t_event, t_censor)
    event = t_event <= t_censor
    table = {f"s{j}": X[:, j].copy() for j in range(9)}
    table["site"] = site.tolist()
    train, test = _split(table, n_train)
    rows, idx = _single_rows(test, n - n_train, n_calls)
    y_train = {"event": event[:n_train], "time": time[:n_train]}
    y_test = {"event": event[n_train:], "time": time[n_train:]}
    truth = {"t_event_test": t_event[n_train:]}
    return Inputs(train, y_train, test, y_test, truth, rows, idx)


# --- configs ------------------------------------------------------------------
#
# Work per run is fixed: every config sets max_epochs and an early-stop
# patience that can never trigger, and every path runs a fixed number of
# steps. The model seed stays 0; only the inputs follow the workload seed.


@dataclass(frozen=True)
class Workload:
    name: str
    make: object  # (seed, n_calls, scale=1.0) -> Inputs
    config: dict  # TrainConfig keyword arguments
    path_init_reg: float
    path_steps: int
    pairs: tuple = ()  # passed to fit as selected_pairs


WORKLOADS = {
    "mains": Workload(
        name="mains",
        make=make_mains,
        # Splits and bins stay at the TrainConfig defaults. threads=1: the
        # default (one thread per split, 5 on 2 cores) made fit_s spread
        # 0.29-0.33 across runs, above any allowed bound (see the README).
        config=dict(task="regression", max_epochs=2, early_stop_patience=2,
                    monotone={"dose": 1}, threads=1),
        path_init_reg=0.01,
        path_steps=3,
    ),
    "pairs": Workload(
        name="pairs",
        make=make_pairs,
        # The pairs are given, not screened: screening closed every gate on
        # some seeds and then kept index-order fillers (see the README).
        config=dict(task="classification", n_val_splits=3, max_epochs=2,
                    early_stop_patience=2, threads=1),
        path_init_reg=1e-3,
        path_steps=2,
        pairs=PAIRS_FITTED,
    ),
    "survival": Workload(
        name="survival",
        make=make_survival,
        config=dict(task="survival", n_val_splits=3, max_epochs=2,
                    early_stop_patience=2, censor_estimator="cox",
                    n_eval_times=24, threads=1),
        path_init_reg=1e-3,
        path_steps=2,
    ),
}


# --- losses computed apart from the program -------------------------------------


def mse(pred, target) -> float:
    return float(np.mean((np.asarray(pred) - np.asarray(target)) ** 2))


def log_loss(prob, y) -> float:
    """Mean Bernoulli log-loss; ``y`` may be labels or true probabilities."""
    p = np.clip(np.asarray(prob, dtype=np.float64), 1e-15, 1.0 - 1e-15)
    return float(-np.mean(y * np.log(p) + (1.0 - y) * np.log1p(-p)))


def rank_auc(y, score) -> float:
    """Mann-Whitney AUC with average ranks for ties."""
    y = np.asarray(y)
    score = np.asarray(score, dtype=np.float64)
    order = np.argsort(score, kind="mergesort")
    ranks = np.empty(score.size)
    sorted_s = score[order]
    i = 0
    while i < score.size:
        j = i
        while j + 1 < score.size and sorted_s[j + 1] == sorted_s[i]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    pos = y == 1
    n_pos, n_neg = int(pos.sum()), int((~pos).sum())
    return float((ranks[pos].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def concordance(t_event, risk) -> float:
    """Harrell's C on uncensored times: higher risk should fail earlier."""
    t = np.asarray(t_event, dtype=np.float64)
    r = np.asarray(risk, dtype=np.float64)
    earlier = t[:, None] < t[None, :]
    conc = (r[:, None] > r[None, :]) & earlier
    ties = (r[:, None] == r[None, :]) & earlier
    return float((conc.sum() + 0.5 * ties.sum()) / earlier.sum())


def brier_grid(cdf, t_event, grid) -> float:
    """Mean squared error of a predicted CDF against 1{T <= t} on the grid."""
    target = (np.asarray(t_event)[:, None] <= np.asarray(grid)[None, :]).astype(np.float64)
    return float(np.mean((np.asarray(cdf) - target) ** 2))


def test_loss(name: str, inputs: Inputs, pred, eval_times=None) -> float:
    """Held-out loss against the generator's truth (see the README)."""
    if name == "mains":
        return mse(pred, inputs.y_test)
    if name == "pairs":
        # Expected log-loss under the true probabilities: the same mean as
        # against drawn labels, without the label noise.
        return log_loss(pred, inputs.truth["prob_test"])
    return brier_grid(pred, inputs.truth["t_event_test"], eval_times)


# --- checks ---------------------------------------------------------------------
#
# ``outputs`` is a dict the worker fills from one round:
#   pred, row_pred, loaded_pred, hash, loaded_hash, path_last, importance
#   ({mode: [(name, mean)]}), shapes ({feature: (labels, mean)}), pair_shapes
#   ({(a, b): surface}), bin_edges ({feature: edges}), eval_times,
#   calibration_sizes ([sizes per grid time]), exports (list of (kind, text)).

MAINS_MSE_SHARE = 0.10  # held-out MSE against f, as a share of Var(f)
PERIODIC_CORR = 0.9
PAIRS_AUC_FLOOR = 0.85
PAIRS_SURFACE_CORR = 0.8
SURVIVAL_CDF_TOL = 0.08
SURVIVAL_C_FLOOR = 0.66
ROW_TOL = 1e-12


def _common(inputs: Inputs, out: dict) -> dict[str, bool]:
    pred = np.asarray(out["pred"])
    rows = np.asarray(out["row_pred"])
    ref = pred[inputs.row_idx]
    return {
        "save_load_hash": out["hash"] == out["loaded_hash"],
        "save_load_bit_identical": bool(
            np.array_equal(np.asarray(out["loaded_pred"]), pred)
        ),
        "single_row_equals_batch": rows.shape == ref.shape
        and bool(np.all(np.abs(rows - ref) <= ROW_TOL)),
        "exports_rendered": bool(out["exports"]) and all(
            "<svg" in text and text.rstrip().endswith("</svg>") if kind == "svg"
            else text.count("\n") >= 2
            for kind, text in out["exports"]
        ),
    }


def _bin_truth(edges, x: np.ndarray, f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean of f over the training values in each observed bin, and the counts."""
    keep = ~np.isnan(x)
    idx = np.searchsorted(np.asarray(edges, dtype=np.float64), x[keep], side="left")
    n_bins = len(edges) + 1
    sums = np.bincount(idx, weights=f[keep], minlength=n_bins)
    counts = np.bincount(idx, minlength=n_bins)
    return sums / np.maximum(counts, 1), counts


def check_mains(inputs: Inputs, out: dict) -> dict[str, bool]:
    res = _common(inputs, out)
    f = inputs.truth["f_test"]
    res["mse_vs_truth"] = mse(out["pred"], f) < MAINS_MSE_SHARE * float(np.var(f))
    res["path_keeps_signal"] = sorted(out["path_last"]) == sorted(MAINS_SIGNAL)
    ok = True
    for mode, entries in out["importance"].items():
        score = dict(entries)
        if any(s not in score for s in MAINS_SIGNAL):
            ok = False
            continue
        worst_signal = min(score[s] for s in MAINS_SIGNAL)
        best_noise = max(score.get(s, 0.0) for s in MAINS_NOISE)
        ok = ok and worst_signal > best_noise
    res["signal_outranks_noise"] = ok and len(out["importance"]) == 3
    # Observed bins only: label 0 is the missing bin.
    _, mono = out["shapes"]["dose"]
    res["monotone_nondecreasing"] = bool(np.all(np.diff(np.asarray(mono)[1:]) >= 0.0))
    _, wave = out["shapes"]["wave"]
    x = inputs.truth["wave_train"]
    truth, counts = _bin_truth(out["bin_edges"]["wave"], x, np.sin(2.0 * np.pi * x))
    w = counts / counts.sum()
    centered = truth - np.sum(w * truth)
    shape = np.asarray(wave)[1:]
    res["periodic_correlates"] = (
        shape.shape == centered.shape
        and float(np.corrcoef(shape, centered)[0, 1]) > PERIODIC_CORR
    )
    return res


def check_pairs(inputs: Inputs, out: dict) -> dict[str, bool]:
    res = _common(inputs, out)
    # The exported planted surface, read at each training row's cell, must
    # follow the checkerboard; index 0 of each axis is the missing bin.
    a, b = PAIRS_PLANTED
    xa, xb = (np.asarray(inputs.train[f], dtype=np.float64) for f in (a, b))
    ea, eb = (np.asarray(out["bin_edges"][f], dtype=np.float64) for f in (a, b))
    ia = np.searchsorted(ea, xa, side="left") + 1
    ib = np.searchsorted(eb, xb, side="left") + 1
    surface = out["pair_shapes"].get(PAIRS_PLANTED)
    res["planted_surface_follows_truth"] = (
        surface is not None
        and np.shape(surface) == (ea.size + 2, eb.size + 2)
        and float(np.corrcoef(np.asarray(surface)[ia, ib], checkerboard(xa, xb))[0, 1])
        > PAIRS_SURFACE_CORR
    )
    y = np.asarray(inputs.y_test)
    res["auc_floor"] = rank_auc(y, out["pred"]) > PAIRS_AUC_FLOOR
    base = np.full(y.size, float(np.mean(inputs.y_train)))
    res["beats_base_rate"] = log_loss(out["pred"], y) < log_loss(base, y)
    return res


def check_survival(inputs: Inputs, out: dict) -> dict[str, bool]:
    res = _common(inputs, out)
    pred = np.asarray(out["pred"])
    grid = np.asarray(out["eval_times"])
    t = inputs.truth["t_event_test"]
    emp = (t[:, None] <= grid[None, :]).mean(axis=0)
    res["mean_cdf_tracks_truth"] = pred.shape == (t.size, grid.size) and bool(
        np.all(np.abs(pred.mean(axis=0) - emp) <= SURVIVAL_CDF_TOL)
    )
    mid = grid.size // 2
    res["concordance_floor"] = concordance(t, pred[:, mid]) > SURVIVAL_C_FLOOR
    sizes = out["calibration_sizes"]
    res["calibration_sizes_sum"] = len(sizes) == grid.size and all(
        sum(s) == t.size for s in sizes
    )
    return res


CHECKS = {"mains": check_mains, "pairs": check_pairs, "survival": check_survival}

