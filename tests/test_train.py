"""Losses, single-split training, early stopping, and the ensemble wrapper."""

import numpy as np
import pytest

from namlite import train
from namlite.core import (
    KernelConfig,
    backward_pass,
    flat_pair_codes,
    forward_pass,
    init_core,
    param_dict,
)
from namlite.data import split_folds, transform
from namlite.errors import ConfigError, DataError
from namlite.persist import dumps_model, loads_model, model_hash
from namlite.survival import as_survival_labels, censoring_curve
from namlite.train import (
    Adam,
    EnsembleModel,
    TrainConfig,
    fit,
    fit_single_split,
    loss_bce,
    loss_ipcw,
    loss_mse,
    predict,
)

from conftest import random_codes, tiny_core
from oracles import predict_eta, predict_linked


def _fast_cfg(**kw):
    base = dict(
        n_val_splits=2,
        batch_size=32,
        max_epochs=12,
        early_stop_patience=3,
        learning_rate=1e-2,
        embedding_dim=4,
        hidden_sizes=(8,),
        max_bins=8,
        seed=3,
    )
    base.update(kw)
    return TrainConfig(**base)


# --- losses ----------------------------------------------------------------


class TestLosses:
    def test_mse_hand_value(self):
        assert loss_mse([1.0, 2.0], [0.0, 4.0]) == 2.5
        with pytest.raises(DataError):
            loss_mse([1.0], [1.0, 2.0])

    def test_bce_hand_value(self):
        got = loss_bce([0.8, 0.3], [1.0, 0.0])
        np.testing.assert_allclose(got, -(np.log(0.8) + np.log(0.7)) / 2, rtol=1e-12)

    def test_bce_clips_and_validates(self):
        assert np.isfinite(loss_bce([0.0], [1.0]))
        with pytest.raises(DataError):
            loss_bce([0.5], [0.3])

    def test_ipcw_hand_case(self):
        labels = as_survival_labels(([True, False, True], [2.0, 4.0, 6.0]))
        censor = censoring_curve(labels)
        cdf = np.array([[0.2, 0.3], [0.4, 0.5], [0.6, 0.7]])
        got = loss_ipcw(cdf, labels, [3.0, 5.0], censor)
        np.testing.assert_allclose(got, 2.63 / 6, rtol=1e-12)

    def test_ipcw_without_censoring_is_plain_brier(self):
        rng = np.random.default_rng(4)
        n, times = 50, np.array([0.5, 1.0, 1.5, 2.0])
        z = rng.exponential(size=n) + 0.05
        labels = as_survival_labels((np.ones(n, bool), z))
        cdf = rng.random((n, 4))
        ind = (z[:, None] <= times[None, :]).astype(float)
        brier = float(np.mean((cdf - ind) ** 2))
        got = loss_ipcw(cdf, labels, times, censoring_curve(labels))
        np.testing.assert_allclose(got, brier, atol=1e-12)

    def test_ipcw_accepts_single_time_vector(self):
        labels = as_survival_labels(([True, True], [1.0, 2.0]))
        censor = censoring_curve(labels)
        got = loss_ipcw(np.array([0.3, 0.4]), labels, [1.5], censor)
        want = loss_ipcw(np.array([[0.3], [0.4]]), labels, [1.5], censor)
        assert got == want

    def test_ipcw_shape_mismatch_raises(self):
        labels = as_survival_labels(([True, True], [1.0, 2.0]))
        with pytest.raises(DataError):
            loss_ipcw(np.zeros((2, 3)), labels, [1.0], censoring_curve(labels))


# --- config ------------------------------------------------------------------


class TestTrainConfig:
    def test_dict_round_trip(self):
        cfg = _fast_cfg(monotone={"x": 1}, num_pairs=2)
        again = TrainConfig.from_dict(cfg.to_dict())
        assert again == cfg

    def test_threads_never_serialized(self):
        assert "threads" not in _fast_cfg(threads=4).to_dict()

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            TrainConfig.from_dict({"learning_rte": 0.1})

    @pytest.mark.parametrize(
        "kw",
        [
            {"task": "ranking"},
            {"n_val_splits": 1},
            {"learning_rate": 0.0},
            {"max_epochs": -1},
            {"hidden_sizes": ()},
            {"censor_estimator": "weibull"},
            {"monotone": {"x": 2}},
            {"task": "survival", "monotone": {"x": 1}},
            {"learning_rate": float("nan")},
            {"learning_rate": float("inf")},
            {"kernel_weight": float("nan")},
            {"kernel_weight": float("inf")},
            {"pair_select_reg": float("nan")},
            {"pair_select_reg": -1.0},
            {"threads": 0},
            {"threads": -2},
            {"hidden_sizes": 32},
            {"hidden_sizes": [8, "16"]},
            {"max_epochs": "ten"},
            {"monotone": [1]},
            {"monotone": {"x": True}},
            {"threads": "2"},
            {"threads": True},
            {"seed": 1.5},
            {"seed": -1},
            {"batch_size": 2.5},
            {"kernel_size": 2.5},
            {"n_val_splits": 2.5},
            {"embedding_dim": 4.0},
            {"max_bins": 4.5},
        ],
    )
    def test_validate_rejects(self, kw):
        with pytest.raises(ConfigError):
            TrainConfig(**kw).validate()


# --- single split --------------------------------------------------------------


def _toy_codes(rng, n, n_bins):
    return np.stack(
        [rng.integers(0, nb + 1, size=n) for nb in n_bins], axis=1
    )


def _toy_split(cfg, codes, y, n_tr, n_bins):
    """A split whose first `n_tr` rows train and the rest validate."""
    prep = train._Prepared(
        cfg, [], [], codes, y, n_bins, np.zeros(len(n_bins), dtype=np.int64), None,
        [(np.arange(n_tr), np.arange(n_tr, len(y)))], [np.random.SeedSequence(cfg.seed)],
    )
    return prep.split(0)


class TestSingleSplit:
    def test_early_stop_restores_best_epoch(self):
        rng = np.random.default_rng(0)
        n_bins = np.array([6, 6])
        codes = _toy_codes(rng, 400, n_bins)
        y = codes[:, 0].astype(float) + rng.normal(0, 0.3, 400)
        cfg = _fast_cfg(max_epochs=25, early_stop_patience=2)
        sp = fit_single_split(_toy_split(cfg, codes, y, 300, n_bins))
        hist = sp.history["mains"]
        best = min(h["val_loss"] for h in hist)
        refit = loss_mse(predict_linked(sp, codes[300:])[:, 0], y[300:])
        np.testing.assert_allclose(refit, best, rtol=1e-9)
        np.testing.assert_allclose(sp.val_loss, best, rtol=1e-12)

    def test_centered_route_equals_raw_route(self):
        rng = np.random.default_rng(1)
        n_bins = np.array([5, 4, 3])
        codes = _toy_codes(rng, 300, n_bins)
        y = (codes[:, 0] - codes[:, 1]).astype(float)
        cfg = _fast_cfg(max_epochs=6)
        sp = fit_single_split(_toy_split(cfg, codes, y, 200, n_bins), pairs=[(0, 1)])
        centered = predict_eta(sp, codes)
        pc = flat_pair_codes(sp.core, codes)
        raw = forward_pass(sp.core, codes, pc).eta
        assert np.max(np.abs(centered - raw)) < 1e-9

    def test_intercept_is_sum_of_centering_constants(self):
        rng = np.random.default_rng(2)
        n_bins = np.array([4, 4])
        codes = _toy_codes(rng, 200, n_bins)
        y = codes.sum(axis=1).astype(float)
        sp = fit_single_split(_toy_split(_fast_cfg(), codes, y, 150, n_bins))
        np.testing.assert_allclose(
            sp.beta0, sp.c_feat.sum(axis=0) + sp.c_pair.sum(axis=0), atol=1e-12
        )

    def test_pair_phase_freezes_main_effects(self):
        rng = np.random.default_rng(3)
        n_bins = np.array([5, 5])
        codes = _toy_codes(rng, 300, n_bins)
        y = (codes[:, 0] * codes[:, 1]).astype(float)
        cfg = _fast_cfg(max_epochs=5)
        split = _toy_split(cfg, codes, y, 200, n_bins)
        core, _ = train._train_mains(split, *split.rngs())
        before = {k: v.copy() for k, v in param_dict(core).items() if k.startswith("feat_")}
        hist = train._train_pairs(split, core, [(0, 1)], *split.rngs())
        assert len(hist) > 0
        assert core.pairs.n_pairs == 1
        after = param_dict(core)
        for k, v in before.items():
            np.testing.assert_array_equal(v, after[k])

    def test_zero_epochs_yields_constant_predictor(self):
        rng = np.random.default_rng(4)
        n_bins = np.array([4])
        codes = _toy_codes(rng, 60, n_bins)
        y = rng.normal(size=60)
        sp = fit_single_split(_toy_split(_fast_cfg(max_epochs=0), codes, y, 40, n_bins))
        pred = predict_linked(sp, codes)
        assert np.ptp(pred) == 0.0


# --- ensemble --------------------------------------------------------------------


class TestFit:
    def _table(self, rng, n=400):
        return {"x1": rng.normal(size=n), "x2": rng.normal(size=n)}

    def test_regression_learns_signal(self):
        rng = np.random.default_rng(7)
        table = self._table(rng)
        y = 2.0 * table["x1"] + rng.normal(0, 0.1, 400)
        ens = fit(table, y, _fast_cfg(max_epochs=30))
        pred = predict(ens, table)
        r2 = 1.0 - loss_mse(pred, y) / np.var(y)
        assert r2 > 0.8

    def test_classification_learns_signal(self):
        rng = np.random.default_rng(8)
        table = self._table(rng)
        y = (table["x1"] > 0).astype(float)
        ens = fit(table, y, _fast_cfg(task="classification", max_epochs=30))
        pred = predict(ens, table)
        assert np.all((pred >= 0) & (pred <= 1))
        assert np.mean((pred > 0.5) == y) > 0.9

    def test_survival_output_grid(self):
        rng = np.random.default_rng(9)
        table = self._table(rng, 250)
        t = rng.exponential(np.exp(-0.5 * table["x1"])) + 0.01
        c = rng.exponential(2.0, 250)
        y = {"event": t <= c, "time": np.minimum(t, c)}
        cfg = _fast_cfg(task="survival", n_eval_times=5, max_epochs=8)
        ens = fit(table, y, cfg)
        pred = predict(ens, table)
        assert pred.shape == (250, ens.eval_times.size)
        assert np.all((pred > 0) & (pred < 1))
        assert 1 <= ens.eval_times.size <= 5

    def test_ensemble_averages_split_predictions(self):
        rng = np.random.default_rng(10)
        table = self._table(rng, 200)
        y = table["x1"].copy()
        ens = fit(table, y, _fast_cfg(n_val_splits=3, max_epochs=4))
        assert len(ens.splits) == 3
        from namlite.data import transform

        codes = transform(table, ens.bin_maps).codes
        by_hand = np.mean([predict_linked(sp, codes)[:, 0] for sp in ens.splits], axis=0)
        np.testing.assert_array_equal(predict(ens, table), by_hand)

    def test_folds_match_split_helper(self):
        rng = np.random.default_rng(11)
        table = self._table(rng, 120)
        ens = fit(table, table["x1"], _fast_cfg(max_epochs=2))
        want = split_folds(120, 2, seed=3)
        for (tr_a, va_a), (tr_b, va_b) in zip(ens.folds(), want):
            np.testing.assert_array_equal(tr_a, tr_b)
            np.testing.assert_array_equal(va_a, va_b)

    def test_fit_is_deterministic(self):
        rng = np.random.default_rng(12)
        table = self._table(rng, 150)
        y = table["x1"] + table["x2"]
        a = fit(table, y, _fast_cfg(max_epochs=5))
        b = fit(table, y, _fast_cfg(max_epochs=5))
        assert dumps_model(a) == dumps_model(b)

    def test_thread_count_does_not_change_model(self):
        rng = np.random.default_rng(12)
        table = self._table(rng, 150)
        y = table["x1"] + table["x2"]
        one = fit(table, y, _fast_cfg(max_epochs=3, threads=1))
        two = fit(table, y, _fast_cfg(max_epochs=3, threads=2))
        assert model_hash(one) == model_hash(two)

    def test_selected_feature_subset_restricts_model(self):
        rng = np.random.default_rng(13)
        table = self._table(rng, 150)
        ens = fit(table, table["x1"], _fast_cfg(max_epochs=2), selected_feats=["x1"])
        assert ens.feature_names == ["x1"]
        with pytest.raises(DataError):
            fit(table, table["x1"], _fast_cfg(), selected_feats=["nope"])

    @pytest.mark.parametrize("kw, named", [
        ({"selected_feats": "ab"}, "'ab'"),
        ({"selected_pairs": "ab"}, "'ab'"),
        ({"selected_pairs": [("a",)]}, r"\('a',\)"),
        ({"selected_pairs": [("a", "a")]}, "feature 'a' twice"),
    ], ids=["feats-string", "pairs-string", "short-pair", "same-feature-pair"])
    def test_selection_of_wrong_shape_raises_before_binning(self, monkeypatch, kw, named):
        table = {"a": np.arange(20.0), "b": np.arange(20.0) % 3}

        def no_binning(*args, **kwargs):
            raise AssertionError("binned before the selection was checked")

        monkeypatch.setattr(train, "fit_bins", no_binning)
        with pytest.raises(DataError, match=named):
            fit(table, table["a"], _fast_cfg(max_epochs=1), **kw)

    def test_explicit_pairs_are_attached_in_order(self):
        rng = np.random.default_rng(14)
        table = {c: rng.normal(size=150) for c in ("a", "b", "c")}
        y = table["a"] * table["b"]
        ens = fit(
            table, y, _fast_cfg(max_epochs=3),
            selected_pairs=[("c", "a")],
        )
        assert ens.selected_pairs == [("a", "c")]
        for sp in ens.splits:
            assert sp.core.pairs.n_pairs == 1

    def test_repeated_pair_raises(self):
        rng = np.random.default_rng(14)
        table = {c: rng.normal(size=60) for c in ("a", "b", "c")}
        with pytest.raises(DataError, match="'a', 'b'"):
            fit(table, table["a"], _fast_cfg(max_epochs=1),
                selected_pairs=[("a", "b"), ("c", "a"), ("b", "a")])

    def test_every_split_runs_through_fit_single_split(self, monkeypatch):
        # Split 0 of a screened fit too: it reuses the screening mains.
        calls = []
        real = train.fit_single_split

        def counting(*args, **kwargs):
            calls.append(kwargs.get("trained") is not None)
            return real(*args, **kwargs)

        monkeypatch.setattr(train, "fit_single_split", counting)
        rng = np.random.default_rng(18)
        table = {c: rng.normal(size=150) for c in ("a", "b", "c")}
        ens = fit(table, table["a"] * table["b"],
                  _fast_cfg(n_val_splits=3, num_pairs=1, max_epochs=2))
        assert sorted(calls) == [False, False, True]
        assert len(ens.splits) == 3

    def test_screened_split_saves_the_same_pair_width(self):
        """Split 0 screens its candidates at a narrower width; the pairs it
        keeps get the width and the fixed gate (mu = width/2) of the others."""
        rng = np.random.default_rng(15)
        table = {c: rng.normal(size=300) for c in ("a", "b", "c")}
        y = np.sign(table["a"]) * np.sign(table["b"]) + 0.05 * rng.normal(size=300)
        ens = fit(table, y, _fast_cfg(n_val_splits=3, num_pairs=1, max_epochs=3))
        assert ens.selected_pairs == [("a", "b")]
        widths = [sp.core.pair_gamma for sp in ens.splits]
        assert widths == [widths[-1]] * 3
        for sp in ens.splits:
            np.testing.assert_array_equal(sp.core.pairs.mu, widths[-1] / 2)

    def test_pair_search_picks_interacting_pair(self):
        rng = np.random.default_rng(15)
        table = {c: rng.normal(size=500) for c in ("a", "b", "c")}
        y = np.sign(table["a"]) * np.sign(table["b"]) + 0.05 * rng.normal(size=500)
        cfg = _fast_cfg(num_pairs=1, max_epochs=10)
        ens = fit(table, y, cfg)
        assert ens.selected_pairs == [("a", "b")]

    def test_screening_keeps_no_pair_whose_gate_closed(self):
        rng = np.random.default_rng(19)
        table = {c: rng.normal(size=200) for c in ("a", "b", "c")}
        ens = fit(table, rng.normal(size=200),
                  _fast_cfg(num_pairs=2, pair_select_reg=10.0, max_epochs=3))
        assert ens.selected_pairs == []
        for sp in ens.splits:
            assert sp.core.pairs is None
            assert list(sp.history) == ["mains"]

    def test_monotone_name_validation(self):
        rng = np.random.default_rng(16)
        table = self._table(rng, 80)
        with pytest.raises(ConfigError):
            fit(table, table["x1"], _fast_cfg(monotone={"zz": 1}, max_epochs=1))

    @pytest.mark.parametrize("case", ["monotone", "pair", "survival"])
    def test_single_row_predict_equals_batch_row(self, case):
        rng = np.random.default_rng(20)
        n = 120
        table = {"x1": rng.normal(size=n), "x2": rng.normal(size=n)}
        table["x2"][::9] = np.nan  # rows through the missing bin too
        pairs = None
        if case == "monotone":
            y, cfg = table["x1"], _fast_cfg(monotone={"x1": 1}, max_epochs=3)
        elif case == "pair":
            y = (table["x1"] * np.nan_to_num(table["x2"]) > 0).astype(float)
            cfg, pairs = _fast_cfg(task="classification", max_epochs=3), [("x1", "x2")]
        else:
            t = rng.exponential(np.exp(-0.5 * table["x1"])) + 0.01
            y = {"event": t <= 1.5, "time": np.minimum(t, 1.5)}
            cfg = _fast_cfg(task="survival", n_eval_times=4, max_epochs=3)
        ens = fit(table, y, cfg, selected_pairs=pairs)
        batch = predict(ens, table)
        rows = np.stack([predict(ens, {k: v[i : i + 1] for k, v in table.items()})[0]
                         for i in range(n)])
        assert rows.shape == batch.shape
        np.testing.assert_allclose(rows, batch, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("task", ["regression", "classification"])
    @pytest.mark.parametrize("as_dict", [False, True])
    def test_survival_labels_need_survival_task(self, task, as_dict):
        rng = np.random.default_rng(18)
        labels = as_survival_labels((rng.random(40) < 0.5, rng.exponential(size=40)))
        y = {"event": labels["event"], "time": labels["time"]} if as_dict else labels
        with pytest.raises(DataError, match='task="survival"'):
            train._normalize_targets(task, y, 40)
        with pytest.raises(DataError, match='task="survival"'):
            fit(self._table(rng, 40), y, _fast_cfg(task=task))

    def test_survival_label_length_mismatch(self):
        rng = np.random.default_rng(17)
        table = self._table(rng, 50)
        with pytest.raises(DataError):
            fit(table, {"event": [True], "time": [1.0]}, _fast_cfg(task="survival"))


class TestEnsemblePredict:
    """`predict_codes` gathers every split at once; the oracle averages split by split."""

    def _fit(self, task: str):
        rng = np.random.default_rng(21)
        n = 240
        table = {"x1": rng.normal(size=n), "x2": rng.uniform(size=n),
                 "g": rng.choice(["a", "b", "c"], n).tolist()}
        table["x1"][::17] = np.nan
        cfg = dict(n_val_splits=3, max_epochs=3)
        pairs = None
        if task == "regression":
            y = table["x2"] + np.nan_to_num(table["x1"])
        elif task == "classification":
            y = (rng.uniform(size=n) < table["x2"]).astype(float)
            pairs = [("x1", "x2"), ("x2", "g")]
        else:
            t = rng.exponential(1.0, n) + 0.01
            c = rng.exponential(2.0, n)
            y = {"event": t <= c, "time": np.minimum(t, c)}
            cfg["n_eval_times"] = 6
        ens = fit(table, y, _fast_cfg(task=task, **cfg), selected_pairs=pairs)
        return ens, table

    @staticmethod
    def _per_split(ens, codes):
        avg = np.mean([predict_linked(sp, codes) for sp in ens.splits], axis=0)
        return avg if ens.task == "survival" else avg[:, 0]

    @pytest.mark.parametrize("task", ["regression", "classification", "survival"])
    def test_matches_per_split_average(self, task, monkeypatch):
        ens, table = self._fit(task)
        if task == "classification":
            assert ens.splits[0].core.link == "sigmoid" and len(ens.selected_pairs) == 2
        codes = transform(table, ens.bin_maps).codes
        want = self._per_split(ens, codes)
        got = ens.predict(table)
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        # Row blocks: a one-cell limit gathers each row on its own.
        for cells in (1, 97):
            monkeypatch.setattr(train, "_GATHER_CELLS", cells)
            np.testing.assert_allclose(ens.predict(table), want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("task", ["regression", "classification", "survival"])
    def test_row_equals_batch_and_loaded_model(self, task):
        ens, table = self._fit(task)
        text = dumps_model(ens)
        digest = model_hash(ens)
        batch = ens.predict(table)
        for i in (0, 17, 239):
            row = {k: v[i : i + 1] for k, v in table.items()}
            np.testing.assert_array_equal(ens.predict(row)[0], batch[i])
        empty = ens.predict({k: v[:0] for k, v in table.items()})
        assert empty.shape == (0,) + batch.shape[1:]
        loaded = loads_model(text)
        np.testing.assert_array_equal(loaded.predict(table), batch)
        assert dumps_model(ens) == text
        assert model_hash(ens) == digest
        assert model_hash(loaded) == digest

    def test_new_split_tables_are_seen(self):
        """Replacing a split rebuilds the stacked table rather than reusing it."""
        ens, table = self._fit("regression")
        before = ens.predict(table)
        sp = ens.splits[1]
        ens.splits[1] = train.SingleSplitModel(
            core=sp.core, beta0=sp.beta0 + 1.0, c_feat=sp.c_feat, c_pair=sp.c_pair,
            history=sp.history, val_loss=sp.val_loss,
        )
        np.testing.assert_allclose(ens.predict(table), before + 1.0 / 3.0, rtol=0, atol=1e-12)


# --- optimizer over flat parameter buffers ------------------------------------


class _PerKeyAdam:
    """The optimizer as first written: one update per named array."""

    def __init__(self, params, keys, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = params
        self.keys = [k for k in keys if k in params]
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.t = 0
        self.m = {k: np.zeros_like(params[k]) for k in self.keys}
        self.v = {k: np.zeros_like(params[k]) for k in self.keys}

    def step(self, grads):
        self.t += 1
        b1c = 1.0 - self.beta1**self.t
        b2c = 1.0 - self.beta2**self.t
        for k in self.keys:
            g = grads[k]
            m = self.m[k]
            v = self.v[k]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g**2
            self.params[k] -= self.lr * (m / b1c) / (np.sqrt(v / b2c) + self.eps)

    def zero_rows(self, prefix, row):
        for k in self.keys:
            if k.startswith(prefix):
                self.m[k][row] = 0.0
                self.v[k][row] = 0.0


# Per case: core kwargs, the phase, the stacks whose gates train (the others
# sit fixed at exactly 1), and the stack one of whose terms is pruned mid-run.
_PHASES = {
    "feats_monotone_gates": (dict(mono_dir=np.array([0, 1, 0])),
                             train._Phase("sel", {"feat": 0.1}), {"feat"}, "feat"),
    "feats_gates": ({}, train._Phase("sel", {"feat": 0.1}), {"feat"}, "feat"),
    "mains_monotone": (dict(mono_dir=np.array([1, 0, 0])),
                       train._Phase("mains", {"feat": 0.0}), set(), "feat"),
    "mains": ({}, train._Phase("mains", {"feat": 0.0}), set(), "feat"),
    "pairs": (dict(pairs=[(0, 1), (1, 2)]), train._Phase("pairs", {"pair": 0.0}), set(), "pair"),
    "pair_select": (dict(pairs=[(0, 1), (1, 2)]),
                    train._Phase("ps", {"pair": 0.05}), {"pair"}, "pair"),
    "feats_and_pairs": (dict(pairs=[(0, 1), (0, 2)]),
                        train._Phase("sel", {"feat": 0.1, "pair": 0.05}), {"feat", "pair"}, "pair"),
}


def _phase_core(case, seed):
    """The case's core, its gates set up as the phase meets them: trained
    ones half open, so the row pruned below has gradients and momentum,
    and the others fixed at exactly 1 (mu = gamma/2)."""
    kw, _, gated, _ = _PHASES[case]
    core = tiny_core(np.random.default_rng(seed), **kw)
    for stack, gamma in core.stacks():
        stack.mu[...] = 0.0 if stack.prefix in gated else gamma / 2
    return core


def _moving_keys(core, phase, gated):
    """The parameters a phase moved under the per-key rule: every array of
    its stacks except fixed gates, and the offsets only with a monotone feature."""
    fixed = set() if np.any(core.feats.mono_dir) else {"feat_off"}
    return [k for stack, _ in core.stacks() if stack.prefix in phase.regs
            for k, _ in stack.learnable()
            if k not in fixed and (stack.prefix in gated or k != f"{stack.prefix}_mu")]


@pytest.mark.parametrize("case", sorted(_PHASES))
def test_flat_adam_matches_per_key_adam_bit_for_bit(case):
    """Whole-stack training moves exactly what the per-key rule moved, to the same bits."""
    _, phase, gated, pruned = _PHASES[case]
    flat_core, ref_core = _phase_core(case, 21), _phase_core(case, 21)
    start = {k: v.copy() for k, v in param_dict(flat_core).items()}
    rng = np.random.default_rng(5)
    codes = random_codes(rng, 40, flat_core.feats.n_bins)
    target = rng.normal(size=(40, 1))
    keys = _moving_keys(flat_core, phase, gated)
    flat = Adam(flat_core, phase.regs, 0.05)
    ref = _PerKeyAdam(param_dict(ref_core), keys, 0.05)
    regs = [phase.regs.get(p, 0.0) for p in ("feat", "pair")]
    for step in range(8):
        rows = rng.permutation(40)[:16]
        for core, opt in ((flat_core, flat), (ref_core, ref)):
            cache = forward_pass(core, codes[rows], compute_feats="feat" in phase.regs,
                                 compute_pairs="pair" in phase.regs)
            grads = backward_pass(core, cache, cache.eta - target[rows], *regs)
            opt.step(grads)
        if step == 3:
            # What pruning does: the row is switched off and its momentum killed.
            for core, opt in ((flat_core, flat), (ref_core, ref)):
                stack = core.feats if pruned == "feat" else core.pairs
                stack.active[1] = False
                opt.zero_rows(pruned, 1)
    trained = param_dict(flat_core)
    assert all(not np.array_equal(trained[k], start[k]) for k in keys)
    for k, v in param_dict(ref_core).items():
        np.testing.assert_array_equal(trained[k], v, err_msg=k)
    for k in set(trained) - set(keys):  # fixed gates, plain offsets and untrained stacks
        assert trained[k].tobytes() == start[k].tobytes(), k


def test_fresh_core_parameters_are_views_of_one_buffer():
    core = init_core(np.array([5, 3, 4]), 2, KernelConfig(), np.random.default_rng(0),
                     embedding_dim=3, hidden_sizes=(4, 5), pairs=[(0, 1), (1, 2)])
    params = param_dict(core)
    assert all(v.base is core.flat for v in params.values())
    assert sum(v.size for v in params.values()) == core.flat.size
    # Writing through the buffer is seen by the named arrays, and the other way round.
    core.flat[...] = 0.5
    assert np.all(core.feats.emb == 0.5) and np.all(core.pairs.weights[1][0] == 0.5)
    core.pairs.mu[0] = 7.0
    assert core.flat[-2] == 7.0


@pytest.mark.parametrize("case", sorted(_PHASES))
def test_adam_spans_exactly_the_trained_stacks(case):
    _, phase, _, _ = _PHASES[case]
    core = _phase_core(case, 2)
    adam = Adam(core, phase.regs, 0.01)
    trained = [a for stack, _ in core.stacks() if stack.prefix in phase.regs
               for _, a in stack.learnable()]
    assert adam.params.size == sum(a.size for a in trained)
    for stack, _ in core.stacks():
        for name, a in stack.learnable():
            assert np.shares_memory(a, adam.params) == (stack.prefix in phase.regs), name


def test_attached_pairs_share_the_core_buffer():
    core = tiny_core(np.random.default_rng(3))
    donor = tiny_core(np.random.default_rng(4), pairs=[(0, 1), (0, 2)])
    before = {k: v.copy() for k, v in param_dict(donor).items() if k.startswith("pair_")}
    before.update((k, v.copy()) for k, v in param_dict(core).items())
    core.attach_pairs(donor.pairs)
    params = param_dict(core)
    assert all(v.base is core.flat for v in params.values())
    assert core.flat.size == sum(v.size for v in params.values())
    for k, v in params.items():
        np.testing.assert_array_equal(v, before[k], err_msg=k)
    core.attach_pairs(None)  # the pair section is dropped with the old buffer
    assert core.flat.size == sum(v.size for v in param_dict(core).values())
    np.testing.assert_array_equal(core.feats.emb, before["feat_emb"])


def test_snapshot_then_restore_round_trips_exactly():
    core = tiny_core(np.random.default_rng(8), pairs=[(0, 2)], mono_dir=np.array([0, 0, 1]))
    before = {k: v.copy() for k, v in param_dict(core).items()}
    snap = train._snapshot(core)
    core.feats.emb[...] = np.nan
    core.pairs.mu[...] *= 3.0
    core.pairs.active[...] = False
    train._restore(core, snap)
    for k, v in param_dict(core).items():
        np.testing.assert_array_equal(v, before[k], err_msg=k)
    assert core.pairs.active.all()
    snap[0][...] = 0.0  # the snapshot is a copy, not a view
    np.testing.assert_array_equal(core.feats.emb, before["feat_emb"])


def test_adam_refuses_a_rebound_parameter():
    core = tiny_core(np.random.default_rng(9))
    core.feats.emb = core.feats.emb.copy()
    with pytest.raises(ValueError, match="feat_emb"):
        Adam(core, ["feat"], 0.01)
