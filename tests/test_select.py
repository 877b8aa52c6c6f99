"""Gate-based feature/pair selection and the regularization path."""

import logging
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import rankdata

import namlite
from namlite import select, survival, train
from namlite.errors import ConfigError
from namlite.select import (
    SelectionConfig,
    default_gamma,
    lookup_feats,
    regularization_path,
    select_features,
    _average_ranks,
    _rank_auc,
)
from namlite.train import TrainConfig, fit


def _cfg(**kw):
    base = dict(
        n_val_splits=2,
        batch_size=32,
        max_epochs=15,
        early_stop_patience=5,
        learning_rate=1e-2,
        embedding_dim=4,
        hidden_sizes=(8,),
        max_bins=8,
        seed=3,
    )
    base.update(kw)
    return TrainConfig(**base)


def _linear_table(seed=5, n=600):
    rng = np.random.default_rng(seed)
    table = {f"x{i}": rng.normal(size=n) for i in range(1, 5)}
    y = 2.0 * table["x1"] + 0.1 * rng.normal(size=n)
    return table, y


# --- gate width default -------------------------------------------------------


class TestDefaultGamma:
    def test_reference_values(self):
        assert default_gamma(32000, 128, 16) == 1.0
        np.testing.assert_allclose(default_gamma(128, 128, 16), 0.004)
        np.testing.assert_allclose(default_gamma(32000, 128, 32), 0.5)

    def test_cap_at_one(self):
        assert default_gamma(10**9, 1, 1) == 1.0

    def test_rejects_nonpositive(self):
        for args in [(0, 1, 1), (1, 0, 1), (1, 1, 0)]:
            with pytest.raises(ConfigError):
                default_gamma(*args)


class TestSelectionConfig:
    def test_validate_rejects_bad_values(self):
        with pytest.raises(ConfigError):
            SelectionConfig(reg_param=-0.1).validate()
        with pytest.raises(ConfigError):
            SelectionConfig(gamma=0.0).validate()
        with pytest.raises(ConfigError):
            SelectionConfig(pair_gamma=-1.0).validate()
        for kw in ({"reg_param": np.nan}, {"reg_param": np.inf}, {"pair_reg_param": np.nan},
                   {"pair_reg_param": np.inf}, {"gamma": np.inf}, {"gamma": np.nan},
                   {"pair_gamma": np.inf}, {"reg_param": "x"}, {"gamma": "0.5"},
                   {"select_pairs": 1}):
            with pytest.raises(ConfigError):
                SelectionConfig(**kw).validate()


# --- selection ------------------------------------------------------------------


class TestSelectFeatures:
    def test_zero_penalty_keeps_everything(self):
        table, y = _linear_table()
        res = select_features(table, y, _cfg(max_epochs=5), SelectionConfig(gamma=0.5))
        assert res.selected_feats == ["x1", "x2", "x3", "x4"]
        assert all(v > 0 for v in res.gate_values.values())

    def test_penalty_keeps_signal_and_zeroes_noise(self):
        table, y = _linear_table()
        res = select_features(
            table, y, _cfg(), SelectionConfig(reg_param=0.1, gamma=0.5)
        )
        assert res.selected_feats == ["x1"]
        assert res.gate_values["x1"] == 1.0
        for name in ("x2", "x3", "x4"):
            assert res.gate_values[name] == 0.0

    def test_everything_pruned_warns(self, caplog):
        rng = np.random.default_rng(6)
        table = {"a": rng.normal(size=400), "b": rng.normal(size=400)}
        y = rng.normal(size=400)
        with caplog.at_level(logging.WARNING, logger="namlite"):
            res = select_features(
                table, y, _cfg(), SelectionConfig(reg_param=0.5, gamma=0.5)
            )
        assert res.selected_feats == []
        assert any("zero features" in r.message for r in caplog.records)

    def test_pair_selection_finds_interaction(self):
        rng = np.random.default_rng(6)
        n = 600
        table = {c: rng.normal(size=n) for c in ("a", "b", "c")}
        y = np.sign(table["a"]) * np.sign(table["b"]) + 0.05 * rng.normal(size=n)
        res = select_features(
            table,
            y,
            _cfg(),
            SelectionConfig(
                reg_param=0.05, pair_reg_param=0.02, gamma=0.5, select_pairs=True
            ),
        )
        assert res.selected_pairs == [("a", "b")]
        assert res.pair_gate_values[("a", "b")] == 1.0
        assert res.pair_gate_values[("a", "c")] == 0.0
        assert res.pair_gate_values[("b", "c")] == 0.0
        assert set(res.pair_gate_values) == {("a", "b"), ("a", "c"), ("b", "c")}

    def test_bad_train_config_raises_before_bad_selection_config(self):
        table, y = _linear_table(n=100)
        with pytest.raises(ConfigError, match="batch_size"):
            select_features(table, y, _cfg(batch_size=0), SelectionConfig(reg_param=-1.0))
        with pytest.raises(ConfigError, match="regularization parameters"):
            select_features(table, y, _cfg(), SelectionConfig(reg_param=-1.0))

    def test_selection_is_deterministic(self):
        table, y = _linear_table()
        sel = SelectionConfig(reg_param=0.05, gamma=0.5)
        a = select_features(table, y, _cfg(max_epochs=5), sel)
        b = select_features(table, y, _cfg(max_epochs=5), sel)
        assert a.gate_values == b.gate_values


def _survival_table(seed=11, n=300):
    rng = np.random.default_rng(seed)
    table = {f"x{j}": rng.uniform(-1, 1, n) for j in range(3)}
    t_event = rng.exponential(np.exp(-table["x0"]))
    t_censor = rng.exponential(1.5, n)
    y = survival.as_survival_labels((t_event <= t_censor, np.minimum(t_event, t_censor)))
    return table, y


class TestSharedSplit:
    """Selection trains on `fit`'s split 0: same fold, seed and survival grid."""

    def test_select_split_is_fits_split_0(self, monkeypatch):
        table, y = _survival_table()
        cfg = _cfg(task="survival", n_eval_times=6, max_epochs=1, threads=1,
                   censor_estimator="cox")
        fit_splits = []
        real = train.fit_single_split

        def recording(split, *args, **kwargs):
            fit_splits.append(split)
            return real(split, *args, **kwargs)

        monkeypatch.setattr(train, "fit_single_split", recording)
        fit(table, y, cfg)
        ours = select._build_selection(table, y, cfg, SelectionConfig(), None).split
        theirs = fit_splits[0]
        np.testing.assert_array_equal(ours.codes_tr, theirs.codes_tr)
        np.testing.assert_array_equal(ours.codes_val, theirs.codes_val)
        assert ours.seed_seq.entropy == theirs.seed_seq.entropy
        assert ours.seed_seq.spawn_key == theirs.seed_seq.spawn_key
        for a, b in ((ours.obj_tr, theirs.obj_tr), (ours.obj_val, theirs.obj_val)):
            np.testing.assert_array_equal(a.w_alive, b.w_alive)
            np.testing.assert_array_equal(a.w_event, b.w_event)

    @pytest.mark.parametrize("entry", ["select_features", "regularization_path"])
    def test_ipcw_weights_use_fits_eval_times(self, monkeypatch, entry):
        table, y = _survival_table()
        cfg = _cfg(task="survival", n_eval_times=6, max_epochs=2)
        grid = fit(table, y, cfg).eval_times
        tr = namlite.data.split_folds(y.size, cfg.n_val_splits, cfg.seed)[0][0]
        # The training fold's own grid differs, so the check can tell them apart.
        assert not np.array_equal(survival.eval_time_grid(y[tr], cfg.n_eval_times), grid)

        seen = []
        real = survival.ipcw_weights

        def recording(labels, eval_times, censor):
            seen.append(np.array(eval_times))
            return real(labels, eval_times, censor)

        monkeypatch.setattr(survival, "ipcw_weights", recording)
        if entry == "select_features":
            select_features(table, y, cfg, SelectionConfig(reg_param=1e-3))
        else:
            regularization_path(table, y, cfg, 1e-3, max_steps=2)
        assert len(seen) == 2  # the training and the validation fold's weights
        for times in seen:
            np.testing.assert_array_equal(times, grid)


# --- ranking score ----------------------------------------------------------------


class TestManyFeaturePairUniverse:
    def test_select_and_fit_screen_the_same_top_20(self, monkeypatch):
        # Past 20 features, both rank features on split 0's trained mains.
        rng = np.random.default_rng(23)
        n = 400
        table = {f"x{j:02d}": rng.uniform(-1, 1, n) for j in range(22)}
        y = 3 * table["x20"] + 3 * table["x21"] + 0.1 * rng.normal(size=n)
        cfg = _cfg(max_bins=8, max_epochs=1)
        res = select_features(table, y, cfg, SelectionConfig(select_pairs=True))
        candidates = set(res.pair_gate_values)
        assert len(candidates) == 190
        top = {f for pair in candidates for f in pair}
        assert len(top) == 20 and {"x20", "x21"} <= top

        screened = []
        real = train._pair_universe

        def recording(core, codes):
            screened.append(real(core, codes))
            return screened[-1]

        monkeypatch.setattr(train, "_pair_universe", recording)
        ens = fit(table, y, replace(cfg, num_pairs=1))
        names = ens.feature_names
        assert len(screened) == 1
        assert {(names[a], names[b]) for a, b in screened[0]} == candidates


def _auc_oracle(y, scores):
    """Pairwise win fraction, ties counted half."""
    pos = scores[y == 1]
    neg = scores[y == 0]
    wins = 0.0
    for p in pos:
        for q in neg:
            wins += 1.0 if p > q else (0.5 if p == q else 0.0)
    return wins / (pos.size * neg.size)


class TestRankAuc:
    def test_perfect_and_reversed(self):
        y = np.array([0, 0, 1, 1])
        assert _rank_auc(y, np.array([0.1, 0.2, 0.8, 0.9])) == 1.0
        assert _rank_auc(y, np.array([0.9, 0.8, 0.2, 0.1])) == 0.0

    def test_matches_pairwise_oracle_with_ties(self):
        rng = np.random.default_rng(7)
        y = (rng.random(60) < 0.4).astype(int)
        scores = rng.integers(0, 8, size=60).astype(float)
        np.testing.assert_allclose(_rank_auc(y, scores), _auc_oracle(y, scores))

    def test_single_class_is_nan(self):
        assert np.isnan(_rank_auc(np.ones(4), np.arange(4.0)))

    @settings(deadline=None, max_examples=200)
    @given(
        st.lists(st.integers(0, 3), max_size=40)
        | st.lists(st.floats(-1e6, 1e6), max_size=40)
        | st.lists(st.sampled_from([-0.0, 0.0, 1.5, float("nan")]), max_size=12)
    )
    def test_average_ranks_match_scipy(self, values):
        x = np.asarray(values, dtype=np.float64)
        np.testing.assert_array_equal(_average_ranks(x), rankdata(x))


def test_import_leaves_scipy_unloaded():
    src = str(Path(namlite.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "import sys, namlite; print('scipy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    assert out.stdout.strip() == "False"


# --- path -------------------------------------------------------------------------


class TestLookupFeats:
    def test_exact_then_nearest_smaller(self):
        feats = {3: ["a", "b", "c"], 1: ["a"]}
        assert lookup_feats(feats, 3) == ["a", "b", "c"]
        assert lookup_feats(feats, 2) == ["a"]
        with pytest.raises(KeyError):
            lookup_feats(feats, 0)


class TestRegularizationPath:
    def test_doubling_ladder_and_feats_map(self):
        rng = np.random.default_rng(5)
        n = 600
        table = {f"x{i}": rng.normal(size=n) for i in range(1, 5)}
        y = 2.0 * table["x1"] + 1.0 * table["x2"] + 0.1 * rng.normal(size=n)
        res = regularization_path(
            table, y, _cfg(max_epochs=10), 0.02, SelectionConfig(gamma=0.5), max_steps=6
        )
        assert 1 <= len(res.records) <= 6
        for i, rec in enumerate(res.records):
            np.testing.assert_allclose(rec.reg_param, 0.02 * 2**i)
            np.testing.assert_allclose(rec.val_score, np.sqrt(rec.val_loss))
            assert rec.num_feats == len(rec.selected_feats)
        seen = {}
        for rec in res.records:
            seen.setdefault(rec.num_feats, list(rec.selected_feats))
        assert res.feats == seen

    def test_noise_path_terminates_at_zero(self):
        rng = np.random.default_rng(8)
        table = {"a": rng.normal(size=400), "b": rng.normal(size=400)}
        y = rng.normal(size=400)
        res = regularization_path(
            table, y, _cfg(max_epochs=8), 0.2, SelectionConfig(gamma=0.5), max_steps=10
        )
        assert res.records[-1].num_feats == 0
        assert len(res.records) < 10

    def test_rejects_nonpositive_start(self):
        table, y = _linear_table(n=100)
        for kw in ({"init_reg_param": 0.0}, {"init_reg_param": np.nan},
                   {"init_reg_param": np.inf}, {"init_reg_param": "1e-3"},
                   {"init_reg_param": None}, {"ladder_factor": 1.0}, {"ladder_factor": 0.5},
                   {"ladder_factor": np.nan}, {"ladder_factor": np.inf}, {"ladder_factor": "3"},
                   {"max_steps": 0}, {"max_steps": 2.5}, {"max_steps": np.nan},
                   {"max_steps": True}):
            with pytest.raises(ConfigError):
                regularization_path(table, y, _cfg(), **{"init_reg_param": 0.01, **kw})
