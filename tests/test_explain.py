"""Importance scores, shape exports, calibration, and SVG/CSV rendering."""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from namlite import core
from namlite.errors import ConfigError, DataError
from namlite.explain import (
    IMPORTANCE_MODES,
    ImportanceEntry,
    ImportanceReport,
    calibration,
    calibration_to_csv,
    export_to_json,
    feature_importance,
    importance_to_csv,
    pair_shape_function,
    pair_shape_to_csv,
    render_svg,
    shape_function,
    shape_to_csv,
)
from namlite.persist import dumps_model, loads_model, model_hash
from namlite.train import SingleSplitModel, TrainConfig, fit

GOLDEN = Path(__file__).parent / "golden"


def _hand_ensemble():
    """Two identical-signal features with shapes overwritten to known values.

    Feature x maps bins (missing, 1, 2, 3) to (0.5, 1, -1, 2); feature z
    maps them to (0, 3, 3, 3). Rows cycle through the three values plus a
    missing cell, 25 of each.
    """
    x = np.tile([1.0, 2.0, 3.0, np.nan], 25)
    table = {"x": x, "z": x.copy()}
    cfg = TrainConfig(
        n_val_splits=2,
        batch_size=32,
        max_epochs=0,
        embedding_dim=1,
        hidden_sizes=(1,),
        kernel_weight=0.0,
        kernel_size=0,
        max_bins=3,
        seed=0,
    )
    ens = fit(table, np.zeros(100), cfg)
    splits = []
    for sp in ens.splits:
        core = sp.core
        core.feats.emb[0, :, 0] = [0.5, 1.0, -1.0, 2.0]
        core.feats.emb[1, :, 0] = [0.0, 3.0, 3.0, 3.0]
        for j in (0, 1):
            w0, b0 = core.feats.weights[0]
            w0[j] = 1.0
            b0[j] = 10.0
            w1, b1 = core.feats.weights[1]
            w1[j] = 1.0
            b1[j] = -10.0
        # A split is never edited in place: the ensemble keeps the tables
        # it compiled for the splits it holds, so the edited core goes into
        # a new split, whose tables the ensemble compiles on first use.
        splits.append(SingleSplitModel(
            core=core, beta0=sp.beta0, c_feat=np.zeros_like(sp.c_feat), c_pair=sp.c_pair,
            history=sp.history, val_loss=sp.val_loss,
        ))
    ens.splits = splits
    return ens, table


@pytest.fixture(scope="module")
def hand():
    return _hand_ensemble()


@pytest.fixture(scope="module")
def pair_ens():
    rng = np.random.default_rng(0)
    n = 200
    table = {"a": rng.normal(size=n), "b": rng.normal(size=n)}
    y = table["a"] * table["b"]
    cfg = TrainConfig(
        n_val_splits=2, batch_size=32, max_epochs=2, embedding_dim=4,
        hidden_sizes=(8,), max_bins=4, seed=1,
    )
    return fit(table, y, cfg, selected_pairs=[("a", "b")]), table


@pytest.fixture(scope="module")
def surv_ens():
    rng = np.random.default_rng(0)
    n = 200
    table = {"a": rng.normal(size=n), "b": rng.normal(size=n)}
    t = rng.exponential(np.exp(-0.5 * table["a"])) + 0.01
    c = rng.exponential(2.0, n)
    labels = {"event": t <= c, "time": np.minimum(t, c)}
    cfg = TrainConfig(
        task="survival", n_val_splits=2, batch_size=32, max_epochs=2,
        embedding_dim=4, hidden_sizes=(8,), max_bins=4, n_eval_times=3, seed=1,
    )
    return fit(table, labels, cfg, selected_pairs=[("a", "b")]), table, labels


# --- importance -----------------------------------------------------------


class TestFeatureImportance:
    def test_include_mode_hand_values(self, hand):
        ens, table = hand
        rep = feature_importance(ens, table, mode="include", pooled=True)
        assert [e.name for e in rep.entries] == ["z", "x"]
        z, x = rep.entries
        np.testing.assert_allclose(x.mean, 1.125, rtol=1e-12)
        np.testing.assert_allclose(z.mean, 2.25, rtol=1e-12)
        assert x.se == 0.0 and x.per_split == [1.125, 1.125]
        assert x.missing_mean is None

    def test_ignore_mode_drops_missing_rows(self, hand):
        ens, table = hand
        rep = feature_importance(ens, table, mode="ignore", pooled=True)
        by_name = {e.name: e for e in rep.entries}
        np.testing.assert_allclose(by_name["x"].mean, 4 / 3, rtol=1e-12)
        np.testing.assert_allclose(by_name["z"].mean, 3.0, rtol=1e-12)

    def test_stratify_observed_equals_ignore(self, hand):
        ens, table = hand
        ig = feature_importance(ens, table, mode="ignore", pooled=True)
        st = feature_importance(ens, table, mode="stratify", pooled=True)
        for a, b in zip(ig.entries, st.entries):
            assert a.name == b.name
            assert a.mean == b.mean
            assert a.per_split == b.per_split

    def test_stratify_missing_scores(self, hand):
        ens, table = hand
        rep = feature_importance(ens, table, mode="stratify", pooled=True)
        by_name = {e.name: e for e in rep.entries}
        np.testing.assert_allclose(by_name["x"].missing_mean, 0.5, rtol=1e-12)
        assert by_name["z"].missing_mean == 0.0
        assert by_name["x"].missing_se == 0.0

    def test_equal_scores_break_ties_by_name(self):
        ens, table = _hand_ensemble()
        for sp in ens.splits:
            sp.core.feats.emb[1] = sp.core.feats.emb[0]
        rep = feature_importance(ens, table, mode="include", pooled=True)
        assert [e.name for e in rep.entries] == ["x", "z"]

    def test_closed_gate_scores_zero_in_every_mode(self):
        ens, table = _hand_ensemble()
        for sp in ens.splits:
            sp.core.feats.mu[0] = -sp.core.gamma
        for mode in ("include", "ignore", "stratify"):
            rep = feature_importance(ens, table, mode=mode, pooled=True)
            x = {e.name: e for e in rep.entries}["x"]
            assert x.mean == 0.0
            if mode == "stratify":
                assert x.missing_mean == 0.0

    def test_pooled_scores_ignore_row_order(self, hand):
        ens, table = hand
        rep = feature_importance(ens, table, mode="include", pooled=True)
        rng = np.random.default_rng(3)
        perm = rng.permutation(100)
        shuffled = {k: v[perm] for k, v in table.items()}
        rep2 = feature_importance(ens, shuffled, mode="include", pooled=True)
        for a, b in zip(rep.entries, rep2.entries):
            assert a.name == b.name and a.mean == b.mean

    def test_row_count_mismatch_needs_pooled(self, hand):
        ens, table = hand
        subset = {k: v[:40] for k, v in table.items()}
        with pytest.raises(DataError):
            feature_importance(ens, subset)
        rep = feature_importance(ens, subset, pooled=True)
        assert len(rep.entries) == 2

    def test_unknown_mode_rejected(self, hand):
        ens, table = hand
        with pytest.raises(ConfigError):
            feature_importance(ens, table, mode="drop")

    def test_pair_entries_present(self, pair_ens):
        ens, table = pair_ens
        rep = feature_importance(ens, table)
        kinds = {e.name: e.kind for e in rep.entries}
        assert kinds == {"a": "feature", "b": "feature", "a x b": "pair"}

    def test_metadata_names_sampling(self, hand):
        ens, table = hand
        rep = feature_importance(ens, table, pooled=True)
        assert rep.metadata["mode"] == "include"
        assert rep.metadata["pooled"] is True
        assert len(rep.metadata["model_hash"]) == 64


# --- shape functions ----------------------------------------------------------


class TestShapeFunction:
    def test_hand_values_with_missing_bin(self, hand):
        ens, _ = hand
        exp = shape_function(ens, "x")
        assert exp.kind == "continuous"
        assert exp.labels[0] == "missing"
        assert len(exp.labels) == 4
        block = exp.blocks[0]
        np.testing.assert_allclose(block.mean, [0.5, 1.0, -1.0, 2.0], atol=1e-12)
        np.testing.assert_array_equal(block.se, 0.0)
        assert block.values.shape == (2, 4)
        assert block.eval_time is None

    def test_exclude_missing_drops_first_slot(self, hand):
        ens, _ = hand
        exp = shape_function(ens, "x", include_missing=False)
        assert len(exp.labels) == 3
        np.testing.assert_allclose(exp.blocks[0].mean, [1.0, -1.0, 2.0], atol=1e-12)

    def test_unfit_model_has_zero_shapes(self):
        rng = np.random.default_rng(2)
        table = {"u": rng.normal(size=80)}
        cfg = TrainConfig(n_val_splits=2, max_epochs=0, embedding_dim=2,
                          hidden_sizes=(4,), max_bins=4, seed=0)
        ens = fit(table, np.zeros(80), cfg)
        exp = shape_function(ens, "u")
        np.testing.assert_array_equal(exp.blocks[0].mean, 0.0)

    def test_monotone_constraint_shows_in_shape(self):
        rng = np.random.default_rng(4)
        table = {"u": rng.normal(size=300)}
        y = table["u"] + 0.1 * rng.normal(size=300)
        cfg = TrainConfig(n_val_splits=2, batch_size=32, max_epochs=10,
                          embedding_dim=4, hidden_sizes=(8,), max_bins=6,
                          monotone={"u": 1}, seed=0)
        ens = fit(table, y, cfg)
        exp = shape_function(ens, "u", include_missing=False)
        assert np.all(np.diff(exp.blocks[0].mean) >= -1e-12)

    def test_survival_block_per_grid_time(self, surv_ens):
        ens, _, _ = surv_ens
        exp = shape_function(ens, "a")
        assert [b.eval_time for b in exp.blocks] == list(ens.eval_times)

    def test_requested_time_snaps_to_grid(self, surv_ens):
        ens, _, _ = surv_ens
        t = float(ens.eval_times[1])
        exp = shape_function(ens, "a", eval_times=[t + 1e-9])
        assert len(exp.blocks) == 1
        assert exp.blocks[0].eval_time == t

    def test_unknown_feature_rejected(self, hand):
        ens, _ = hand
        with pytest.raises(DataError):
            shape_function(ens, "missing_col")


class TestPairShapeFunction:
    def test_grid_covers_all_bins_including_missing(self, pair_ens):
        ens, _ = pair_ens
        exp = pair_shape_function(ens, "a", "b")
        assert exp.mean.shape == (5, 5)
        assert len(exp.labels_a) == 5 and len(exp.labels_b) == 5
        assert exp.labels_a[0] == "missing"
        assert exp.eval_time is None

    def test_argument_order_is_normalized(self, pair_ens):
        ens, _ = pair_ens
        fwd = pair_shape_function(ens, "a", "b")
        rev = pair_shape_function(ens, "b", "a")
        assert rev.feature_a == fwd.feature_a == "a"
        np.testing.assert_array_equal(fwd.mean, rev.mean)

    def test_unselected_pair_rejected(self, hand):
        ens, _ = hand
        with pytest.raises(DataError):
            pair_shape_function(ens, "x", "z")

    def test_survival_defaults_to_mid_grid_time(self, surv_ens):
        ens, _, _ = surv_ens
        exp = pair_shape_function(ens, "a", "b")
        assert exp.eval_time == float(ens.eval_times[ens.eval_times.size // 2])


class TestCalibration:
    def test_one_export_per_grid_time(self, surv_ens):
        ens, table, labels = surv_ens
        exports = calibration(ens, table, labels, n_bins=4)
        assert [e.eval_time for e in exports] == list(ens.eval_times)
        for e in exports:
            assert sum(b.size for b in e.bins) == 200
            assert 1 <= len(e.bins) <= 4

    def test_requires_survival_model(self, hand):
        ens, table = hand
        with pytest.raises(ConfigError):
            calibration(ens, table, ([True], [1.0]))


_TIMED_EXPORTS = {
    "shape": lambda ens, table, labels, t: shape_function(ens, "a", eval_times=[t]),
    "pair": lambda ens, table, labels, t: pair_shape_function(ens, "a", "b", eval_time=t),
    "calibration": lambda ens, table, labels, t: calibration(ens, table, labels, eval_times=[t]),
}


@pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("export", sorted(_TIMED_EXPORTS))
def test_non_finite_eval_time_rejected(export, t, surv_ens):
    # argmin over all-NaN or all-inf distances would pick grid time 0.
    with pytest.raises(ConfigError, match="finite"):
        _TIMED_EXPORTS[export](*surv_ens, t)


_EMPTY_TIMES = {
    "shape": lambda ens, table, labels: shape_function(ens, "a", eval_times=[]),
    "shape_array": lambda ens, table, labels: shape_function(ens, "a", eval_times=np.array([])),
    "pair": lambda ens, table, labels: pair_shape_function(ens, "a", "b", eval_time=[]),
    "calibration": lambda ens, table, labels: calibration(ens, table, labels, eval_times=[]),
}


@pytest.mark.parametrize("export", sorted(_EMPTY_TIMES))
def test_empty_eval_times_rejected(export, surv_ens):
    # An empty request used to export no blocks, which shape_to_csv then indexed.
    with pytest.raises(ConfigError, match="empty"):
        _EMPTY_TIMES[export](*surv_ens)


def test_pair_surface_takes_one_eval_time(surv_ens):
    ens, _, _ = surv_ens
    with pytest.raises(ConfigError, match="one eval time"):
        pair_shape_function(ens, "a", "b", eval_time=list(ens.eval_times[:2]))
    t = float(ens.eval_times[1])
    assert pair_shape_function(ens, "a", "b", eval_time=[t]).eval_time == t


# --- compiled tables ---------------------------------------------------------------


class TestCompiledTables:
    def test_reads_after_first_predict_rebuild_no_tables(self, pair_ens, monkeypatch):
        ens, table = pair_ens
        ens = loads_model(dumps_model(ens))  # a copy with nothing compiled yet
        saved, digest = dumps_model(ens), model_hash(ens)
        ens.predict(table)
        assert dumps_model(ens) == saved
        assert model_hash(ens) == digest

        calls = []
        for name in ("bin_tables", "pair_bin_tables"):
            real = getattr(core, name)

            def counting(*args, _real=real, _name=name, **kwargs):
                calls.append(_name)
                return _real(*args, **kwargs)

            for mod_name, mod in list(sys.modules.items()):
                if mod_name.startswith("namlite") and getattr(mod, name, None) is real:
                    monkeypatch.setattr(mod, name, counting)
        ens.predict(table)
        ens.predict({k: v[:1] for k, v in table.items()})
        for mode in IMPORTANCE_MODES:
            feature_importance(ens, table, mode=mode)
        for feat in ens.feature_names:
            shape_function(ens, feat)
        pair_shape_function(ens, "a", "b")
        assert calls == []

    def test_splits_are_plain_data_and_exports_read_the_tables(self, pair_ens):
        ens, table = pair_ens
        ens.predict(table)
        ens.predict({k: v[:1] for k, v in table.items()})
        for mode in IMPORTANCE_MODES:
            feature_importance(ens, table, mode=mode)
        for feat in ens.feature_names:
            shape_function(ens, feat)
        pair_shape_function(ens, "a", "b")
        fields = set(SingleSplitModel.__dataclass_fields__)
        for sp in ens.splits:
            assert set(vars(sp)) == fields
        feats = ens.tables()[0]
        for j, feat in enumerate(ens.feature_names):
            nb = ens.bin_maps[j].n_bins + 1
            np.testing.assert_array_equal(shape_function(ens, feat).blocks[0].values,
                                          feats[:, j, :nb, 0])

    def test_tables_are_read_only(self, pair_ens):
        ens, _ = pair_ens
        for table in ens.tables():
            with pytest.raises(ValueError):
                table[0] = 0.0


# --- text exports ------------------------------------------------------------------


class TestTextExports:
    def test_importance_csv_layout(self, hand):
        ens, table = hand
        text = importance_to_csv(feature_importance(ens, table, pooled=True))
        lines = text.splitlines()
        meta = [l for l in lines if l.startswith("# ")]
        for line in meta:
            key, raw = line[2:].split(": ", 1)
            json.loads(raw)
        body = [l for l in lines if not l.startswith("# ")]
        assert body[0] == "name,kind,mean,se"
        assert body[1] == "z,feature,2.25,0.0"
        assert body[2] == "x,feature,1.125,0.0"

    def test_stratify_csv_gains_missing_columns(self, hand):
        ens, table = hand
        text = importance_to_csv(
            feature_importance(ens, table, mode="stratify", pooled=True)
        )
        header = [l for l in text.splitlines() if not l.startswith("# ")][0]
        assert header == "name,kind,mean,se,missing_mean,missing_se"

    def test_shape_csv_round_trips_floats(self, hand):
        ens, _ = hand
        text = shape_to_csv(shape_function(ens, "x"))
        body = [l for l in text.splitlines() if not l.startswith("# ")]
        assert body[0] == "eval_time,bin,label,mean,se,split_0,split_1"
        cells = body[1].split(",")
        assert cells[1] == "0" and cells[2] == "missing"
        assert float(cells[3]) == 0.5

    def test_pair_csv_has_full_grid(self, pair_ens):
        ens, _ = pair_ens
        text = pair_shape_to_csv(pair_shape_function(ens, "a", "b"))
        body = [l for l in text.splitlines() if not l.startswith("# ")]
        assert len(body) == 1 + 25

    def test_calibration_csv_spans_grid(self, surv_ens):
        ens, table, labels = surv_ens
        text = calibration_to_csv(calibration(ens, table, labels, n_bins=4))
        body = [l for l in text.splitlines() if not l.startswith("# ")]
        assert body[0] == "eval_time,bin,size,mean_pred,km_cdf"
        times = {l.split(",")[0] for l in body[1:]}
        assert times == {repr(float(t)) for t in ens.eval_times}

    def test_json_export_parses(self, hand):
        ens, _ = hand
        doc = json.loads(export_to_json(shape_function(ens, "x")))
        assert doc["feature"] == "x"
        assert doc["blocks"][0]["mean"] == [0.5, 1.0, -1.0, 2.0]


# --- SVG ------------------------------------------------------------------------------


def _golden_report():
    entries = [
        ImportanceEntry("alpha", "feature", 0.91, 0.04, [0.87, 0.95]),
        ImportanceEntry("beta x gamma", "pair", 0.55, 0.01, [0.54, 0.56]),
        ImportanceEntry("delta", "feature", 0.12, 0.0, [0.12, 0.12]),
    ]
    meta = {"model_hash": "f" * 64, "task": "regression", "n_splits": 2}
    return ImportanceReport(mode="include", entries=entries, metadata=meta)


class TestRenderSvg:
    def test_unknown_kind_rejected(self, hand):
        ens, table = hand
        rep = feature_importance(ens, table, pooled=True)
        with pytest.raises(ConfigError):
            render_svg(rep, "pie")

    def test_rendering_is_deterministic(self, hand):
        ens, table = hand
        rep = feature_importance(ens, table, pooled=True)
        assert render_svg(rep, "importance-bars") == render_svg(rep, "importance-bars")

    def test_importance_bar_counts(self, hand):
        ens, table = hand
        inc = feature_importance(ens, table, mode="include", pooled=True)
        st = feature_importance(ens, table, mode="stratify", pooled=True)
        assert render_svg(inc, "importance-bars").count('class="bar"') == 2
        assert render_svg(st, "importance-bars").count('class="bar"') == 4

    def test_shape_line_marks_bands_and_missing(self, hand):
        ens, _ = hand
        svg = render_svg(shape_function(ens, "x"), "shape-line")
        assert svg.count('class="band"') == 3
        assert svg.count('class="missing"') == 1
        assert svg.startswith("<?xml")
        assert svg.rstrip().endswith("</svg>")

    def test_heatmap_cell_per_bin_pair(self, pair_ens):
        ens, _ = pair_ens
        svg = render_svg(pair_shape_function(ens, "a", "b"), "pair-heatmap")
        assert svg.count('class="cell"') == 25

    def test_calibration_point_per_bin(self, surv_ens):
        ens, table, labels = surv_ens
        export = calibration(ens, table, labels, n_bins=4)[0]
        svg = render_svg(export, "calibration")
        assert svg.count('class="point"') == len(export.bins)

    def test_category_bars_render(self):
        rng = np.random.default_rng(6)
        vals = rng.choice(["low", "mid", "high"], size=120)
        table = {"cat": vals}
        y = (vals == "high").astype(float)
        cfg = TrainConfig(n_val_splits=2, max_epochs=3, embedding_dim=2,
                          hidden_sizes=(4,), max_bins=8, seed=0)
        ens = fit(table, y, cfg)
        exp = shape_function(ens, "cat")
        assert exp.kind == "categorical"
        svg = render_svg(exp, "shape-category-bars")
        assert svg.count('class="bar"') == len(exp.labels)

    def test_importance_bars_match_golden_bytes(self):
        got = render_svg(_golden_report(), "importance-bars")
        want = (GOLDEN / "importance_bars.svg").read_text()
        assert got == want

    def test_empty_report_rejected(self):
        rep = ImportanceReport(mode="include", entries=[], metadata={})
        with pytest.raises(DataError):
            render_svg(rep, "importance-bars")

    @pytest.mark.parametrize("top_n", [0, -1, 2.5, True, "3", None])
    def test_top_n_must_be_positive_integer(self, top_n):
        with pytest.raises(ConfigError, match="top_n"):
            render_svg(_golden_report(), "importance-bars", top_n=top_n)

    def test_top_n_keeps_leading_entries(self):
        svg = render_svg(_golden_report(), "importance-bars", top_n=np.int64(2))
        assert svg.count('class="bar"') == 2
