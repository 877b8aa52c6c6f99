"""Versioned JSON round trips, byte stability, model hashing, load checks."""

import dataclasses
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import namlite.persist as persist
from namlite.errors import DataError
from namlite.explain import calibration, feature_importance, pair_shape_function, shape_function
from namlite.persist import (
    FORMAT_VERSION,
    dumps_model,
    load_model,
    loads_model,
    model_from_dict,
    model_hash,
    model_to_dict,
    save_model,
)
from namlite.train import TrainConfig, fit, predict

GOLDEN = Path(__file__).parent / "golden"


def _check_golden(name: str):
    """Load the committed model `name`; it must save back to the same text,
    keep its recorded hash and predict its recorded values on the recorded
    16-row table (missing values and an unseen category included)."""
    text = (GOLDEN / f"{name}.json").read_text(encoding="utf-8")
    expected = json.loads((GOLDEN / f"{name}_expected.json").read_text(encoding="utf-8"))
    ens = loads_model(text)
    assert dumps_model(ens) == text
    assert model_hash(ens) == expected["model_hash"]
    np.testing.assert_allclose(
        ens.predict(expected["table"]), expected["predictions"], rtol=0, atol=1e-12
    )
    return ens


@pytest.fixture(scope="module")
def trained():
    rng = np.random.default_rng(0)
    n = 250
    table = {
        "num": rng.normal(size=n),
        "cat": rng.choice(["a", "b", "c"], size=n),
        "other": rng.normal(size=n),
    }
    y = table["num"] + (table["cat"] == "a") + 0.1 * rng.normal(size=n)
    cfg = TrainConfig(
        n_val_splits=2, batch_size=32, max_epochs=5, embedding_dim=4,
        hidden_sizes=(8,), max_bins=6, monotone={"num": 1}, seed=2,
    )
    ens = fit(table, y, cfg, selected_pairs=[("num", "other")])
    return ens, table


@pytest.fixture(scope="module")
def mains_trained():
    """Main effects only, with a binary column 'b'."""
    rng = np.random.default_rng(3)
    n = 200
    table = {"a": rng.normal(size=n), "b": rng.choice(["x", "y"], size=n)}
    y = table["a"] + (table["b"] == "x") + 0.1 * rng.normal(size=n)
    cfg = TrainConfig(
        n_val_splits=2, batch_size=32, max_epochs=3, embedding_dim=4,
        hidden_sizes=(8,), max_bins=5, seed=4,
    )
    return fit(table, y, cfg), table


@pytest.fixture(scope="module")
def surv_trained():
    rng = np.random.default_rng(1)
    n = 200
    table = {"u": rng.normal(size=n), "v": rng.normal(size=n)}
    t = rng.exponential(np.exp(-0.5 * table["u"])) + 0.01
    c = rng.exponential(2.0, n)
    labels = {"event": t <= c, "time": np.minimum(t, c)}
    cfg = TrainConfig(
        task="survival", n_val_splits=2, batch_size=32, max_epochs=3,
        embedding_dim=4, hidden_sizes=(8,), max_bins=4, n_eval_times=4, seed=2,
    )
    return fit(table, labels, cfg), table


class TestRoundTrip:
    def test_dict_round_trip_preserves_predictions(self, trained):
        ens, table = trained
        again = model_from_dict(model_to_dict(ens))
        np.testing.assert_array_equal(predict(again, table), predict(ens, table))

    def test_string_round_trip_is_byte_identical(self, trained):
        ens, _ = trained
        text = dumps_model(ens)
        assert dumps_model(loads_model(text)) == text

    @pytest.mark.parametrize("name", ["mains_trained", "surv_trained"])
    def test_other_tasks_and_kinds_round_trip(self, name, request):
        ens, table = request.getfixturevalue(name)
        text = dumps_model(ens)
        again = loads_model(text)
        assert dumps_model(again) == text
        np.testing.assert_array_equal(predict(again, table), predict(ens, table))

    def test_file_round_trip(self, trained, tmp_path):
        ens, table = trained
        path = tmp_path / "model.json"
        save_model(ens, path)
        first = path.read_bytes()
        assert first.endswith(b"\n")
        again = load_model(path)
        save_model(again, path)
        assert path.read_bytes() == first
        np.testing.assert_array_equal(predict(again, table), predict(ens, table))

    def test_survival_round_trip(self, surv_trained, tmp_path):
        ens, table = surv_trained
        path = tmp_path / "surv.json"
        save_model(ens, path)
        again = load_model(path)
        np.testing.assert_array_equal(again.eval_times, ens.eval_times)
        np.testing.assert_array_equal(predict(again, table), predict(ens, table))

    def test_round_trip_restores_structure(self, trained):
        ens, _ = trained
        again = loads_model(dumps_model(ens))
        assert again.feature_names == ens.feature_names
        assert again.selected_pairs == ens.selected_pairs
        assert again.config == ens.config
        assert len(again.splits) == len(ens.splits)
        for a, b in zip(again.splits, ens.splits):
            np.testing.assert_array_equal(a.beta0, b.beta0)
            np.testing.assert_array_equal(a.c_feat, b.c_feat)
            for j, bm in enumerate(ens.bin_maps):
                np.testing.assert_array_equal(
                    a.core.feats.emb[j, : bm.n_bins + 1],
                    b.core.feats.emb[j, : bm.n_bins + 1],
                )
            np.testing.assert_array_equal(a.core.feats.smooth, b.core.feats.smooth)

    def test_golden_model_is_pinned(self):
        """A committed classification model with one pair: the save format stays fixed.

        It was fitted with max_bins=8, embedding_dim=4, hidden_sizes=(8,)
        and 2 splits; its hash and its predictions on a 16-row table with
        missing values and an unseen category were recorded with it.
        """
        ens = _check_golden("pair_model")
        assert ens.selected_pairs == [("a", "b")]

    def test_golden_survival_model_is_pinned(self):
        """A committed survival model: a 24-time grid, so a 24-wide output, and a Cox censor.

        It was fitted on 240 rows with max_bins=6, embedding_dim=4,
        hidden_sizes=(8,) and 2 splits; its predictions are (16, 24).
        """
        ens = _check_golden("survival_model")
        assert ens.task == "survival" and ens.config.censor_estimator == "cox"
        assert ens.eval_times.shape == (24,)
        assert all(sp.core.out_dim == 24 for sp in ens.splits)

    def test_golden_monotone_model_is_pinned(self):
        """A committed mains-only regression with an increasing and a decreasing feature.

        It was fitted on 240 rows with max_bins=8, embedding_dim=4,
        hidden_sizes=(8,) and 2 splits.
        """
        ens = _check_golden("monotone_model")
        assert ens.task == "regression" and not ens.selected_pairs
        for sp in ens.splits:
            assert sp.core.pairs is None
            np.testing.assert_array_equal(sp.core.feats.mono_dir, [1, -1, 0])

    def test_loaded_model_keeps_bin_labels(self, trained):
        ens, _ = trained
        again = loads_model(dumps_model(ens))
        for a, b in zip(again.bin_maps, ens.bin_maps):
            assert a.kind == b.kind
            assert [a.label(i) for i in range(a.n_bins + 1)] == [
                b.label(i) for i in range(b.n_bins + 1)
            ]


class TestExtents:
    @pytest.fixture(scope="class")
    def uneven(self):
        """A pair whose two features have different bin counts."""
        rng = np.random.default_rng(5)
        n = 120
        table = {"x": rng.normal(size=n), "c": rng.choice(["p", "q", "r"], size=n)}
        cfg = TrainConfig(n_val_splits=2, max_epochs=1, embedding_dim=3, hidden_sizes=(4,),
                          max_bins=5, seed=1)
        return fit(table, table["x"], cfg, selected_pairs=[("x", "c")])

    def test_each_term_has_its_own_extent(self, uneven):
        core = uneven.splits[0].core
        na, nb = (bm.n_bins + 1 for bm in uneven.bin_maps)
        assert na != nb
        assert core.feats.extents(core.feats) == [(na,), (nb,)]
        assert core.pairs.extents(core.feats) == [(na, nb)]

    def test_pair_embedding_with_swapped_axes_is_rejected(self, uneven):
        doc = model_to_dict(uneven)
        emb = doc["splits"][0]["core"]["pairs"]["emb"]
        emb[0] = np.swapaxes(np.asarray(emb[0]), 0, 1).tolist()
        with pytest.raises(DataError, match=r"pairs\.emb\[0\]"):
            model_from_dict(doc)

    def test_mains_only_split_has_one_table(self, mains_trained):
        ens, _ = mains_trained
        for model in (ens, loads_model(dumps_model(ens))):
            assert len(model.tables()) == 1


class TestVersioning:
    def test_format_version_stamped(self, trained):
        ens, _ = trained
        doc = json.loads(dumps_model(ens))
        assert doc["format_version"] == FORMAT_VERSION

    def test_newer_major_rejected(self, trained):
        ens, _ = trained
        doc = model_to_dict(ens)
        doc["format_version"] = "2.0"
        with pytest.raises(DataError):
            model_from_dict(doc)

    def test_newer_minor_accepted(self, trained):
        ens, _ = trained
        doc = model_to_dict(ens)
        doc["format_version"] = "1.9"
        model_from_dict(doc)

    def test_garbled_version_rejected(self, trained):
        ens, _ = trained
        doc = model_to_dict(ens)
        doc["format_version"] = "latest"
        with pytest.raises(DataError):
            model_from_dict(doc)

    def test_invalid_json_raises_data_error(self):
        with pytest.raises(DataError):
            loads_model("{not json")


class TestModelHash:
    def test_stable_across_round_trips(self, trained):
        ens, _ = trained
        h = model_hash(ens)
        assert len(h) == 64
        assert model_hash(loads_model(dumps_model(ens))) == h

    def test_sensitive_to_parameters(self, trained):
        ens, _ = trained
        h = model_hash(ens)
        again = loads_model(dumps_model(ens))
        again.splits[0].core.feats.emb[0, 0, 0] += 1e-9
        assert model_hash(again) != h

    def test_independent_of_thread_setting(self, trained):
        ens, _ = trained
        again = loads_model(dumps_model(ens))
        again.config.threads = 7
        assert model_hash(again) == model_hash(ens)

    @pytest.mark.parametrize("name", ["mains_trained", "trained", "surv_trained"])
    def test_equals_sha256_of_dump(self, name, request):
        ens, _ = request.getfixturevalue(name)
        want = hashlib.sha256(dumps_model(ens).encode("utf-8")).hexdigest()
        assert model_hash(ens) == want
        assert model_hash(ens) == want  # memo hit

    @settings(
        deadline=None, max_examples=60,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_in_place_edit_is_rehashed(self, trained, surv_trained, data):
        ens, _ = data.draw(st.sampled_from([trained, surv_trained]))
        ens = loads_model(dumps_model(ens))
        before, before_text = model_hash(ens), dumps_model(ens)
        arrays = _param_arrays(ens)
        a = arrays[data.draw(st.sampled_from(sorted(arrays)))]
        i = data.draw(st.integers(0, a.size - 1))
        if a.dtype == bool:
            a.flat[i] = not a.flat[i]
        elif a.dtype.kind == "i":
            a.flat[i] = (a.flat[i] + 2) % 3 - 1
        else:
            a.flat[i] = np.nextafter(a.flat[i], np.inf)
        text = dumps_model(ens)
        assert model_hash(ens) == hashlib.sha256(text.encode("utf-8")).hexdigest()
        assert (model_hash(ens) == before) == (text == before_text)

    @pytest.mark.parametrize("name", ["trained", "surv_trained"])
    def test_explain_sequence_serializes_once(self, name, request, monkeypatch):
        ens, table = request.getfixturevalue(name)
        ens = loads_model(dumps_model(ens))
        calls = []
        real = persist.dumps_model

        def counting(model):
            calls.append(1)
            return real(model)

        monkeypatch.setattr(persist, "dumps_model", counting)
        for mode in ("include", "ignore", "stratify"):
            feature_importance(ens, table, mode=mode)
        for feat in ens.feature_names:
            shape_function(ens, feat)
        for a, b in ens.selected_pairs:
            pair_shape_function(ens, a, b)
        if ens.task == "survival":
            labels = {"event": np.ones(len(table["u"]), bool), "time": np.ones(len(table["u"]))}
            calibration(ens, table, labels)
        assert len(calls) == 1

    def test_memo_is_not_part_of_the_model(self, trained):
        ens, _ = trained
        again = loads_model(dumps_model(ens))
        model_hash(again)
        assert "_hash_memo" not in repr(again)
        assert "_hash_memo" not in {f.name for f in dataclasses.fields(again)}
        assert dumps_model(again) == dumps_model(ens)


def _param_arrays(ens) -> dict:
    """Every parameter array the saved document is built from, by name."""
    out = {}
    if ens.eval_times is not None:
        out["eval_times"] = ens.eval_times
    for i, sp in enumerate(ens.splits):
        out[f"{i}.beta0"] = sp.beta0
        out[f"{i}.c_feat"] = sp.c_feat
        if sp.c_pair.size:
            out[f"{i}.c_pair"] = sp.c_pair
        core = sp.core
        out[f"{i}.mono_dir"] = core.feats.mono_dir
        out[f"{i}.mono_off"] = core.feats.mono_off
        for name, stack in (("feats", core.feats), ("pairs", core.pairs)):
            if stack is None:
                continue
            out[f"{i}.{name}.emb"] = stack.emb
            out[f"{i}.{name}.mu"] = stack.mu
            out[f"{i}.{name}.active"] = stack.active
            for k, (W, b) in enumerate(stack.weights):
                out[f"{i}.{name}.W{k}"] = W
                out[f"{i}.{name}.b{k}"] = b
    return out


class TestLoadValidation:
    def _doc(self, trained):
        return model_to_dict(trained[0])  # fresh lists on every call

    def test_no_splits(self, trained):
        doc = self._doc(trained)
        doc["splits"] = []
        with pytest.raises(DataError):
            model_from_dict(doc)

    def test_missing_config(self, trained):
        doc = self._doc(trained)
        del doc["config"]
        with pytest.raises(DataError) as info:
            model_from_dict(doc)
        assert isinstance(info.value.__cause__, KeyError)  # loader faults stay traceable

    def test_wrong_c_feat_shape(self, trained):
        doc = self._doc(trained)
        doc["splits"][0]["c_feat"] = doc["splits"][0]["c_feat"][:-1]
        with pytest.raises(DataError):
            model_from_dict(doc)

    def test_short_embedding(self, trained):
        doc = self._doc(trained)
        doc["splits"][0]["core"]["feats"]["emb"][0].pop()
        with pytest.raises(DataError):
            model_from_dict(doc)

    @pytest.mark.parametrize("field", ["beta0", "c_feat", "c_pair", "weights"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_parameters(self, trained, field, bad):
        doc = self._doc(trained)
        sp = doc["splits"][0]
        if field == "beta0":
            sp["beta0"][0] = bad
        elif field == "weights":
            sp["core"]["feats"]["weights"][0][1][0][0] = bad
        else:
            sp[field][0][0] = bad
        with pytest.raises(DataError):
            model_from_dict(doc)

    @settings(
        deadline=None, max_examples=150,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_mutated_document_loads_cleanly_or_raises(
        self, mains_trained, trained, surv_trained, data
    ):
        ens, table = data.draw(st.sampled_from([mains_trained, trained, surv_trained]))
        doc = model_to_dict(ens)
        paths = _paths(doc)
        path = data.draw(st.sampled_from(paths))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        action = data.draw(st.sampled_from(["delete", "replace", "truncate"]))
        last = path[-1]
        if action == "delete":
            del parent[last]
        elif action == "truncate" and isinstance(parent[last], list) and parent[last]:
            parent[last] = parent[last][:-1]
        else:
            parent[last] = data.draw(st.sampled_from(_REPLACEMENTS))
        try:
            again = model_from_dict(doc)
        except DataError:
            return
        assert np.isfinite(predict(again, table)).all()


_REPLACEMENTS = [None, "x", float("nan"), float("inf"), -1, 0, 2, 0.5, True, [], {}, [0.0]]


def _paths(node, prefix=()) -> list:
    """Paths to every dict entry, and to the first and last item of each list."""
    out = []
    if isinstance(node, dict):
        keys = list(node)
    elif isinstance(node, list):
        keys = sorted({0, len(node) - 1}) if node else []
    else:
        return out
    for k in keys:
        out.append(prefix + (k,))
        out.extend(_paths(node[k], prefix + (k,)))
    return out
