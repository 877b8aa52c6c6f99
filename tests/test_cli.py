"""End-to-end command-line runs: exit codes, artifacts, and byte stability."""

import hashlib
import json
import os

import numpy as np
import pytest

from namlite import cli
from namlite.cli import main
from namlite.persist import load_model
from namlite.train import predict


def _write_csv(path, cols):
    names = list(cols)
    n = len(next(iter(cols.values())))
    lines = [",".join(names)]
    for i in range(n):
        cells = []
        for k in names:
            v = cols[k][i]
            if isinstance(v, str):
                cells.append(v)
            elif isinstance(v, (float, np.floating)) and np.isnan(v):
                cells.append("")
            else:
                cells.append(repr(float(v)))
        lines.append(",".join(cells))
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def _base_cfg(train_csv, out_dir, **extra):
    cfg = {
        "train_csv": train_csv,
        "output_dir": out_dir,
        "n_val_splits": 2,
        "batch_size": 32,
        "max_epochs": 5,
        "embedding_dim": 4,
        "hidden_sizes": [8],
        "max_bins": 6,
        "seed": 1,
    }
    cfg.update(extra)
    return cfg


@pytest.fixture(scope="module")
def reg_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("reg")
    rng = np.random.default_rng(0)
    n = 300
    cols = {
        "x1": rng.normal(size=n),
        "x2": rng.normal(size=n),
        "y": None,
    }
    cols["y"] = 2.0 * cols["x1"] + 0.1 * rng.normal(size=n)
    train_csv = _write_csv(root / "train.csv", cols)
    test_csv = _write_csv(
        root / "test.csv", {k: v[:60] for k, v in cols.items()}
    )
    out = root / "out"
    cfg_path = root / "run.json"
    cfg_path.write_text(
        json.dumps(
            _base_cfg(train_csv, str(out), test_csv=test_csv, target="y", max_epochs=25)
        )
    )
    rc = main(["train", str(cfg_path)])
    assert rc == 0
    return {
        "root": root,
        "train_csv": train_csv,
        "test_csv": test_csv,
        "out": out,
        "cfg_path": cfg_path,
        "model": str(out / "model.json"),
    }


@pytest.fixture(scope="module")
def surv_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("surv")
    rng = np.random.default_rng(1)
    n = 250
    u = rng.normal(size=n)
    t = rng.exponential(np.exp(-0.5 * u)) + 0.01
    c = rng.exponential(2.0, n)
    cols = {
        "u": u,
        "v": rng.normal(size=n),
        "time": np.minimum(t, c),
        "event": (t <= c).astype(float),
    }
    train_csv = _write_csv(root / "train.csv", cols)
    out = root / "out"
    cfg_path = root / "run.json"
    cfg_path.write_text(
        json.dumps(
            _base_cfg(train_csv, str(out), task="survival", n_eval_times=3, max_epochs=3)
        )
    )
    rc = main(["train", str(cfg_path)])
    assert rc == 0
    return {
        "root": root,
        "train_csv": train_csv,
        "out": out,
        "model": str(out / "model.json"),
    }


# --- train ------------------------------------------------------------------


class TestTrain:
    def test_artifacts_and_metrics(self, reg_run, capsys):
        report = json.loads((reg_run["out"] / "metrics.json").read_text())
        assert set(report) == {"metrics", "metadata"}
        m = report["metrics"]
        assert {"val_loss", "test_rmse", "test_r2"} <= set(m)
        assert m["test_r2"] > 0.5
        assert len(report["metadata"]["model_hash"]) == 64
        assert report["metadata"]["config"]["task"] == "regression"
        assert "threads" not in report["metadata"]["config"]

    @pytest.mark.parametrize("missing", ["y", "x2"], ids=["target", "feature"])
    def test_test_csv_without_a_column_leaves_no_output(self, reg_run, tmp_path, missing, capsys):
        rng = np.random.default_rng(5)
        cols = {k: rng.normal(size=40) for k in ("x1", "x2", "y") if k != missing}
        cfg = json.loads(reg_run["cfg_path"].read_text())
        cfg.update(output_dir=str(tmp_path / "o"), max_epochs=1,
                   test_csv=_write_csv(tmp_path / "test.csv", cols))
        p = tmp_path / "run.json"
        p.write_text(json.dumps(cfg))
        assert main(["train", str(p)]) == 3
        err = capsys.readouterr().err
        assert repr(missing) in err and "Traceback" not in err
        assert not (tmp_path / "o").exists()

    def test_training_does_not_mutate_inputs(self, reg_run, tmp_path):
        before = hashlib.sha256(open(reg_run["train_csv"], "rb").read()).hexdigest()
        cfg = json.loads(reg_run["cfg_path"].read_text())
        cfg["output_dir"] = str(tmp_path / "out2")
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["train", str(cfg_path)]) == 0
        after = hashlib.sha256(open(reg_run["train_csv"], "rb").read()).hexdigest()
        assert before == after

    def test_reruns_write_identical_model_files(self, reg_run, tmp_path):
        cfg = json.loads(reg_run["cfg_path"].read_text())
        cfg["output_dir"] = str(tmp_path / "again")
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["train", str(cfg_path)]) == 0
        first = open(reg_run["model"], "rb").read()
        second = open(tmp_path / "again" / "model.json", "rb").read()
        assert first == second

    def test_unknown_config_key_is_config_error(self, tmp_path, reg_run, capsys):
        cfg = json.loads(reg_run["cfg_path"].read_text())
        cfg["max_epoch"] = 3
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(cfg))
        assert main(["train", str(p)]) == 2
        assert "max_epoch" in capsys.readouterr().err

    def test_missing_target_key_is_config_error(self, tmp_path, reg_run):
        cfg = json.loads(reg_run["cfg_path"].read_text())
        del cfg["target"]
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(cfg))
        assert main(["train", str(p)]) == 2

    def test_absent_target_column_is_data_error(self, tmp_path, reg_run, capsys):
        cfg = json.loads(reg_run["cfg_path"].read_text())
        cfg["target"] = "label"
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(cfg))
        assert main(["train", str(p)]) == 3
        assert "label" in capsys.readouterr().err

    def test_unreadable_data_is_data_error(self, tmp_path, reg_run):
        cfg = json.loads(reg_run["cfg_path"].read_text())
        cfg["train_csv"] = str(tmp_path / "nope.csv")
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(cfg))
        assert main(["train", str(p)]) == 3

    def test_undecodable_data_is_data_error(self, tmp_path, reg_run, capsys):
        data = tmp_path / "latin1.csv"
        data.write_bytes(b"x1,x2,y\n1,2,3\n\xff,2,3\n")
        cfg = json.loads(reg_run["cfg_path"].read_text())
        cfg["train_csv"] = str(data)
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(cfg))
        assert main(["train", str(p)]) == 3
        assert "latin1.csv: not UTF-8" in capsys.readouterr().err

    def test_undecodable_config_is_config_error(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_bytes(b'{"train_csv": "\xff"}')
        assert main(["train", str(p)]) == 2

    def test_bom_csv_with_leading_target_trains(self, tmp_path, reg_run):
        rows = [r.split(",") for r in (reg_run["root"] / "train.csv").read_text().splitlines()]
        assert rows[0][-1] == "y"
        body = "".join(",".join(r[-1:] + r[:-1]) + "\n" for r in rows)
        data = tmp_path / "bom.csv"
        data.write_bytes(b"\xef\xbb\xbf" + body.encode())
        cfg = json.loads(reg_run["cfg_path"].read_text())
        cfg.update(train_csv=str(data), output_dir=str(tmp_path / "o"))
        del cfg["test_csv"]
        p = tmp_path / "run.json"
        p.write_text(json.dumps(cfg))
        assert main(["train", str(p)]) == 0

    @pytest.mark.parametrize("command,bad", [
        ("train", {"hidden_sizes": 32}),
        ("train", {"max_bins": 4.5}),
        ("train", {"features": "x1"}),
        ("train", {"pairs": [["x1"]]}),
        ("train", {"pairs": ["x1", "x2"]}),
        ("select", {"reg_param": "x"}),
        ("train", {"output_dir": 5}),
        ("select", {"output_dir": None}),
        ("train", {"train_csv": ["a.csv"]}),
        ("train", {"train_csv": 12345}),
        ("path", {"train_csv": 0}),
        ("train", {"test_csv": ["b.csv"]}),
        ("train", {"target": ["y"]}),
        ("select", {"target": 1}),
        ("train", {"time_col": ["time"]}),
        ("train", {"event_col": 3}),
    ])
    def test_wrong_typed_value_is_config_error(self, tmp_path, reg_run, command, bad, capsys):
        cfg = json.loads(reg_run["cfg_path"].read_text())
        cfg.update({"output_dir": str(tmp_path / "o"), **bad})
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(cfg))
        args = [command, str(p)] + (["--init-reg-param", "0.01"] if command == "path" else [])
        assert main(args) == 2
        err = capsys.readouterr().err
        assert next(iter(bad)) in err and "Traceback" not in err
        assert not (tmp_path / "o").exists()

    def test_null_optional_keys_read_as_absent(self, tmp_path, reg_run):
        cfg = json.loads(reg_run["cfg_path"].read_text())
        cfg.update(output_dir=str(tmp_path / "o"), test_csv=None, time_col=None, event_col=None)
        p = tmp_path / "run.json"
        p.write_text(json.dumps(cfg))
        assert main(["train", str(p)]) == 0
        report = json.loads((tmp_path / "o" / "metrics.json").read_text())
        assert list(report["metrics"]) == ["val_loss"]

    def test_null_label_columns_read_as_defaults(self, tmp_path, surv_run):
        cfg = json.loads((surv_run["root"] / "run.json").read_text())
        cfg.update(output_dir=str(tmp_path / "o"), target=None, time_col=None, event_col=None)
        p = tmp_path / "run.json"
        p.write_text(json.dumps(cfg))
        assert main(["train", str(p)]) == 0

    def test_malformed_json_is_config_error(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{oops")
        assert main(["train", str(p)]) == 2

    def test_bad_event_values_are_data_error(self, tmp_path):
        rng = np.random.default_rng(2)
        cols = {
            "x": rng.normal(size=40),
            "time": rng.exponential(size=40) + 0.1,
            "event": np.full(40, 2.0),
        }
        csv = _write_csv(tmp_path / "t.csv", cols)
        p = tmp_path / "run.json"
        p.write_text(json.dumps(_base_cfg(csv, str(tmp_path / "o"), task="survival")))
        assert main(["train", str(p)]) == 3

    def test_survival_labels_under_scalar_task_are_data_error(self, tmp_path, monkeypatch, capsys):
        # The CLI reads a target column for scalar tasks; survival labels can
        # only reach fit with such a task through its Python API, as here.
        real = cli._targets
        monkeypatch.setattr(cli, "_targets", lambda table, run, task: real(table, run, "survival"))
        rng = np.random.default_rng(4)
        cols = {"x": rng.normal(size=60), "time": rng.exponential(size=60) + 0.1,
                "event": (rng.random(60) < 0.5).astype(float)}
        csv = _write_csv(tmp_path / "t.csv", cols)
        p = tmp_path / "run.json"
        p.write_text(json.dumps(_base_cfg(csv, str(tmp_path / "o"), target="time")))
        assert main(["train", str(p)]) == 3
        assert 'task="survival"' in capsys.readouterr().err

    def test_rank_deficient_cox_censor_is_training_error(self, tmp_path, capsys):
        rng = np.random.default_rng(3)
        n = 150
        x = rng.normal(size=n)
        t = rng.exponential(size=n) + 0.01
        c = rng.exponential(1.0, n)
        cols = {
            "x": x,
            "x2": x.copy(),
            "time": np.minimum(t, c),
            "event": (t <= c).astype(float),
        }
        csv = _write_csv(tmp_path / "t.csv", cols)
        p = tmp_path / "run.json"
        p.write_text(
            json.dumps(
                _base_cfg(
                    csv, str(tmp_path / "o"),
                    task="survival", censor_estimator="cox", max_epochs=2,
                    n_eval_times=3,
                )
            )
        )
        assert main(["train", str(p)]) == 4
        assert "training error" in capsys.readouterr().err


class TestRetiredThreads:
    def test_threads_flag_is_usage_error(self, reg_run):
        with pytest.raises(SystemExit) as exc:
            main(["train", str(reg_run["cfg_path"]), "--threads", "2"])
        assert exc.value.code == 2

    def test_threads_key_in_run_config_is_ignored(self, reg_run, tmp_path):
        cfg = json.loads(reg_run["cfg_path"].read_text())
        cfg.update(output_dir=str(tmp_path / "o"), threads=4)
        p = tmp_path / "run.json"
        p.write_text(json.dumps(cfg))
        assert main(["train", str(p)]) == 0
        hashes = [
            json.loads((out / "metrics.json").read_text())["metadata"]["model_hash"]
            for out in (reg_run["out"], tmp_path / "o")
        ]
        assert hashes[0] == hashes[1]


class TestOutputPaths:
    """An output path that cannot be made or written is a config error naming it."""

    @staticmethod
    def _run_cfg(reg_run, tmp_path, out_dir):
        cfg = json.loads(reg_run["cfg_path"].read_text())
        cfg.update(output_dir=str(out_dir), max_epochs=1)
        p = tmp_path / "run.json"
        p.write_text(json.dumps(cfg))
        return str(p)

    @pytest.mark.parametrize("command", [
        ["train"], ["select"], ["path", "--init-reg-param", "0.01", "--max-steps", "1"],
    ], ids=["train", "select", "path"])
    def test_output_dir_naming_a_file(self, reg_run, tmp_path, command, capsys):
        taken = tmp_path / "taken"
        taken.write_text("")
        rc = main([command[0], self._run_cfg(reg_run, tmp_path, taken), *command[1:]])
        assert rc == 2
        assert f"cannot create output directory {taken}" in capsys.readouterr().err

    def test_model_file_naming_a_directory(self, reg_run, tmp_path, capsys):
        model_path = tmp_path / "out" / "model.json"
        model_path.mkdir(parents=True)
        assert main(["train", self._run_cfg(reg_run, tmp_path, tmp_path / "out")]) == 2
        assert f"cannot write {model_path}" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--out-dir", "--svg-dir"])
    def test_explain_dir_naming_a_file(self, reg_run, tmp_path, flag, capsys):
        taken = tmp_path / "taken"
        taken.write_text("")
        # A repeated --out-dir takes its last value.
        rc = main(["explain", reg_run["model"], "--shape", "x1",
                   "--out-dir", str(tmp_path / "exp"), flag, str(taken)])
        assert rc == 2
        assert f"cannot create output directory {taken}" in capsys.readouterr().err

    def test_predict_out_naming_a_directory(self, reg_run, tmp_path, capsys):
        assert main(["predict", reg_run["model"], reg_run["train_csv"], "--out", str(tmp_path)]) == 2
        assert f"cannot write {tmp_path}" in capsys.readouterr().err


# --- predict -------------------------------------------------------------------


class TestPredict:
    def test_matches_in_process_predictions_exactly(self, reg_run, tmp_path):
        out = tmp_path / "preds.csv"
        assert main(["predict", reg_run["model"], reg_run["test_csv"], "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "prediction"
        model = load_model(reg_run["model"])
        from namlite.data import read_csv

        table = read_csv(reg_run["test_csv"])
        want = [repr(float(v)) for v in predict(model, table)]
        assert lines[1:] == want

    def test_stdout_when_no_out_flag(self, reg_run, capsys):
        assert main(["predict", reg_run["model"], reg_run["test_csv"]]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "prediction"
        assert len(lines) == 61

    def test_survival_headers_carry_grid_times(self, surv_run, tmp_path):
        out = tmp_path / "preds.csv"
        assert main(["predict", surv_run["model"], surv_run["train_csv"], "--out", str(out)]) == 0
        header = out.read_text().splitlines()[0].split(",")
        model = load_model(surv_run["model"])
        assert header == [f"cdf@{repr(float(t))}" for t in model.eval_times]

    def test_model_with_binary_feature_predicts(self, tmp_path):
        rng = np.random.default_rng(5)
        n = 200
        flag = rng.choice(["no", "yes"], size=n)
        cols = {"x1": rng.normal(size=n), "flag": flag}
        cols["y"] = cols["x1"] + (flag == "yes") + 0.1 * rng.normal(size=n)
        train_csv = _write_csv(tmp_path / "train.csv", cols)
        cfg_path = tmp_path / "run.json"
        out = tmp_path / "out"
        cfg_path.write_text(json.dumps(_base_cfg(train_csv, str(out), target="y", max_epochs=2)))
        assert main(["train", str(cfg_path)]) == 0
        model = load_model(out / "model.json")
        assert [bm.kind for bm in model.bin_maps] == ["continuous", "binary"]
        assert main(["predict", str(out / "model.json"), train_csv, "--out",
                     str(tmp_path / "preds.csv")]) == 0

    def test_missing_model_file_is_data_error(self, reg_run, tmp_path):
        assert main(["predict", str(tmp_path / "no.json"), reg_run["test_csv"]]) == 3

    def test_undecodable_model_file_is_data_error(self, reg_run, tmp_path, capsys):
        bad = tmp_path / "model.json"
        bad.write_bytes(b'{"format": "\xff"}')
        assert main(["predict", str(bad), reg_run["test_csv"]]) == 3
        assert "model.json is not UTF-8" in capsys.readouterr().err

    def test_undecodable_data_is_data_error(self, reg_run, tmp_path):
        data = tmp_path / "latin1.csv"
        data.write_bytes(b"x1,x2\n\xe9,2\n")
        assert main(["predict", reg_run["model"], str(data)]) == 3

    @pytest.mark.parametrize("corrupt", ["no_splits", "nan_beta0", "no_config"])
    def test_corrupt_model_file_is_data_error(self, reg_run, tmp_path, corrupt):
        with open(reg_run["model"]) as fh:
            doc = json.load(fh)
        if corrupt == "no_splits":
            doc["splits"] = []
        elif corrupt == "nan_beta0":
            doc["splits"][0]["beta0"][0] = float("nan")
        else:
            del doc["config"]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert main(["predict", str(bad), reg_run["test_csv"]]) == 3


# --- select / path -----------------------------------------------------------------


class TestSelectAndPath:
    def test_select_writes_gate_report(self, tmp_path):
        rng = np.random.default_rng(5)
        n = 600
        cols = {f"x{i}": rng.normal(size=n) for i in range(1, 5)}
        cols["y"] = 2.0 * cols["x1"] + 0.1 * rng.normal(size=n)
        csv = _write_csv(tmp_path / "t.csv", cols)
        p = tmp_path / "run.json"
        p.write_text(
            json.dumps(
                _base_cfg(
                    csv, str(tmp_path / "o"), target="y", seed=3,
                    max_epochs=15, learning_rate=1e-2, reg_param=0.1, gamma=0.5,
                )
            )
        )
        assert main(["select", str(p)]) == 0
        payload = json.loads((tmp_path / "o" / "selected.json").read_text())
        assert payload["features"] == ["x1"]
        assert payload["gates"]["x1"] == 1.0
        assert payload["gates"]["x2"] == 0.0
        assert payload["metadata"]["reg_param"] == 0.1

    def test_path_writes_ladder_csv(self, tmp_path):
        rng = np.random.default_rng(6)
        n = 300
        cols = {"a": rng.normal(size=n), "b": rng.normal(size=n)}
        cols["y"] = 2.0 * cols["a"] + 0.1 * rng.normal(size=n)
        csv = _write_csv(tmp_path / "t.csv", cols)
        p = tmp_path / "run.json"
        p.write_text(
            json.dumps(
                _base_cfg(csv, str(tmp_path / "o"), target="y", max_epochs=8, gamma=0.5)
            )
        )
        rc = main(["path", str(p), "--init-reg-param", "0.05", "--max-steps", "4"])
        assert rc == 0
        lines = (tmp_path / "o" / "path.csv").read_text().splitlines()
        assert lines[0] == "reg_param,num_feats,val_loss,val_score"
        assert 2 <= len(lines) <= 5
        first = lines[1].split(",")
        assert float(first[0]) == 0.05
        feats = json.loads((tmp_path / "o" / "feats.json").read_text())
        assert set(feats) == {"feats", "metadata"}

    def test_path_requires_init_reg_param(self, tmp_path, reg_run):
        with pytest.raises(SystemExit):
            main(["path", str(reg_run["cfg_path"])])


# --- explain / calibrate --------------------------------------------------------------


class TestExplain:
    def test_importance_and_shape_artifacts(self, reg_run, tmp_path):
        out = tmp_path / "exp"
        svg = tmp_path / "svg"
        rc = main(
            [
                "explain", reg_run["model"],
                "--data", reg_run["train_csv"],
                "--importance",
                "--shape", "x1",
                "--out-dir", str(out),
                "--svg-dir", str(svg),
            ]
        )
        assert rc == 0
        assert (out / "importance.csv").exists()
        assert (out / "shape_x1.csv").exists()
        assert (svg / "importance.svg").exists()
        assert (svg / "shape_x1.svg").exists()
        body = (out / "importance.csv").read_text()
        assert body.count("\nx1,feature") + body.count("\nx2,feature") == 2

    def test_no_action_flags_is_config_error(self, reg_run, capsys):
        assert main(["explain", reg_run["model"]]) == 2
        assert "nothing to do" in capsys.readouterr().err

    def test_importance_without_data_is_config_error(self, reg_run):
        assert main(["explain", reg_run["model"], "--importance"]) == 2

    @pytest.mark.parametrize("action, code", [
        ([], 2), (["--importance"], 2), (["--shape", "nope"], 3), (["--pair", "x1", "x2"], 3),
    ], ids=["none", "no_data", "unknown_shape", "unselected_pair"])
    def test_refusal_creates_no_directory(self, reg_run, tmp_path, action, code, capsys):
        out, svg = tmp_path / "exp", tmp_path / "svg"
        rc = main(["explain", reg_run["model"], *action,
                   "--out-dir", str(out), "--svg-dir", str(svg)])
        assert rc == code
        assert "Traceback" not in capsys.readouterr().err
        assert not out.exists() and not svg.exists()

    @pytest.mark.parametrize("top_n", ["0", "-1"])
    def test_nonpositive_top_n_is_config_error(self, reg_run, tmp_path, top_n, capsys):
        out, svg = tmp_path / "exp", tmp_path / "svg"
        rc = main(["explain", reg_run["model"], "--data", reg_run["train_csv"],
                   "--importance", "--top-n", top_n,
                   "--out-dir", str(out), "--svg-dir", str(svg)])
        assert rc == 2
        assert "top_n" in capsys.readouterr().err
        assert not out.exists() and not svg.exists()

    def test_undecodable_inputs_are_data_errors(self, reg_run, tmp_path):
        bad = tmp_path / "model.json"
        bad.write_bytes(b'{"format": "\xff"}')
        assert main(["explain", str(bad), "--shape", "x1", "--out-dir", str(tmp_path)]) == 3
        data = tmp_path / "latin1.csv"
        data.write_bytes(b"x1,x2,y\n\xe9,2,3\n")
        rc = main(["explain", reg_run["model"], "--data", str(data), "--importance",
                   "--out-dir", str(tmp_path)])
        assert rc == 3

    def test_survival_shape_svg_per_grid_time(self, surv_run, tmp_path):
        out = tmp_path / "exp"
        svg = tmp_path / "svg"
        rc = main(
            [
                "explain", surv_run["model"],
                "--shape", "u",
                "--out-dir", str(out),
                "--svg-dir", str(svg),
            ]
        )
        assert rc == 0
        model = load_model(surv_run["model"])
        made = sorted(os.listdir(svg))
        assert made == [f"shape_u_t{i}.svg" for i in range(model.eval_times.size)]


class TestCalibrate:
    def test_writes_table_and_plots(self, surv_run, tmp_path):
        out = tmp_path / "cal"
        svg = tmp_path / "csvg"
        rc = main(
            [
                "calibrate", surv_run["model"], surv_run["train_csv"],
                "--bins", "4",
                "--out-dir", str(out),
                "--svg-dir", str(svg),
            ]
        )
        assert rc == 0
        lines = (out / "calibration.csv").read_text().splitlines()
        header = [l for l in lines if not l.startswith("# ")][0]
        assert header == "eval_time,bin,size,mean_pred,km_cdf"
        model = load_model(surv_run["model"])
        assert len(os.listdir(svg)) == model.eval_times.size

    def test_non_survival_model_is_config_error(self, reg_run, surv_run, tmp_path):
        rc = main(
            ["calibrate", reg_run["model"], surv_run["train_csv"],
             "--out-dir", str(tmp_path)]
        )
        assert rc == 2

    def test_task_is_checked_before_label_columns(self, reg_run, tmp_path, capsys):
        """A regression CSV has no time column; the task is the error named."""
        out = tmp_path / "cal"
        rc = main(["calibrate", reg_run["model"], reg_run["train_csv"], "--out-dir", str(out)])
        assert rc == 2
        assert "requires a survival model" in capsys.readouterr().err
        assert not out.exists()
