"""The benchmark's own checks: they pass on real outputs and fail on corrupted ones.

    python3 -m pytest -q bench/tests

Each workload runs one round at a reduced size, then every
corruption is applied to a copy of the outputs and the check that should
catch it must fail. No check may pass vacuously. These tests train
models and take a minute or two, so they stay out of the tier-1 run
(``pyproject.toml`` points pytest at ``tests/``).
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import worker  # noqa: E402  (puts src/ on sys.path and imports namlite)
from workloads import CHECKS, MAINS_SIGNAL, PAIRS_PLANTED, WORKLOADS  # noqa: E402

# Smallest sizes at which the quality checks still pass on seed 1.
TINY = {"mains": 0.25, "pairs": 0.5, "survival": 0.5}


def _run(name: str):
    wl = WORKLOADS[name]
    inputs = wl.make(1, n_calls=20, scale=TINY[name])
    worker.RESULTS.mkdir(exist_ok=True)
    model_path = worker.RESULTS / f"test-{name}.model.json"
    try:
        _, out = worker.run_round(wl, inputs, model_path, None)
    finally:
        model_path.unlink(missing_ok=True)
    assert out is not None
    return wl, inputs, out


@pytest.fixture(scope="module")
def mains():
    return _run("mains")


@pytest.fixture(scope="module")
def pairs():
    return _run("pairs")


@pytest.fixture(scope="module")
def survival():
    return _run("survival")


@pytest.fixture(params=sorted(WORKLOADS))
def run(request):
    return request.getfixturevalue(request.param)


def failed(run, **changes) -> set[str]:
    wl, inputs, out = run
    return {k for k, ok in CHECKS[wl.name](inputs, dict(out, **changes)).items() if not ok}


def test_checks_pass_on_real_outputs(run):
    assert failed(run) == set()


SHUFFLE_CAUGHT_BY = {
    "mains": "mse_vs_truth",
    "pairs": "auc_floor",
    "survival": "concordance_floor",
}


def test_shuffled_predictions(run):
    wl, _, out = run
    perm = np.random.default_rng(0).permutation(len(out["pred"]))
    shuffled = np.asarray(out["pred"])[perm]
    caught = failed(run, pred=shuffled, loaded_pred=shuffled)
    assert SHUFFLE_CAUGHT_BY[wl.name] in caught
    assert "single_row_equals_batch" in caught


def test_single_row_mismatch(run):
    rows = np.asarray(run[2]["row_pred"]).copy()
    rows[3] += 1e-9
    assert "single_row_equals_batch" in failed(run, row_pred=rows)


def test_save_load_mismatch(run):
    loaded = np.asarray(run[2]["pred"]).copy()
    loaded.flat[0] = np.nextafter(loaded.flat[0], np.inf)
    assert "save_load_bit_identical" in failed(run, loaded_pred=loaded)
    assert "save_load_hash" in failed(run, loaded_hash="0" * 64)


def test_empty_export(run):
    assert "exports_rendered" in failed(run, exports=[("svg", "")])


def test_dropped_signal_feature(mains):
    out = mains[2]
    dropped = MAINS_SIGNAL[0]
    path_last = tuple(f for f in out["path_last"] if f != dropped)
    assert "path_keeps_signal" in failed(mains, path_last=path_last)
    importance = {mode: [(n, s) for n, s in entries if n != dropped]
                  for mode, entries in out["importance"].items()}
    assert "signal_outranks_noise" in failed(mains, importance=importance)
    demoted = {mode: [(n, 0.0 if n == dropped else s) for n, s in entries]
               for mode, entries in out["importance"].items()}
    assert "signal_outranks_noise" in failed(mains, importance=demoted)


def test_reversed_monotone_shape(mains):
    shapes = dict(mains[2]["shapes"])
    labels, mean = shapes["dose"]
    mean = np.asarray(mean)
    shapes["dose"] = (labels, np.concatenate([mean[:1], mean[1:][::-1]]))
    assert "monotone_nondecreasing" in failed(mains, shapes=shapes)


def test_reversed_periodic_shape(mains):
    shapes = dict(mains[2]["shapes"])
    labels, mean = shapes["wave"]
    shapes["wave"] = (labels, -np.asarray(mean))
    assert "periodic_correlates" in failed(mains, shapes=shapes)


def test_wrong_pair(pairs):
    shapes = dict(pairs[2]["pair_shapes"])
    other = next(k for k in shapes if k != PAIRS_PLANTED)
    wrong = {**shapes, PAIRS_PLANTED: shapes[other]}
    assert "planted_surface_follows_truth" in failed(pairs, pair_shapes=wrong)
    flipped = {**shapes, PAIRS_PLANTED: -np.asarray(shapes[PAIRS_PLANTED])}
    assert "planted_surface_follows_truth" in failed(pairs, pair_shapes=flipped)
    missing = {k: v for k, v in shapes.items() if k != PAIRS_PLANTED}
    assert "planted_surface_follows_truth" in failed(pairs, pair_shapes=missing)


def test_base_rate_predictor(pairs):
    _, inputs, out = pairs
    base = np.full(len(out["pred"]), float(np.mean(inputs.y_train)))
    assert {"beats_base_rate", "auc_floor"} <= failed(pairs, pred=base)


def test_shifted_survival_cdf(survival):
    shifted = np.clip(np.asarray(survival[2]["pred"]) + 0.1, 0.0, 1.0)
    assert "mean_cdf_tracks_truth" in failed(survival, pred=shifted)


def test_calibration_sizes(survival):
    sizes = [list(s) for s in survival[2]["calibration_sizes"]]
    sizes[0][0] -= 1
    assert "calibration_sizes_sum" in failed(survival, calibration_sizes=sizes)
