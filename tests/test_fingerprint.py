"""The equivalence check in scripts/output_fingerprint.py: its compare rule."""

import copy
import importlib.util
import os
import sys
from pathlib import Path
from unittest import mock

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "output_fingerprint.py"


@pytest.fixture(scope="module")
def compare():
    spec = importlib.util.spec_from_file_location("output_fingerprint", SCRIPT)
    mod = importlib.util.module_from_spec(spec)
    # The script pins BLAS threads and puts src on the path for its own runs.
    with mock.patch.dict(os.environ), mock.patch.object(sys, "path", list(sys.path)):
        spec.loader.exec_module(mod)
    return mod.compare


def _doc():
    return {
        "fits": {
            "cls": {"predictions": [0.25, 0.5, 0.75], "selected_feats": ["x00", "x01"],
                    "selected_pairs": [["x00", "x01"]]},
            "surv": {"predictions": [[0.1, 0.2], [0.3, 0.4]], "selected_feats": ["x00"],
                     "selected_pairs": []},
        },
        "select_features": {"reg": {"gate_values": {"x00": 0.5374305468505918, "x01": 0.0},
                                    "selected_feats": ["x00"], "selected_pairs": []}},
        "regularization_path": {"reg": [[1e-4, 2, 0.8125, 0.5, ["x00", "x01"]]]},
    }


def _shift(doc, eps):
    """Every float of `doc` moved by `eps`."""
    if isinstance(doc, dict):
        return {k: _shift(v, eps) for k, v in doc.items()}
    if isinstance(doc, list):
        return [_shift(v, eps) for v in doc]
    return doc + eps if isinstance(doc, float) else doc


def test_last_bit_drift_passes(compare):
    problems, worst = compare(_doc(), _shift(_doc(), 1e-15))
    assert problems == []
    assert 0 < worst < 1e-14


def test_drift_beyond_tolerance_fails(compare):
    moved = _doc()
    moved["fits"]["surv"]["predictions"][1][0] += 1e-9
    problems, worst = compare(_doc(), moved)
    assert len(problems) == 1 and "fits.surv.predictions[1][0]" in problems[0]
    assert worst == pytest.approx(1e-9)


def test_changed_selected_pairs_fail(compare):
    moved = copy.deepcopy(_doc())
    moved["fits"]["cls"]["selected_pairs"] = [["x00", "x02"]]
    problems, _ = compare(_doc(), moved)
    assert problems and "fits.cls.selected_pairs" in problems[0]
    moved = copy.deepcopy(_doc())
    moved["fits"]["cls"]["selected_pairs"] = []
    assert compare(_doc(), moved)[0]


def test_counts_and_keys_must_match(compare):
    moved = copy.deepcopy(_doc())
    moved["regularization_path"]["reg"][0][1] = 3
    assert compare(_doc(), moved)[0]
    del moved["fits"]["surv"]
    assert compare(_doc(), moved)[0]
