"""Shared builders for small random models used across test modules."""

import re

import numpy as np
import pytest

from namlite.core import KernelConfig, init_core

# --- acceptance reporting ------------------------------------------------------

ACCEPTANCE_LABELS = {
    1: "gradient oracle",
    2: "smooth-step exactness",
    3: "kernel behavior",
    4: "additive recovery",
    5: "selection recovery",
    6: "interaction necessity",
    7: "centering identity",
    8: "survival oracles",
    9: "survival calibration",
    10: "monotone constraints",
    11: "missing-bin stratification",
    12: "reproducibility and persistence",
}

_CRITERION = re.compile(r"test_acceptance\.py::test_criterion_(\d+)")


def pytest_runtest_logreport(report):
    """One printed PASS/FAIL line per acceptance criterion."""
    m = _CRITERION.search(report.nodeid)
    if m is None:
        return
    if report.when != "call" and not (report.when == "setup" and report.failed):
        return
    num = int(m.group(1))
    status = "PASS" if report.passed else "FAIL"
    print(f"\n{status} criterion {num}: {ACCEPTANCE_LABELS[num]}", flush=True)


def tiny_core(
    rng,
    n_bins=(5, 3, 4),
    out_dim=1,
    embedding_dim=4,
    hidden_sizes=(6,),
    kernel=KernelConfig(phi=3.0, size=2),
    gates_trainable=True,
    pairs=None,
    mono_dir=None,
    link="identity",
    gamma=1.0,
):
    """A small randomly initialized core with nonzero output layers.

    init_core zero-initializes final layers so shapes start at 0; tests
    that need nonzero outputs perturb those layers here.
    """
    core = init_core(
        np.asarray(n_bins, dtype=np.int64),
        out_dim,
        kernel,
        rng,
        embedding_dim=embedding_dim,
        hidden_sizes=hidden_sizes,
        gates_trainable=gates_trainable,
        pairs=pairs,
        mono_dir=mono_dir,
        link=link,
        gamma=gamma,
        pair_gates_trainable=pairs is not None,
    )
    # Written in place: the arrays are views of the core's parameter buffer.
    W, b = core.feats.weights[-1]
    W[...] = rng.normal(scale=0.4, size=W.shape)
    b[...] = rng.normal(scale=0.2, size=b.shape)
    if core.pairs is not None:
        W, b = core.pairs.weights[-1]
        W[...] = rng.normal(scale=0.4, size=W.shape)
        b[...] = rng.normal(scale=0.2, size=b.shape)
    core.feats.mu[:] = rng.uniform(-0.3, 0.3, size=core.feats.mu.shape)
    if core.pairs is not None:
        core.pairs.mu[:] = rng.uniform(-0.3, 0.3, size=core.pairs.mu.shape)
    return core


def random_codes(rng, n, n_bins):
    """Codes drawn over the full index space including the missing bin."""
    n_bins = np.asarray(n_bins)
    return np.stack(
        [rng.integers(0, b + 1, size=n) for b in n_bins], axis=1
    ).astype(np.int64)


@pytest.fixture
def rng():
    return np.random.default_rng(20260814)
