"""Time the parts of one training step: forward, loss, backward and Adam.

    python scripts/step_timing.py
    python scripts/step_timing.py --steps 20        # a quick smoke run

Builds a regression core at the default architecture (32 bins, so 33
cells per axis, embedding 16, one hidden layer of 32) and runs the steps
`_Split.run` runs on random bin codes at batch 128: `forward_pass`, the
MSE loss gradient, `backward_pass` and `Adam.step`. The mains phase is
timed over p = 1 and p = 12 features; the pairs phase over q = 2 pairs
of p = 8 features (33 x 33 cells each), with the mains frozen and passed
in through `eta_offset`. It prints one JSON line per case with the
median microseconds of each part and of the whole step.

It imports namlite from the ``src`` directory next to it, so running it
in two checkouts, one after the other and more than once, compares
their steps on the same host. BLAS runs on one thread unless the
environment says otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from namlite.core import (  # noqa: E402
    KernelConfig,
    backward_pass,
    flat_pair_codes,
    forward_pass,
    init_core,
)
from namlite.train import Adam, _MseObjective  # noqa: E402

BATCH = 128
N_ROWS = 4096
N_BINS = 32
PAIRS = [(0, 1), (2, 3)]
PAIR_FEATURES = 8


def time_steps(p: int, steps: int, seed: int, pairs: list | None = None) -> dict[str, float]:
    """Median microseconds of each part of `steps` steps over p features:
    mains steps, or with `pairs` pair steps on the frozen mains."""
    rng = np.random.default_rng(seed)
    core = init_core(np.full(p, N_BINS), 1, KernelConfig(), rng, pairs=pairs)
    codes = rng.integers(0, N_BINS + 1, size=(N_ROWS, p))
    obj = _MseObjective(rng.normal(size=N_ROWS))
    if pairs:
        pair_codes = flat_pair_codes(core, codes)
        mains = forward_pass(core, codes, compute_pairs=False).eta
        adam = Adam(core, {"pair": 0.0}, 5e-3)
    else:
        adam = Adam(core, {"feat": 0.0}, 5e-3)
    parts = {"forward_pass": [], "loss_grad": [], "backward_pass": [], "adam_step": []}
    clock = time.perf_counter
    for _ in range(steps):
        rows = rng.integers(0, N_ROWS, size=BATCH)
        batch = codes[rows]
        if pairs:
            kw = dict(pair_codes=pair_codes[rows], eta_offset=mains[rows], compute_feats=False)
        else:
            kw = dict(compute_pairs=False)
        t0 = clock()
        cache = forward_pass(core, batch, **kw)
        t1 = clock()
        _, d_eta = obj.loss_grad(cache.eta, rows)
        t2 = clock()
        grads = backward_pass(core, cache, d_eta, 0.0, 0.0)
        t3 = clock()
        adam.step(grads)
        t4 = clock()
        for name, (a, b) in zip(parts, ((t0, t1), (t1, t2), (t2, t3), (t3, t4))):
            parts[name].append(b - a)
    times = {name: np.asarray(v) for name, v in parts.items()}
    out = {name: float(np.median(v)) * 1e6 for name, v in times.items()}
    out["step"] = float(np.median(sum(times.values()))) * 1e6
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--steps", type=int, default=2000, help="timed steps per p (default 2000)")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    if args.steps < 1:
        ap.error("--steps must be at least 1")
    for p, pairs in ((1, None), (12, None), (PAIR_FEATURES, PAIRS)):
        us = time_steps(p, args.steps, args.seed, pairs)
        label = {"p": p} if pairs is None else {"p": p, "q": len(pairs)}
        print(json.dumps({**label, "batch": BATCH, "steps": args.steps,
                          "median_us": {k: round(v, 1) for k, v in us.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
