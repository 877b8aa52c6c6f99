"""Time the three parts of one training step: forward, backward and Adam.

    python scripts/step_timing.py
    python scripts/step_timing.py --steps 20        # a quick smoke run

Builds a mains-only regression core at the default architecture (32
bins, embedding 16, one hidden layer of 32) over p = 1 and p = 12
features, and runs the steps `_Split.run` runs in a mains phase on
random bin codes at batch 128: `forward_pass`, the MSE loss gradient,
`backward_pass` and `Adam.step`. It prints one JSON line per p with the
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

from namlite.core import KernelConfig, backward_pass, forward_pass, init_core  # noqa: E402
from namlite.train import Adam, _MseObjective  # noqa: E402

BATCH = 128
N_ROWS = 4096
N_BINS = 32


def time_steps(p: int, steps: int, seed: int) -> dict[str, float]:
    """Median microseconds of each part of `steps` mains steps over p features."""
    rng = np.random.default_rng(seed)
    core = init_core(np.full(p, N_BINS), 1, KernelConfig(), rng)
    codes = rng.integers(0, N_BINS + 1, size=(N_ROWS, p))
    obj = _MseObjective(rng.normal(size=N_ROWS))
    adam = Adam(core, {"feat": 0.0}, 5e-3)
    parts = {"forward_pass": [], "loss_grad": [], "backward_pass": [], "adam_step": []}
    clock = time.perf_counter
    for _ in range(steps):
        rows = rng.integers(0, N_ROWS, size=BATCH)
        batch = codes[rows]
        t0 = clock()
        cache = forward_pass(core, batch, compute_pairs=False)
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
    for p in (1, 12):
        us = time_steps(p, args.steps, args.seed)
        print(json.dumps({"p": p, "batch": BATCH, "steps": args.steps,
                          "median_us": {k: round(v, 1) for k, v in us.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
