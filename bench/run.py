"""Benchmark entry point: one workload (or all), one seed, one run.

    python3 bench/run.py --workload mains --seed 1 --seconds 38 --trace 0

Run from the repository root; namlite is imported from ``src/``. Set-up is
timed in several fresh worker processes, from spawn until the workload's
inputs exist, and the median is reported. One more worker then runs whole
rounds of the workload for about ``--seconds`` (at least two rounds).
With ``--trace 1`` the worker alternates untraced and traced rounds and the
per-layer metrics come from the traced ones.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; metric names and units are read from
``BENCHMARK.json``. With ``--workload all`` every workload runs in turn and
the metric names in that line are prefixed with the workload. The full record, tagged with core count, numpy version
and BLAS, goes to ``bench/results/``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
RESULTS = HERE / "results"
SETUP_REPEATS = 3  # setups timed per run, the last one in the measuring worker
TIMEOUT_S = 170  # the whole run, set-up included


def spawn_worker(args, workload: str, extra: list[str], timeout: float) -> tuple[float, dict]:
    """Run one worker; returns (spawn time, its JSON result)."""
    cmd = [sys.executable, str(WORKER), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), *extra]
    spawned = time.monotonic()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=max(timeout, 1.0), check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return spawned, json.loads(lines[-1])


def run_workload(args, workload: str, spec: dict) -> dict:
    """Set-up samples plus one measuring worker; prints and records the run."""
    deadline = time.monotonic() + TIMEOUT_S
    setups = []
    for extra in [["--setup-only"]] * (SETUP_REPEATS - 1) + [[]]:
        spawned, res = spawn_worker(args, workload, extra, deadline - time.monotonic())
        setups.append(res["ready"] - spawned)

    values = dict(res["metrics"], setup_s=statistics.median(setups))
    wanted = spec["end_to_end"]
    if args.trace:
        values = res["per_layer"]
        wanted = spec["per_layer"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    record = dict(res, workload=workload, seed=args.seed, trace=args.trace,
                  seconds=args.seconds, setup_samples_s=setups, reported=metrics)
    out = RESULTS / f"{workload}-s{args.seed}-t{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(f"== {workload}")
    for name, m in metrics.items():
        print(f"{name:40s} {m['value']:>16.6g} {m['unit']}")
    print(f"rounds {res['rounds']}, single-row calls {res['predict_row_calls']} "
          f"(p99 {res['metrics']['predict_row_p99_ms']:.4g} ms, not bounded), "
          f"checks failed: {res['check_failures'] or 'none'}, record {out}")
    return {"correct": res["correct"], "attempted": res["attempted"],
            "failed": res["failed"], "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, help="a workload name, or all")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "namlite" / "__init__.py").is_file():
        print(f"namlite sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    if args.workload != "all" and args.workload not in names:
        print(f"unknown workload {args.workload!r}; expected one of {names} or all",
              file=sys.stderr)
        return 2
    RESULTS.mkdir(exist_ok=True)

    results = {}
    for name in names if args.workload == "all" else [args.workload]:
        try:
            results[name] = run_workload(args, name, spec)
        except (RuntimeError, subprocess.TimeoutExpired) as e:
            print(f"benchmark run of {name} failed: {e}", file=sys.stderr)
            return 1
    if len(results) == 1:
        (summary,) = results.values()
    else:
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{wl}.{k}": v for wl, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
