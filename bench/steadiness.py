"""Run-to-run spread of the end-to-end metrics, as used to set the bounds.

    python3 bench/steadiness.py --workloads mains pairs survival --seeds 1-10

Runs ``run.py`` once per (workload, seed), one after another, and prints
for every end-to-end metric its median, first and third quartile
(``statistics.quantiles(values, n=4)``) and the spread (Q3 - Q1) / median
next to the metric's bound in ``BENCHMARK.json``. Spreads above a third
of the bound are marked. Raw figures go to ``bench/results/steadiness.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workloads", nargs="+", default=["mains", "pairs", "survival"])
    ap.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    runs: dict[str, list[dict]] = {}
    for wl in args.workloads:
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", wl,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                 "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False,
            )
            if proc.returncode != 0:
                print(f"{wl} seed {seed}: exit code {proc.returncode}", file=sys.stderr)
                return 1
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            runs.setdefault(wl, []).append(dict(res, seed=seed))
            print(f"{wl} seed {seed}: correct={res['correct']} "
                  f"failed={res['failed']}/{res['attempted']}", flush=True)

    summary = {}
    for wl, results in runs.items():
        print(f"\n{wl} ({len(results)} runs)")
        print(f"{'metric':22s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
        summary[wl] = {}
        for name, bound in bounds.items():
            vals = [r["metrics"][name]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            flag = "" if spread <= bound / 3 else "  > bound/3"
            print(f"{name:22s} {med:12.5g} {q1:12.5g} {q3:12.5g} {spread:8.3f} {bound:6.2f}{flag}")
            summary[wl][name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                                 "bound": bound, "values": vals}
        shares = {r["failed"] / r["attempted"] for r in results}
        print(f"failed share per run: {sorted(shares)}; all correct: "
              f"{all(r['correct'] for r in results)}")
    out = HERE / "results" / "steadiness.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
