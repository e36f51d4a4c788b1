"""Steadiness report: run each workload once per seed and print, for every
end-to-end metric, its median, quartiles and spread next to its bound.

    python3 bench/steady.py --seeds 1-10

The spread is (q3 - q1) / median over the runs, with the quartiles of
`statistics.quantiles(values, n=4)`.  Beside each calibrated time the
same statistic of its raw wall-clock counterpart is printed, so the
benefit of timing in ref units is measured, not assumed.  Run from the
root of a checkout; the workloads, run length and bounds come from
BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# the raw wall-clock diagnostic printed beside each calibrated metric
RAW_OF = {"setup_s": "setup_s", "job_p50": "job_ms_p50", "job_p90": "job_ms_p90", "jobs_per_kref": "jobs_per_s",
          "recheck_p50": "recheck_ms_p50", "recheck_p90": "recheck_ms_p90"}


def seeds_arg(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(median, q1, q3, (q3 - q1) / median)."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def run_once(workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, cwd=ROOT, timeout=300)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stderr}")
    diag = next(json.loads(line.removeprefix("diagnostics: "))
                for line in lines if line.startswith("diagnostics: "))
    return json.loads(lines[-1]), diag


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    args = ap.parse_args(argv)
    seconds = bench["run_seconds"]

    worst, worst_at = 0.0, ""
    for workload in (w["name"] for w in bench["workloads"]):
        results = []
        for seed in args.seeds:
            result, diag = run_once(workload, seed, seconds)
            results.append((result, diag))
            print(f"# {workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} inputs {diag['digest'][:12]}")
            print("#   " + "  ".join(f"{k}={v['value']:.4g} {diag['units'][k]} (n={diag['n'][k]})"
                                     for k, v in result["metrics"].items()))
            print("#   raw " + "  ".join(f"{k}={v:.4g}" for k, v in diag["raw"].items()))
            for name, kind, failure, k in diag["failures"]:
                print(f"#   failed {name} {kind}: {failure} x{k}")
            for slot, outcome in diag["probes"].items():
                print(f"#   known-defect probe {slot}: {outcome}", flush=True)
        if len(results) < 2:
            continue  # quartiles need two runs
        print(f"{workload}: {len(results)} runs, seeds {args.seeds[0]}..{args.seeds[-1]}, "
              f"{seconds} s each")
        print(f"  {'metric':<14} {'median':>11} {'q1':>11} {'q3':>11} {'spread':>8} "
              f"{'bound':>6}  {'raw spread':>10}")
        for metric in bench["end_to_end"]:
            name = metric["name"]
            med, q1, q3, sp = spread([r["metrics"][name]["value"] for r, _ in results])
            if sp / metric["bound"] > worst:
                worst, worst_at = sp / metric["bound"], f"{workload} {name}"
            raw = ""
            if name in RAW_OF:
                raw = f"{spread([d['raw'][RAW_OF[name]] for _, d in results])[3]:10.4f}"
            print(f"  {name:<14} {med:11.5g} {q1:11.5g} {q3:11.5g} {sp:8.4f} "
                  f"{metric['bound']:6.3f}  {raw}")
        if not all(r["correct"] for r, _ in results):
            print(f"  INCORRECT runs: {[s for s, (r, _) in zip(args.seeds, results) if not r['correct']]}")
    print(f"largest spread / bound: {worst:.3f} ({worst_at})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
