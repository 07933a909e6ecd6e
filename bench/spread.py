"""Run-to-run spread of the benchmark, measured the way its bounds are judged.

    python3 bench/spread.py --workload many_seeds

Runs ``bench/run.py`` once for each of the seeds 0-9, one run at a time, for
BENCHMARK.json's ``run_seconds``, and prints for every end-to-end metric the
run prints (the gated ones and those printed beside them) the median, the
quartiles across runs, and their distance as a share of the median.  Beside a
gated metric stands its bound from BENCHMARK.json; a metric whose spread is
not below a third of its bound needs longer runs.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = range(10)


def printed_metrics(stdout):
    """{name: value} from the report's ``  name = value unit  [...]`` lines."""
    out = {}
    for line in stdout.splitlines():
        parts = line.split()
        if len(parts) >= 4 and parts[1] == "=" and line.startswith("  "):
            out[parts[0]] = float(parts[2])
    return out


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values = {}
    ok = True
    for seed in SEEDS:
        cmd = spec["command"] + ["--workload", args.workload, "--seed", str(seed),
                                 "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
            return 1
        result = json.loads(lines[-1])
        ok = ok and result["correct"] and result["failed"] == 0
        for name, value in printed_metrics(proc.stdout).items():
            if name != "fail_ratio":
                values.setdefault(name, []).append(value)
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']}/{result['attempted']} "
              + " ".join(f"{n}={v[-1]:.6g}" for n, v in values.items()), flush=True)

    print(f"\n{args.workload}: {len(SEEDS)} runs of {spec['run_seconds']} s")
    print(f"  {'metric':14s} {'median':>11s} {'q1':>11s} {'q3':>11s} {'spread':>8s} {'bound':>6s}")
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med
        if name in bounds:
            bound = bounds[name]
            verdict = "steady" if spread < bound / 3 else (
                "within bound" if spread <= bound else "TOO WIDE")
            tail = f"{bound:6.2f}  {verdict}"
        else:
            tail = f"{'-':>6s}  not gated"
        print(f"  {name:14s} {med:11.6g} {q1:11.6g} {q3:11.6g} {spread:8.3f} {tail}")
    print("all runs correct" if ok else "SOME RUNS FAILED OUTPUT CHECKS")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
