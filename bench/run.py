"""dmsgd benchmark: CLI jobs run back to back through ``dmsgd.harness.main``.

Run from the root of a checkout:

    python3 bench/run.py --workload many_agents --seed 0 --seconds 35 --trace 0
    python3 bench/run.py --smoke      # every workload at tiny sizes, a few seconds
    python3 bench/run.py --pin        # rewrite bench/pins.json from this checkout

The load is a closed loop with one client: one CLI command at a time, in
process, each started when the previous one returns.  A job is a workload's
whole command sequence; jobs repeat until ``--seconds`` is used up.  With
``--trace 0`` the last stdout line holds the end-to-end metrics; with
``--trace 1`` untraced and traced jobs alternate and it holds the per-layer
metrics, including the tracing overhead.  Outputs of every job are checked
against ``bench/pins.json``.  The program is always imported from ``src/``
of the checkout; without it the benchmark exits with code 2.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import warnings
from time import perf_counter

from outputs import DEFAULT_SEED, PINS_PATH, failures, load_pins, observe_job, pin_key
from tracer import Tracer, layer_table, reduce_spans
from workloads import SMOKE, WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")

# the end-to-end metrics BENCHMARK.json declares; their bounds live there
END_TO_END = [("setup_s", "s"), ("peak_rss_mb", "MB")]
# printed beside them, not declared: the job time and, where the workload runs
# the command, each command's time.  Over ten runs on a shared 2-vCPU VM their
# spread exceeded 0.25, the largest bound BENCHMARK.json allows.
JOB_METRIC = ("job_s", "s")
COMMAND_METRICS = [("run_s", "s"), ("bounds_s", "s"), ("check_s", "s"), ("sweep_s", "s")]

# (name, unit, source, key): how each per-layer metric is read off the spans
PER_LAYER = [
    ("topology.build_s", "s", "time", "topology.build"),
    ("topology.spectrum_s", "s", "time", "topology.spectrum"),
    ("topology.spectrum_calls", "count", "calls", "topology.spectrum"),
    ("objectives.suite_s", "s", "time", "objectives.suite"),
    ("objectives.optimum_s", "s", "time", "objectives.optimum"),
    ("objectives.optimum_calls", "count", "calls", "objectives.optimum"),
    ("objectives.oracle_s", "s", "time", "objectives.oracle"),
    ("objectives.oracle_calls", "count", "calls", "objectives.oracle"),
    ("objectives.eval_s", "s", "time", "objectives.eval"),
    ("objectives.eval_calls", "count", "calls", "objectives.eval"),
    ("optimizer.run_s", "s", "time", "optimizer.run"),
    ("optimizer.run_self_s", "s", "self", "optimizer.run"),
    ("optimizer.step_s", "s", "time", "optimizer.step"),
    ("optimizer.step_calls", "count", "calls", "optimizer.step"),
    ("optimizer.agent_iters", "count", "count", "agent_iters"),
    ("optimizer.aborted_runs", "count", "count", "aborted_runs"),
    ("bounds.eval_s", "s", "time", "bounds.eval"),
    ("bounds.calls", "count", "calls", "bounds.eval"),
    ("verify.check_s", "s", "time", "verify.check"),
    ("verify.check_calls", "count", "calls", "verify.check"),
    ("harness.scenario_s", "s", "time", "harness.scenario"),
    ("harness.scenario_calls", "count", "calls", "harness.scenario"),
    ("harness.pilot_s", "s", "time", "harness.pilot"),
    ("harness.pilot_self_s", "s", "self", "harness.pilot"),
    ("harness.write_s", "s", "time", "harness.write"),
    ("harness.rows_written", "count", "count", "rows_written"),
    ("harness.bytes_written", "count", "count", "bytes_written"),
    ("harness.read_s", "s", "time", "harness.read"),
    ("harness.rows_read", "count", "count", "rows_read"),
    ("harness.pool_span_ratio", "1", "ratio", None),
    ("harness.runtime_warnings", "count", "count", "runtime_warnings"),
    ("cli.run_s", "s", "cli", "run"),
    ("cli.bounds_s", "s", "cli", "bounds"),
    ("cli.check_s", "s", "cli", "check"),
    ("cli.sweep_s", "s", "cli", "sweep"),
    ("trace.overhead_s", "s", "overhead", None),
]
POOLED_COMMANDS = ("run", "sweep")  # the commands that start a ThreadPoolExecutor
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def import_program():
    """Import dmsgd from this checkout's src/, never from anywhere else."""
    if not os.path.isfile(os.path.join(SRC, "dmsgd", "__init__.py")):
        print(f"error: no dmsgd sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    import dmsgd
    from dmsgd import bounds, harness, objectives, optimizer

    if os.path.dirname(os.path.abspath(dmsgd.__file__)) != os.path.join(SRC, "dmsgd"):
        print(f"error: dmsgd imported from {dmsgd.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)
    return harness, optimizer, bounds, objectives


# ------------------------------------------------------------- statistics


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def high_percentile(values):
    """(label, value) of the highest percentile with >= 10 samples beyond it,
    or None when that percentile would not lie above the median."""
    n = len(values)
    if n < 21:
        return None
    return f"p{100 * (n - 10) // n}", sorted(values)[n - 11]


# -------------------------------------------------------------------- jobs


class Job:
    """One pass of a workload's command sequence and what it produced."""

    def __init__(self, cmd_s, latencies, ops):
        self.cmd_s, self.latencies, self.ops = cmd_s, latencies, ops
        self.wall_s = sum(cmd_s.values())
        self.layers = None  # per-layer totals, set for traced jobs


def run_job(program, workload, cfg_path, job_dir, seed):
    harness = program[0]
    os.makedirs(job_dir)
    cmd_s, latencies, exit_codes = {}, [], {}
    for op, kind, argv in workload.commands(cfg_path, job_dir, seed):
        t0 = perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            exit_codes[op] = harness.main(argv)
        dt = perf_counter() - t0
        cmd_s[kind] = cmd_s.get(kind, 0.0) + dt
        latencies.append((kind, dt))
    ops = observe_job(workload, job_dir, seed, exit_codes)
    shutil.rmtree(job_dir)
    return Job(cmd_s, latencies, ops)


def run_traced_job(program, tracer, workload, cfg_path, job_dir, seed):
    with warnings.catch_warnings(record=True) as caught, tracer.installed():
        warnings.simplefilter("always", RuntimeWarning)
        job = run_job(program, workload, cfg_path, job_dir, seed)
    pooled_wall = sum(job.cmd_s.get(kind, 0.0) for kind in POOLED_COMMANDS)
    time_s, calls, self_s, counts, ratio = reduce_spans(
        tracer.take(), threading.get_ident(), pooled_wall)
    counts["runtime_warnings"] = sum(issubclass(w.category, RuntimeWarning) for w in caught)
    job.layers = {"time": time_s, "calls": calls, "self": self_s, "count": counts, "ratio": ratio}
    return job


SETUP_SLOT_S = 1.0


def measure_setup(harness, cfg_path):
    """Seconds of one build_scenario(load_config(path)): the mean over a batch
    of builds that lasts at least SETUP_SLOT_S.

    A batch runs before every job, so the samples are spread over the whole
    run the way the jobs are, not bunched at its start.
    """
    builds, t0 = 0, perf_counter()
    while builds == 0 or perf_counter() - t0 < SETUP_SLOT_S:
        harness.build_scenario(harness.load_config(cfg_path))
        builds += 1
    return (perf_counter() - t0) / builds


def measure(program, workload, seed, seconds, trace, work_dir, min_jobs=2):
    """Run set-up batches and jobs back to back for about ``seconds``.

    Returns (setup samples, untraced jobs, traced jobs).  Untraced runs take
    a setup batch before each job; traced runs follow each untraced job with
    a traced one instead.  Everything, output checks included, counts against
    ``seconds``; the next round starts only if one more round as long as the
    last would still end within it.
    """
    cfg_path = os.path.join(work_dir, "workload.cfg")
    with open(cfg_path, "w", encoding="utf-8") as fh:
        fh.write(workload.config_text(seed))
    tracer = Tracer(layer_table(*program)) if trace else None
    setup, jobs, traced = [], [], []
    start = perf_counter()
    while True:
        round_start = perf_counter()
        if not trace:
            setup.append(measure_setup(program[0], cfg_path))
        jobs.append(run_job(program, workload, cfg_path,
                            os.path.join(work_dir, f"job{len(jobs)}"), seed))
        if trace:
            traced.append(run_traced_job(program, tracer, workload, cfg_path,
                                         os.path.join(work_dir, f"traced{len(traced)}"), seed))
        now = perf_counter()
        if len(jobs) >= min_jobs and (now - start) + (now - round_start) > seconds:
            return setup, jobs, traced


# ----------------------------------------------------------------- results


def end_to_end(setup, jobs):
    """{name: (unit, samples)} for the gated metrics plus the job and command times."""
    kinds = {k for job in jobs for k in job.cmd_s}
    out = {
        "setup_s": ("s", setup),
        "peak_rss_mb": ("MB", [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0]),
        "job_s": ("s", [j.wall_s for j in jobs]),
    }
    for name, unit in COMMAND_METRICS:
        kind = name[:-2]
        if kind in kinds:
            out[name] = (unit, [j.cmd_s[kind] for j in jobs])
    return out


def per_layer(jobs, traced):
    """{name: (value, unit)} from the traced jobs; counts must agree across them."""
    out, unstable = {}, []
    for name, unit, source, key in PER_LAYER:
        if source == "cli":
            values = [j.cmd_s.get(key, 0.0) for j in jobs]
        elif source == "overhead":
            values = [statistics.median(t.wall_s for t in traced)
                      - statistics.median(j.wall_s for j in jobs)]
        elif source == "ratio":
            values = [t.layers["ratio"] for t in traced]
        else:
            default = 0 if unit == "count" else 0.0
            values = [t.layers[source].get(key, default) for t in traced]
        if unit == "count" and len(set(values)) > 1:
            unstable.append(name)
        out[name] = (statistics.median(values) if unit != "count" else values[0], unit)
    return out, unstable


def git_commit(root):
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def source_digest():
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "dmsgd")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode("utf-8"))
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def provenance(seed, seconds, trace, n_jobs):
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "commit": git_commit(ROOT),
        "src_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "dmsgd_log": os.environ.get("DMSGD_LOG"),
        "seed": seed,
        "run_seconds": seconds,
        "trace": trace,
        "jobs": n_jobs,
    }


def report(workload, seed, seconds, trace, setup, jobs, traced, pinned):
    """Print the human-readable report; return the final result object."""
    failed_ops, attempted = [], 0
    for job in jobs + traced:
        attempted += len(job.ops)
        failed_ops += failures(job.ops, pinned, seed)
    print(f"dmsgd-bench workload={workload.name} seed={seed} trace={trace} "
          f"run_seconds={seconds} jobs={len(jobs)} traced_jobs={len(traced)}")
    if trace:
        layers, unstable = per_layer(jobs, traced)
        for name, (value, unit) in layers.items():
            print(f"  {name} = {value:.6g} {unit}")
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in layers.items()}
        if unstable:
            print(f"  counts differ between traced jobs: {', '.join(unstable)}")
    else:
        unstable = []
        e2e = end_to_end(setup, jobs)
        for name, (unit, values) in e2e.items():
            q1, q3 = quartiles(values)
            hp = high_percentile(values)
            tail = f", {hp[0]} {hp[1]:.6g}" if hp else ""
            print(f"  {name} = {statistics.median(values):.6g} {unit}  "
                  f"[median of {len(values)}, q1 {q1:.6g}, q3 {q3:.6g}{tail}]")
        metrics = {name: {"value": statistics.median(e2e[name][1]), "unit": unit}
                   for name, unit in END_TO_END}
    print(f"  fail_ratio = {len(failed_ops) / max(attempted, 1):.6g} 1  "
          f"[{len(failed_ops)} of {attempted} operations failed"
          + (f": {', '.join(sorted(set(failed_ops)))}]" if failed_ops else "]"))
    by_kind = {}
    for job in jobs:
        for kind, dt in job.latencies:
            by_kind.setdefault(kind, []).append(dt)
    for kind, values in by_kind.items():
        hp = high_percentile(values)
        tail = f" {hp[0]} {hp[1]:.6g} s" if hp else " (fewer than 21 samples, no tail percentile)"
        print(f"  latency {kind}: n={len(values)} median {statistics.median(values):.6g} s{tail}")
    print("provenance " + json.dumps(provenance(seed, seconds, trace, len(jobs)), sort_keys=True))
    return {"correct": not failed_ops and not unstable, "attempted": attempted,
            "failed": len(failed_ops), "metrics": metrics}


# -------------------------------------------------------------------- modes


def new_work_dir():
    path = os.path.join(WORK, f"run-{os.getpid()}")
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def remove_work_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    with contextlib.suppress(OSError):
        os.rmdir(WORK)  # only when no other run is using it


def cmd_measure(program, args):
    workload = WORKLOADS[args.workload]
    pinned = load_pins().get(pin_key(workload.name, smoke=False), {})
    work_dir = new_work_dir()
    try:
        measured = measure(program, workload, args.seed, args.seconds, bool(args.trace), work_dir)
    finally:
        remove_work_dir(work_dir)
    result = report(workload, args.seed, args.seconds, args.trace, *measured, pinned)
    print(json.dumps(result))
    return 0


def cmd_smoke(program):
    """Every workload at smoke size, untraced and traced, checked end to end."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    problems = [f"BENCHMARK.json lacks {name} ({unit})" for name, unit, *_ in END_TO_END + PER_LAYER
                if declared.get(name) != unit]
    pins = load_pins()
    work_dir = new_work_dir()
    try:
        for name, workload in SMOKE.items():
            pinned = pins.get(pin_key(name, smoke=True), {})
            for trace in (0, 1):
                out = io.StringIO()
                measured = measure(program, workload, 0, 0, bool(trace), work_dir, min_jobs=1)
                with contextlib.redirect_stdout(out):
                    result = report(workload, 0, 0, trace, *measured, pinned)
                text = out.getvalue()
                print(text, end="")
                wanted = [(m, u) for m, u, *_ in (PER_LAYER if trace else END_TO_END)]
                if not trace:
                    kinds = {k for _, k, _ in workload.commands("", "", 0)}
                    wanted += [JOB_METRIC] + [(m, u) for m, u in COMMAND_METRICS if m[:-2] in kinds]
                    wanted.append(("fail_ratio", "1"))
                lines = [line.split() for line in text.splitlines()]
                printed = {t[0]: t[3] for t in lines if len(t) >= 4 and t[1] == "="}
                problems += [f"{name}: {metric} not printed with unit {unit}"
                             for metric, unit in wanted if printed.get(metric) != unit]
                if result["failed"] or not result["correct"]:
                    problems.append(f"{name}: fail_ratio {result['failed']}/{result['attempted']}")
    finally:
        remove_work_dir(work_dir)
    for problem in problems:
        print(f"SMOKE FAIL {problem}")
    print("smoke ok" if not problems else f"smoke failed ({len(problems)} problems)")
    return 1 if problems else 0


def cmd_pin(program):
    """Record every operation's output at the default seed as the reference."""
    pins = {"_provenance": provenance(DEFAULT_SEED, 0, 0, 1)}
    work_dir = new_work_dir()
    try:
        for smoke, table in ((False, WORKLOADS), (True, SMOKE)):
            for name, workload in table.items():
                cfg_path = os.path.join(work_dir, f"{pin_key(name, smoke)}.cfg")
                with open(cfg_path, "w", encoding="utf-8") as fh:
                    fh.write(workload.config_text(DEFAULT_SEED))
                job = run_job(program, workload, cfg_path,
                              os.path.join(work_dir, pin_key(name, smoke)), DEFAULT_SEED)
                pins[pin_key(name, smoke)] = job.ops
                print(f"pinned {pin_key(name, smoke)}: {len(job.ops)} operations")
    finally:
        remove_work_dir(work_dir)
    with open(PINS_PATH, "w", encoding="utf-8") as fh:
        fh.write(dump_pins(pins))
    return 0


def dump_pins(pins):
    """JSON with one line per operation, so a changed pin shows as one diff line."""
    blocks = []
    for key in sorted(pins):
        if key == "_provenance":
            blocks.append(f' "{key}": {json.dumps(pins[key], sort_keys=True)}')
            continue
        ops = ",\n".join(f'  "{op}": {json.dumps(pins[key][op], sort_keys=True)}'
                         for op in sorted(pins[key]))
        blocks.append(f' "{key}": {{\n{ops}\n }}')
    return "{\n" + ",\n".join(blocks) + "\n}\n"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="check the benchmark itself at tiny sizes")
    parser.add_argument("--pin", action="store_true", help="rewrite pins.json from this checkout")
    args = parser.parse_args(argv)
    if not (args.smoke or args.pin or args.workload):
        parser.error("give --workload, --smoke or --pin")
    program = import_program()
    if args.smoke:
        return cmd_smoke(program)
    if args.pin:
        return cmd_pin(program)
    return cmd_measure(program, args)


if __name__ == "__main__":
    sys.exit(main())
