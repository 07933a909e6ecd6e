"""Output correctness: what a job produced, compared with what this benchmark
pinned when it was defined.

An operation is one CLI command, plus each seed trace, sweep cell and check
inside it.  It fails when its exit code differs from the pinned one, when its
row count differs, when a column is non-finite where the pinned output is
finite, or (at the default seed only) when the sha256 of its numeric rows
differs from the pinned digest.  Digests cover the data rows only, never the
``#`` metadata lines or the header, so metadata added to the CSV files later
does not count as a failure.
"""

from __future__ import annotations

import hashlib
import json
import math
import os

DEFAULT_SEED = 0
PINS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "pins.json")


def _finite(value):
    try:
        return math.isfinite(float(value))
    except ValueError:
        return True  # a text column (status, topology name) has no finiteness


def _digest(lines):
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


def read_rows(path):
    """(header, data rows) of a dmsgd CSV file, metadata lines dropped."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln for ln in fh.read().splitlines() if ln and not ln.startswith("#")]
    if not lines:
        return [], []
    return lines[0].split(","), lines[1:]


def file_record(path):
    header, rows = read_rows(path)
    finite = [all(_finite(r.split(",")[i]) for r in rows) for i in range(len(header))]
    return {"rows": len(rows), "finite": finite, "sha256": _digest(rows)}


def observe_job(workload, out, seed, exit_codes):
    """Every operation of one job with what it produced, keyed by a seed-free name."""
    ops = {name: {"exit": code} for name, code in exit_codes.items()}
    for label, fname in workload.trace_files(seed):
        path = os.path.join(out, fname)
        ops[label] = file_record(path) if os.path.exists(path) else {"missing": True}
    for name in ("bounds", "sweep"):
        path = os.path.join(out, f"{name}.csv")
        if name in ops and os.path.exists(path):
            ops[name].update(file_record(path))
    if "sweep" in ops and os.path.exists(os.path.join(out, "sweep.csv")):
        header, rows = read_rows(os.path.join(out, "sweep.csv"))
        status_col = header.index("status")
        for i, row in enumerate(rows):
            cols = row.split(",")
            ops[f"cell[{i}]"] = {"status": cols[status_col], "finite": [_finite(c) for c in cols],
                                 "sha256": _digest([row])}
    return ops


def failures(observed, pinned, seed):
    """Names of the observed operations that fail against the pinned ones."""
    failed = [name for name in pinned if name not in observed]
    for name, obs in observed.items():
        pin = pinned.get(name)
        if pin is None or obs.get("missing"):
            failed.append(name)
            continue
        bad = any(obs.get(key) != pin[key] for key in ("exit", "rows", "status") if key in pin)
        if "finite" in pin:
            got = obs.get("finite", [])
            bad = bad or len(got) != len(pin["finite"]) or any(
                want and not have for want, have in zip(pin["finite"], got))
        if seed == DEFAULT_SEED and "sha256" in pin:
            bad = bad or obs.get("sha256") != pin["sha256"]
        if bad:
            failed.append(name)
    return sorted(set(failed))


def load_pins():
    with open(PINS_PATH, "r", encoding="utf-8") as fh:
        return json.load(fh)


def pin_key(workload_name, smoke):
    return f"{workload_name}@smoke" if smoke else workload_name
