"""Configuration, input files, CSV trace/bound files, experiment sweeps, and the CLI.

Configs are flat ``section.key = value`` text files (``#`` starts a
comment).  Every file the package reads is read here: configs, dataset CSVs,
edge lists, traces and bounds.  A run writes one trace CSV per seed plus an averaged trace;
``bounds`` evaluates every bound of ``bounds.BOUNDS`` that applies to the config
and records each one the engine refuses; ``check`` verifies a trace against a
bounds file; ``sweep`` runs a small grid and emits a summary CSV.  Exit codes: 0 ok, 1 runtime error,
2 config/usage error, 3 bound violation.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import itertools
import logging
import math
import os
import sys
from dataclasses import asdict, dataclass, replace
from functools import partial

import numpy as np

from .bounds import BOUNDS, BoundInputs, check_bound_domination, evaluate_bounds
from .objectives import (
    Dataset,
    StochasticOracle,
    UnifiedObjective,
    agent_total,
    common_optimum,
    make_logistic,
    make_pl,
    make_quadratic,
    make_synthetic_dataset,
    partition_iid,
    partition_noniid,
    unified_optimum,
)
from .optimizer import HyperParams, RunTrace, run
from .topology import build_topology, metropolis_mixing, spectrum

log = logging.getLogger("dmsgd")

TRACE_HEADER = "k,consensus_err_max,consensus_err_stacked,gap,grad_norm_sq,running_avg_grad,step_norm,omega_used"
TRACE_COLUMNS = TRACE_HEADER.split(",")[1:]
BOUNDS_HEADER = "k,bound_name,value"
SWEEP_HEADER = "omega,beta,topology,option,seed,status,final_gap,final_consensus,mean_omega"
# each sweep.<axis> overrides one config key; the first five sweep columns
SWEEP_AXES = (("omega", "hp.omega"), ("beta", "hp.beta"), ("topology", "topology.kind"),
              ("option", "hp.option"), ("seed", "hp.seed"))
# each HyperParams field and the key that sets it, in the order a refused hp value's line names the keys
HP_KEYS = {"option": "hp.option", "schedule": "hp.schedule", "alpha": "hp.alpha", "schedule_b": "hp.B",
           "beta": "hp.beta", "omega": "hp.omega", "adaptive_scope": "hp.adaptive_scope", "iters": "hp.iters",
           "seed": "hp.seed"}
PILOT_ITERS = 200
PILOT_INFLATION = 1.05


class ConfigError(ValueError):
    """Malformed or inconsistent configuration (CLI exit code 2)."""


class InputFileError(ValueError):
    """Unreadable or malformed input file (CLI exit code 2)."""


class RuntimeFailure(RuntimeError):
    """Valid config that cannot be executed (CLI exit code 1)."""


# ----------------------------------------------------------------- config


def _parse_float(raw, key):
    """A finite float; nan and +-inf are config errors like any other bad number."""
    try:
        value = float(raw)
    except ValueError as exc:
        raise ConfigError(f"{key} must be a number, got {raw!r}") from exc
    if not math.isfinite(value):
        raise ConfigError(f"{key} must be finite, got {raw!r}")
    return value


def _parse_nonnegative(raw, key):
    value = _parse_float(raw, key)
    if value < 0:
        raise ConfigError(f"{key} must be >= 0, got {raw!r}")
    return value


def _parse_int(raw, key):
    try:
        return int(raw)
    except ValueError as exc:
        raise ConfigError(f"{key} must be an integer, got {raw!r}") from exc


def _parse_floats(raw, key):
    """'a;b;c' (or 'a,b,c') -> 1-d array; an empty entry is refused, never dropped."""
    values = raw.replace(";", ",").split(",")
    if not all(v.strip() for v in values):
        raise ConfigError(f"{key} has an empty entry: {raw!r}")
    return np.array([_parse_float(v, key) for v in values])


def _parse_vectors(raw, key):
    """'a,b;c,d' -> array of row vectors; an empty row is refused, never dropped."""
    chunks = raw.split(";")
    if not any(chunk.strip() for chunk in chunks):
        raise ConfigError(f"{key} has no rows: {raw!r}")
    if not all(chunk.strip() for chunk in chunks):
        raise ConfigError(f"{key} has an empty row: {raw!r}")
    rows = [[_parse_float(v, key) for v in chunk.split(",")] for chunk in chunks]
    if len({len(r) for r in rows}) != 1:
        raise ConfigError(f"ragged rows in {key}: {raw!r}")
    return np.array(rows)


def _parse_pair(raw, key):
    try:
        p, q = (int(v) for v in raw.split(","))
    except ValueError as exc:
        raise ConfigError(f"{key} must be two integers 'p,q', got {raw!r}") from exc
    return p, q


def _one_of(*words):
    def parse(raw, key):
        if raw not in words:
            raise ConfigError(f"{key} must be one of {' | '.join(words)}, got {raw!r}")
        return raw
    return parse


def _word_or(word, parse):
    """``word`` itself, or whatever ``parse`` makes of the value."""
    return lambda raw, key: raw if raw == word else parse(raw, key)


def _comma_list(axis_key):
    """A sweep axis: comma-separated values of ``axis_key``, kept raw for the labels and overrides."""
    def parse(raw, key):
        values = [v.strip() for v in raw.split(",")]
        for value in values:
            CONFIG_KEYS[axis_key](value, key)
        return values
    return parse


# every key the README key table documents and the parser of its value; anything else is a typo
CONFIG_KEYS = {
    **dict.fromkeys(("topology.n", "objective.n", "objective.dataset_seed", "objective.samples",
                     "objective.features", "objective.classes", "objective.agents",
                     "objective.partition_seed", "hp.iters", "hp.seed", "output.seeds"), _parse_int),
    **dict.fromkeys(("topology.laziness", "objective.separation", "objective.reg", "oracle.sigma",
                     "hp.alpha", "hp.B", "hp.beta"), _parse_float),
    **dict.fromkeys(("topology.edges", "objective.dataset", "output.dir"), lambda raw, key: raw),
    **dict.fromkeys(("objective.curvatures", "objective.shifts"), _parse_floats),
    "topology.kind": _one_of("full", "ring", "bipartite", "custom"),
    "topology.parts": _parse_pair,
    "objective.kind": _one_of("quadratic", "pl", "logistic"),
    "objective.targets": _parse_vectors,
    "objective.partition": _one_of("iid", "noniid"),
    "objective.grad_bound": _word_or("auto", _parse_nonnegative),
    "oracle.mode": _one_of("additive", "minibatch"),
    "oracle.batch": _word_or("full", _parse_int),
    "hp.option": _one_of("I", "II"),
    "hp.schedule": _one_of("constant", "sqrt"),
    "hp.omega": _word_or("adaptive", _parse_float),
    "hp.adaptive_scope": _one_of("agent", "global"),
}
CONFIG_KEYS.update((f"sweep.{label}", _comma_list(key)) for label, key in SWEEP_AXES)


@dataclass(frozen=True)
class RunConfig:
    """Flat key/value configuration: the raw strings in ``items``, each parsed once into ``values``."""

    items: dict

    def __post_init__(self):
        unknown = sorted(set(self.items) - CONFIG_KEYS.keys())
        if unknown:
            raise ConfigError(f"unknown config key(s): {', '.join(unknown)}")
        object.__setattr__(self, "values", {key: CONFIG_KEYS[key](raw, key) for key, raw in self.items.items()})

    def get(self, key, default=None):
        return self.values.get(key, default)

    def require(self, key):
        if key not in self.values:
            raise ConfigError(f"missing config key {key!r}")
        return self.values[key]


def parse_config_text(text):
    items = {}
    # only LF, CRLF and CR end a line, as in every file read: str.splitlines would also split at \f, U+2028 and more
    for lineno, raw in enumerate(io.StringIO(text, newline=None), start=1):
        raw = raw.removesuffix("\n")
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key or not value:
            raise ConfigError(f"line {lineno}: empty key or value in {raw!r}")
        if key in items:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        items[key] = value
    return RunConfig(items=items)


def load_config(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_config_text(fh.read())
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc


def serialize_config(cfg):
    """Canonical serialization: sorted keys, one 'key = value' per line."""
    return "".join(f"{k} = {cfg.items[k]}\n" for k in sorted(cfg.items))


def config_hash(cfg):
    return hashlib.sha256(serialize_config(cfg).encode("utf-8")).hexdigest()[:12]


# --------------------------------------------------------------- scenario


@dataclass(frozen=True)
class Scenario:
    """What ``dmsgd bounds`` reads of a config.

    The checked stacked ``objective`` holds the problem's suite and mixing
    matrix (``objective.suite``, ``objective.mixing``); ``spectral`` is that
    matrix's spectrum, ``f_star`` the objective's minimum and ``grad_bound``
    the parsed ``objective.grad_bound`` (``"auto"`` or a number).
    """

    spectral: object
    oracle: object
    hp: HyperParams
    objective: object
    f_star: float
    grad_bound: float | str


def _checked(keys, build, *args, **kwargs):
    """``build(*args, **kwargs)``; its ValueError is a config error naming the ``keys`` it read."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:  # the builders' own checks of config values, and the input file errors
        raise ConfigError(f"{keys}: {exc}") from exc


def _given(cfg, **param_keys):
    """``{param: value}`` for each ``param=key`` whose key ``cfg`` sets: a builder's own default stands for the rest."""
    return {param: cfg.values[key] for param, key in param_keys.items() if key in cfg.values}


def _build_topology(cfg):
    kind = cfg.require("topology.kind")
    if kind == "custom":
        return _checked("topology.edges", load_edge_list, cfg.require("topology.edges"))
    return _checked("topology.kind, topology.n, topology.parts", build_topology, kind, cfg.require("topology.n"),
                    **_given(cfg, parts="topology.parts"))


def _build_suite(cfg, n_agents):
    """The configured suite over the topology's ``n_agents`` agents; a key that counts otherwise is refused."""
    kind = cfg.require("objective.kind")
    topo_key = "topology.edges" if cfg.require("topology.kind") == "custom" else "topology.n"
    if kind == "quadratic":
        targets = cfg.require("objective.targets")
        if len(targets) != n_agents:
            raise ConfigError(f"objective.targets has {len(targets)} rows but {topo_key} gives {n_agents} agents")
        return _checked("objective.targets, objective.curvatures", make_quadratic,
                        targets, **_given(cfg, curvatures="objective.curvatures"))
    own_key = "objective.n" if kind == "pl" else "objective.agents"
    if cfg.get(own_key, n_agents) != n_agents:
        raise ConfigError(f"{own_key} = {cfg.get(own_key)} but {topo_key} gives {n_agents} agents")
    if kind == "pl":
        return _checked(f"{topo_key}, objective.shifts", make_pl, n_agents, **_given(cfg, shifts="objective.shifts"))
    path = cfg.get("objective.dataset", "synthetic")
    if path == "synthetic":
        ds = _checked("objective.dataset_seed, objective.samples, objective.features, objective.classes, "
                      "objective.separation", make_synthetic_dataset, **_given(cfg, seed="objective.dataset_seed",
                      n_samples="objective.samples", d_feat="objective.features", n_classes="objective.classes",
                      separation="objective.separation"))
    else:
        ds = _checked("objective.dataset", load_dataset_csv, path)
    if cfg.get("objective.partition", "iid") == "iid":
        parts = _checked(f"{topo_key}, objective.partition_seed", partition_iid, ds, n_agents,
                         **_given(cfg, seed="objective.partition_seed"))
    else:
        parts = _checked(topo_key, partition_noniid, ds, n_agents)
    return _checked("objective.reg", make_logistic, ds, parts, **_given(cfg, reg="objective.reg"))


def check_scenario(cfg, suites):
    """The checked ``(objective, hp, oracle)`` of ``cfg``: the graph, ``hp`` and the oracle, then the suite of its
    agent count in ``suites``, built there if missing (a PL build solves its optimum and its PL constant), and last
    the stacked objective of that suite over the mixing matrix, penalized under option I.  It solves nothing.  Each
    builder gets only the keys ``cfg`` sets: the library states each default and refusal, here named by its keys."""
    topo = _build_topology(cfg)
    mixing = _checked("topology.laziness", metropolis_mixing, topo, **_given(cfg, laziness="topology.laziness"))
    hp = _checked(", ".join(HP_KEYS.values()), HyperParams, **_given(cfg, **HP_KEYS))
    if cfg.get("oracle.mode", "additive") == "additive":
        oracle = _checked("oracle.sigma", StochasticOracle, **_given(cfg, sigma="oracle.sigma"))
    elif cfg.require("oracle.batch") == "full":  # a full batch is the exact local gradient
        oracle = StochasticOracle()
    else:
        oracle = _checked("oracle.batch", StochasticOracle, mode="minibatch", batch=cfg.get("oracle.batch"))
    if topo.n not in suites:
        suites[topo.n] = _build_suite(cfg, topo.n)
    _checked("oracle.batch", oracle.check_fits, suites[topo.n])
    return UnifiedObjective(suites[topo.n], mixing, hp.alpha if hp.option == "I" else None), hp, oracle


def _solve(cfg, objective, hp, oracle):
    """The numerics of a checked ``cfg``: the spectrum of the objective's mixing matrix and the objective's minimum."""
    return Scenario(spectral=spectrum(objective.mixing), oracle=oracle, hp=hp, objective=objective,
                    f_star=unified_optimum(objective)[1], grad_bound=cfg.get("objective.grad_bound", "auto"))


def build_scenario(cfg):
    """The scenario of ``cfg``: its one ``check_scenario``, with a suite of its own, then ``_solve``."""
    return _solve(cfg, *check_scenario(cfg, {}))


# ------------------------------------------------------------- bound inputs


def pilot_measurements(scenario):
    """Measured gradient bound (and noise level, for minibatch oracles).

    Runs the configured dynamics for a pilot horizon and returns
    1.05 x max ||grad objective|| plus, when the oracle is a minibatch, a
    1.05-inflated root mean of the stacked draw deviation the run recorded.
    A pilot that aborts measures nothing, whatever rows it wrote first.
    """
    trace = run(scenario.objective, scenario.oracle, replace(scenario.hp, iters=PILOT_ITERS), scenario.f_star)
    if trace.status != "completed":
        raise RuntimeFailure(f"pilot run aborted ({trace.abort}); cannot measure G or sigma")
    grad_bound = PILOT_INFLATION * float(np.sqrt(trace.grad_norm_sq.max()))
    sigma = None
    if scenario.oracle.mode == "minibatch":
        sigma = PILOT_INFLATION * float(np.sqrt(np.mean(trace.draw_dev_sq)))
    return grad_bound, sigma


def bound_inputs_from_scenario(scenario):
    """``BoundInputs.of_run`` of the scenario, checked before a pilot run measures G when it is ``auto`` and a
    minibatch's sigma; a given G stays as given."""
    bi = BoundInputs.of_run(scenario.objective, scenario.spectral, scenario.hp, scenario.f_star)
    grad_bound = scenario.grad_bound
    sigma = scenario.oracle.sigma * np.sqrt(bi.n_agents)  # additive: stacked deviation of N independent draws
    if grad_bound == "auto" or scenario.oracle.mode == "minibatch":  # a given G keeps a minibatch's sigma measured
        pilot_bound, pilot_sigma = pilot_measurements(scenario)
        grad_bound = pilot_bound if grad_bound == "auto" else grad_bound
        sigma = sigma if pilot_sigma is None else pilot_sigma
    return replace(bi, grad_bound=grad_bound, sigma=float(sigma))


# -------------------------------------------------------------- CSV files


def _fmt(x):
    return repr(float(x))


def trace_metadata(cfg, seed, trace):
    meta = {"config_hash": config_hash(cfg), "seed": str(seed), "status": trace.status}
    if trace.abort is not None:
        meta["abort"] = trace.abort
    return meta


def _write_csv(path, metadata, header, rows):
    """``# key=value`` metadata lines, the header, then one line per row of fields; UTF-8, LF."""
    lines = [f"# {k}={v}" for k, v in metadata.items()]
    lines.append(header)
    lines.extend(",".join(row) for row in rows)
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise RuntimeFailure(f"cannot write {path}: {exc}") from exc


def write_trace_csv(path, trace, metadata):
    columns = [getattr(trace, col) for col in TRACE_COLUMNS]
    _write_csv(path, metadata, TRACE_HEADER,
               ([str(int(trace.k[i]))] + [_fmt(c[i]) for c in columns] for i in range(len(trace))))


def _numbered_lines(path):
    """``(line number, line)`` of each non-blank line of a UTF-8 text file, stripped of surrounding whitespace;
    LF, CRLF and CR end a line alike."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                if line := raw.strip():
                    yield lineno, line
    except (OSError, UnicodeDecodeError) as exc:
        raise InputFileError(f"cannot read {path}: {exc}") from exc


def read_csv_with_metadata(path):
    """(metadata, header, rows): ``# key=value`` lines, each key once, the first other line, then ``(line number,
    fields)`` of each line after it; every row must be as wide as the header, and no ``#`` line may follow it."""
    meta, header, rows = {}, None, []
    for lineno, line in _numbered_lines(path):
        if line.startswith("#"):
            if header is not None:
                raise InputFileError(f"{path} line {lineno}: '#' line after the header")
            key, _, value = (part.strip() for part in line[1:].partition("="))
            if key in meta:
                raise InputFileError(f"{path} line {lineno}: duplicate key {key!r}")
            meta[key] = value
            continue
        fields = line.split(",")
        if header is None:
            header = fields
        elif len(fields) != len(header):
            raise InputFileError(f"{path} line {lineno}: {len(fields)} fields, header has {len(header)}")
        else:
            rows.append((lineno, fields))
    if header is None:
        raise InputFileError(f"{path} has no header row")
    return meta, header, rows


def _parse_fields(path, rows, columns):
    """Each row's fields converted by ``columns`` = [(index, type)]; a bad field is an input error naming its line."""
    parsed = []
    for lineno, row in rows:
        try:
            parsed.append([kind(row[i]) for i, kind in columns])
        except ValueError as exc:
            raise InputFileError(f"{path} line {lineno}: bad field ({exc})") from exc
    return parsed


def _check_k(path, rows):
    """Each ``(line number, series, k)`` row's k must count 1, 2, ... in its series in file order, so that a row's
    position in its series is its k; the first that does not is an input error naming its line."""
    counts = {}
    for lineno, series, k in rows:
        counts[series] = expected = counts.get(series, 0) + 1
        if k != expected:
            raise InputFileError(f"{path} line {lineno}: k={k}, but {series} row {expected} must have k={expected}")


def load_dataset_csv(path):
    """A dataset CSV: a header of feature names and a final ``label``, then one row of finite numbers and a class
    index label 0, 1, ... per sample; a negative label is refused by its line."""
    meta, header, rows = read_csv_with_metadata(path)
    if meta:
        raise InputFileError(f"{path}: a dataset CSV has no '#' lines")
    if header[-1] != "label":
        raise InputFileError(f"{path}: dataset CSV must end with a 'label' column")
    if len(header) == 1:
        raise InputFileError(f"{path}: dataset CSV has no feature column before 'label'")
    columns = [partial(_parse_float, key=name) for name in header[:-1]] + [partial(_parse_int, key="label")]
    parsed = _parse_fields(path, rows, list(enumerate(columns)))
    for (lineno, _), row in zip(rows, parsed):
        if row[-1] < 0:
            raise InputFileError(f"{path} line {lineno}: label {row[-1]} is not a class index 0, 1, ...")
    return Dataset(features=np.array([r[:-1] for r in parsed]), labels=np.array([r[-1] for r in parsed], dtype=int))


def load_edge_list(path):
    """The custom topology of an edge list: the agent count ``n``, then one edge ``j l`` (0-indexed,
    whitespace-separated) per line.  A self-loop or an agent outside 0..n-1 is refused by its line."""
    values = []
    for lineno, line in _numbered_lines(path):
        fields = line.split()
        if len(fields) != (2 if values else 1):
            raise InputFileError(f"{path} line {lineno}: expected {'an edge j l' if values else 'the agent count n'}, "
                                 f"got {line!r}")
        values += _parse_fields(path, [(lineno, fields)], [(i, int) for i in range(len(fields))])
        if len(values) > 1:
            (n,), (j, l) = values[0], values[-1]
            if j == l:
                raise InputFileError(f"{path} line {lineno}: self-loop ({j},{j}) not allowed")
            if not (0 <= j < n and 0 <= l < n):
                raise InputFileError(f"{path} line {lineno}: edge ({j},{l}) out of range for n={n}")
    if not values:
        raise InputFileError(f"empty edge-list file {path}")
    (n,), *pairs = values
    return build_topology("custom", n, edges=pairs)


def read_trace_csv(path):
    meta, header, rows = read_csv_with_metadata(path)
    if header != TRACE_HEADER.split(","):
        raise InputFileError(f"{path} is not a trace file (header {header})")
    parsed = _parse_fields(path, rows, [(0, int)] + [(i + 1, float) for i in range(len(TRACE_COLUMNS))])
    _check_k(path, ((lineno, "trace", values[0]) for (lineno, _), values in zip(rows, parsed)))
    for (lineno, _), values in zip(rows, parsed):  # inf stands: check reads it as a violation
        if np.isnan(values).any():
            raise InputFileError(f"{path} line {lineno}: bad field (nan)")
    data = {col: np.array([r[i + 1] for r in parsed]) for i, col in enumerate(TRACE_COLUMNS)}
    data["k"] = np.array([r[0] for r in parsed])
    return meta, data


def write_bounds_csv(path, reports, metadata):
    _write_csv(path, metadata, BOUNDS_HEADER,
               ([str(int(k)), name, _fmt(v)] for name, ks, values in reports for k, v in zip(ks, values)))


def read_bounds_csv(path):
    meta, header, rows = read_csv_with_metadata(path)
    if header != BOUNDS_HEADER.split(","):
        raise InputFileError(f"{path} is not a bounds file (header {header})")
    parsed = _parse_fields(path, rows, [(0, int), (1, str), (2, partial(_parse_float, key="value"))])
    _check_k(path, ((lineno, name, k) for (lineno, _), (k, name, _) in zip(rows, parsed)))
    out = {}
    for _, name, value in parsed:
        out.setdefault(name, []).append(value)
    return meta, {name: np.array(values) for name, values in out.items()}


def averaged_trace(traces):
    """Per-row mean across seeds, over the rows every trace has, summed in seed order.

    ``np.mean`` adds eight or more seeds pairwise when the traces hold one row and in order when they hold more,
    so a row's average would depend on the run's length.
    """
    length = min(len(t) for t in traces)
    return RunTrace(k=np.arange(1, length + 1), swarm=None, **{
        col: agent_total([getattr(t, col)[:length] for t in traces]) / len(traces) for col in RunTrace.COLUMNS})


# ------------------------------------------------------------ subcommands


def _output_dir(args, cfg):
    """The ``--out`` or ``output.dir`` directory, created if missing; an unusable path is a config error."""
    out_dir = args.out or cfg.get("output.dir", ".")
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot use output directory {out_dir}: {exc}") from exc
    return out_dir


def cmd_run(args):
    cfg = load_config(args.config)
    n_seeds = args.seeds if args.seeds is not None else cfg.get("output.seeds", 1)
    if n_seeds < 1:
        raise ConfigError(f"the seed count must be >= 1, got {n_seeds}")
    objective, hp, oracle = check_scenario(cfg, {})
    out_dir = _output_dir(args, cfg)
    f_star = unified_optimum(objective)[1]
    traces = []
    failed = None
    for seed in range(hp.seed, hp.seed + n_seeds):
        trace = run(objective, oracle, replace(hp, seed=seed), f_star)
        path = os.path.join(out_dir, f"trace_seed{seed}.csv")
        write_trace_csv(path, trace, trace_metadata(cfg, seed, trace))
        log.info("wrote %s (%d rows, %s)", path, len(trace), trace.status)
        traces.append(trace)
        if trace.status != "completed":
            failed = (seed, trace)
    if failed is not None:
        raise RuntimeFailure(f"run aborted (seed {failed[0]}, {failed[1].abort}); partial trace flagged")
    if n_seeds > 1:
        path = os.path.join(out_dir, "trace_avg.csv")
        avg = averaged_trace(traces)
        write_trace_csv(path, avg, trace_metadata(cfg, "avg", avg))
        log.info("wrote %s", path)
    return 0


def cmd_bounds(args):
    """bounds.csv: the bound rows, the mixing matrix's lambda_2 and lambda_N, the engine's inputs and refusals."""
    cfg = load_config(args.config)
    checked = check_scenario(cfg, {})
    out_dir = _output_dir(args, cfg)
    scenario = _solve(cfg, *checked)
    try:
        bi = bound_inputs_from_scenario(scenario)
        reports, skipped = evaluate_bounds(bi, scenario.hp)
        for name, reason in skipped.items():
            log.info("skipping %s: %s", name, reason)
        if not reports:
            raise ValueError("; ".join(f"{name}: {reason}" for name, reason in skipped.items()))
    except ValueError as exc:  # BoundInputs refuses the inputs, or the engine refuses every bound
        raise RuntimeFailure(f"no bound exists for these inputs: {exc}") from exc
    metadata = {"config_hash": config_hash(cfg), "lambda2": _fmt(scenario.spectral.lambda2),
                "lambdaN": _fmt(scenario.spectral.lambda_n)}
    metadata.update(asdict(bi))
    metadata.update((f"skipped.{name}", reason) for name, reason in skipped.items())
    path = os.path.join(out_dir, "bounds.csv")
    write_bounds_csv(path, reports, metadata)
    log.info("wrote %s (%d bounds)", path, len(reports))
    return 0


def cmd_check(args):
    trace_meta, trace = read_trace_csv(args.trace)
    bounds_meta, bound_rows = read_bounds_csv(args.bounds)
    hashes = trace_meta.get("config_hash"), bounds_meta.get("config_hash")
    if not all(hashes) or hashes[0] != hashes[1]:  # two files that both lack a hash do not pair either
        raise InputFileError(f"{args.trace} (config hash {hashes[0]!r}) cannot pair with {args.bounds} ({hashes[1]!r})")
    n_rows = len(trace["k"])  # both readers checked that k runs 1..rows: pairing by position is pairing by k
    for name, values in bound_rows.items():
        if name not in BOUNDS:
            raise InputFileError(f"unknown bound name {name!r} in {args.bounds}")
        if len(values) != n_rows:
            raise InputFileError(f"length mismatch for {name}: bounds file has {len(values)} rows, "
                                 f"trace has {n_rows}")
    for key, reason in bounds_meta.items():
        if key.startswith("skipped."):
            print(f"skipped {key.removeprefix('skipped.')}: {reason}")
    if not bound_rows:
        print(f"nothing compared: {args.bounds} holds no bound row, {args.trace} holds {n_rows} rows")
    failed = False
    for name, values in bound_rows.items():
        bound = BOUNDS[name]
        with np.errstate(over="ignore"):  # a huge value read from a file overflows to inf: a violation
            report = check_bound_domination(bound.transform(trace[bound.column]), values, slack=args.slack)
        if report.passed:
            print(f"ok {name}: {report.checked} rows, worst ratio {report.worst_ratio:.4f}")
        else:
            print(f"VIOLATION {name}: k={report.first_violation} metric="
                  f"{report.metric_at_violation:.6g} bound={report.bound_at_violation:.6g}")
            failed = True
    return 3 if failed else 0


def _sweep_cell(objective, f_common, hp, oracle):
    """(status, final_gap, final_consensus, mean_omega) of one run on ``objective``, whose trace gap no column reads
    (nan); the final gap is F at the average iterate less ``f_common``, the minimum of F at a shared point."""
    trace = run(objective, oracle, hp, math.nan)
    if trace.status != "completed":
        return "diverged", float("inf"), float("inf"), float("nan")
    xbar = trace.swarm.x_cur.mean(axis=0)
    final_gap = agent_total(objective.suite.evaluate(xbar)[0]) - f_common
    if len(trace) == 0:  # hp.iters = 0: no row holds a consensus error or an omega
        return "completed", final_gap, float("nan"), float("nan")
    return "completed", final_gap, float(trace.consensus_err_max[-1]), float(trace.omega_used.mean())


def cmd_sweep(args):
    """sweep.csv, one row per cell in grid order; each cell is checked once, cells of one agent count share a suite,
    and each cell runs, in grid order, on the stacked objective of its own check.  Each suite's common optimum, the one
    optimum a sweep reads, is solved once, at its first cell.  A sweep solves no stacked optimum."""
    cfg = load_config(args.config)
    # _build_suite reads no sweep axis (topology.kind only names a refusal's key): one suite per agent count
    suites = {}
    check_scenario(cfg, suites)
    axes = [cfg.get(f"sweep.{label}", [None]) for label, _ in SWEEP_AXES]
    cells = list(itertools.product(*axes)) if any(axis != [None] for axis in axes) else []
    rows, checked = [], []
    for cell in cells:
        items = dict(cfg.items)
        items.update((key, val) for (_, key), val in zip(SWEEP_AXES, cell) if val is not None)
        objective, hp, oracle = check_scenario(RunConfig(items=items), suites)
        # a key the config leaves unset shows the value the cell ran with (the hp axes' labels are their fields)
        rows.append([items[key] if key in items else str(getattr(hp, label)) for label, key in SWEEP_AXES])
        checked.append((objective, hp, oracle))
    out_dir = _output_dir(args, cfg)
    f_common = {}  # agent count -> the common minimum of its suite, None if that solve failed
    for row, (objective, hp, oracle) in zip(rows, checked):
        n = objective.suite.n
        if n not in f_common:
            try:
                f_common[n] = common_optimum(objective.suite)[1]
            except Exception as exc:  # a failed solve fails each of that suite's cells in-row
                log.warning("sweep common optimum of the %d-agent suite failed: %s", n, exc)
                f_common[n] = None
        status, numbers = "error", [float("nan")] * 3
        if f_common[n] is not None:
            try:
                status, *numbers = _sweep_cell(objective, f_common[n], hp, oracle)
            except Exception as exc:
                log.warning("sweep cell %s failed: %s", ",".join(row), exc)
        row += [status] + [_fmt(x) for x in numbers]
    path = os.path.join(out_dir, "sweep.csv")
    _write_csv(path, {"config_hash": config_hash(cfg)}, SWEEP_HEADER, rows)
    log.info("wrote %s (%d cells)", path, len(rows))
    return 0


# -------------------------------------------------------------------- CLI


def _nonnegative_float(raw):
    """A finite float >= 0: nan and +-inf are refused as for config values."""
    try:
        return _parse_nonnegative(raw, "the value")
    except ConfigError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def build_parser():
    parser = argparse.ArgumentParser(prog="dmsgd", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute runs and write trace CSVs")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--seeds", type=int, default=None, help="override output.seeds")
    p_run.add_argument("--out", default=None, help="override output.dir")
    p_run.set_defaults(func=cmd_run)

    p_bounds = sub.add_parser("bounds", help="evaluate theoretical bounds for a config")
    p_bounds.add_argument("--config", required=True)
    p_bounds.add_argument("--out", default=None)
    p_bounds.set_defaults(func=cmd_bounds)

    p_check = sub.add_parser("check", help="verify a trace against a bounds file")
    p_check.add_argument("--trace", required=True)
    p_check.add_argument("--bounds", required=True)
    p_check.add_argument("--slack", type=_nonnegative_float, default=0.0)
    p_check.set_defaults(func=cmd_check)

    p_sweep = sub.add_parser("sweep", help="run a parameter grid and summarize")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--out", default=None)
    p_sweep.set_defaults(func=cmd_sweep)
    return parser


def _setup_logging():
    """Log at the level ``DMSGD_LOG`` names, info when it is unset; any other value is a config error."""
    levels = {"quiet": logging.WARNING, "info": logging.INFO, "debug": logging.DEBUG}
    value = _one_of(*levels)(os.environ.get("DMSGD_LOG", "info"), "DMSGD_LOG")
    logging.basicConfig(level=levels[value], format="%(levelname)s %(message)s", stream=sys.stderr)


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 2
    try:
        _setup_logging()
        # an input valid in form can still overflow the arithmetic: exit 1, not a warning
        with np.errstate(over="raise"):
            return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except InputFileError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except RuntimeFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FloatingPointError as exc:
        print(f"error: numerical failure ({exc})", file=sys.stderr)
        return 1
    except MemoryError as exc:  # an input that asks for more memory than the machine has
        print(f"error: out of memory ({str(exc) or 'allocation failed'})", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
