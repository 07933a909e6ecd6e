"""Configuration, input files, CSV trace/bound files, experiment sweeps, and the CLI.

Configs are flat ``section.key = value`` text files (``#`` starts a
comment).  Every file the package reads is read here: configs, dataset CSVs,
edge lists, traces and bounds.  A run writes one trace CSV per seed plus an averaged trace;
``bounds`` evaluates every bound applicable to the configured objective
class; ``check`` verifies a trace against a bounds file; ``sweep`` runs a
small grid and emits a summary CSV.  Exit codes: 0 ok, 1 runtime error,
2 config/usage error, 3 bound violation.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import logging
import math
import os
import sys
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from . import bounds as bounds_mod
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
from .topology import build_topology, lambda_cap, metropolis_mixing, spectrum
from .verify import check_bound_domination

log = logging.getLogger("dmsgd")

TRACE_HEADER = "k,consensus_err_max,consensus_err_stacked,gap,grad_norm_sq,running_avg_grad,step_norm,omega_used"
TRACE_COLUMNS = TRACE_HEADER.split(",")[1:]
BOUNDS_HEADER = "k,bound_name,value"
SWEEP_HEADER = "omega,beta,topology,option,seed,status,final_gap,final_consensus,mean_omega"
# each sweep.<axis> overrides one config key; the first five sweep columns
SWEEP_AXES = (("omega", "hp.omega"), ("beta", "hp.beta"), ("topology", "topology.kind"),
              ("option", "hp.option"), ("seed", "hp.seed"))
# the bound inputs every bounds.csv records as metadata
BOUND_INPUT_KEYS = ("alpha", "beta", "lam", "eta", "n_agents", "grad_bound", "sigma", "smooth",
                    "strong_mu", "pl_mu", "gap1")

# which trace column each bound row dominates, and how the metric transforms
BOUND_METRICS = {
    "consensus": ("consensus_err_max", lambda m: m),
    "displacement_sq": ("step_norm", lambda m: m**2),
    "cor1_gap": ("gap", lambda m: m),
    "thm2_gap": ("gap", lambda m: m),
    "avg_grad_envelope": ("running_avg_grad", lambda m: m),
    "sqrt_step_q": ("running_avg_grad", lambda m: m),
}

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
    """'a;b;c' (or 'a,b,c') -> 1-d array."""
    return np.array([_parse_float(v, key) for v in raw.replace(";", ",").split(",") if v.strip()])


def _parse_vectors(raw, key):
    """'a,b;c,d' -> array of row vectors."""
    rows = [[_parse_float(v, key) for v in chunk.split(",")] for chunk in raw.split(";") if chunk.strip()]
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


@dataclass
class RunConfig:
    """Flat key/value configuration: the raw strings in ``items``, each parsed once into ``values``."""

    items: dict

    def __post_init__(self):
        unknown = sorted(set(self.items) - CONFIG_KEYS.keys())
        if unknown:
            raise ConfigError(f"unknown config key(s): {', '.join(unknown)}")
        self.values = {key: CONFIG_KEYS[key](raw, key) for key, raw in self.items.items()}

    def get(self, key, default=None):
        return self.values.get(key, default)

    def require(self, key):
        if key not in self.values:
            raise ConfigError(f"missing config key {key!r}")
        return self.values[key]


def parse_config_text(text):
    items = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
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


@dataclass
class Scenario:
    """Everything derived from a config that a run or bound evaluation needs.

    The stacked ``objective`` is the only holder of the problem's suite and
    mixing matrix (``objective.suite``, ``objective.mixing``); ``spectral``
    is that matrix's spectrum and ``f_star`` the objective's minimum.
    """

    cfg: RunConfig
    spectral: object
    oracle: object
    hp: HyperParams
    objective: object
    f_star: float

    @property
    def omega_bound(self):
        """The omega used for Lambda/eta in bound inputs: 1 for the adaptive blend."""
        return 1.0 if self.hp.omega == "adaptive" else float(self.hp.omega)

    @property
    def lam(self):
        return lambda_cap(self.omega_bound, self.spectral.lambda2)

    @property
    def eta(self):
        return self.spectral.lambda_min_effective(0.0 if self.hp.omega == "adaptive" else self.omega_bound)


def _checked(keys, build, *args, **kwargs):
    """``build(*args, **kwargs)``; its ValueError is a config error naming the ``keys`` it read."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:  # the builders' own checks of config values, and the input file errors
        raise ConfigError(f"{keys}: {exc}") from exc


def _build_topology(cfg):
    kind = cfg.require("topology.kind")
    if kind == "custom":
        return _checked("topology.edges", load_edge_list, cfg.require("topology.edges"))
    return _checked("topology.kind, topology.n, topology.parts", build_topology, kind, cfg.require("topology.n"),
                    parts=cfg.get("topology.parts"))


def _build_suite(cfg, n_agents):
    """The configured suite over the topology's ``n_agents`` agents; a key that counts otherwise is refused."""
    kind = cfg.require("objective.kind")
    topo_key = "topology.edges" if cfg.require("topology.kind") == "custom" else "topology.n"
    if kind == "quadratic":
        targets = cfg.require("objective.targets")
        if len(targets) != n_agents:
            raise ConfigError(f"objective.targets has {len(targets)} rows but {topo_key} gives {n_agents} agents")
        return _checked("objective.targets, objective.curvatures", make_quadratic,
                        targets, cfg.get("objective.curvatures", 1.0))
    own_key = "objective.n" if kind == "pl" else "objective.agents"
    if cfg.get(own_key, n_agents) != n_agents:
        raise ConfigError(f"{own_key} = {cfg.get(own_key)} but {topo_key} gives {n_agents} agents")
    if kind == "pl":
        return _checked(f"{topo_key}, objective.shifts", make_pl, n_agents, shifts=cfg.get("objective.shifts", 0.0))
    path = cfg.get("objective.dataset", "synthetic")
    if path == "synthetic":
        ds = _checked("objective.dataset_seed, objective.samples, objective.features, objective.classes, "
                      "objective.separation", make_synthetic_dataset, cfg.get("objective.dataset_seed", 0),
                      cfg.get("objective.samples", 400), cfg.get("objective.features", 5),
                      cfg.get("objective.classes", 2), separation=cfg.get("objective.separation", 4.0))
    else:
        ds = _checked("objective.dataset", load_dataset_csv, path)
    if cfg.get("objective.partition", "iid") == "iid":
        ds.partitions = _checked(f"{topo_key}, objective.partition_seed", partition_iid, ds, n_agents,
                                 cfg.get("objective.partition_seed", 0))
    else:
        ds.partitions = _checked(topo_key, partition_noniid, ds, n_agents)
    return _checked("objective.reg", make_logistic, ds, reg=cfg.get("objective.reg", 0.0))


def check_scenario(cfg):
    """The checked ``(mixing, suite, hp, oracle)`` of ``cfg``: the graph, ``hp`` and the oracle, then the suite,
    whose build is the check's one numerical step (a PL suite solves its optimum and its PL constant)."""
    topo = _build_topology(cfg)
    mixing = _checked("topology.laziness", metropolis_mixing, topo, laziness=cfg.get("topology.laziness", 0.0))
    hp = _checked("hp.option, hp.schedule, hp.alpha, hp.B, hp.beta, hp.omega, hp.adaptive_scope, hp.iters, hp.seed",
                  HyperParams, option=cfg.get("hp.option", "I"), alpha=cfg.get("hp.alpha"),
                  beta=cfg.get("hp.beta", 0.0), omega=cfg.get("hp.omega", 0.0), iters=cfg.get("hp.iters", 100),
                  seed=cfg.get("hp.seed", 0), schedule=cfg.get("hp.schedule", "constant"),
                  schedule_b=cfg.get("hp.B"), adaptive_scope=cfg.get("hp.adaptive_scope", "agent"))
    if hp.schedule == "sqrt" and hp.option == "I":
        raise ConfigError(
            "hp.schedule, hp.option: the sqrt(B/k) schedule varies the penalty weight of the option-I "
            "objective every iteration; drive schedule runs through option II"
        )
    if cfg.get("oracle.mode", "additive") == "additive":
        oracle = _checked("oracle.sigma", StochasticOracle, mode="additive", sigma=cfg.get("oracle.sigma", 0.0))
    elif cfg.get("oracle.batch", "full") == "full":  # a full batch is the exact local gradient
        oracle = StochasticOracle(mode="additive", sigma=0.0)
    else:
        oracle = _checked("oracle.batch", StochasticOracle, mode="minibatch", batch=cfg.get("oracle.batch"))
    suite = _build_suite(cfg, topo.n)
    _checked("oracle.batch", oracle.check_fits, suite)
    return mixing, suite, hp, oracle


def _stacked_problem(mixing, suite, hp):
    """The stacked objective of ``suite`` over ``mixing`` under ``hp.option``, and its minimum."""
    objective = UnifiedObjective(suite, mixing, hp.alpha if hp.option == "I" else None)
    return objective, unified_optimum(objective)[1]


def build_scenario(cfg):
    """``check_scenario``, then the numerics: the spectrum, the stacked objective and its optimum."""
    mixing, suite, hp, oracle = check_scenario(cfg)
    spectral = spectrum(mixing)
    objective, f_star = _stacked_problem(mixing, suite, hp)
    return Scenario(cfg=cfg, spectral=spectral, oracle=oracle, hp=hp, objective=objective, f_star=f_star)


# ------------------------------------------------------------- bound inputs


def pilot_measurements(scenario):
    """Measured gradient bound (and noise level, for minibatch oracles).

    Runs the configured dynamics for a pilot horizon and returns
    1.05 x max ||grad objective|| plus, when the oracle is a minibatch, a
    1.05-inflated root mean of the stacked draw deviation the run recorded.
    """
    trace = run(scenario.objective, scenario.oracle, replace(scenario.hp, iters=PILOT_ITERS), scenario.f_star)
    if len(trace) == 0:
        raise RuntimeFailure("pilot run produced no finite iterations; cannot measure a gradient bound")
    grad_bound = PILOT_INFLATION * float(np.sqrt(trace.grad_norm_sq.max()))
    sigma = None
    if scenario.oracle.mode == "minibatch":
        sigma = PILOT_INFLATION * float(np.sqrt(np.mean(trace.draw_dev_sq)))
    return grad_bound, sigma


def bound_inputs_from_scenario(scenario):
    """Assemble the bounds-engine inputs, measuring G (and sigma) if needed."""
    hp, suite = scenario.hp, scenario.objective.suite
    grad_bound = scenario.cfg.get("objective.grad_bound", "auto")
    measured_sigma = None
    if grad_bound == "auto":
        grad_bound, measured_sigma = pilot_measurements(scenario)
    if scenario.oracle.mode == "additive":
        # stacked deviation of N independent per-agent draws
        sigma = scenario.oracle.sigma * np.sqrt(suite.n)
    else:
        sigma = measured_sigma if measured_sigma is not None else 0.0
    alpha = hp.alpha if hp.schedule == "constant" else 1.0  # placeholder for sqrt runs
    zero = np.zeros((suite.n, suite.d))
    gap1 = scenario.objective.value(zero) - scenario.f_star
    return bounds_mod.BoundInputs(
        alpha=alpha,
        beta=hp.beta,
        lam=scenario.lam,
        n_agents=suite.n,
        eta=scenario.eta,
        grad_bound=grad_bound,
        sigma=float(sigma),
        smooth=scenario.objective.l_prime(scenario.spectral),
        strong_mu=(scenario.objective.mu_prime(scenario.spectral) if suite.mu_m > 0 else None),
        pl_mu=suite.pl_constant,
        gap1=gap1,
    )


def evaluate_bounds(scenario, bi):
    """Every bound applicable to the scenario's objective class.

    Returns ``(reports, skipped)``: ``(name, ks, values)`` rows, and
    ``{name: reason}`` for each gap trajectory the engine refused for these
    inputs.  A refused consensus, displacement or envelope bound raises the
    engine's ``ValueError``.
    """
    hp = scenario.hp
    ks = np.arange(1, hp.iters + 1)
    if hp.schedule == "sqrt":
        return [("sqrt_step_q", ks, bounds_mod.simpler_step_bound(bi, hp.schedule_b, ks))], {}
    reports = [
        ("consensus", ks, np.full(hp.iters, bounds_mod.consensus_bound(bi))),
        ("displacement_sq", ks, bounds_mod.displacement_bound(bi, ks)),
        ("avg_grad_envelope", ks, bounds_mod.nonconvex_avg_grad_bound(bi, ks)),
    ]
    skipped = {}
    for name, constant, trajectory in (("cor1_gap", bi.strong_mu, bounds_mod.strongly_convex_trajectory),
                                       ("thm2_gap", bi.pl_mu, bounds_mod.pl_trajectory)):
        if constant is None:
            continue
        try:
            reports.append((name, ks, trajectory(bi, hp.iters)))
        except ValueError as exc:
            log.info("skipping %s: %s", name, exc)
            skipped[name] = str(exc)
    return reports, skipped


# -------------------------------------------------------------- CSV files


def _fmt(x):
    return repr(float(x))


def abort_cause(trace):
    """``<reason> agent=<j|none> k=<iteration>`` for an aborted trace."""
    agent = "none" if trace.abort_agent is None else trace.abort_agent
    return f"{trace.abort_reason} agent={agent} k={trace.aborted_at}"


def trace_metadata(scenario, seed, trace):
    meta = {
        "config_hash": config_hash(scenario.cfg),
        "seed": str(seed),
        "lambda2": _fmt(scenario.spectral.lambda2),
        "lambdaN": _fmt(scenario.spectral.lambda_n),
        "Lambda": _fmt(scenario.lam),
        "eta": _fmt(scenario.eta),
        "status": trace.status,
    }
    if trace.status == "aborted":
        meta["abort"] = abort_cause(trace)
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
    """(metadata, header, rows): ``# key=value`` lines, the first other line, then ``(line number, fields)`` of
    each line after it; every row must be as wide as the header."""
    meta, header, rows = {}, None, []
    for lineno, line in _numbered_lines(path):
        if line.startswith("#"):
            key, _, value = line[1:].partition("=")
            meta[key.strip()] = value.strip()
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


def load_dataset_csv(path):
    """A dataset CSV: a header of feature names and a final ``label``, then one row of finite numbers and an
    integer label per sample."""
    meta, header, rows = read_csv_with_metadata(path)
    if meta:
        raise InputFileError(f"{path}: a dataset CSV has no '#' lines")
    if header[-1] != "label":
        raise InputFileError(f"{path}: dataset CSV must end with a 'label' column")
    if len(header) == 1:
        raise InputFileError(f"{path}: dataset CSV has no feature column before 'label'")
    columns = [partial(_parse_float, key=name) for name in header[:-1]] + [partial(_parse_int, key="label")]
    parsed = _parse_fields(path, rows, list(enumerate(columns)))
    return Dataset(features=np.array([r[:-1] for r in parsed]), labels=np.array([r[-1] for r in parsed], dtype=int))


def load_edge_list(path):
    """The custom topology of an edge list: the agent count ``n``, then one edge ``j l`` (0-indexed,
    whitespace-separated) per line."""
    values = []
    for lineno, line in _numbered_lines(path):
        fields = line.split()
        if len(fields) != (2 if values else 1):
            raise InputFileError(f"{path} line {lineno}: expected {'an edge j l' if values else 'the agent count n'}, "
                                 f"got {line!r}")
        values += _parse_fields(path, [(lineno, fields)], [(i, int) for i in range(len(fields))])
    if not values:
        raise InputFileError(f"empty edge-list file {path}")
    (n,), *pairs = values
    return build_topology("custom", n, edges=pairs)


def read_trace_csv(path):
    meta, header, rows = read_csv_with_metadata(path)
    if header != TRACE_HEADER.split(","):
        raise InputFileError(f"{path} is not a trace file (header {header})")
    parsed = _parse_fields(path, rows, [(0, int)] + [(i + 1, float) for i in range(len(TRACE_COLUMNS))])
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
    out = {}
    for k, name, value in _parse_fields(path, rows, [(0, int), (1, str), (2, float)]):
        out.setdefault(name, []).append((k, value))
    for name, pairs in out.items():
        pairs.sort()
        out[name] = np.array([v for _, v in pairs])
    return meta, out


def averaged_trace(traces):
    """Per-row mean across seeds, over the rows every trace has."""
    length = min(len(t) for t in traces)
    return RunTrace(k=np.arange(1, length + 1), swarm=None, **{
        col: np.mean([getattr(t, col)[:length] for t in traces], axis=0) for col in RunTrace.COLUMNS})


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
    check_scenario(cfg)
    out_dir = _output_dir(args, cfg)
    scenario = build_scenario(cfg)
    traces = []
    failed = None
    for seed in range(scenario.hp.seed, scenario.hp.seed + n_seeds):
        trace = run(scenario.objective, scenario.oracle, replace(scenario.hp, seed=seed), scenario.f_star)
        path = os.path.join(out_dir, f"trace_seed{seed}.csv")
        write_trace_csv(path, trace, trace_metadata(scenario, seed, trace))
        log.info("wrote %s (%d rows, %s)", path, len(trace), trace.status)
        traces.append(trace)
        if trace.status != "completed":
            failed = (seed, trace)
    if failed is not None:
        raise RuntimeFailure(f"run aborted (seed {failed[0]}, {abort_cause(failed[1])}); partial trace flagged")
    if n_seeds > 1:
        path = os.path.join(out_dir, "trace_avg.csv")
        avg = averaged_trace(traces)
        write_trace_csv(path, avg, trace_metadata(scenario, "avg", avg))
        log.info("wrote %s", path)
    return 0


def cmd_bounds(args):
    """bounds.csv: the bound rows, the engine's inputs and every skipped trajectory."""
    cfg = load_config(args.config)
    check_scenario(cfg)
    out_dir = _output_dir(args, cfg)
    scenario = build_scenario(cfg)
    try:
        bi = bound_inputs_from_scenario(scenario)
        reports, skipped = evaluate_bounds(scenario, bi)
    except ValueError as exc:  # the bounds engine refuses inputs it cannot support
        raise RuntimeFailure(f"no bound exists for these inputs: {exc}") from exc
    metadata = {"config_hash": config_hash(cfg)}
    metadata.update((key, getattr(bi, key)) for key in BOUND_INPUT_KEYS)
    metadata.update((f"skipped.{name}", reason) for name, reason in skipped.items())
    path = os.path.join(out_dir, "bounds.csv")
    write_bounds_csv(path, reports, metadata)
    log.info("wrote %s (%d bounds)", path, len(reports))
    return 0


def cmd_check(args):
    trace_meta, trace = read_trace_csv(args.trace)
    bounds_meta, bound_rows = read_bounds_csv(args.bounds)
    if trace_meta.get("config_hash") != bounds_meta.get("config_hash"):
        raise InputFileError(f"config hash mismatch: trace {trace_meta.get('config_hash')} vs "
                             f"bounds {bounds_meta.get('config_hash')}")
    n_rows = len(trace["k"])
    for name, values in bound_rows.items():
        if name not in BOUND_METRICS:
            raise InputFileError(f"unknown bound name {name!r} in {args.bounds}")
        if len(values) != n_rows:
            raise InputFileError(f"length mismatch for {name}: bounds file has {len(values)} rows, "
                                 f"trace has {n_rows}")
    for name, values in bound_rows.items():
        column, transform = BOUND_METRICS[name]
        with np.errstate(over="ignore"):  # a huge value read from a file overflows to inf: a violation
            report = check_bound_domination(transform(trace[column]), values, slack=args.slack)
        if not report.passed:
            print(
                f"VIOLATION {name}: k={report.first_violation} metric="
                f"{report.metric_at_violation:.6g} bound={report.bound_at_violation:.6g}",
            )
            return 3
        print(f"ok {name}: {report.checked} rows, worst ratio {report.worst_ratio:.4f}")
    return 0


def _sweep_cell(objective, f_star, hp, oracle):
    """(status, final_gap, final_consensus, mean_omega) of one run on ``objective``."""
    trace = run(objective, oracle, hp, f_star)
    if trace.status != "completed":
        return "diverged", float("inf"), float("inf"), float("nan")
    suite = objective.suite
    xbar = trace.swarm.x_cur.mean(axis=0)
    final_gap = agent_total(suite.evaluate(xbar)[0]) - common_optimum(suite)
    if len(trace) == 0:  # hp.iters = 0: no row holds a consensus error or an omega
        return "completed", final_gap, float("nan"), float("nan")
    return "completed", final_gap, float(trace.consensus_err_max[-1]), float(trace.omega_used.mean())


def cmd_sweep(args):
    """sweep.csv, one row per cell in grid order; each cell is checked once, and cells that share a topology
    and option share one problem, the stacked objective and optimum of the first one's mixing and suite."""
    cfg = load_config(args.config)
    check_scenario(cfg)
    axes = [cfg.get(f"sweep.{label}", [None]) for label, _ in SWEEP_AXES]
    cells = list(itertools.product(*axes)) if any(axis != [None] for axis in axes) else []
    rows, problems = [], {}
    for cell in cells:
        items = dict(cfg.items)
        items.update((key, val) for (_, key), val in zip(SWEEP_AXES, cell) if val is not None)
        mixing, suite, hp, oracle = check_scenario(RunConfig(items=items))
        rows.append([items.get(key, "") for _, key in SWEEP_AXES])
        _, _, members = problems.setdefault((items.get("topology.kind"), hp.option), (mixing, suite, []))
        members.append((rows[-1], hp, oracle))
    out_dir = _output_dir(args, cfg)
    for mixing, suite, members in problems.values():
        try:
            objective, f_star = _stacked_problem(mixing, suite, members[0][1])
        except Exception as exc:  # a failed build fails each of its cells in-row
            log.warning("sweep problem of cell %s failed: %s", ",".join(members[0][0]), exc)
            objective = None
        for row, hp, oracle in members:
            status, numbers = "error", [float("nan")] * 3
            if objective is not None:
                try:
                    status, *numbers = _sweep_cell(objective, f_star, hp, oracle)
                except Exception as exc:
                    log.warning("sweep cell %s failed: %s", ",".join(row), exc)
            row += [status] + [_fmt(x) for x in numbers]
        del objective  # freed before the next problem is built
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
    level = {"quiet": logging.WARNING, "info": logging.INFO, "debug": logging.DEBUG}.get(
        os.environ.get("DMSGD_LOG", "info"), logging.INFO
    )
    logging.basicConfig(level=level, format="%(levelname)s %(message)s", stream=sys.stderr)


def main(argv=None):
    _setup_logging()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 2
    try:
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
