import itertools
import logging
import os
import re
import runpy
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import dmsgd

from dmsgd import harness, objectives
from dmsgd.harness import (
    CONFIG_KEYS,
    ConfigError,
    RunConfig,
    SWEEP_AXES,
    TRACE_HEADER,
    build_scenario,
    bound_inputs_from_scenario,
    check_scenario,
    config_hash,
    load_config,
    main,
    parse_config_text,
    pilot_measurements,
    read_bounds_csv,
    read_trace_csv,
    serialize_config,
)
from dmsgd.objectives import (
    UnifiedObjective,
    agent_total,
    common_optimum,
    make_logistic,
    make_synthetic_dataset,
    partition_noniid,
    unified_optimum,
)
from dmsgd.optimizer import run
from dmsgd.topology import build_topology, metropolis_mixing, spectrum
from test_pins import BOUNDS_CONFIGS, CONFIGS, QUAD, RING_CUSTOM_SWEEP, SEEDS_RUN, SWEEP_CONFIGS

QUAD_CONFIG = """\
topology.kind = full
topology.n = 3
topology.laziness = 0.5
objective.kind = quadratic
objective.targets = 1.8,2.0;2.0,2.2;2.2,1.8
objective.curvatures = 1
objective.grad_bound = auto
oracle.mode = additive
oracle.sigma = 0.0
hp.option = I
hp.alpha = 0.05
hp.beta = 0.5
hp.omega = 0.5
hp.iters = 40
hp.seed = 0
output.seeds = 1
"""


def write_config(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


# ----------------------------------------------------------------- config


def test_parse_and_serialize_roundtrip():
    cfg = parse_config_text(QUAD_CONFIG)
    canon = serialize_config(cfg)
    again = parse_config_text(canon)
    assert again.items == cfg.items
    assert serialize_config(again) == canon
    assert config_hash(again) == config_hash(cfg)


def test_parse_rejects_garbage():
    with pytest.raises(ConfigError):
        parse_config_text("not a key value line\n")
    with pytest.raises(ConfigError):
        parse_config_text("a = 1\na = 2\n")
    with pytest.raises(ConfigError):
        parse_config_text("a =\n")


def test_parse_comments_and_blanks():
    cfg = parse_config_text("# comment\n\nhp.beta = 0.5  # trailing\n")
    assert cfg.items == {"hp.beta": "0.5"}


def test_parse_ends_lines_only_at_lf_crlf_and_cr():
    """Characters that str.splitlines also breaks at (form feed, U+2028, ...) stay inside their line: a comment
    hides all of its line, and an error counts lines as the README does and shows no line ending."""
    assert parse_config_text("topology.kind = ring  # note\u2028hp.iters = 7\n").items == {"topology.kind": "ring"}
    with pytest.raises(ConfigError, match=r"^line 2: expected 'key = value', got 'bad line'$"):
        parse_config_text("a\fb = 1\nbad line")
    assert parse_config_text("hp.seed = 1\r\nhp.iters = 2\rhp.beta = 0.5\n").items == {
        "hp.seed": "1", "hp.iters": "2", "hp.beta": "0.5"}
    with pytest.raises(ConfigError, match=r"^line 3: expected 'key = value', got 'bad'$"):
        parse_config_text("hp.seed = 1\r\n\rbad\r\n")


def test_scenario_validation_errors(tmp_path):
    with pytest.raises(ConfigError, match="missing"):
        build_scenario(parse_config_text("topology.kind = full\n"))
    bad = QUAD_CONFIG.replace("topology.n = 3", "topology.n = 4")
    with pytest.raises(ConfigError, match="agents"):
        build_scenario(parse_config_text(bad))
    sched = QUAD_CONFIG.replace("hp.option = I", "hp.option = I\nhp.schedule = sqrt\nhp.B = 1.0")
    with pytest.raises(ConfigError, match=re.escape(
            "hp.option, hp.schedule, hp.alpha, hp.B, hp.beta, hp.omega, hp.adaptive_scope, hp.iters, hp.seed: the "
            "sqrt(B/k) schedule varies the penalty weight of the option-I objective every iteration; drive schedule "
            "runs through option II")):
        build_scenario(parse_config_text(sched))


AGENTLESS = {
    "logistic": """\
topology.kind = ring
topology.n = 6
objective.kind = logistic
objective.samples = 60
objective.features = 3
objective.reg = 0.1
oracle.mode = minibatch
oracle.batch = 5
hp.alpha = 0.1
hp.iters = 5
""",
    "pl": """\
topology.kind = ring
topology.n = 5
topology.laziness = 0.3
objective.kind = pl
objective.shifts = -0.6;-0.2;0.1;0.3;0.8
hp.alpha = 0.05
hp.iters = 5
""",
}


@pytest.mark.parametrize("kind, agents_key, n", [("logistic", "objective.agents", 6), ("pl", "objective.n", 5)])
def test_agent_count_defaults_to_the_topology(tmp_path, kind, agents_key, n):
    text = AGENTLESS[kind]
    assert build_scenario(parse_config_text(text)).objective.suite.n == n
    assert main(["run", "--config", write_config(tmp_path, text), "--out", str(tmp_path / "out")]) == 0
    # a set key that disagrees with the topology is refused first, naming both keys
    with pytest.raises(ConfigError, match=f"^{agents_key} = 4 but topology.n gives {n} agents$"):
        build_scenario(parse_config_text(text + f"{agents_key} = 4\n"))


def test_target_rows_must_match_the_topology(tmp_path):
    two_rows = QUAD_CONFIG.replace("1.8,2.0;2.0,2.2;2.2,1.8", "1.8,2.0;2.0,2.2")
    with pytest.raises(ConfigError, match="^objective.targets has 2 rows but topology.n gives 3 agents$"):
        build_scenario(parse_config_text(two_rows))
    edges = tmp_path / "graph.txt"
    edges.write_text("4\n0 1\n1 2\n2 3\n", encoding="utf-8")
    custom = QUAD_CONFIG.replace("topology.kind = full\ntopology.n = 3\n",
                                 f"topology.kind = custom\ntopology.edges = {edges}\n")
    with pytest.raises(ConfigError, match="^objective.targets has 3 rows but topology.edges gives 4 agents$"):
        build_scenario(parse_config_text(custom))


@pytest.mark.parametrize("old,new", [
    ("hp.omega = 0.5", "hp.omega = abc"),
    ("objective.curvatures = 1", "objective.curvatures = x"),
    ("oracle.mode = additive", "oracle.mode = minibatch\noracle.batch = x"),
    ("topology.kind = full", "topology.kind = bipartite\ntopology.parts = a,b"),
    ("oracle.sigma = 0.0", "oracle.sigma = -1"),
    ("hp.beta = 0.5", "hp.betta = 0.9"),
    ("objective.targets = 1.8,2.0;2.0,2.2;2.2,1.8", "objective.targets = 1.8,2.0;2.0;2.2,1.8"),
    # an empty entry or row is refused, never dropped
    ("objective.curvatures = 1", "objective.curvatures = 1,,2,3"),
    ("objective.targets = 1.8,2.0;2.0,2.2;2.2,1.8", "objective.targets = 1.8,2.0;;2.0,2.2;2.2,1.8"),
    ("objective.targets = 1.8,2.0;2.0,2.2;2.2,1.8", "objective.targets = 1.8,2.0;2.0,2.2;2.2,1.8;"),
    ("topology.kind = full\ntopology.n = 3\ntopology.laziness = 0.5\nobjective.kind = quadratic\n"
     "objective.targets = 1.8,2.0;2.0,2.2;2.2,1.8\nobjective.curvatures = 1",
     "topology.kind = ring\ntopology.n = 3\ntopology.laziness = 0.5\nobjective.kind = pl\nobjective.shifts = 0;;1;,2"),
])
def test_cli_malformed_config_exit_2(tmp_path, capsys, old, new):
    cfg_path = write_config(tmp_path, QUAD_CONFIG.replace(old, new))
    for command in ("run", "bounds"):
        assert main([command, "--config", cfg_path, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("config error:")


def test_bipartite_parts_split_the_agents(tmp_path):
    text = (QUAD_CONFIG.replace("topology.kind = full\ntopology.n = 3", "topology.kind = bipartite\ntopology.n = 6\n"
                                "topology.parts = 2,4")
            .replace("1.8,2.0;2.0,2.2;2.2,1.8", "1.8,2.0;2.0,2.2;2.2,1.8;1.9,2.1;2.1,1.9;2.0,2.0"))
    adjacency = build_scenario(parse_config_text(text)).objective.mixing.adjacency
    assert adjacency.sum(axis=1).tolist() == [4, 4, 2, 2, 2, 2]  # agents 0, 1 against agents 2..5
    assert main(["run", "--config", write_config(tmp_path, text), "--out", str(tmp_path / "out")]) == 0


def test_cli_bad_adaptive_scope_named_exit_2(tmp_path, capsys):
    cfg_path = write_config(tmp_path, QUAD_CONFIG + "hp.adaptive_scope = agnet\n")
    assert main(["run", "--config", cfg_path, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("config error:") and "'agnet'" in err[0]


def readme_config_keys():
    """The keys the README's "All keys" block names, with ``a.b / c / d`` expanded to a.c and a.d."""
    readme = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "README.md")
    with open(readme, encoding="utf-8") as fh:
        block = fh.read().split("All keys:\n\n```\n", 1)[1].split("```", 1)[0]
    keys = set()
    for line in block.splitlines():
        tokens = line.split()
        for before, token in zip([""] + tokens, tokens):
            if re.fullmatch(r"[a-z]+\.\w+", token):
                keys.add(token)
                section = token.split(".")[0]
            elif before == "/" and re.fullmatch(r"\w+", token):
                keys.add(f"{section}.{token}")
    return keys


def test_readme_key_table_names_exactly_the_parsed_keys():
    keys = readme_config_keys()
    assert keys - CONFIG_KEYS.keys() == set()  # documented but refused as unknown
    assert CONFIG_KEYS.keys() - keys == set()  # accepted but undocumented


def readme_defaults():
    """{key: text} of each README key table line that ends ``default <text>``."""
    readme = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "README.md")
    with open(readme, encoding="utf-8") as fh:
        block = fh.read().split("All keys:\n\n```\n", 1)[1].split("```", 1)[0]
    return dict(re.fullmatch(r"(\S+) .*, default (.+)", line).groups() for line in block.splitlines()
                if ", default " in line)


DEFAULTS_QUAD = """\
topology.kind = full
topology.n = 3
objective.kind = quadratic
objective.targets = 1.8,2.0;2.0,2.2;2.2,1.8
hp.alpha = 0.05
"""
DEFAULTS_BIPARTITE = DEFAULTS_QUAD.replace("kind = full\ntopology.n = 3", "kind = bipartite\ntopology.n = 5").replace(
    "1.8,2.0;2.0,2.2;2.2,1.8", "0;1;2;3;4")
DEFAULTS_PL = "topology.kind = ring\ntopology.n = 4\nobjective.kind = pl\nhp.alpha = 0.05\n"
DEFAULTS_LOGISTIC = DEFAULTS_PL.replace("kind = pl", "kind = logistic")
# each key whose README line states a default: a config that leaves it out, and the config text of that default
DEFAULTED_KEYS = {
    "topology.laziness": (DEFAULTS_QUAD, "0"),
    "topology.parts": (DEFAULTS_BIPARTITE, "2,3"),  # n//2,n-n//2 of n = 5
    "objective.curvatures": (DEFAULTS_QUAD, "1"),
    "objective.n": (DEFAULTS_PL, "4"),  # the topology's
    "objective.shifts": (DEFAULTS_PL, "0"),
    "objective.dataset": (DEFAULTS_LOGISTIC, "synthetic"),
    "objective.dataset_seed": (DEFAULTS_LOGISTIC, "0"),
    "objective.samples": (DEFAULTS_LOGISTIC, "400"),
    "objective.features": (DEFAULTS_LOGISTIC, "5"),
    "objective.classes": (DEFAULTS_LOGISTIC, "2"),
    "objective.separation": (DEFAULTS_LOGISTIC, "4.0"),
    "objective.agents": (DEFAULTS_LOGISTIC, "4"),  # the topology's
    "objective.partition": (DEFAULTS_LOGISTIC, "iid"),
    "objective.partition_seed": (DEFAULTS_LOGISTIC, "0"),
    "objective.reg": (DEFAULTS_LOGISTIC, "0"),
    "oracle.mode": (DEFAULTS_QUAD, "additive"),
    "oracle.sigma": (DEFAULTS_QUAD, "0"),
    **{key: (DEFAULTS_QUAD, value) for key, value in (
        ("hp.option", "I"), ("hp.schedule", "constant"), ("hp.beta", "0"), ("hp.omega", "0"),
        ("hp.adaptive_scope", "agent"), ("hp.iters", "100"), ("hp.seed", "0"))},
}


def test_readme_states_each_default():
    """The README states a default for the keys of DEFAULTED_KEYS and for the three keys check_scenario does not
    read, and states the default each key of DEFAULTED_KEYS is set to below."""
    expected = {key: value for key, (_, value) in DEFAULTED_KEYS.items()}
    expected.update({"topology.parts": "n//2,n-n//2", "objective.n": "the topology's",
                     "objective.agents": "the topology's", "objective.grad_bound": "auto", "output.dir": ".",
                     "output.seeds": "1"})
    assert readme_defaults() == expected


def checked_state(cfg):
    """What a run reads of ``check_scenario(cfg)``: the bytes of the mixing entries, of the suite's arrays and of its
    values and gradients at one point, the suite's constants, the penalty's alpha, ``hp`` and the oracle."""
    objective, hp, oracle = check_scenario(cfg, {})
    suite = objective.suite
    x = np.linspace(-1.0, 1.0, suite.n * suite.d).reshape(suite.n, suite.d)
    arrays = [objective.mixing.entries, *suite.evaluate(x), *(v for v in suite.params.values()
                                                              if isinstance(v, np.ndarray))]
    arrays += [] if suite.x_star is None else [suite.x_star]
    constants = (suite.n, suite.d, suite.kind, suite.l_m, suite.mu_m, suite.pl_constant, suite.f_star,
                 suite.sample_counts)
    return [a.tobytes() for a in arrays], constants, objective.alpha, hp, oracle


@pytest.mark.parametrize("key", sorted(DEFAULTED_KEYS))
def test_a_left_out_key_builds_its_readme_default(key):
    """A config that leaves a key out builds what one that sets the README's default does."""
    base, value = DEFAULTED_KEYS[key]
    assert checked_state(parse_config_text(base)) == checked_state(parse_config_text(f"{base}{key} = {value}\n"))


# a ring of 128 spends about a second in the Jacobi spectrum
RING_128 = (QUAD_CONFIG.replace("topology.kind = full\ntopology.n = 3", "topology.kind = ring\ntopology.n = 128")
            .replace("objective.targets = 1.8,2.0;2.0,2.2;2.2,1.8",
                     "objective.targets = " + ";".join(str(j % 7) for j in range(128))))


@pytest.fixture
def spectrum_calls(monkeypatch):
    calls, spectrum = [], harness.spectrum

    def counted(mixing):
        calls.append(mixing.n)
        return spectrum(mixing)

    monkeypatch.setattr(harness, "spectrum", counted)
    return calls


@pytest.fixture
def optimum_calls(monkeypatch):
    """``(name, agents)`` of each call of ``harness.unified_optimum`` (on a stacked objective) and
    ``harness.common_optimum`` (on a suite), in call order."""
    calls = []
    for name in ("unified_optimum", "common_optimum"):
        def counted(problem, name=name, solve=getattr(harness, name)):
            calls.append((name, getattr(problem, "suite", problem).n))
            return solve(problem)
        monkeypatch.setattr(harness, name, counted)
    return calls


def test_spectrum_call_counter_counts(tmp_path, spectrum_calls):
    """``run`` computes no spectrum; ``bounds``, the one command that reads it, computes one."""
    cfg_path = write_config(tmp_path, QUAD_CONFIG)
    assert main(["run", "--config", cfg_path, "--out", str(tmp_path / "out")]) == 0
    assert spectrum_calls == []
    assert main(["bounds", "--config", cfg_path, "--out", str(tmp_path / "out")]) == 0
    assert spectrum_calls == [3]


@pytest.mark.parametrize("edit, command, args", [
    (edit, command, []) for edit in ("objective.grad_bound = abc", "output.seeds = x", "sweep.omega = 0.2,zz")
    for command in ("run", "bounds", "sweep")
] + [
    ("", "run", ["--seeds", "0"]),
    ("", "run", ["--out", "FILE"]),
    ("", "bounds", ["--out", "FILE"]),
    ("hp.schedule = sqrt\nhp.B = 1.0", "run", []),
    ("hp.schedule = sqrt\nhp.B = 1.0", "bounds", []),
    ("sweep.beta = 0.5,2", "sweep", []),
] + [
    # range checks, with no sweep.* key for the sweep
    (edit, command, []) for edit in ("hp.beta = 2", "oracle.sigma = -1") for command in ("run", "bounds", "sweep")
])
def test_config_errors_end_before_the_numerics(tmp_path, capsys, spectrum_calls, optimum_calls, edit, command,
                                               args):
    """Every config error exits 2 before the numerics.  Only the ``bounds`` cases could see a spectrum; for ``run``
    and ``sweep``, ``optimum_calls == []`` is what shows that the check ends before them: ``run`` solves the
    stacked optimum first, and ``sweep`` each suite's common optimum."""
    key = edit.split(" = ", 1)[0]
    text = "".join(ln + "\n" for ln in RING_128.splitlines() if not ln.startswith(key + " =")) + edit + "\n"
    blocker = tmp_path / "file"
    blocker.write_text("", encoding="utf-8")
    args = [str(blocker) if a == "FILE" else a for a in args]
    out = [] if "--out" in args else ["--out", str(tmp_path / "out")]
    assert main([command, "--config", write_config(tmp_path, text)] + out + args) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("config error: ")
    assert spectrum_calls == [] and optimum_calls == []
    assert not (tmp_path / "out").exists()


# a PL ring of 16 with distinct shifts: its suite build solves an optimum and scans a 20,000-point PL grid
PL_RING_16 = """\
topology.kind = ring
topology.n = 16
objective.kind = pl
objective.shifts = """ + ";".join(str(j / 10) for j in range(16)) + """
hp.alpha = 0.05
hp.iters = 20
"""


@pytest.mark.parametrize("text, alpha, n", [
    (QUAD_CONFIG, 0.05, 3),
    (QUAD_CONFIG.replace("hp.option = I", "hp.option = II"), None, 3),
    (PL_RING_16 + "hp.option = II\nhp.schedule = sqrt\nhp.B = 1.0\n", None, 16),
], ids=["option_I", "option_II", "sqrt_option_II"])
def test_check_returns_the_stacked_objective(spectrum_calls, optimum_calls, text, alpha, n):
    """The config check ends with the stacked objective, penalized by ``hp.alpha`` under option I only, over the
    topology's agents, and solves nothing."""
    objective, hp, oracle = check_scenario(parse_config_text(text), {})
    assert objective.alpha == (hp.alpha if hp.option == "I" else None) == alpha
    assert objective.suite.n == objective.mixing.n == n
    assert oracle.mode == "additive"
    assert spectrum_calls == [] and optimum_calls == []


PIN_CONFIG_TEXTS = {**{f"digests-{name}": text for name, text in CONFIGS.items()}, "quad": QUAD,
                    **{f"sweep-{name}": text for name, text in SWEEP_CONFIGS.items()},
                    **{f"bounds-{name}": text for name, text in BOUNDS_CONFIGS.items()},
                    "seeds_run": SEEDS_RUN, "ring_custom_sweep": RING_CUSTOM_SWEEP}


@pytest.mark.parametrize("name", sorted(PIN_CONFIG_TEXTS))
def test_pin_configs_check_to_their_runs_objective(tmp_path, monkeypatch, name):
    """Each config the pins run, and each cell of its sweep, checks to the objective ``of_run`` builds for its hp."""
    monkeypatch.chdir(tmp_path)  # RING_CUSTOM_SWEEP's edge list is a relative path
    (tmp_path / "ring4.edges").write_text("4\n0 1\n1 2\n2 3\n3 0\n", encoding="utf-8")
    cfg = parse_config_text(PIN_CONFIG_TEXTS[name])
    suites = {}
    for cell in itertools.product(*(cfg.get(f"sweep.{label}", [None]) for label, _ in SWEEP_AXES)):
        items = dict(cfg.items)
        items.update((key, val) for (_, key), val in zip(SWEEP_AXES, cell) if val is not None)
        objective, hp, _ = check_scenario(RunConfig(items=items), suites)
        objective.check_fits(hp)


@pytest.mark.parametrize("edit", ["hp.beta = 2", "hp.schedule = sqrt\nhp.B = 1.0", "oracle.sigma = -1"])
@pytest.mark.parametrize("command", ["run", "bounds", "sweep"])
def test_config_errors_end_before_the_suite(tmp_path, capsys, monkeypatch, edit, command):
    calls, estimate = [], objectives.estimate_pl_constant

    def counted(*args):
        calls.append(args)
        return estimate(*args)

    monkeypatch.setattr(objectives, "estimate_pl_constant", counted)
    cfg_path = write_config(tmp_path, PL_RING_16 + edit + "\n")
    assert main([command, "--config", cfg_path, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("config error: ")
    assert calls == []


# the benchmark's minibatch_sweep workload at seed 0: 18 cells over one agent count
MINIBATCH_SWEEP = runpy.run_path(str(Path(__file__).parents[1] / "bench" / "workloads.py"))["WORKLOADS"][
    "minibatch_sweep"].config_text(0)


def test_benchmark_tracer_wraps_only_defined_names():
    """Every (owner, attribute) the benchmark's tracer wraps is still defined on that owner, and its ``bounds.eval``
    layer wraps exactly the formulas and the domination check that ``bounds.__all__`` lists: the bound records and
    their evaluation stay out of it, so that moving them does not change what the benchmark times."""
    from dmsgd import bounds, optimizer

    layer_table = runpy.run_path(str(Path(__file__).parents[1] / "bench" / "tracer.py"))["layer_table"]
    table = layer_table(harness, optimizer, bounds, objectives)
    assert [(owner.__name__, attr) for owner, attr, _, _ in table if attr not in vars(owner)] == []
    assert [(owner, attr) for owner, attr, layer, _ in table if layer == "bounds.eval"] == [(bounds, attr) for attr in (
        "consensus_bound", "displacement_bound", "r_constant", "strongly_convex_trajectory", "pl_trajectory",
        "nonconvex_alpha_star", "nonconvex_avg_grad_bound", "simpler_step_bound", "simpler_q", "optimal_schedule_b",
        "check_bound_domination")]


@pytest.mark.parametrize("text, command, builds", [
    (PL_RING_16, "run", 1),
    (PL_RING_16 + "topology.laziness = 0.5\n", "bounds", 1),  # a bare ring of 16 admits no consensus bound
    (PL_RING_16 + "sweep.omega = 0.2,0.5,adaptive\n", "sweep", 1),
    (MINIBATCH_SWEEP, "sweep", 1),
    (MINIBATCH_SWEEP, "bounds", 1),
    (RING_CUSTOM_SWEEP, "sweep", 2),
], ids=["pl-run", "pl-bounds", "pl-sweep", "minibatch-sweep", "minibatch-bounds", "ring-custom-sweep"])
def test_each_suite_is_built_once_per_agent_count(tmp_path, monkeypatch, text, command, builds):
    """A command checks its config once, and a sweep builds one suite per agent count its cells use."""
    calls = []
    for owner, name in ((objectives, "estimate_pl_constant"), (harness, "make_logistic")):
        def counted(*args, fn=getattr(owner, name), **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "ring4.edges").write_text("4\n0 1\n1 2\n2 3\n3 0\n", encoding="utf-8")
    assert main([command, "--config", write_config(tmp_path, text), "--out", str(tmp_path / "out")]) == 0
    assert len(calls) == builds


@pytest.mark.parametrize("text, suites", [
    (QUAD_CONFIG + "sweep.topology = full,ring,bipartite\nsweep.omega = 0.2,0.5,adaptive\nsweep.seed = 0,1\n", [3]),
    (QUAD_CONFIG + "sweep.option = I,II\nsweep.topology = full,ring\n", [3]),
    (AGENTLESS["logistic"] + "sweep.topology = full,ring\nsweep.seed = 0,1\n", [6]),
    (RING_CUSTOM_SWEEP, [6, 4]),
], ids=["quadratic-topologies", "quadratic-options", "logistic-topologies", "ring-custom"])
def test_sweep_solves_one_common_optimum_per_suite(tmp_path, monkeypatch, spectrum_calls, optimum_calls, text, suites):
    """A sweep reads one optimum, the common minimum of a suite, and solves it once per suite, at the suite's first
    cell in grid order, whatever topologies and options share that suite; it solves no stacked optimum."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "ring4.edges").write_text("4\n0 1\n1 2\n2 3\n3 0\n", encoding="utf-8")
    assert main(["sweep", "--config", write_config(tmp_path, text), "--out", str(tmp_path / "out")]) == 0
    assert optimum_calls == [("common_optimum", n) for n in suites]
    assert spectrum_calls == []  # no sweep column reads the spectrum
    # one completed row per cell of the axes' product, under the header
    cells = np.prod([len(ln.split(",")) for ln in text.splitlines() if ln.startswith("sweep.")])
    rows = data_rows(tmp_path / "out" / "sweep.csv")[1:]
    assert [row.split(",")[5] for row in rows] == ["completed"] * cells


def test_sweep_failed_common_optimum_fails_its_suites_cells(tmp_path, monkeypatch, caplog):
    """A failed common-optimum solve fails each cell of its suite in-row, with one warning naming the suite's agent
    count; the cells of the other suite complete, and the sweep exits 0."""
    common_optimum = harness.common_optimum

    def failing(suite):
        if suite.n == 4:
            raise RuntimeError("injected failure")
        return common_optimum(suite)

    monkeypatch.setattr(harness, "common_optimum", failing)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "ring4.edges").write_text("4\n0 1\n1 2\n2 3\n3 0\n", encoding="utf-8")
    with caplog.at_level(logging.WARNING, logger="dmsgd"):
        assert main(["sweep", "--config", write_config(tmp_path, RING_CUSTOM_SWEEP), "--out", "out"]) == 0
    rows = [row.split(",") for row in data_rows(tmp_path / "out" / "sweep.csv")[1:]]
    assert [row[2:6] for row in rows] == [["ring", "I", "0", "completed"], ["ring", "I", "1", "completed"],
                                         ["custom", "I", "0", "error"], ["custom", "I", "1", "error"]]
    assert [row[6:] for row in rows[2:]] == [["nan", "nan", "nan"]] * 2
    assert [r.getMessage() for r in caplog.records if r.levelno >= logging.WARNING] == [
        "sweep common optimum of the 4-agent suite failed: injected failure"]


def test_unknown_key_rejected_before_sweep(tmp_path, capsys):
    with pytest.raises(ConfigError, match="hp.betta"):
        build_scenario(parse_config_text(QUAD_CONFIG + "hp.betta = 0.9\n"))
    # sweep cells record their own failures in-row, so the key check runs first
    cfg_path = write_config(tmp_path, QUAD_CONFIG + "hp.betta = 0.9\nsweep.seed = 0,1\n")
    assert main(["sweep", "--config", cfg_path, "--out", str(tmp_path / "out")]) == 2
    assert "hp.betta" in capsys.readouterr().err


def test_cli_batch_larger_than_partition_exit_2(tmp_path, capsys):
    # 40 samples over 4 agents leave 10 per partition, fewer than the batch
    cfg = """\
topology.kind = full
topology.n = 4
objective.kind = logistic
objective.dataset = synthetic
objective.samples = 40
objective.features = 3
objective.agents = 4
objective.reg = 0.1
oracle.mode = minibatch
oracle.batch = 50
hp.option = I
hp.alpha = 0.1
hp.iters = 5
"""
    cfg_path = write_config(tmp_path, cfg)
    for command in ("run", "bounds"):
        assert main([command, "--config", cfg_path, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("config error:") and "batch 50" in err[0]


def test_cli_sweep_config_error_exit_2(tmp_path, capsys):
    cfg = QUAD_CONFIG.replace("hp.omega = 0.5", "hp.omega = abc") + "sweep.seed = 0,1\n"
    out = tmp_path / "out"
    assert main(["sweep", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("config error:") and "hp.omega" in err[0]
    assert not (out / "sweep.csv").exists()


# -------------------------------------------------------------------- run


def test_cli_run_writes_trace(tmp_path):
    cfg_path = write_config(tmp_path, QUAD_CONFIG)
    out = str(tmp_path / "out")
    assert main(["run", "--config", cfg_path, "--out", out]) == 0
    meta, trace = read_trace_csv(os.path.join(out, "trace_seed0.csv"))
    assert len(trace["k"]) == 40
    assert meta["status"] == "completed"
    assert meta["config_hash"] == config_hash(load_config(cfg_path))
    assert trace["k"][0] == 1 and (np.diff(trace["k"]) == 1).all()


def test_cli_run_byte_identical(tmp_path):
    cfg_path = write_config(tmp_path, QUAD_CONFIG.replace("oracle.sigma = 0.0", "oracle.sigma = 0.3"))
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(["run", "--config", cfg_path, "--out", out1]) == 0
    assert main(["run", "--config", cfg_path, "--out", out2]) == 0
    a = Path(out1, "trace_seed0.csv").read_bytes()
    b = Path(out2, "trace_seed0.csv").read_bytes()
    assert a == b


def test_cli_run_multi_seed_average(tmp_path):
    cfg_path = write_config(tmp_path, QUAD_CONFIG.replace("oracle.sigma = 0.0", "oracle.sigma = 0.2"))
    out = str(tmp_path / "out")
    assert main(["run", "--config", cfg_path, "--seeds", "4", "--out", out]) == 0
    files = sorted(os.listdir(out))
    assert files == ["trace_avg.csv", "trace_seed0.csv", "trace_seed1.csv", "trace_seed2.csv", "trace_seed3.csv"]
    _, avg = read_trace_csv(os.path.join(out, "trace_avg.csv"))
    seeds = [read_trace_csv(os.path.join(out, f"trace_seed{i}.csv"))[1] for i in range(4)]
    for col in ("gap", "grad_norm_sq", "step_norm"):
        manual = np.mean([s[col] for s in seeds], axis=0)
        assert np.abs(manual - avg[col]).max() <= 1e-12


def data_rows(path):
    with open(path, encoding="utf-8") as fh:
        return [ln for ln in fh.read().splitlines() if not ln.startswith("#")]


def test_cli_run_average_does_not_depend_on_the_run_length(tmp_path):
    """trace_avg.csv's row 1 is the in-order seed sum over 16 seeds divided by 16, at one row and at two."""
    text = (QUAD_CONFIG.replace("objective.targets = 1.8,2.0;2.0,2.2;2.2,1.8", "objective.targets = 0.3;1.1;1.7")
            .replace("oracle.sigma = 0.0", "oracle.sigma = 0.5").replace("hp.option = I", "hp.option = II")
            .replace("hp.alpha = 0.05", "hp.alpha = 0.1"))
    first_rows = []
    for iters in (1, 2):
        out = str(tmp_path / f"iters{iters}")
        cfg_path = write_config(tmp_path, text.replace("hp.iters = 40", f"hp.iters = {iters}"), f"i{iters}.cfg")
        assert main(["run", "--config", cfg_path, "--seeds", "16", "--out", out]) == 0
        avg = read_trace_csv(os.path.join(out, "trace_avg.csv"))[1]
        seeds = [read_trace_csv(os.path.join(out, f"trace_seed{s}.csv"))[1] for s in range(16)]
        gaps = [s["gap"][0] for s in seeds]
        assert avg["gap"][0] == sum(gaps) / 16
        first_rows.append(data_rows(os.path.join(out, "trace_avg.csv"))[1])
    assert first_rows[0] == first_rows[1]


def test_cli_run_seeds_match_single_seed_runs(tmp_path):
    text = QUAD_CONFIG.replace("oracle.sigma = 0.0", "oracle.sigma = 0.3")
    out = str(tmp_path / "multi")
    assert main(["run", "--config", write_config(tmp_path, text), "--seeds", "4", "--out", out]) == 0
    for seed in range(4):
        single = str(tmp_path / f"single{seed}")
        cfg_path = write_config(tmp_path, text.replace("hp.seed = 0", f"hp.seed = {seed}"), f"s{seed}.cfg")
        assert main(["run", "--config", cfg_path, "--out", single]) == 0
        name = f"trace_seed{seed}.csv"
        assert data_rows(os.path.join(out, name)) == data_rows(os.path.join(single, name))


def run_fresh_python(script, returncode=0):
    """Run ``script`` in a new interpreter that imports this checkout's dmsgd; fail with its stderr unless it exits
    with ``returncode``.  Returns the finished process."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(dmsgd.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert proc.returncode == returncode, proc.stderr
    return proc


def test_quadratic_cli_never_imports_scipy_optimize(tmp_path):
    cfg_path = write_config(tmp_path, QUAD_CONFIG)
    out = str(tmp_path / "out")
    run_fresh_python(f"""\
import sys
from dmsgd.harness import main
assert main(["run", "--config", {cfg_path!r}, "--out", {out!r}]) == 0
assert main(["bounds", "--config", {cfg_path!r}, "--out", {out!r}]) == 0
assert main(["check", "--trace", {out + "/trace_seed0.csv"!r}, "--bounds", {out + "/bounds.csv"!r}]) == 0
assert "scipy.optimize" not in sys.modules, "scipy.optimize was imported"
""")


def test_pl_suite_build_never_imports_scipy():
    """The PL optimum and constant are closed-form: only the stacked L-BFGS optimum would load scipy."""
    run_fresh_python("""\
import sys
from dmsgd.objectives import make_pl
make_pl(4, shifts=[-0.6, -0.2, 0.3, 0.8])
assert "scipy" not in sys.modules, "scipy was imported"
""")


def test_cli_run_aborted_marks_trace(tmp_path, capsys):
    cfg = QUAD_CONFIG.replace("hp.alpha = 0.05", "hp.alpha = 1e9")
    cfg_path = write_config(tmp_path, cfg)
    out = str(tmp_path / "out")
    assert main(["run", "--config", cfg_path, "--out", out]) == 1
    meta, trace = read_trace_csv(os.path.join(out, "trace_seed0.csv"))
    assert meta["status"] == "aborted"
    assert len(trace["k"]) < 40
    cause = f"nonfinite_step agent=0 k={len(trace['k']) + 1}"
    assert meta["abort"] == cause
    lines = Path(out, "trace_seed0.csv").read_text(encoding="utf-8").splitlines()
    assert f"# abort={cause}" in lines
    assert capsys.readouterr().err.splitlines() == [f"error: run aborted (seed 0, {cause}); partial trace flagged"]


@pytest.mark.parametrize("alpha, k", [("1e9", 18), ("1e300", 1)])
def test_cli_bounds_refuses_an_aborted_pilot(tmp_path, capsys, alpha, k):
    """A pilot that aborts measures nothing, whether or not it wrote finite rows before the abort."""
    cfg_path = write_config(tmp_path, QUAD_CONFIG.replace("hp.alpha = 0.05", f"hp.alpha = {alpha}"))
    out = tmp_path / "out"
    assert main(["bounds", "--config", cfg_path, "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: pilot run aborted (nonfinite_step agent=0 k={k}); cannot measure G or sigma"]
    assert os.listdir(out) == []


def test_cli_minibatch_needs_its_batch(tmp_path, capsys):
    """``oracle.mode = minibatch`` without ``oracle.batch`` is a config error, not a full-batch run."""
    cfg = QUAD_CONFIG.replace("oracle.sigma = 0.0", "").replace("oracle.mode = additive", "oracle.mode = minibatch")
    cfg_path = write_config(tmp_path, cfg)
    for command in ("run", "bounds", "sweep"):
        assert main([command, "--config", cfg_path, "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.splitlines() == ["config error: missing config key 'oracle.batch'"]
    assert not (tmp_path / "out").exists()


def test_cli_sampleless_minibatch_is_the_exact_gradient(tmp_path, capsys):
    """A quadratic suite has one sample per agent: a minibatch of 1 draws nothing, so its trace and bounds.csv
    equal those of a noiseless additive oracle bit for bit, config hash aside; a minibatch of 2 is refused."""
    minibatch = QUAD_CONFIG.replace("oracle.mode = additive\noracle.sigma = 0.0",
                                    "oracle.mode = minibatch\noracle.batch = 1")
    files = []
    for name, cfg in (("minibatch", minibatch), ("additive", QUAD_CONFIG)):
        cfg_path, out = write_config(tmp_path, cfg, f"{name}.cfg"), tmp_path / name
        assert main(["run", "--config", cfg_path, "--out", str(out)]) == 0
        assert main(["bounds", "--config", cfg_path, "--out", str(out)]) == 0
        files.append([[ln for ln in (out / f).read_text(encoding="utf-8").splitlines()
                       if not ln.startswith("# config_hash=")] for f in ("trace_seed0.csv", "bounds.csv")])
    assert files[0] == files[1]
    capsys.readouterr()
    cfg_path = write_config(tmp_path, minibatch.replace("oracle.batch = 1", "oracle.batch = 2"))
    assert main(["run", "--config", cfg_path, "--out", str(tmp_path / "batch2")]) == 2
    assert capsys.readouterr().err.splitlines() == ["config error: oracle.batch: batch 2 exceeds agent 0's 1 samples"]


def test_cli_bounds_refuses_zero_smoothness(tmp_path, capsys):
    """Features that are all 0 under option II with no regularization give l_m = 0: the run is fine, and no bound
    exists for it."""
    (tmp_path / "zeros.csv").write_text("f1,f2,label\n" + "".join(f"0,0,{i % 2}\n" for i in range(12)),
                                        encoding="utf-8")
    cfg_path = write_config(tmp_path, f"""\
topology.kind = ring
topology.n = 3
topology.laziness = 0.5
objective.kind = logistic
objective.dataset = {tmp_path / "zeros.csv"}
objective.reg = 0
oracle.mode = additive
hp.option = II
hp.alpha = 0.1
hp.iters = 10
""")
    assert main(["run", "--config", cfg_path, "--out", str(tmp_path / "out")]) == 0
    capsys.readouterr()
    assert main(["bounds", "--config", cfg_path, "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: no bound exists for these inputs: smoothness must be positive"]


def test_cli_run_completed_trace_has_no_abort_line(tmp_path):
    cfg_path = write_config(tmp_path, QUAD_CONFIG)
    out = str(tmp_path / "out")
    assert main(["run", "--config", cfg_path, "--out", out, "--seeds", "2"]) == 0
    for name in ("trace_seed0.csv", "trace_avg.csv"):
        meta, _ = read_trace_csv(os.path.join(out, name))
        assert meta["status"] == "completed"
        assert "abort" not in meta


@pytest.mark.parametrize("alpha, code, keys", [
    ("0.05", 0, ["config_hash", "seed", "status"]),
    ("1e9", 1, ["config_hash", "seed", "status", "abort"]),
], ids=["completed", "aborted"])
def test_run_computes_no_spectrum_and_bounds_records_it(tmp_path, spectrum_calls, alpha, code, keys):
    """``run --seeds 2`` computes no spectrum, and each trace's metadata is the config hash, the seed, the status
    and any abort; ``bounds.csv`` records lambda_2 and lambda_N of the mixing matrix."""
    cfg_path = write_config(tmp_path, QUAD_CONFIG.replace("hp.alpha = 0.05", f"hp.alpha = {alpha}"))
    out = str(tmp_path / "out")
    assert main(["run", "--config", cfg_path, "--out", out, "--seeds", "2"]) == code
    assert spectrum_calls == []
    names = ["trace_seed0.csv", "trace_seed1.csv"] + (["trace_avg.csv"] if code == 0 else [])
    assert sorted(os.listdir(out)) == sorted(names)
    for name in names:
        assert list(read_trace_csv(os.path.join(out, name))[0]) == keys
    if code == 0:
        assert main(["bounds", "--config", cfg_path, "--out", out]) == 0
        meta, _ = read_bounds_csv(os.path.join(out, "bounds.csv"))
        spectral = spectrum(metropolis_mixing(build_topology("full", 3), laziness=0.5))
        assert (meta["lambda2"], meta["lambdaN"]) == (repr(float(spectral.lambda2)), repr(float(spectral.lambda_n)))


def test_cli_run_config_error_exit_2(tmp_path):
    cfg_path = write_config(tmp_path, "topology.kind = full\n")
    assert main(["run", "--config", cfg_path]) == 2
    assert main(["run", "--config", str(tmp_path / "missing.cfg")]) == 2


@pytest.mark.parametrize("seeds", ["0", "-1"])
def test_cli_run_seed_count_below_one_exit_2(tmp_path, seeds):
    cfg_path = write_config(tmp_path, QUAD_CONFIG)
    out = tmp_path / "out"
    assert main(["run", "--config", cfg_path, "--out", str(out), "--seeds", seeds]) == 2
    assert not out.exists() or not os.listdir(out)


def test_trace_header_golden(tmp_path):
    cfg_path = write_config(tmp_path, QUAD_CONFIG)
    out = str(tmp_path / "out")
    main(["run", "--config", cfg_path, "--out", out])
    lines = Path(out, "trace_seed0.csv").read_text(encoding="utf-8").splitlines()
    header = [ln for ln in lines if not ln.startswith("#")][0]
    assert header == TRACE_HEADER
    assert TRACE_HEADER == "k,consensus_err_max,consensus_err_stacked,gap,grad_norm_sq,running_avg_grad,step_norm,omega_used"


# ----------------------------------------------------------------- bounds


def test_cli_bounds_quadratic_dispatch(tmp_path):
    cfg_path = write_config(tmp_path, QUAD_CONFIG)
    out = str(tmp_path / "out")
    assert main(["bounds", "--config", cfg_path, "--out", out]) == 0
    meta, rows = read_bounds_csv(os.path.join(out, "bounds.csv"))
    assert "cor1_gap" in rows
    assert "consensus" in rows
    assert "displacement_sq" in rows
    assert "avg_grad_envelope" in rows
    assert "thm2_gap" not in rows
    assert all(len(v) == 40 for v in rows.values())


def test_cli_bounds_records_skipped_trajectory(tmp_path, capsys):
    # option II, L = 4, mu = 1: alpha above L/(2 mu^2) = 2 is outside cor1_gap's range
    cfg = (QUAD_CONFIG.replace("objective.curvatures = 1", "objective.curvatures = 1;2;4")
           .replace("objective.grad_bound = auto", "objective.grad_bound = 2.0")
           .replace("hp.option = I", "hp.option = II").replace("hp.alpha = 0.05", "hp.alpha = 2.5"))
    cfg_path, out = write_config(tmp_path, cfg), tmp_path / "out"
    assert main(["run", "--config", cfg_path, "--out", str(out)]) == 0
    assert main(["bounds", "--config", cfg_path, "--out", str(out)]) == 0
    meta, rows = read_bounds_csv(str(out / "bounds.csv"))
    assert "cor1_gap" not in rows
    assert meta["skipped.cor1_gap"].startswith("alpha outside the admissible range (0, L/(2 mu^2)]")
    capsys.readouterr()
    # check names the skipped bound before it compares; this option-II run then exceeds the consensus bound and
    # the envelope, and check compares every bound before it exits 3
    assert main(["check", "--trace", str(out / "trace_seed0.csv"), "--bounds", str(out / "bounds.csv")]) == 3
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == f"skipped cor1_gap: {meta['skipped.cor1_gap']}"
    verdicts = {line.split(":")[0].split()[-1]: line for line in lines[1:]}
    assert list(verdicts) == list(rows)
    assert verdicts["consensus"].startswith("VIOLATION consensus: ")
    assert verdicts["avg_grad_envelope"].startswith("VIOLATION avg_grad_envelope: k=1 metric=85.94 bound=11.448")


def test_cli_bounds_skips_each_refused_bound(tmp_path, capsys):
    # G = 1e200: G**2 overflows the consensus and displacement bounds and R (so cor1_gap); the envelope reads no G
    cfg = QUAD_CONFIG.replace("objective.grad_bound = auto", "objective.grad_bound = 1e200")
    cfg_path, out = write_config(tmp_path, cfg), tmp_path / "out"
    assert main(["run", "--config", cfg_path, "--out", str(out)]) == 0
    assert main(["bounds", "--config", cfg_path, "--out", str(out)]) == 0
    meta, rows = read_bounds_csv(str(out / "bounds.csv"))
    assert list(rows) == ["avg_grad_envelope"] and len(rows["avg_grad_envelope"]) == 40
    skipped = {key.removeprefix("skipped."): reason for key, reason in meta.items() if key.startswith("skipped.")}
    assert list(skipped) == ["consensus", "displacement_sq", "cor1_gap"]
    for name, function in zip(skipped, ("consensus_bound", "displacement_bound", "r_constant")):
        assert skipped[name] == f"{function} overflows for these inputs"
    capsys.readouterr()
    assert main(["check", "--trace", str(out / "trace_seed0.csv"), "--bounds", str(out / "bounds.csv")]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:3] == [f"skipped {name}: {reason}" for name, reason in skipped.items()]
    assert len(lines) == 4 and lines[3].startswith("ok avg_grad_envelope: 40 rows, ")


PL_CONFIG = """\
topology.kind = full
topology.n = 3
topology.laziness = 0.5
objective.kind = pl
objective.n = 3
objective.shifts = 0
objective.grad_bound = auto
oracle.mode = additive
oracle.sigma = 0.0
hp.option = I
hp.alpha = 0.05
hp.beta = 0.5
hp.omega = 0.5
hp.iters = 30
hp.seed = 0
"""


def test_cli_bounds_pl_dispatch(tmp_path):
    """A PL suite, with equal or distinct shifts, gets thm2_gap rows and a pl_mu line, not cor1_gap, and its run
    passes check."""
    for name, text, seed in (("equal", PL_CONFIG, 0), ("distinct", CONFIGS["pl_shifts"], 3)):
        cfg_path, out = write_config(tmp_path, text, f"{name}.cfg"), tmp_path / name
        assert main(["run", "--config", cfg_path, "--out", str(out)]) == 0
        assert main(["bounds", "--config", cfg_path, "--out", str(out)]) == 0
        meta, rows = read_bounds_csv(str(out / "bounds.csv"))
        assert "thm2_gap" in rows
        assert "cor1_gap" not in rows
        assert float(meta["pl_mu"]) > 0.0
        assert main(["check", "--trace", str(out / f"trace_seed{seed}.csv"), "--bounds", str(out / "bounds.csv")]) == 0


def test_cli_bounds_pl_mu_ignores_a_common_shift_offset(tmp_path):
    """Adding 50 to every shift moves the PL constant's grid with the shifts, so bounds records the same pl_mu."""
    near = CONFIGS["pl_shifts"]
    far = near.replace("objective.shifts = -0.6;-0.2;0.3;0.8", "objective.shifts = 49.4;49.8;50.3;50.8")
    assert far != near
    pl_mu = []
    for name, text in (("near", near), ("far", far)):
        out = str(tmp_path / name)
        assert main(["bounds", "--config", write_config(tmp_path, text, f"{name}.cfg"), "--out", out]) == 0
        meta, rows = read_bounds_csv(os.path.join(out, "bounds.csv"))
        assert "thm2_gap" in rows
        pl_mu.append(float(meta["pl_mu"]))
    assert pl_mu[1] == pytest.approx(pl_mu[0], rel=1e-9, abs=0.0)


def test_cli_bounds_pl_refusal_names_the_rounding(tmp_path, capsys):
    """Shifts near 1e16 put fbar* near 1e32, where rounding hides every gap on the PL grid: bounds exits 2 with one
    line that gives fbar* and says so."""
    text = CONFIGS["pl_shifts"].replace("objective.shifts = -0.6;-0.2;0.3;0.8", "objective.shifts = 1e16;1e16;-1e16;0")
    assert text != CONFIGS["pl_shifts"]
    assert main(["bounds", "--config", write_config(tmp_path, text), "--out", str(tmp_path / "out")]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("config error: topology.n, objective.shifts: grid contains no points away from the "
                           "optimum: no grid value of fbar exceeds fbar* = 6.875e+31 by more than 1e-12, and at that "
                           "magnitude rounding hides gaps below ")


# set-ups that call scipy's L-BFGS, which must finish under main's raise-on-overflow state
LBFGS_CONFIGS = {
    "pl_distinct_shifts": """\
topology.kind = ring
topology.n = 4
topology.laziness = 0.3
objective.kind = pl
objective.n = 4
objective.shifts = -0.6;-0.2;0.3;0.8
objective.grad_bound = auto
oracle.mode = additive
oracle.sigma = 0.1
hp.option = I
hp.alpha = 0.05
hp.beta = 0.5
hp.omega = 0.5
hp.iters = 30
hp.seed = 3
""",
    "logistic_noniid": """\
topology.kind = ring
topology.n = 4
topology.laziness = 0.3
objective.kind = logistic
objective.dataset = synthetic
objective.dataset_seed = 0
objective.samples = 80
objective.features = 4
objective.classes = 2
objective.agents = 4
objective.partition = noniid
objective.reg = 0.1
objective.grad_bound = auto
oracle.mode = minibatch
oracle.batch = 4
hp.option = I
hp.alpha = 0.5
hp.beta = 0.5
hp.omega = 0.5
hp.iters = 20
hp.seed = 0
""",
}


@pytest.mark.parametrize("name", sorted(LBFGS_CONFIGS))
@pytest.mark.parametrize("command", ["run", "bounds"])
def test_cli_lbfgs_setups_succeed(tmp_path, capsys, name, command):
    cfg_path = write_config(tmp_path, LBFGS_CONFIGS[name])
    assert main([command, "--config", cfg_path, "--out", str(tmp_path / "out")]) == 0
    assert "error" not in capsys.readouterr().err


# a separation this large sends the logistic optimum's L-BFGS-B to nan
NAN_OPTIMUM_CONFIG = """\
topology.kind = ring
topology.n = 3
topology.laziness = 0.5
objective.kind = logistic
objective.dataset = synthetic
objective.samples = 45
objective.features = 3
objective.agents = 3
objective.separation = 1.34e154
oracle.mode = additive
hp.option = I
hp.alpha = 0.2
hp.beta = 0.3
hp.omega = 0.5
hp.iters = 20
"""


@pytest.mark.parametrize("command", ["run", "bounds"])
def test_cli_nonfinite_optimum_is_a_numerical_failure(tmp_path, capsys, command):
    cfg_path = write_config(tmp_path, NAN_OPTIMUM_CONFIG)
    capsys.readouterr()
    assert main([command, "--config", cfg_path, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: numerical failure (")


@pytest.mark.parametrize("command", ["run", "bounds"])
def test_cli_singular_quadratic_optimum_is_a_numerical_failure(tmp_path, command):
    """Curvatures of 1e-300 leave the penalized quadratic's linear system singular in the consensus direction: the
    command exits 1 with one ``error: numerical failure`` line, not a traceback."""
    text = re.sub(r"objective\.curvatures = .*", "objective.curvatures = 1e-300", CONFIGS["adaptive_global"])
    cfg_path = write_config(tmp_path, text)
    proc = run_fresh_python(f"""\
import sys
from dmsgd.harness import main
sys.exit(main([{command!r}, "--config", {cfg_path!r}, "--out", {str(tmp_path / "out")!r}]))
""", returncode=1)
    assert "Traceback" not in proc.stderr
    assert proc.stderr.splitlines() == ["error: numerical failure (no closed-form quadratic stacked optimum: "
                                        "Singular matrix)"]


def test_cli_sweep_nonfinite_optimum_is_an_error_row(tmp_path):
    cfg_path = write_config(tmp_path, NAN_OPTIMUM_CONFIG + "sweep.seed = 0,1\n")
    out = tmp_path / "out"
    # under pytest a RuntimeWarning is an error, which the cell would turn into an error row;
    # record warnings as a shell run shows them instead
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["sweep", "--config", cfg_path, "--out", str(out)]) == 0
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    rows = [ln.split(",") for ln in (out / "sweep.csv").read_text(encoding="utf-8").splitlines()
            if ln and not ln.startswith("#")][1:]
    assert [row[5:] for row in rows] == [["error", "nan", "nan", "nan"]] * 2


def test_cli_bounds_eta_error(tmp_path, capsys, monkeypatch):
    # ring of 4 with omega 0: lambda_min of the blend is -1/3
    ring = """\
topology.kind = ring
topology.n = 4
objective.kind = quadratic
objective.targets = 0;1;2;3
objective.grad_bound = 1.0
oracle.mode = additive
hp.option = I
hp.alpha = 0.01
hp.beta = 0.5
hp.omega = 0.0
hp.iters = 10
"""
    # full graphs at laziness 0 and omega 0: the exact lambda_min is 0, computed as rounding noise of either sign
    # that the Jacobi tolerance cannot tell from zero
    full = QUAD_CONFIG.replace("topology.laziness = 0.5", "topology.laziness = 0")
    full = full.replace("hp.omega = 0.5", "hp.omega = 0.0")
    full_4 = full.replace("topology.n = 3", "topology.n = 4").replace(
        "objective.targets = 1.8,2.0;2.0,2.2;2.2,1.8", "objective.targets = 1.8,2.0;2.0,2.2;2.2,1.8;1.9,2.1")
    pilots = []
    monkeypatch.setattr(harness, "pilot_measurements", lambda scenario: pilots.append(scenario))
    for cfg in (ring, full, full_4):
        cfg_path = write_config(tmp_path, cfg)
        assert main(["bounds", "--config", cfg_path, "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: no bound exists for these inputs: eta = ")
        assert "must lie in (1e-12, 1]" in err[0]
    assert pilots == []  # BoundInputs refuses eta before a pilot measures G


def test_bound_inputs_sigma_stacking(tmp_path):
    cfg = parse_config_text(QUAD_CONFIG.replace("oracle.sigma = 0.0", "oracle.sigma = 0.5")
                            .replace("objective.grad_bound = auto", "objective.grad_bound = 1.0"))
    scenario = build_scenario(cfg)
    bi = bound_inputs_from_scenario(scenario)
    assert bi.grad_bound == 1.0
    assert bi.sigma == pytest.approx(0.5 * np.sqrt(3))


def test_bounds_sqrt_schedule_rows(tmp_path):
    cfg = """\
topology.kind = full
topology.n = 3
topology.laziness = 0.5
objective.kind = quadratic
objective.targets = 0.5;1.0;1.5
objective.grad_bound = 2.0
oracle.mode = additive
oracle.sigma = 0.0
hp.option = II
hp.schedule = sqrt
hp.B = 0.5
hp.beta = 0.5
hp.omega = 0.5
hp.iters = 20
"""
    cfg_path = write_config(tmp_path, cfg)
    out = str(tmp_path / "out")
    assert main(["bounds", "--config", cfg_path, "--out", out]) == 0
    meta, rows = read_bounds_csv(os.path.join(out, "bounds.csv"))
    assert meta["alpha"] == "None"  # a sqrt(B/k) schedule has no constant step size
    assert set(rows) == {"sqrt_step_q"}
    assert rows["sqrt_step_q"][0] / rows["sqrt_step_q"][3] == pytest.approx(2.0)  # Q/sqrt(1) vs Q/sqrt(4)


def test_cli_bounds_sqrt_schedule_refused_exit_1(tmp_path, capsys):
    # G = 1e200 overflows Q, and sqrt_step_q is the only bound of a sqrt schedule: every bound is refused
    cfg = (QUAD_CONFIG.replace("hp.option = I", "hp.option = II\nhp.schedule = sqrt\nhp.B = 1.0")
           .replace("objective.grad_bound = auto", "objective.grad_bound = 1e200"))
    out = tmp_path / "out"
    assert main(["bounds", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 1
    assert not (out / "bounds.csv").exists()
    (line,) = capsys.readouterr().err.strip().splitlines()
    assert line.startswith("error: no bound exists for these inputs: sqrt_step_q: simpler_q overflows")


# ------------------------------------------------------------------ check


def test_cli_check_pass_and_violation(tmp_path):
    cfg_path = write_config(tmp_path, QUAD_CONFIG)
    out = str(tmp_path / "out")
    assert main(["run", "--config", cfg_path, "--out", out]) == 0
    assert main(["bounds", "--config", cfg_path, "--out", out]) == 0
    trace_path = os.path.join(out, "trace_seed0.csv")
    bounds_path = os.path.join(out, "bounds.csv")
    assert main(["check", "--trace", trace_path, "--bounds", bounds_path, "--slack", "0"]) == 0
    # corrupt one bound value far below the metric
    text = Path(bounds_path).read_text(encoding="utf-8").splitlines()
    for i, line in enumerate(text):
        if line.startswith("1,avg_grad_envelope"):
            text[i] = "1,avg_grad_envelope,0.0"
            break
    Path(bounds_path).write_text("\n".join(text) + "\n", encoding="utf-8")
    assert main(["check", "--trace", trace_path, "--bounds", bounds_path]) == 3


def test_cli_check_truncated_bounds(tmp_path):
    cfg_path = write_config(tmp_path, QUAD_CONFIG)
    out = str(tmp_path / "out")
    main(["run", "--config", cfg_path, "--out", out])
    main(["bounds", "--config", cfg_path, "--out", out])
    bounds_path = os.path.join(out, "bounds.csv")
    lines = Path(bounds_path).read_text(encoding="utf-8").splitlines()
    Path(bounds_path).write_text("\n".join(lines[:-5]) + "\n", encoding="utf-8")
    assert main(["check", "--trace", os.path.join(out, "trace_seed0.csv"), "--bounds", bounds_path]) == 2


def _cut_700(text):
    return text[:700]


def _cut_in_metadata(text):
    return text[:40]


def _last_field_not_a_number(text):
    lines = text.splitlines()
    lines[-1] = lines[-1].rsplit(",", 1)[0] + ",abc"
    return "\n".join(lines) + "\n"


def _other_config_hash(text):
    return "\n".join("# config_hash=000000000000" if ln.startswith("# config_hash=") else ln
                     for ln in text.splitlines()) + "\n"


def _drop_config_hash(text):
    return "".join(ln + "\n" for ln in text.splitlines() if not ln.startswith("# config_hash="))


def _last_field_nan(text):
    return _last_field_not_a_number(text).replace(",abc\n", ",nan\n")


def _last_field_inf(text):
    return _last_field_not_a_number(text).replace(",abc\n", ",inf\n")


def _drop_last_row(text):
    return "\n".join(text.splitlines()[:-1]) + "\n"


def _rename_consensus_bound(text):
    return text.replace(",consensus,", ",bogus,")


@pytest.mark.parametrize("which", ["trace", "bounds"])
@pytest.mark.parametrize("mangle", [_cut_700, _cut_in_metadata, _last_field_not_a_number, _last_field_nan,
                                    _other_config_hash, _drop_config_hash, _drop_last_row])
def test_cli_check_malformed_csv_exit_2(tmp_path, capsys, which, mangle):
    _assert_check_input_error(tmp_path, capsys, which, mangle)


def test_cli_check_trace_given_as_bounds_exit_2(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["run", "--config", write_config(tmp_path, QUAD_CONFIG), "--out", str(out)]) == 0
    trace = str(out / "trace_seed0.csv")
    capsys.readouterr()
    assert main(["check", "--trace", trace, "--bounds", trace]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(f"input error: {trace} is not a bounds file")


def test_cli_check_unknown_bound_name_exit_2(tmp_path, capsys):
    _assert_check_input_error(tmp_path, capsys, "bounds", _rename_consensus_bound)


def test_cli_check_infinite_bound_exit_2(tmp_path, capsys):
    """bounds._finite refuses every non-finite bound, so an inf in a bounds file is not one dmsgd wrote."""
    _assert_check_input_error(tmp_path, capsys, "bounds", _last_field_inf)


def _assert_check_input_error(tmp_path, capsys, which, mangle):
    cfg_path = write_config(tmp_path, QUAD_CONFIG)
    out = str(tmp_path / "out")
    assert main(["run", "--config", cfg_path, "--out", out]) == 0
    assert main(["bounds", "--config", cfg_path, "--out", out]) == 0
    paths = {"trace": os.path.join(out, "trace_seed0.csv"), "bounds": os.path.join(out, "bounds.csv")}
    with open(paths[which], encoding="utf-8") as fh:
        text = fh.read()
    with open(paths[which], "w", encoding="utf-8") as fh:
        fh.write(mangle(text))
    capsys.readouterr()
    assert main(["check", "--trace", paths["trace"], "--bounds", paths["bounds"]]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("input error:")


def _empty_config_hash(text):
    return _other_config_hash(text).replace("# config_hash=000000000000\n", "# config_hash=\n")


@pytest.mark.parametrize("mangle, shown", [(_drop_config_hash, "None"), (_empty_config_hash, "''")])
def test_cli_check_refuses_files_without_config_hash(tmp_path, capsys, mangle, shown):
    """Two files that both lack a config hash cannot be paired, though their missing hashes agree."""
    cfg_path = write_config(tmp_path, QUAD_CONFIG)
    out = tmp_path / "out"
    assert main(["run", "--config", cfg_path, "--out", str(out)]) == 0
    assert main(["bounds", "--config", cfg_path, "--out", str(out)]) == 0
    for name in ("trace_seed0.csv", "bounds.csv"):
        (out / name).write_text(mangle((out / name).read_text(encoding="utf-8")), encoding="utf-8")
    capsys.readouterr()
    assert main(["check", "--trace", str(out / "trace_seed0.csv"), "--bounds", str(out / "bounds.csv")]) == 2
    assert capsys.readouterr().err == (f"input error: {out / 'trace_seed0.csv'} (config hash {shown}) cannot pair "
                                       f"with {out / 'bounds.csv'} ({shown})\n")


@pytest.mark.parametrize("which", ["trace_seed0.csv", "bounds.csv"])
@pytest.mark.parametrize("offset", [0, 1], ids=["above", "below"])
def test_cli_check_refuses_a_repeated_metadata_key(tmp_path, capsys, which, offset):
    """A '#' key given twice is refused by the line that repeats it, above or below the real one: the reader
    never picks one of the two values."""
    cfg_path = write_config(tmp_path, QUAD_CONFIG)
    out = tmp_path / "out"
    assert main(["run", "--config", cfg_path, "--out", str(out)]) == 0
    assert main(["bounds", "--config", cfg_path, "--out", str(out)]) == 0
    lines = (out / which).read_text(encoding="utf-8").splitlines()
    real = next(i for i, line in enumerate(lines) if line.startswith("# config_hash="))
    lines.insert(real + offset, "# config_hash=deadbeef0000")
    (out / which).write_text("\n".join(lines) + "\n", encoding="utf-8")
    capsys.readouterr()
    assert main(["check", "--trace", str(out / "trace_seed0.csv"), "--bounds", str(out / "bounds.csv")]) == 2
    assert capsys.readouterr().err == f"input error: {out / which} line {real + 2}: duplicate key 'config_hash'\n"


@pytest.mark.parametrize("which", ["trace_seed0.csv", "bounds.csv"])
@pytest.mark.parametrize("rows_above", [0, 2], ids=["after-header", "between-rows"])
def test_cli_check_refuses_metadata_below_the_header(tmp_path, capsys, which, rows_above):
    """A '#' line moved below the header is refused by its line, even when its key is given nowhere else: a file is
    paired only by the metadata written above its header."""
    cfg_path = write_config(tmp_path, QUAD_CONFIG)
    out = tmp_path / "out"
    assert main(["run", "--config", cfg_path, "--out", str(out)]) == 0
    assert main(["bounds", "--config", cfg_path, "--out", str(out)]) == 0
    lines = (out / which).read_text(encoding="utf-8").splitlines()
    moved = lines.pop(next(i for i, line in enumerate(lines) if line.startswith("# config_hash=")))
    header = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    at = header + 1 + rows_above
    lines.insert(at, moved)
    (out / which).write_text("\n".join(lines) + "\n", encoding="utf-8")
    capsys.readouterr()
    assert main(["check", "--trace", str(out / "trace_seed0.csv"), "--bounds", str(out / "bounds.csv")]) == 2
    assert capsys.readouterr().err == f"input error: {out / which} line {at + 1}: '#' line after the header\n"


def test_cli_check_missing_file_exit_2(tmp_path):
    assert main(["check", "--trace", str(tmp_path / "no.csv"), "--bounds", str(tmp_path / "no.csv")]) == 2


def test_cli_check_hash_mismatch(tmp_path):
    cfg_path = write_config(tmp_path, QUAD_CONFIG)
    other_path = write_config(tmp_path, QUAD_CONFIG.replace("hp.beta = 0.5", "hp.beta = 0.4"), name="other.cfg")
    out = str(tmp_path / "a")
    out2 = str(tmp_path / "b")
    main(["run", "--config", cfg_path, "--out", out])
    main(["bounds", "--config", other_path, "--out", out2])
    code = main(["check", "--trace", os.path.join(out, "trace_seed0.csv"),
                 "--bounds", os.path.join(out2, "bounds.csv")])
    assert code == 2


def test_cli_check_negative_slack_rejected(tmp_path):
    code = main(["check", "--trace", "x", "--bounds", "y", "--slack", "-1"])
    assert code == 2



def test_cli_check_nonfinite_slack_rejected(tmp_path, capsys):
    # nan would fail every row (exit 3) and inf or an overflowing 1e400 pass any (exit 0)
    cfg_path = write_config(tmp_path, QUAD_CONFIG)
    out = str(tmp_path / "out")
    assert main(["run", "--config", cfg_path, "--out", out]) == 0
    assert main(["bounds", "--config", cfg_path, "--out", out]) == 0
    capsys.readouterr()
    for slack in ("nan", "inf", "1e400"):
        assert main(["check", "--trace", os.path.join(out, "trace_seed0.csv"),
                     "--bounds", os.path.join(out, "bounds.csv"), "--slack", slack]) == 2
        assert "must be finite" in capsys.readouterr().err


# --------------------------------------------------------- output location


@pytest.mark.parametrize("command", ["run", "bounds", "sweep"])
def test_cli_unusable_output_dir_exit_2(tmp_path, capsys, command):
    # --out or output.dir naming a file, or a path under one
    blocker = tmp_path / "file"
    blocker.write_text("", encoding="utf-8")
    cfg = QUAD_CONFIG + "sweep.seed = 0\n"
    cfg_path = write_config(tmp_path, cfg)
    dir_cfg_path = write_config(tmp_path, cfg + f"output.dir = {blocker}\n", "dir.cfg")
    for args in (["--config", cfg_path, "--out", str(blocker)],
                 ["--config", cfg_path, "--out", str(blocker / "sub")],
                 ["--config", dir_cfg_path]):
        assert main([command] + args) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("config error: cannot use output directory")


@pytest.mark.parametrize("command,name", [("run", "trace_seed0.csv"), ("bounds", "bounds.csv"),
                                          ("sweep", "sweep.csv")])
def test_cli_unwritable_output_file_exit_1(tmp_path, capsys, command, name):
    out = tmp_path / "out"
    (out / name).mkdir(parents=True)
    cfg_path = write_config(tmp_path, QUAD_CONFIG + "sweep.seed = 0\n")
    assert main([command, "--config", cfg_path, "--out", str(out)]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: cannot write {out / name}")


@pytest.mark.parametrize("command, name, exc, detail", [
    # where a huge hp.iters (np.arange of every k) and a huge topology.n first run out of memory
    ("bounds", "evaluate_bounds", MemoryError("Unable to allocate 745. GiB"), "Unable to allocate 745. GiB"),
    ("run", "metropolis_mixing", MemoryError(), "allocation failed"),
])
def test_cli_out_of_memory_exit_1(tmp_path, capsys, monkeypatch, command, name, exc, detail):
    def exhausted(*args, **kwargs):  # stands in for the allocation, which the test never makes
        raise exc

    monkeypatch.setattr(harness, name, exhausted)
    cfg_path = write_config(tmp_path, QUAD_CONFIG)
    assert main([command, "--config", cfg_path, "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.strip().splitlines() == [f"error: out of memory ({detail})"]


def test_cli_out_of_memory_under_an_address_space_cap(tmp_path):
    """The allocation that test_cli_out_of_memory_exit_1 stands in for, made for real: hp.iters = 1e11 asks
    bounds for 745 GiB, which a child capped at 4 GiB of address space cannot get."""
    cfg_path = write_config(tmp_path, QUAD_CONFIG.replace("hp.iters = 40", "hp.iters = 100000000000"))
    proc = run_fresh_python(f"""\
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (4 * 2**30, resource.getrlimit(resource.RLIMIT_AS)[1]))
from dmsgd.harness import main
sys.exit(main(["bounds", "--config", {cfg_path!r}, "--out", {str(tmp_path / "out")!r}]))
""", returncode=1)
    (line,) = proc.stderr.splitlines()
    assert line.startswith("error: out of memory (Unable to allocate 745. GiB ") and line.endswith(")")


def test_cli_emit_bounds_is_an_unknown_key(tmp_path, capsys):
    # bounds.csv comes from `dmsgd bounds` alone
    cfg_path = write_config(tmp_path, QUAD_CONFIG + "output.emit_bounds = true\n")
    assert main(["run", "--config", cfg_path, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.strip() == "config error: unknown config key(s): output.emit_bounds"


def test_module_entry_point_runs_once(tmp_path):
    # `python -m dmsgd.harness` must not find the module already imported by the package
    cfg_path = write_config(tmp_path, QUAD_CONFIG)
    src = os.path.dirname(os.path.dirname(os.path.abspath(dmsgd.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "dmsgd.harness", "run",
                           "--config", cfg_path, "--out", str(tmp_path / "out")],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "out" / "trace_seed0.csv").exists()

# ------------------------------------------------------------------ sweep


def test_cli_sweep_grid_rows(tmp_path):
    cfg = QUAD_CONFIG + "sweep.omega = 0,0.25,0.5,0.75,1\n"
    cfg_path = write_config(tmp_path, cfg)
    out = str(tmp_path / "out")
    assert main(["sweep", "--config", cfg_path, "--out", out]) == 0
    lines = [ln for ln in Path(out, "sweep.csv").read_text(encoding="utf-8").splitlines()
             if ln and not ln.startswith("#")]
    assert lines[0].startswith("omega,beta,topology,option,seed,status")
    assert len(lines) == 6  # header + 5 cells
    assert all("completed" in ln for ln in lines[1:])


def test_cli_sweep_row_shows_defaulted_axes(tmp_path):
    """A sweep column whose key the config leaves unset shows the value its cell ran with, not a blank."""
    text = "".join(ln + "\n" for ln in QUAD_CONFIG.splitlines()
                   if ln.split(" = ")[0] not in ("hp.option", "hp.beta", "hp.omega", "hp.seed"))
    out = tmp_path / "out"
    assert main(["sweep", "--config", write_config(tmp_path, text + "sweep.topology = full,ring\n"),
                 "--out", str(out)]) == 0
    rows = [row.split(",")[:6] for row in data_rows(out / "sweep.csv")[1:]]
    assert rows == [["0.0", "0.0", topology, "I", "0", "completed"] for topology in ("full", "ring")]


def test_cli_sweep_empty_grid(tmp_path):
    cfg_path = write_config(tmp_path, QUAD_CONFIG)
    out = str(tmp_path / "out")
    assert main(["sweep", "--config", cfg_path, "--out", out]) == 0
    lines = [ln for ln in Path(out, "sweep.csv").read_text(encoding="utf-8").splitlines()
             if ln and not ln.startswith("#")]
    assert len(lines) == 1  # header only


def test_cli_sweep_divergent_cell_recorded(tmp_path):
    # one stable cell, one far beyond the stability edge; the sweep records
    # the blowup in-row and still exits 0
    cfg = QUAD_CONFIG + "sweep.beta = 0.5\nsweep.omega = 0.99\nsweep.seed = 0,1\n"
    cfg = cfg.replace("hp.alpha = 0.05", "hp.alpha = 10000.0").replace("hp.iters = 40", "hp.iters = 80")
    cfg_path = write_config(tmp_path, cfg)
    out = str(tmp_path / "out")
    assert main(["sweep", "--config", cfg_path, "--out", out]) == 0
    rows = [ln for ln in Path(out, "sweep.csv").read_text(encoding="utf-8").splitlines()
            if ln and not ln.startswith("#")][1:]
    assert len(rows) == 2
    for row in rows:
        parts = row.split(",")
        assert parts[5] == "diverged"
        assert parts[6] == "inf"


def test_cli_sweep_failed_cell_is_an_error_row(tmp_path, monkeypatch, caplog):
    """A cell whose run raises is an error row with one warning naming it; the other cells complete, exit 0."""
    run = harness.run

    def failing(objective, oracle, hp, f_star):
        if hp.seed == 1:
            raise RuntimeError("injected failure")
        return run(objective, oracle, hp, f_star)

    monkeypatch.setattr(harness, "run", failing)
    out = tmp_path / "out"
    with caplog.at_level(logging.WARNING, logger="dmsgd"):
        assert main(["sweep", "--config", write_config(tmp_path, QUAD_CONFIG + "sweep.seed = 0,1,2\n"),
                     "--out", str(out)]) == 0
    rows = [row.split(",") for row in data_rows(out / "sweep.csv")[1:]]
    assert [row[4:6] for row in rows] == [["0", "completed"], ["1", "error"], ["2", "completed"]]
    assert rows[1][6:] == ["nan", "nan", "nan"]
    assert [r.getMessage() for r in caplog.records if r.levelno >= logging.WARNING] == [
        "sweep cell 0.5,0.5,full,I,1 failed: injected failure"]


def test_sweep_cell_reads_its_run():
    """A sweep cell's columns, each read off the run it makes, bit for bit: ``mean_omega`` is the mean of the rows'
    ``omega_used``, ``final_consensus`` is row K's ``consensus_err_max`` (at x_K), and ``final_gap`` is F at the mean
    of x_{K+1}, the state after the last step, less ``f_common``."""
    text = QUAD_CONFIG.replace("hp.omega = 0.5", "hp.omega = adaptive").replace("sigma = 0.0", "sigma = 0.2")
    objective, hp, oracle = check_scenario(parse_config_text(text), {})
    f_common = common_optimum(objective.suite)[1]
    status, final_gap, final_consensus, mean_omega = harness._sweep_cell(objective, f_common, hp, oracle)
    trace = run(objective, oracle, hp, float("nan"))
    assert status == trace.status == "completed" and len(trace) == hp.iters
    assert mean_omega == trace.omega_used.mean()
    assert final_consensus == trace.consensus_err_max[-1]
    assert final_gap == sum(objective.suite.evaluate(trace.swarm.x_cur.mean(axis=0))[0]) - f_common


def test_cli_sweep_zero_iteration_cells_complete(tmp_path):
    # a run of no iterations completes at the all-zeros start: its gap is the
    # initial one, and no row holds a consensus error or an omega
    cfg = QUAD_CONFIG.replace("hp.iters = 40", "hp.iters = 0") + "sweep.seed = 0,1\n"
    out = str(tmp_path / "out")
    assert main(["sweep", "--config", write_config(tmp_path, cfg), "--out", out]) == 0
    rows = [ln for ln in Path(out, "sweep.csv").read_text(encoding="utf-8").splitlines()
            if ln and not ln.startswith("#")][1:]
    suite = build_scenario(parse_config_text(cfg)).objective.suite
    gap0 = agent_total(suite.evaluate(np.zeros(suite.d))[0]) - suite.f_star
    assert [row.split(",")[5:] for row in rows] == [["completed", repr(float(gap0)), "nan", "nan"]] * 2


# configs at hp.iters = 0, each with the gap bound that bounds evaluates there rather than skips
ZERO_ITERATION_CONFIGS = {
    "quadratic": (QUAD_CONFIG, "cor1_gap"),
    "pl": (PL_CONFIG, "thm2_gap"),
    "sqrt": (QUAD_CONFIG.replace("hp.option = I", "hp.option = II\nhp.schedule = sqrt\nhp.B = 1.0"), "sqrt_step_q"),
}


@pytest.mark.parametrize("name", sorted(ZERO_ITERATION_CONFIGS))
def test_cli_zero_iterations_run_bounds_check(tmp_path, capsys, name):
    cfg, gap_bound = ZERO_ITERATION_CONFIGS[name]
    # run writes an empty trace, bounds an empty bounds.csv, and check has no row to compare
    cfg_path, out = write_config(tmp_path, re.sub(r"hp.iters = \d+", "hp.iters = 0", cfg)), tmp_path / "out"
    assert main(["run", "--config", cfg_path, "--out", str(out)]) == 0
    assert main(["bounds", "--config", cfg_path, "--out", str(out)]) == 0
    assert main(["check", "--trace", str(out / "trace_seed0.csv"), "--bounds", str(out / "bounds.csv")]) == 0
    printed = capsys.readouterr()
    assert printed.out.splitlines() == [
        f"nothing compared: {out / 'bounds.csv'} holds no bound row, {out / 'trace_seed0.csv'} holds 0 rows"]
    lines = (out / "bounds.csv").read_text(encoding="utf-8").splitlines()
    assert [ln for ln in lines if not ln.startswith("#")] == ["k,bound_name,value"]
    meta, rows = read_bounds_csv(str(out / "bounds.csv"))
    assert rows == {} and "config_hash" in meta and f"skipped.{gap_bound}" not in meta
    assert printed.err == ""


# ----------------------------------------------------- interface coverage


def test_custom_topology_from_edge_list(tmp_path):
    edges = tmp_path / "graph.txt"
    edges.write_text("3\n0 1\n1 2\n", encoding="utf-8")
    cfg = QUAD_CONFIG.replace(
        "topology.kind = full\ntopology.n = 3\n",
        f"topology.kind = custom\ntopology.edges = {edges}\n",
    )
    scenario = build_scenario(parse_config_text(cfg))
    assert scenario.objective.mixing.adjacency.tolist() == [[False, True, False], [True, False, True],
                                                            [False, True, False]]


def test_logistic_dataset_from_csv(tmp_path):
    ds = make_synthetic_dataset(5, 40, 3, 2)
    path = tmp_path / "data.csv"
    path.write_text("x0,x1,x2,label\n" + "".join(",".join(map(repr, row)) + f",{label}\n"
                                                 for row, label in zip(ds.features.tolist(), ds.labels)),
                    encoding="utf-8")
    cfg = f"""\
topology.kind = full
topology.n = 4
objective.kind = logistic
objective.dataset = {path}
objective.agents = 4
objective.partition = noniid
objective.reg = 0.1
oracle.mode = minibatch
oracle.batch = full
hp.option = I
hp.alpha = 0.1
hp.beta = 0.2
hp.omega = 0.5
hp.iters = 5
"""
    scenario = build_scenario(parse_config_text(cfg))
    assert scenario.objective.suite.n == 4
    assert scenario.objective.suite.d == 3


def test_logistic_scenario_solves_its_optimum():
    cfg = """\
topology.kind = ring
topology.n = 4
topology.laziness = 0.3
objective.kind = logistic
objective.dataset = synthetic
objective.samples = 60
objective.features = 3
objective.agents = 4
objective.partition = noniid
objective.reg = 0.1
oracle.mode = additive
hp.option = I
hp.alpha = 0.2
hp.iters = 5
"""
    scenario = build_scenario(parse_config_text(cfg))
    suite, objective = scenario.objective.suite, scenario.objective
    # the common optimum is a stationary point of F, and the stacked optimum lies below x = 0
    assert np.linalg.norm(agent_total(suite.evaluate(common_optimum(suite)[0])[1])) < 1e-6
    assert np.isfinite(scenario.f_star)
    assert scenario.f_star < objective.value(np.zeros((suite.n, suite.d)))



@pytest.mark.parametrize("option", ["I", "II"])
def test_stacked_optimum_independent_of_call_order(option):
    # unified_optimum starts from the common optimum whether or not anything solved it first
    cfg = f"""\
topology.kind = ring
topology.n = 4
topology.laziness = 0.3
objective.kind = logistic
objective.dataset = synthetic
objective.samples = 60
objective.features = 5
objective.agents = 4
objective.partition = noniid
objective.reg = 0.1
oracle.mode = additive
hp.option = {option}
hp.alpha = 0.2
hp.iters = 5
"""
    scenario = build_scenario(parse_config_text(cfg))
    ds = make_synthetic_dataset(0, 60, 5, 2)
    suite = make_logistic(ds, partition_noniid(ds, 4), reg=0.1)
    assert suite.x_star is None
    mixing = metropolis_mixing(build_topology("ring", 4), laziness=0.3)
    _, f_star = unified_optimum(UnifiedObjective(suite, mixing, 0.2 if option == "I" else None))
    assert f_star == scenario.f_star

def test_minibatch_pilot_sigma_estimate():
    cfg = """\
topology.kind = full
topology.n = 2
topology.laziness = 0.5
objective.kind = logistic
objective.dataset = synthetic
objective.dataset_seed = 3
objective.samples = 40
objective.features = 3
objective.classes = 2
objective.agents = 2
objective.partition = iid
objective.reg = 0.1
oracle.mode = minibatch
oracle.batch = 5
hp.option = I
hp.alpha = 0.2
hp.beta = 0.3
hp.omega = 0.5
hp.iters = 20
"""
    bi = bound_inputs_from_scenario(build_scenario(parse_config_text(cfg)))
    assert bi.sigma > 0.0  # minibatch noise measured during the pilot
    assert bi.grad_bound > 0.0
    # a given G stays as given, and the pilot still measures the minibatch noise
    bi = bound_inputs_from_scenario(build_scenario(parse_config_text(cfg + "objective.grad_bound = 3.0\n")))
    assert bi.sigma > 0.0 and bi.grad_bound == 3.0


@pytest.mark.parametrize("text, minibatch", [(QUAD_CONFIG.replace("oracle.sigma = 0.0", "oracle.sigma = 0.1"), False),
                                             (MINIBATCH_SWEEP, True)], ids=["additive", "minibatch-logistic"])
def test_pilot_measures_by_the_readme_rule(text, minibatch):
    """The pilot runs 200 iterations and takes G = 1.05 sqrt(max grad_norm_sq) and, for a minibatch oracle only,
    sigma = 1.05 sqrt(mean draw_dev_sq): the rule as the README states it, in the pilot's own arithmetic."""
    scenario = build_scenario(parse_config_text(text))
    trace = run(scenario.objective, scenario.oracle, replace(scenario.hp, iters=200), scenario.f_star)
    assert len(trace) == 200 and trace.status == "completed"
    grad_bound = 1.05 * float(np.sqrt(trace.grad_norm_sq.max()))
    sigma = 1.05 * float(np.sqrt(np.mean(trace.draw_dev_sq))) if minibatch else None
    assert pilot_measurements(scenario) == (grad_bound, sigma)


def test_adaptive_omega_takes_lambda_and_eta_at_their_worst():
    cfg = parse_config_text(QUAD_CONFIG.replace("hp.omega = 0.5", "hp.omega = adaptive"))
    scenario = build_scenario(cfg)
    bi = bound_inputs_from_scenario(scenario)
    # conservative symbols: Lambda at omega = 1, eta at omega = 0
    assert bi.lam == scenario.spectral.blended(1.0)[0] == pytest.approx(1.0)
    assert bi.eta == scenario.spectral.blended(0.0)[1] == pytest.approx(scenario.spectral.lambda_n)
    fixed = build_scenario(parse_config_text(QUAD_CONFIG))
    fixed_bi = bound_inputs_from_scenario(fixed)
    assert (fixed_bi.lam, fixed_bi.eta) == fixed.spectral.blended(0.5)


def test_log_env_levels(monkeypatch):
    import logging

    from dmsgd.harness import _setup_logging

    for value, level in (("quiet", logging.WARNING), ("info", logging.INFO), ("debug", logging.DEBUG)):
        monkeypatch.setenv("DMSGD_LOG", value)
        logging.getLogger().handlers.clear()
        _setup_logging()
        assert logging.getLogger().level == level
    monkeypatch.delenv("DMSGD_LOG")
    logging.getLogger().handlers.clear()
    _setup_logging()
    assert logging.getLogger().level == logging.INFO


@pytest.mark.parametrize("value", ["quite", "", "INFO"])
def test_log_env_typo_exit_2(tmp_path, capsys, monkeypatch, value):
    """A DMSGD_LOG outside quiet | info | debug is a typo, refused in one line before any work, never info."""
    monkeypatch.setenv("DMSGD_LOG", value)
    assert main(["run", "--config", write_config(tmp_path, QUAD_CONFIG), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"config error: DMSGD_LOG must be one of quiet | info | debug, got {value!r}\n"
    assert not (tmp_path / "out").exists()
