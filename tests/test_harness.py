import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

import dmsgd

from dmsgd import harness, objectives
from dmsgd.harness import (
    CONFIG_KEYS,
    ConfigError,
    TRACE_HEADER,
    build_scenario,
    bound_inputs_from_scenario,
    config_hash,
    evaluate_bounds,
    load_config,
    main,
    parse_config_text,
    read_bounds_csv,
    read_trace_csv,
    serialize_config,
)
from dmsgd.objectives import (
    UnifiedObjective,
    agent_total,
    make_logistic,
    make_synthetic_dataset,
    partition_noniid,
    unified_optimum,
)
from dmsgd.topology import build_topology, metropolis_mixing

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


def test_scenario_validation_errors(tmp_path):
    with pytest.raises(ConfigError, match="missing"):
        build_scenario(parse_config_text("topology.kind = full\n"))
    bad = QUAD_CONFIG.replace("topology.n = 3", "topology.n = 4")
    with pytest.raises(ConfigError, match="agents"):
        build_scenario(parse_config_text(bad))
    sched = QUAD_CONFIG.replace("hp.option = I", "hp.option = I\nhp.schedule = sqrt\nhp.B = 1.0")
    with pytest.raises(ConfigError, match="option II"):
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
])
def test_cli_malformed_config_exit_2(tmp_path, capsys, old, new):
    cfg_path = write_config(tmp_path, QUAD_CONFIG.replace(old, new))
    for command in ("run", "bounds"):
        assert main([command, "--config", cfg_path, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("config error:")


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
    calls, unified_optimum = [], harness.unified_optimum

    def counted(objective):
        calls.append(objective.suite.n)
        return unified_optimum(objective)

    monkeypatch.setattr(harness, "unified_optimum", counted)
    return calls


def test_spectrum_call_counter_counts(tmp_path, spectrum_calls):
    assert main(["run", "--config", write_config(tmp_path, QUAD_CONFIG), "--out", str(tmp_path / "out")]) == 0
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
def test_config_errors_end_before_the_spectrum(tmp_path, capsys, spectrum_calls, optimum_calls, edit, command,
                                               args):
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


@pytest.mark.parametrize("edit", ["hp.beta = 2", "hp.schedule = sqrt\nhp.B = 1.0", "oracle.sigma = -1"])
@pytest.mark.parametrize("command", ["run", "bounds", "sweep"])
def test_config_errors_end_before_the_suite(tmp_path, capsys, monkeypatch, edit, command):
    calls, estimate = [], objectives.estimate_pl_constant

    def counted(suite, grid):
        calls.append(suite.n)
        return estimate(suite, grid)

    monkeypatch.setattr(objectives, "estimate_pl_constant", counted)
    cfg_path = write_config(tmp_path, PL_RING_16 + edit + "\n")
    assert main([command, "--config", cfg_path, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("config error: ")
    assert calls == []


@pytest.mark.parametrize("grid, problems", [
    ("sweep.topology = full,ring,bipartite\nsweep.omega = 0.2,0.5,adaptive\nsweep.seed = 0,1\n", 3),
    ("sweep.option = I,II\nsweep.topology = full,ring\n", 4),
])
def test_sweep_solves_each_topology_and_option_once(tmp_path, spectrum_calls, optimum_calls, grid, problems):
    cfg_path = write_config(tmp_path, QUAD_CONFIG + grid)
    assert main(["sweep", "--config", cfg_path, "--out", str(tmp_path / "out")]) == 0
    assert len(optimum_calls) == problems
    assert spectrum_calls == []  # no sweep column reads the spectrum


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
    a = open(os.path.join(out1, "trace_seed0.csv"), "rb").read()
    b = open(os.path.join(out2, "trace_seed0.csv"), "rb").read()
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


def test_quadratic_cli_never_imports_scipy_optimize(tmp_path):
    cfg_path = write_config(tmp_path, QUAD_CONFIG)
    out = str(tmp_path / "out")
    script = f"""\
import sys
from dmsgd.harness import main
assert main(["run", "--config", {cfg_path!r}, "--out", {out!r}]) == 0
assert main(["bounds", "--config", {cfg_path!r}, "--out", {out!r}]) == 0
assert main(["check", "--trace", {out + "/trace_seed0.csv"!r}, "--bounds", {out + "/bounds.csv"!r}]) == 0
assert "scipy.optimize" not in sys.modules, "scipy.optimize was imported"
"""
    src = os.path.dirname(os.path.dirname(os.path.abspath(dmsgd.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


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
    lines = open(os.path.join(out, "trace_seed0.csv"), encoding="utf-8").read().splitlines()
    assert f"# abort={cause}" in lines
    assert cause in capsys.readouterr().err


def test_cli_run_completed_trace_has_no_abort_line(tmp_path):
    cfg_path = write_config(tmp_path, QUAD_CONFIG)
    out = str(tmp_path / "out")
    assert main(["run", "--config", cfg_path, "--out", out, "--seeds", "2"]) == 0
    for name in ("trace_seed0.csv", "trace_avg.csv"):
        meta, _ = read_trace_csv(os.path.join(out, name))
        assert meta["status"] == "completed"
        assert "abort" not in meta


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
    lines = open(os.path.join(out, "trace_seed0.csv"), encoding="utf-8").read().splitlines()
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


def test_cli_bounds_records_skipped_trajectory(tmp_path):
    # option II, L = 4, mu = 1: alpha above L/(2 mu^2) = 2 is outside cor1_gap's range
    cfg = (QUAD_CONFIG.replace("objective.curvatures = 1", "objective.curvatures = 1;2;4")
           .replace("objective.grad_bound = auto", "objective.grad_bound = 2.0")
           .replace("hp.option = I", "hp.option = II").replace("hp.alpha = 0.05", "hp.alpha = 2.5"))
    out = tmp_path / "out"
    assert main(["bounds", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 0
    meta, rows = read_bounds_csv(str(out / "bounds.csv"))
    assert "cor1_gap" not in rows
    assert meta["skipped.cor1_gap"].startswith("alpha outside the admissible range (0, L/(2 mu^2)]")


def test_cli_bounds_pl_dispatch(tmp_path):
    cfg = """\
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
    cfg_path = write_config(tmp_path, cfg)
    out = str(tmp_path / "out")
    assert main(["bounds", "--config", cfg_path, "--out", out]) == 0
    _, rows = read_bounds_csv(os.path.join(out, "bounds.csv"))
    assert "thm2_gap" in rows
    assert "cor1_gap" not in rows


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


def test_cli_bounds_eta_error(tmp_path):
    # ring of 4 with omega 0: lambda_min of the blend is -1/3
    cfg = """\
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
    cfg_path = write_config(tmp_path, cfg)
    assert main(["bounds", "--config", cfg_path, "--out", str(tmp_path)]) == 1


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
    _, rows = read_bounds_csv(os.path.join(out, "bounds.csv"))
    assert set(rows) == {"sqrt_step_q"}
    assert rows["sqrt_step_q"][0] / rows["sqrt_step_q"][3] == pytest.approx(2.0)  # Q/sqrt(1) vs Q/sqrt(4)


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
    text = open(bounds_path, encoding="utf-8").read().splitlines()
    for i, line in enumerate(text):
        if line.startswith("1,avg_grad_envelope"):
            text[i] = "1,avg_grad_envelope,0.0"
            break
    open(bounds_path, "w", encoding="utf-8").write("\n".join(text) + "\n")
    assert main(["check", "--trace", trace_path, "--bounds", bounds_path]) == 3


def test_cli_check_truncated_bounds(tmp_path):
    cfg_path = write_config(tmp_path, QUAD_CONFIG)
    out = str(tmp_path / "out")
    main(["run", "--config", cfg_path, "--out", out])
    main(["bounds", "--config", cfg_path, "--out", out])
    bounds_path = os.path.join(out, "bounds.csv")
    lines = open(bounds_path, encoding="utf-8").read().splitlines()
    open(bounds_path, "w", encoding="utf-8").write("\n".join(lines[:-5]) + "\n")
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


def _drop_last_row(text):
    return "\n".join(text.splitlines()[:-1]) + "\n"


def _rename_consensus_bound(text):
    return text.replace(",consensus,", ",bogus,")


@pytest.mark.parametrize("which", ["trace", "bounds"])
@pytest.mark.parametrize("mangle", [_cut_700, _cut_in_metadata, _last_field_not_a_number,
                                    _other_config_hash, _drop_last_row])
def test_cli_check_malformed_csv_exit_2(tmp_path, capsys, which, mangle):
    _assert_check_input_error(tmp_path, capsys, which, mangle)


def test_cli_check_unknown_bound_name_exit_2(tmp_path, capsys):
    _assert_check_input_error(tmp_path, capsys, "bounds", _rename_consensus_bound)


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
    lines = [ln for ln in open(os.path.join(out, "sweep.csv"), encoding="utf-8").read().splitlines()
             if ln and not ln.startswith("#")]
    assert lines[0].startswith("omega,beta,topology,option,seed,status")
    assert len(lines) == 6  # header + 5 cells
    assert all("completed" in ln for ln in lines[1:])


def test_cli_sweep_empty_grid(tmp_path):
    cfg_path = write_config(tmp_path, QUAD_CONFIG)
    out = str(tmp_path / "out")
    assert main(["sweep", "--config", cfg_path, "--out", out]) == 0
    lines = [ln for ln in open(os.path.join(out, "sweep.csv"), encoding="utf-8").read().splitlines()
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
    rows = [ln for ln in open(os.path.join(out, "sweep.csv"), encoding="utf-8").read().splitlines()
            if ln and not ln.startswith("#")][1:]
    assert len(rows) == 2
    for row in rows:
        parts = row.split(",")
        assert parts[5] == "diverged"
        assert parts[6] == "inf"


def test_cli_sweep_zero_iteration_cells_complete(tmp_path):
    # a run of no iterations completes at the all-zeros start: its gap is the
    # initial one, and no row holds a consensus error or an omega
    cfg = QUAD_CONFIG.replace("hp.iters = 40", "hp.iters = 0") + "sweep.seed = 0,1\n"
    out = str(tmp_path / "out")
    assert main(["sweep", "--config", write_config(tmp_path, cfg), "--out", out]) == 0
    rows = [ln for ln in open(os.path.join(out, "sweep.csv"), encoding="utf-8").read().splitlines()
            if ln and not ln.startswith("#")][1:]
    suite = build_scenario(parse_config_text(cfg)).objective.suite
    gap0 = agent_total(suite.evaluate(np.zeros(suite.d))[0]) - suite.f_star
    assert [row.split(",")[5:] for row in rows] == [["completed", repr(float(gap0)), "nan", "nan"]] * 2


# ----------------------------------------------------- interface coverage


def test_custom_topology_from_edge_list(tmp_path):
    edges = tmp_path / "graph.txt"
    edges.write_text("3\n0 1\n1 2\n", encoding="utf-8")
    cfg = QUAD_CONFIG.replace(
        "topology.kind = full\ntopology.n = 3\n",
        f"topology.kind = custom\ntopology.edges = {edges}\n",
    )
    scenario = build_scenario(parse_config_text(cfg))
    assert scenario.objective.mixing.edges == frozenset({(0, 1), (1, 2)})


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
    assert np.linalg.norm(agent_total(suite.evaluate(suite.x_star)[1])) < 1e-6
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
    ds.partitions = partition_noniid(ds, 4)
    suite = make_logistic(ds, reg=0.1)
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
    scenario = build_scenario(parse_config_text(cfg))
    bi = bound_inputs_from_scenario(scenario)
    assert bi.sigma > 0.0  # minibatch noise measured during the pilot
    assert bi.grad_bound > 0.0


def test_adaptive_omega_bound_inputs():
    cfg = parse_config_text(QUAD_CONFIG.replace("hp.omega = 0.5", "hp.omega = adaptive"))
    scenario = build_scenario(cfg)
    # conservative symbols: Lambda at omega = 1, eta at omega = 0
    assert scenario.lam == pytest.approx(1.0)
    assert scenario.eta == pytest.approx(scenario.spectral.lambda_n)


def test_log_env_levels(monkeypatch):
    import logging

    from dmsgd.harness import _setup_logging

    for value, level in (("quiet", logging.WARNING), ("info", logging.INFO), ("debug", logging.DEBUG)):
        monkeypatch.setenv("DMSGD_LOG", value)
        logging.getLogger().handlers.clear()
        _setup_logging()
        assert logging.getLogger().level == level
