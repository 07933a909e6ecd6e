"""Property tests of the CLI exit-code contract: every input ends in 0, 1, 2 or 3.

Each example changes one value of a valid config, or one field of a valid
trace or bounds CSV, and calls ``main`` in process.  An exception escaping
``main`` would reach a shell user as a raw traceback, so it fails the test.
``hp.iters`` and ``objective.samples`` set the work per example; they get
only values that are not integers, which keeps every example short.
"""

import os
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dmsgd.harness import CONFIG_KEYS, TRACE_HEADER, ConfigError, main, read_bounds_csv

BASES = {
    "quadratic": """\
topology.kind = full
topology.n = 3
topology.laziness = 0.5
objective.kind = quadratic
objective.targets = 1.8,2.0;2.0,2.2;2.2,1.8
objective.curvatures = 1
objective.grad_bound = auto
oracle.mode = additive
oracle.sigma = 0.1
hp.option = I
hp.alpha = 0.05
hp.beta = 0.5
hp.omega = 0.5
hp.iters = 30
hp.seed = 0
output.seeds = 1
""",
    "logistic": """\
topology.kind = ring
topology.n = 3
topology.laziness = 0.5
objective.kind = logistic
objective.dataset = synthetic
objective.dataset_seed = 3
objective.samples = 45
objective.features = 3
objective.classes = 3
objective.agents = 3
objective.partition = iid
objective.reg = 0.05
objective.grad_bound = auto
oracle.mode = minibatch
oracle.batch = 5
hp.option = I
hp.alpha = 0.2
hp.beta = 0.3
hp.omega = 0.5
hp.iters = 20
hp.seed = 1
""",
}

SIZE_KEYS = ("hp.iters", "objective.samples")
# output.dir is overridden by --out; fuzzing it could only write elsewhere
FUZZ_KEYS = sorted(CONFIG_KEYS.keys() - {"output.dir"})

NUMBERS = st.one_of(st.integers(-3, 40), st.floats()).map(str)
WORDS = st.sampled_from([
    "", "auto", "adaptive", "full", "ring", "bipartite", "custom", "quadratic", "pl", "logistic",
    "synthetic", "additive", "minibatch", "I", "II", "iid", "noniid", "sqrt", "constant", "agent",
    "global", "true", "no", "1,2", "2,1", "0.5;0.5", "a,b", "1;2;3", "-0", "1e309", "0x10"])
TEXT = st.text(st.characters(blacklist_categories=("Cc", "Cs")), max_size=12)
VALUES = st.one_of(NUMBERS, WORDS, TEXT)


def _is_int(text):
    try:
        int(text)
    except ValueError:
        return False
    return True


@st.composite
def config_edits(draw):
    key = draw(st.sampled_from(FUZZ_KEYS))
    values = st.one_of(WORDS, TEXT).filter(lambda v: not _is_int(v)) if key in SIZE_KEYS else VALUES
    return key, draw(values)


def with_value(text, key, value):
    lines = [ln for ln in text.splitlines() if ln.split("=", 1)[0].strip() != key]
    return "\n".join(lines + [f"{key} = {value}"]) + "\n"


# sweep examples run a two-cell grid, so a failing cell is written beside another cell's row
SWEEP_GRID = "sweep.seed = 0,1\n"


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(base=st.sampled_from(sorted(BASES)), command=st.sampled_from(["run", "bounds", "sweep"]),
       edit=config_edits())
@example(base="quadratic", command="run", edit=("topology.kind", "ring\u2028hp.iters = 7\u2029"))  # U+2028, U+2029
def test_config_fuzz_keeps_exit_contract(base, command, edit):
    text = BASES[base] + (SWEEP_GRID if command == "sweep" else "")
    with tempfile.TemporaryDirectory() as work:
        cfg = os.path.join(work, "run.cfg")
        with open(cfg, "w", encoding="utf-8") as fh:
            fh.write(with_value(text, *edit))
        code = main([command, "--config", cfg, "--out", os.path.join(work, "out")])
    assert code in (0, 1, 2, 3)


# values some parser refuses: a word, a non-finite number, a fraction, a list with a bad entry
REFUSED_CANDIDATES = ("zz", "nan", "1.5", "0.2,zz")


def _refuses(key, value):
    try:
        CONFIG_KEYS[key](value, key)
    except ConfigError:
        return True
    return False


# every (key, value) pair the key's own parser refuses; paths and directories take any text
REFUSED = [(key, value) for key in sorted(CONFIG_KEYS) for value in REFUSED_CANDIDATES
           if _refuses(key, value)]


def test_every_key_but_the_paths_refuses_some_value():
    paths = {"topology.edges", "objective.dataset", "output.dir"}
    assert {key for key, _ in REFUSED} == CONFIG_KEYS.keys() - paths


def one_verdict(tmp_path, capsys, text):
    """The one exit-2 line that run, bounds and sweep each print for config ``text`` (str, or bytes as written)."""
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(text if isinstance(text, bytes) else text.encode("utf-8"))
    out = tmp_path / "out"
    lines = set()
    for command in ("run", "bounds", "sweep"):
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("config error: ")
        lines.add(err[0])
    assert not out.exists()  # refused before any output or numerics
    (line,) = lines
    return line


@pytest.mark.parametrize("key, value", [
    # each once got a different exit code from run, bounds and sweep
    ("objective.grad_bound", "abc"), ("output.seeds", "x"), ("sweep.omega", "0.2,zz"),
] + REFUSED)
def test_refused_value_gets_one_verdict_from_every_command(tmp_path, capsys, key, value):
    line = one_verdict(tmp_path, capsys, with_value(BASES["quadratic"] + SWEEP_GRID, key, value))
    # the line names the key and the refused value, or the first refused entry of a list
    assert key in line and any(repr(part) in line for part in [value, *value.split(",")])


# values every parser takes that a range or cross-key check of the scenario refuses
RANGE_REFUSED = [("quadratic", key, value) for key, value in (
    ("topology.n", "0"), ("topology.laziness", "1"), ("objective.curvatures", "1;2"),
    ("objective.curvatures", "-1"), ("oracle.sigma", "-1"), ("hp.alpha", "0"), ("hp.schedule", "sqrt"),
    ("hp.beta", "2"), ("hp.omega", "1.5"), ("hp.iters", "-1"), ("hp.seed", "-1"),
)] + [("logistic", key, value) for key, value in (
    ("objective.dataset", "no-such-file.csv"), ("objective.dataset_seed", "-1"), ("objective.samples", "0"),
    ("objective.agents", "50"), ("objective.partition_seed", "-1"), ("objective.reg", "-1"),
    ("oracle.batch", "0"), ("oracle.batch", "100"),
)]


@pytest.mark.parametrize("base, key, value", RANGE_REFUSED)
def test_refused_range_names_its_key(tmp_path, capsys, base, key, value):
    line = one_verdict(tmp_path, capsys, with_value(BASES[base] + SWEEP_GRID, key, value))
    assert key in line


def test_empty_targets_name_their_cause(tmp_path, capsys):
    """A target list of no rows was once refused as ragged."""
    line = one_verdict(tmp_path, capsys, with_value(BASES["quadratic"] + SWEEP_GRID, "objective.targets", ";"))
    assert line == "config error: objective.targets has no rows: ';'"


def test_defaulted_agent_count_names_topology_n(tmp_path, capsys):
    """Without objective.agents the logistic agent count is topology.n's, so its refusal names topology.n."""
    text = with_value(BASES["logistic"], "topology.n", "50").replace("objective.agents = 3\n", "")
    line = one_verdict(tmp_path, capsys, text)
    assert "topology.n" in line and "objective.agents" not in line


LOGISTIC_SWEEP = BASES["logistic"] + SWEEP_GRID


@pytest.mark.parametrize("key, content, expected", [
    ("objective.dataset", "label\n0\n1\n1\n", "feature column"),
    ("objective.dataset", "a,label\n1,2,0\n", "line 2"),  # a row wider than the header
    ("objective.dataset", "a,b,label\n1,2,0\n1,0\n", "line 3"),  # a short row
    ("objective.dataset", "a,label\n1,0\nnan,1\n", "line 3"),  # a non-finite feature
    # labels are class indices; a +-1 file once read as one class
    ("objective.dataset", "a,label\n1,-1\n2,1\n3,-1\n4,1\n5,-1\n6,1\n",
     "input.txt line 2: label -1 is not a class index 0, 1, ..."),
    ("topology.edges", "3\n0 1\n1 2 5\n", "line 3"),  # an edge of three fields
    ("topology.edges", "3\n0 1\n0 3\n", "line 3"),  # an agent past n - 1
    ("topology.edges", "3\n0 1\n1 1\n", "line 3"),  # a self-loop
    ("topology.edges", "3\n0 1\n-1 2\n", "line 3"),  # a negative agent
    ("objective.dataset", "# note\na,label\n1,0\n", "no '#' lines"),
    ("objective.dataset", "a,b\n1,0\n", "must end with a 'label' column"),
    ("topology.edges", "", "empty edge-list file"),
    (None, LOGISTIC_SWEEP.encode("utf-8") + b"# \xff\n", "cannot read config"),  # a config that is not UTF-8
], ids=["labels-only", "wide-row", "short-row", "nan-feature", "negative-label", "three-field-edge",
        "out-of-range-edge", "self-loop-edge", "negative-edge", "metadata-line", "no-label-column", "empty-edge-list",
        "undecodable-config"])
def test_dataset_without_feature_columns_is_refused(tmp_path, capsys, key, content, expected):
    """A bad input file ends in one config error line, naming the key that names the file and the bad line."""
    text = content
    if key is not None:
        path = tmp_path / "input.txt"
        path.write_text(content, encoding="utf-8")
        text = with_value(LOGISTIC_SWEEP, key, path)
        if key == "topology.edges":
            text = with_value(text, "topology.kind", "custom")
    line = one_verdict(tmp_path, capsys, text)
    assert line.startswith(f"config error: {key}: " if key else "config error: ") and expected in line


@pytest.fixture(scope="module")
def csv_texts(tmp_path_factory):
    work = tmp_path_factory.mktemp("check_fuzz")
    cfg = work / "run.cfg"
    cfg.write_text(BASES["quadratic"], encoding="utf-8")
    assert main(["run", "--config", str(cfg), "--out", str(work)]) == 0
    assert main(["bounds", "--config", str(cfg), "--out", str(work)]) == 0
    return {name: (work / f"{name}.csv").read_text(encoding="utf-8")
            for name in ("trace_seed0", "bounds")}


def edit_field(text, line, field, value):
    """Replace one metadata value or one comma-separated field of ``text``."""
    lines = text.splitlines()
    i = line % len(lines)
    if lines[i].startswith("#"):
        key = lines[i].partition("=")[0]
        lines[i] = f"{key}={value}"
    else:
        fields = lines[i].split(",")
        fields[field % len(fields)] = value
        lines[i] = ",".join(fields)
    return "\n".join(lines) + "\n"


def check_edited(csv_texts, work, which, text):
    """The exit code of ``check`` on the pair with ``which`` replaced by ``text``, and the path of that file."""
    paths = {}
    for name, original in csv_texts.items():
        paths[name] = os.path.join(work, f"{name}.csv")
        with open(paths[name], "w", encoding="utf-8") as fh:
            fh.write(text if name == which else original)
    return main(["check", "--trace", paths["trace_seed0"], "--bounds", paths["bounds"]]), paths[which]


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(which=st.sampled_from(["trace_seed0", "bounds"]), line=st.integers(0, 1000),
       field=st.integers(0, 10), value=VALUES)
def test_check_fuzz_keeps_exit_contract(csv_texts, which, line, field, value):
    with tempfile.TemporaryDirectory() as work:
        code, _ = check_edited(csv_texts, work, which, edit_field(csv_texts[which], line, field, value))
    assert code in (0, 1, 2, 3)


def with_k(text, row, k):
    """``text`` with the k field of its data row ``row`` (modulo the row count) set to ``k``, and that line's
    1-based number."""
    data = [i for i, ln in enumerate(text.splitlines()) if ln[:1].isdigit()]
    i = data[row % len(data)]
    return edit_field(text, i, 0, str(k)), i + 1


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(which=st.sampled_from(["trace_seed0", "bounds"]), row=st.integers(0, 1000), k=st.integers(-2, 200))
def test_check_k_rewrite_is_refused(csv_texts, which, row, k):
    """Rewriting one k is an input error (exit 2), unless it writes the value the row already had."""
    text, _ = with_k(csv_texts[which], row, k)
    with tempfile.TemporaryDirectory() as work:
        code, _ = check_edited(csv_texts, work, which, text)
    assert code == (0 if text == csv_texts[which] else 2)


@pytest.mark.parametrize("which, row, k", [
    ("bounds", 0, 99),  # the first consensus row moved to k = 99
    ("trace_seed0", 1, 1),  # k = 1 twice
    ("trace_seed0", 0, 5),  # k = 5 twice
], ids=["bounds-k-99", "trace-k-duplicated", "trace-first-k-5"])
def test_check_refuses_k_out_of_order(csv_texts, tmp_path, capsys, which, row, k):
    """Each once printed four ok lines and exited 0: check paired the rows by position, not by k."""
    text, lineno = with_k(csv_texts[which], row, k)
    capsys.readouterr()
    code, path = check_edited(csv_texts, str(tmp_path), which, text)
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    (line,) = err.splitlines()
    assert line.startswith(f"input error: {path} line {lineno}: k={k}")


# inputs the fuzz tests above once found ending in a traceback or a RuntimeWarning
@pytest.mark.parametrize("base, command, key, value, expected", [
    ("quadratic", "bounds", "objective.grad_bound", "adaptive", 2),
    ("quadratic", "bounds", "objective.grad_bound", "-1", 2),
    ("quadratic", "run", "objective.targets", "inf", 2),
    ("quadratic", "run", "hp.seed", "-1", 2),
    ("quadratic", "run", "output.seeds", "0", 2),
    ("logistic", "run", "hp.alpha", "1e-36", 0),
    ("logistic", "run", "objective.separation", "1.3407807929942597e+154", 1),
    ("logistic", "bounds", "objective.separation", "1e100", 0),  # R overflows: cor1_gap is skipped
    # G**2 overflows the consensus and displacement bounds and R: each is skipped, the envelope is written
    ("quadratic", "bounds", "objective.grad_bound", "1e200", 0),
])
def test_config_fuzz_regressions(tmp_path, base, command, key, value, expected):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(with_value(BASES[base], key, value), encoding="utf-8")
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == expected
    if (tmp_path / "out" / "bounds.csv").exists():
        _, rows = read_bounds_csv(str(tmp_path / "out" / "bounds.csv"))
        assert all(np.isfinite(values).all() for values in rows.values())


def test_check_overflowing_trace_value_is_a_violation(csv_texts, tmp_path):
    lines = csv_texts["trace_seed0"].splitlines()
    row = next(i for i, ln in enumerate(lines) if ln.startswith("1,"))
    fields = lines[row].split(",")
    fields[-2] = "1e200"  # step_norm; displacement_sq squares it
    lines[row] = ",".join(fields)
    (tmp_path / "trace.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    (tmp_path / "bounds.csv").write_text(csv_texts["bounds"], encoding="utf-8")
    assert main(["check", "--trace", str(tmp_path / "trace.csv"), "--bounds", str(tmp_path / "bounds.csv")]) == 3


def test_check_infinite_trace_value_is_a_violation(csv_texts, tmp_path, capsys):
    """dmsgd writes no non-finite trace value, yet a trace file that holds an inf (an edited or foreign one)
    reads as a violation, not as a malformed file."""
    lines = csv_texts["trace_seed0"].splitlines()
    row = next(i for i, ln in enumerate(lines) if ln.startswith("2,"))
    fields = lines[row].split(",")
    fields[TRACE_HEADER.split(",").index("running_avg_grad")] = "inf"
    lines[row] = ",".join(fields)
    (tmp_path / "trace.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    (tmp_path / "bounds.csv").write_text(csv_texts["bounds"], encoding="utf-8")
    capsys.readouterr()
    assert main(["check", "--trace", str(tmp_path / "trace.csv"), "--bounds", str(tmp_path / "bounds.csv")]) == 3
    violations = [line for line in capsys.readouterr().out.splitlines() if line.startswith("VIOLATION ")]
    assert len(violations) == 1 and violations[0].startswith("VIOLATION avg_grad_envelope: k=2 metric=inf ")
