import ast
from pathlib import Path

import numpy as np
import pytest

import dmsgd
from dmsgd.objectives import StochasticOracle, UnifiedObjective, make_quadratic, make_pl, unified_optimum
from dmsgd.optimizer import AgentSwarm, HyperParams, adaptive_omega, consensus_errors, run, step
from dmsgd.topology import build_topology, effective_matrix, metropolis_mixing
from oracles import finite_diff_grad, recompute_running_avg, reference_step


# every top-level definition of tests/oracles.py (the independent oracles and their helpers), and the module itself
ORACLES = {node.name for node in ast.parse((Path(__file__).parent / "oracles.py").read_text(encoding="utf-8")).body
           if isinstance(node, (ast.FunctionDef, ast.ClassDef))} | {"oracles"}


def test_no_production_module_names_an_oracle():
    """An oracle checks production code and shares none of it: no module of the package names one, as a name, an
    attribute, an import, the module of an import or a definition."""
    assert {"reference_step", "additive_noise", "oracles"} <= ORACLES  # the parse found the definitions
    modules = sorted(Path(dmsgd.__file__).parent.rglob("*.py"))
    assert len(modules) >= 6
    named = {(path.name, name) for path in modules for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             for name in (getattr(node, field, None) for field in ("id", "attr", "name", "asname", "arg", "module"))
             if name and ORACLES & set(name.split("."))}
    assert named == set()


# ---------------------------------------------------------- reference step


def test_reference_matches_hand_example():
    # the two-agent worked example: x2 = (0, 0.2), then x3 = (0.19, 0.37)
    pi = np.full((2, 2), 0.5)
    alpha, beta, omega = 0.1, 0.9, 0.0
    pi_eff = omega * np.eye(2) + (1 - omega) * pi
    x1 = np.zeros((2, 1))
    g1 = np.array([[0.0], [-2.0]])
    x2 = reference_step("I", pi_eff, pi, alpha, beta, x1, x1, g1)
    assert np.allclose(x2, [[0.0], [0.2]], atol=1e-15)
    g2 = np.array([[0.0], [-1.8]])
    x3 = reference_step("I", pi_eff, pi, alpha, beta, x2, x1, g2)
    assert np.allclose(x3, [[0.19], [0.37]], atol=1e-15)


def test_reference_beta_zero_reduces():
    rng = np.random.default_rng(0)
    pi = metropolis_mixing(build_topology("ring", 4)).entries
    x = rng.normal(size=(4, 2))
    g = rng.normal(size=(4, 2))
    out = reference_step("I", pi, pi, 0.1, 0.0, x, rng.normal(size=(4, 2)), g)
    s = g + (np.eye(4) - pi) @ x / 0.1
    assert np.allclose(out, x - 0.1 * s, atol=1e-15)


def test_reference_identity_mixing_isolated_heavy_ball():
    rng = np.random.default_rng(1)
    pi = np.eye(3)
    x, xp, g = rng.normal(size=(3, 3, 2))
    out = reference_step("I", pi, pi, 0.2, 0.5, x, xp, g)
    assert np.allclose(out, x - 0.2 * g + 0.5 * (x - xp), atol=1e-15)


def test_reference_dimension_mismatch():
    with pytest.raises(ValueError):
        reference_step("I", np.eye(2), np.eye(2), 0.1, 0.0, np.zeros((2, 1)), np.zeros((3, 1)), np.zeros((2, 1)))


@pytest.mark.parametrize("call, message", [
    (lambda: reference_step("I", np.eye(3), np.eye(3), 0.1, 0.0, *[np.zeros((2, 1))] * 3),
     "mixing matrix dimensions disagree with the state"),
    (lambda: reference_step("III", np.eye(2), np.eye(2), 0.1, 0.0, *[np.zeros((2, 1))] * 3),
     "option must be 'I' or 'II', got 'III'"),
], ids=["mixing-dimension", "option"])
def test_reference_refusals(call, message):
    """Each refusal of the reference stepper raises ValueError with its own reason."""
    with pytest.raises(ValueError, match=message):
        call()


def loop_vs_reference(option, omega, beta=0.8, steps=100, n=6, d=3, seed=5, adaptive=False):
    """Drive the per-agent loop and the dense reference on shared draws."""
    rng = np.random.default_rng(seed)
    mix = metropolis_mixing(build_topology("ring", n), laziness=0.15)
    pi = mix.entries
    alpha = 0.05
    hp = HyperParams(
        option=option,
        alpha=alpha,
        beta=beta,
        omega="adaptive" if adaptive else omega,
        iters=steps,
        adaptive_scope="global",
    )
    swarm = AgentSwarm.zeros(mix, n, d)
    x_ref = np.zeros((n, d))
    x_ref_prev = x_ref.copy()
    worst = 0.0
    for _ in range(steps):
        g = rng.normal(size=(n, d))
        if adaptive:
            v = pi @ swarm.x_cur
            w = adaptive_omega(swarm.x_cur, swarm.x_prev, v, swarm.v_prev, scope="global")
        else:
            w = omega
        step(swarm, mix, hp, g)
        pi_eff = w * np.eye(n) + (1 - w) * pi
        x_new = reference_step(option, pi_eff, pi, alpha, beta, x_ref, x_ref_prev, g)
        x_ref_prev, x_ref = x_ref, x_new
        worst = max(worst, float(np.abs(swarm.x_cur - x_ref).max()))
    return worst


@pytest.mark.parametrize("option", ["I", "II"])
@pytest.mark.parametrize("omega", [0.0, 0.35, 1.0])
def test_loop_matches_reference(option, omega):
    assert loop_vs_reference(option, omega) <= 1e-12


@pytest.mark.parametrize("option", ["I", "II"])
def test_loop_matches_reference_adaptive_global(option):
    assert loop_vs_reference(option, omega=None, adaptive=True) <= 1e-12


def test_loop_matches_reference_random_configs():
    rng = np.random.default_rng(9)
    for _ in range(5):
        option = rng.choice(["I", "II"])
        omega = float(rng.uniform(0, 1))
        beta = float(rng.uniform(0, 0.9))
        n = int(rng.integers(2, 8))
        d = int(rng.integers(1, 4))
        worst = loop_vs_reference(option, omega, beta=beta, n=n, d=d, seed=int(rng.integers(1e6)))
        assert worst <= 1e-12


# ------------------------------------------------------- finite differences


def test_finite_diff_quadratic_exact():
    rng = np.random.default_rng(2)
    for _ in range(5):
        x = rng.normal(size=4)
        est = finite_diff_grad(lambda v: 0.5 * np.sum(v**2), x, 1e-6)
        assert np.abs(est - x).max() <= 1e-8


def test_finite_diff_constant_zero():
    est = finite_diff_grad(lambda v: 3.5, np.ones(3), 1e-6)
    assert np.array_equal(est, np.zeros(3))


def test_finite_diff_rejects_bad_h():
    with pytest.raises(ValueError):
        finite_diff_grad(lambda v: 0.0, np.zeros(2), 0.0)


# ----------------------------------------------------------------- metrics
# properties of the trace's two consensus columns, as the loop computes them


def test_consensus_errors_zero_iff_equal():
    x = np.tile(np.array([1.5, -2.0]), (4, 1))
    assert consensus_errors(x) == (0.0, 0.0)
    x[2] += 0.1
    assert consensus_errors(x)[0] > 0.0


def test_consensus_errors_translation_invariant():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(5, 3))
    shift = rng.normal(size=3)
    assert consensus_errors(x + shift) == pytest.approx(consensus_errors(x), rel=1e-12)


def test_consensus_max_below_stacked():
    rng = np.random.default_rng(4)
    for _ in range(10):
        err_max, err_stacked = consensus_errors(rng.normal(size=(6, 2)))
        assert err_max <= err_stacked + 1e-15


def test_running_avg_matches_trace():
    suite = make_quadratic([[0.0], [2.0]], [1.0, 1.0])
    mix = metropolis_mixing(build_topology("full", 2))
    hp = HyperParams(alpha=0.1, beta=0.4, omega=0.5, iters=40, seed=3)
    objective = UnifiedObjective(suite, mix, 0.1)
    _, f_star = unified_optimum(objective)
    trace = run(objective, StochasticOracle(sigma=0.2), hp, f_star)
    assert np.abs(recompute_running_avg(trace.grad_norm_sq) - trace.running_avg_grad).max() <= 1e-12


# ----------------------------------------------- deterministic gap descent


def test_quadratic_gap_nonincreasing_after_burnin():
    # soft sanity property: deterministic quadratic runs settle into
    # monotone gap decay within a short burn-in
    suite = make_quadratic([[0.0, 1.0], [2.0, 0.0], [1.0, 1.0]], [1.0, 1.0, 1.0])
    mix = metropolis_mixing(build_topology("full", 3), laziness=0.3)
    hp = HyperParams(alpha=0.1, beta=0.3, omega=0.5, iters=200)
    objective = UnifiedObjective(suite, mix, 0.1)
    _, f_star = unified_optimum(objective)
    trace = run(objective, StochasticOracle(sigma=0.0), hp, f_star)
    tail = trace.gap[10:]
    assert (np.diff(tail) <= 1e-12 * max(1.0, trace.gap[0])).all()
