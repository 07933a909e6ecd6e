import dataclasses
import importlib
import pkgutil
from pathlib import Path

import numpy as np
import pytest

import dmsgd
from dmsgd import optimizer
from dmsgd.harness import TRACE_COLUMNS
from dmsgd.objectives import StochasticOracle, UnifiedObjective, make_quadratic, stochastic_grad, unified_optimum
from dmsgd.optimizer import (
    AgentSwarm,
    HyperParams,
    adaptive_omega,
    agent_rngs,
    momentum_delta,
    run,
    step,
    step_size_at,
)
from dmsgd.topology import build_topology, effective_matrix, metropolis_mixing, spectrum
from oracles import additive_noise, recompute_running_avg


def uniform_mixing(n):
    return metropolis_mixing(build_topology("full", n))


def quad_setup(alpha=0.1, beta=0.9, omega=0.0, option="I", iters=10, seed=0, sigma=0.0):
    suite = make_quadratic([[0.0], [2.0]], [1.0, 1.0])
    mix = uniform_mixing(2)
    hp = HyperParams(option=option, alpha=alpha, beta=beta, omega=omega, iters=iters, seed=seed)
    oracle = StochasticOracle(mode="additive", sigma=sigma)
    objective = UnifiedObjective(suite, mix, alpha if option == "I" else None)
    _, f_star = unified_optimum(objective)
    return objective, oracle, hp, f_star


def test_the_swarm_is_the_only_mutable_dataclass():
    """``AgentSwarm``, the run loop's state, is the one object the package changes after building it: every other
    dataclass a ``dmsgd`` module defines is frozen."""
    frozen, mutable = [], []
    for info in pkgutil.iter_modules(dmsgd.__path__):
        module = importlib.import_module(f"dmsgd.{info.name}")
        for name, obj in vars(module).items():
            if isinstance(obj, type) and dataclasses.is_dataclass(obj) and obj.__module__ == module.__name__:
                (frozen if obj.__dataclass_params__.frozen else mutable).append(f"{info.name}.{name}")
    assert mutable == ["optimizer.AgentSwarm"]
    assert {"harness.RunConfig", "harness.Scenario", "objectives.ObjectiveSuite", "objectives.StochasticOracle",
            "objectives.UnifiedObjective", "optimizer.RunTrace", "bounds.DominationReport"} <= set(frozen)


# ------------------------------------------------------------- micro steps


def consensus_of(mixing, x):
    """Pi x, read off one option-I step with zero gradients and no momentum."""
    swarm = AgentSwarm.zeros(mixing, *x.shape)
    swarm.x_cur = x
    step(swarm, mixing, HyperParams(option="I", alpha=0.1, beta=0.0), np.zeros_like(x))
    return swarm.x_cur


def test_consensus_identity_and_average():
    x = np.array([[0.0], [2.0]])
    ident = effective_matrix(uniform_mixing(2), 1.0)
    assert np.array_equal(consensus_of(ident, x), x)
    assert np.allclose(consensus_of(uniform_mixing(2), x), [[1.0], [1.0]])


def test_consensus_hand_product():
    mix = uniform_mixing(2)
    assert np.allclose(consensus_of(mix, np.array([[0.0], [2.0]])), [[1.0], [1.0]])


def test_momentum_delta_limits():
    rng = np.random.default_rng(0)
    x, xp, v, vp = rng.normal(size=(4, 3, 2))
    assert np.allclose(momentum_delta(1.0, x, xp, v, vp), x - xp)
    assert np.allclose(momentum_delta(0.0, x, xp, v, vp), v - vp)
    assert np.allclose(momentum_delta(0.7, x, x, v, v), 0.0)


def test_momentum_delta_per_agent_weights():
    x = np.array([[1.0], [2.0]])
    xp = np.zeros((2, 1))
    v = np.array([[3.0], [4.0]])
    vp = np.zeros((2, 1))
    out = momentum_delta(np.array([1.0, 0.0]), x, xp, v, vp)
    assert np.allclose(out, [[1.0], [4.0]])


def test_adaptive_omega_values():
    x = np.array([[1.0]])
    xp = np.zeros((1, 1))
    v = np.array([[3.0]])
    vp = np.zeros((1, 1))
    assert adaptive_omega(x, xp, v, vp)[0] == pytest.approx(0.25)  # cm1=1, cm2=3
    assert adaptive_omega(x, xp, xp, xp)[0] == pytest.approx(1.0)  # cm2=0
    z = np.zeros((1, 1))
    assert adaptive_omega(z, z, z, z)[0] == pytest.approx(0.5)  # declared tie-break


def test_adaptive_omega_global_scope():
    x = np.array([[1.0], [0.0]])
    xp = np.zeros((2, 1))
    v = np.array([[0.0], [3.0]])
    vp = np.zeros((2, 1))
    assert adaptive_omega(x, xp, v, vp, scope="global") == pytest.approx(0.25)
    z = np.zeros((2, 1))
    assert adaptive_omega(z, z, z, z, scope="global") == 0.5  # declared tie-break, as per agent


def test_draw_dev_sq_is_the_squared_norm_of_each_additive_draw():
    """Each row's draw_dev_sq is ||draws - exact||^2 of that iteration, the squared norm of the additive noise that
    each agent's own generator drew; only the rounding of (exact + noise) - exact stands between them."""
    suite = make_quadratic([[0.0, 1.0], [2.0, -1.0], [1.0, 0.5]], [1.0, 2.0, 0.5])
    hp = HyperParams(option="II", alpha=0.1, beta=0.5, omega="adaptive", iters=30, seed=7)
    trace = run(UnifiedObjective(suite, uniform_mixing(3), None), StochasticOracle(sigma=0.3), hp, 0.0)
    assert trace.status == "completed" and len(trace) == hp.iters
    noise = additive_noise(hp.seed, suite.n, suite.d, 0.3, hp.iters)
    np.testing.assert_allclose(trace.draw_dev_sq, np.sum(noise**2, axis=(1, 2)), rtol=1e-12, atol=0.0)


def test_step_size_schedule():
    hp = HyperParams(option="II", schedule="sqrt", schedule_b=4.0, alpha=None, iters=5)
    assert step_size_at(hp, 1) == pytest.approx(2.0)
    assert step_size_at(hp, 4) == pytest.approx(1.0)
    const = HyperParams(alpha=0.3, iters=5)
    assert step_size_at(const, 99) == 0.3


# ---------------------------------------------------------- worked example


def test_hand_worked_two_agent_step():
    # quadratic targets (0, 2), Pi = J/2, a=0.1, b=0.9, w=0, zero init:
    # both options give x_2 = (0, 0.2)
    for option in ("I", "II"):
        objective, _, hp, _ = quad_setup(option=option)
        mix, suite = objective.mixing, objective.suite
        swarm = AgentSwarm.zeros(mix, 2, 1)
        grads = suite.evaluate(swarm.x_cur)[1]
        step(swarm, mix, hp, grads)
        assert np.allclose(swarm.x_cur, [[0.0], [0.2]], atol=1e-15)


def test_hand_worked_second_step_option_one():
    objective, _, hp, _ = quad_setup(option="I")
    mix, suite = objective.mixing, objective.suite
    swarm = AgentSwarm.zeros(mix, 2, 1)
    step(swarm, mix, hp, suite.evaluate(swarm.x_cur)[1])
    # v_2 = (0.1, 0.1), delta_2 = (0.1, 0.1), g = (0, -1.8) -> x_3 = (0.19, 0.37)
    v2 = mix.entries @ swarm.x_cur
    assert np.allclose(v2, [[0.1], [0.1]], atol=1e-15)
    g2 = suite.evaluate(swarm.x_cur)[1]
    assert np.allclose(g2, [[0.0], [-1.8]], atol=1e-15)
    step(swarm, mix, hp, g2)
    assert np.allclose(swarm.x_cur, [[0.19], [0.37]], atol=1e-12)


def test_beta_zero_step_ignores_omega():
    for omega in (0.0, 0.3, 1.0):
        objective, _, hp, _ = quad_setup(beta=0.0, omega=omega, iters=3)
        mix, suite = objective.mixing, objective.suite
        swarm = AgentSwarm.zeros(mix, 2, 1)
        step(swarm, mix, hp, suite.evaluate(swarm.x_cur)[1])
        step(swarm, mix, hp, suite.evaluate(swarm.x_cur)[1])
        ref = None
        # compare against omega=0 reference
        objective2, _, hp0, _ = quad_setup(beta=0.0, omega=0.0, iters=3)
        mix2, suite2 = objective2.mixing, objective2.suite
        s2 = AgentSwarm.zeros(mix2, 2, 1)
        step(s2, mix2, hp0, suite2.evaluate(s2.x_cur)[1])
        step(s2, mix2, hp0, suite2.evaluate(s2.x_cur)[1])
        assert np.array_equal(swarm.x_cur, s2.x_cur)


# ------------------------------------------------------------------- runs


def test_run_zero_iters_empty_trace():
    objective, oracle, hp, f_star = quad_setup(iters=0)
    trace = run(objective, oracle, hp, f_star)
    assert len(trace) == 0
    assert np.array_equal(trace.swarm.x_cur, np.zeros((2, 1)))
    assert trace.status == "completed"


def test_run_deterministic_bitwise():
    objective, oracle, hp, f_star = quad_setup(iters=50, sigma=0.3, seed=11)
    t1 = run(objective, oracle, hp, f_star)
    t2 = run(objective, oracle, hp, f_star)
    for name in ("gap", "grad_norm_sq", "step_norm", "consensus_err_max", "omega_used"):
        assert np.array_equal(getattr(t1, name), getattr(t2, name))


def test_run_trace_lengths_and_finiteness():
    objective, oracle, hp, f_star = quad_setup(iters=25)
    trace = run(objective, oracle, hp, f_star)
    assert len(trace) == 25
    assert np.array_equal(trace.k, np.arange(1, 26))
    for name in ("gap", "grad_norm_sq", "running_avg_grad", "step_norm"):
        assert np.isfinite(getattr(trace, name)).all()


def test_running_avg_recomputes():
    objective, oracle, hp, f_star = quad_setup(iters=30, sigma=0.2)
    trace = run(objective, oracle, hp, f_star)
    again = recompute_running_avg(trace.grad_norm_sq)
    assert np.abs(again - trace.running_avg_grad).max() <= 1e-12


def test_beta_zero_traces_identical_across_omega():
    traces = []
    for omega in (0.0, 0.25, 0.5, 1.0, "adaptive"):
        objective, oracle, hp, f_star = quad_setup(beta=0.0, omega=omega, iters=40)
        traces.append(run(objective, oracle, hp, f_star))
    base = traces[0]
    for other in traces[1:]:
        for name in ("gap", "grad_norm_sq", "step_norm", "consensus_err_max", "consensus_err_stacked"):
            assert np.array_equal(getattr(base, name), getattr(other, name))


def test_mean_dynamics_preserved():
    # xbar_{k+1} = xbar_k - a*gbar + b*(xbar_k - xbar_{k-1}) for fixed omega
    rng = np.random.default_rng(3)
    suite = make_quadratic(rng.normal(size=(4, 2)), [1.0, 2.0, 0.5, 1.5])
    mix = metropolis_mixing(build_topology("ring", 4))
    for option in ("I", "II"):
        for omega in (0.0, 0.6, 1.0):
            hp = HyperParams(option=option, alpha=0.05, beta=0.4, omega=omega, iters=1)
            swarm = AgentSwarm.zeros(mix, 4, 2)
            means = [swarm.x_cur.mean(axis=0)]
            for _ in range(30):
                grads = suite.evaluate(swarm.x_cur)[1]
                gbar = grads.mean(axis=0)
                prev_two = means[-2] if len(means) > 1 else means[-1]
                step(swarm, mix, hp, grads)
                predicted = means[-1] - hp.alpha * gbar + hp.beta * (means[-1] - prev_two)
                assert np.abs(swarm.x_cur.mean(axis=0) - predicted).max() <= 1e-12
                means.append(swarm.x_cur.mean(axis=0))


def test_fixed_point_of_option_one():
    suite = make_quadratic([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]], [1.0, 2.0, 1.0])
    mix = metropolis_mixing(build_topology("full", 3), laziness=0.2)
    objective = UnifiedObjective(suite, mix, alpha=0.1)
    x_star, _ = unified_optimum(objective)
    hp = HyperParams(option="I", alpha=0.1, beta=0.7, omega=0.4, iters=1)
    swarm = AgentSwarm(x_cur=x_star.copy(), x_prev=x_star.copy(), v_prev=mix.entries @ x_star)
    step(swarm, mix, hp, suite.evaluate(x_star)[1])
    assert np.abs(swarm.x_cur - x_star).max() <= 1e-12


def test_option_two_consensus_floor_is_the_local_minimizer_spread():
    # option II mixes only the momentum of the displacement, so at a fixed point each agent sits at its own local
    # minimizer: the consensus error tends to max_j |x*_j - xbar*| = 2 at every alpha, while the consensus bound
    # is linear in alpha.  Pins today's dynamics; a change to the option-II update edits this test.
    targets = np.array([[-2.0], [-1.0], [1.0], [2.0]])
    mix = metropolis_mixing(build_topology("ring", 4), laziness=0.3)
    objective = UnifiedObjective(make_quadratic(targets, 1.0), mix, None)
    _, f_star = unified_optimum(objective)
    oracle = StochasticOracle(mode="additive", sigma=0.0)
    spread = np.abs(targets - targets.mean()).max()
    assert spread == 2.0
    for alpha, final in ((0.01, 2.0000), (0.001, 1.9802)):
        hp = HyperParams(option="II", alpha=alpha, beta=0.5, omega=0.5, iters=3000)
        trace = run(objective, oracle, hp, f_star)
        assert trace.status == "completed"
        assert trace.consensus_err_max[-1] == pytest.approx(final, abs=1e-4)
        assert trace.consensus_err_max[-1] == pytest.approx(spread, rel=0.01)


def test_displacement_bound_beta_zero():
    # with b=0 every step norm is alpha * ||S(x_k)|| <= alpha * M by the
    # definition of the measured gradient bound
    objective, oracle, hp, f_star = quad_setup(beta=0.0, iters=100, alpha=0.05)
    trace = run(objective, oracle, hp, f_star)
    m_meas = np.sqrt(trace.grad_norm_sq.max())
    assert (trace.step_norm <= hp.alpha * m_meas + 1e-9).all()


def test_displacement_bound_momentum_mean_free():
    # symmetric targets keep the stacked gradient mean-free, the regime in
    # which the blended-spectrum geometric bound is valid along the run
    suite = make_quadratic([[-1.0], [1.0]], [1.0, 1.0])
    mix = uniform_mixing(2)
    alpha, beta, omega = 0.1, 0.5, 0.5
    hp = HyperParams(option="I", alpha=alpha, beta=beta, omega=omega, iters=200)
    objective = UnifiedObjective(suite, mix, alpha)
    _, f_star = unified_optimum(objective)
    oracle = StochasticOracle(mode="additive", sigma=0.0)
    trace = run(objective, oracle, hp, f_star)
    m_meas = np.sqrt(trace.grad_norm_sq.max())
    lam = omega + (1 - omega) * spectrum(mix).lambda2
    bl = beta * lam
    k = trace.k.astype(float)
    bound = alpha * m_meas * (1 - bl ** (k + 1)) / (1 - bl)
    assert (trace.step_norm <= bound + 1e-9).all()


def test_run_aborts_on_divergence():
    # gigantic step size on a quadratic blows up; the trace must be flagged
    objective, oracle, hp, f_star = quad_setup(alpha=1e8, beta=0.0, iters=400)
    trace = run(objective, oracle, hp, f_star)
    assert trace.status == "aborted"
    assert trace.abort == f"nonfinite_step agent=1 k={len(trace) + 1}"
    assert len(trace) < 400
    for name in TRACE_COLUMNS:
        assert np.isfinite(getattr(trace, name)).all(), name


def test_run_aborts_where_the_running_gradient_sum_overflows():
    """Each squared gradient norm is finite and above half the float maximum, so their sum overflows at row 2:
    the run aborts there as nonfinite_value with no agent, and row 1 is the only one written."""
    half_max = np.finfo(float).max / 2
    target = np.sqrt(0.6 * half_max)  # two agents: a first squared norm of 1.2 x half the maximum
    suite = make_quadratic([[target], [target]], [1.0, 1.0])
    hp = HyperParams(option="I", alpha=1e-12, beta=0.0, omega=0.0, iters=10)
    trace = run(UnifiedObjective(suite, uniform_mixing(2), hp.alpha), StochasticOracle(sigma=0.0), hp, 0.0)
    assert (trace.status, trace.abort) == ("aborted", "nonfinite_value agent=none k=2")
    assert len(trace) == 1 and trace.grad_norm_sq[0] > half_max
    for name in TRACE_COLUMNS:
        assert np.isfinite(getattr(trace, name)).all(), name


def test_run_records_abort_reason_and_agent():
    # the state overflows: agent 1, pulled toward 2.0, takes the first infinite step
    trace = run(*quad_setup(alpha=1e8, beta=0.0, iters=400))
    assert (trace.status, trace.abort) == ("aborted", f"nonfinite_step agent=1 k={len(trace) + 1}")
    # an infinite noise scale makes agent 0's first draw non-finite
    trace = run(*quad_setup(sigma=float("inf")))
    assert (trace.status, trace.abort) == ("aborted", "nonfinite_grad agent=0 k=1")
    # agent 1's curvature overflows the squared metric gradient at x = 0
    objective, oracle, hp, _ = quad_setup()
    suite = make_quadratic([[0.0], [2.0]], [1.0, 1e300])
    trace = run(UnifiedObjective(suite, objective.mixing, hp.alpha), oracle, hp, 0.0)
    assert (trace.status, trace.abort) == ("aborted", "nonfinite_value agent=1 k=1")
    assert len(trace) == 0


def test_run_aborts_at_the_first_nonfinite_draw(monkeypatch):
    # agent 1's third draw is the run's first non-finite one; agent 0's stays finite
    calls = []

    def draw(*args):
        calls.append(args)
        draws = stochastic_grad(*args).copy()
        if len(calls) == 3:
            draws[1, 0] = np.inf
        return draws

    monkeypatch.setattr(optimizer, "stochastic_grad", draw)
    trace = run(*quad_setup(sigma=0.1))
    assert (trace.status, trace.abort) == ("aborted", "nonfinite_grad agent=1 k=3")
    assert len(trace) == 2 and trace.swarm.k == 3  # the bad draw never reached the state
    assert np.isfinite(trace.swarm.x_cur).all()


def test_completed_run_has_no_abort_reason():
    trace = run(*quad_setup())
    assert (trace.status, trace.abort, len(trace)) == ("completed", None, 10)


def test_readme_quick_start_runs(capsys):
    # the README's library example is executed as written, so it cannot drift from the API
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Library quick start", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
    assert "<=" in capsys.readouterr().out


def test_agent_rngs_order_independent():
    rngs_a = agent_rngs(42, 3)
    rngs_b = agent_rngs(42, 3)
    # draw agent streams in different orders; sequences must match per agent
    seq_a = [rngs_a[j].normal(size=4) for j in (0, 1, 2)]
    seq_b = [rngs_b[j].normal(size=4) for j in (2, 1, 0)][::-1]
    for a, b in zip(seq_a, seq_b):
        assert np.array_equal(a, b)


def test_hyperparams_validation():
    with pytest.raises(ValueError):
        HyperParams(option="III")
    with pytest.raises(ValueError):
        HyperParams(alpha=0.1, beta=1.0)
    with pytest.raises(ValueError):
        HyperParams(alpha=0.1, omega=1.5)
    with pytest.raises(ValueError):
        HyperParams(alpha=0.1, omega="auto")
    with pytest.raises(ValueError):
        HyperParams(alpha=-0.1)
    with pytest.raises(ValueError):
        HyperParams(option="II", schedule="sqrt", schedule_b=None)
    with pytest.raises(ValueError):
        HyperParams(alpha=0.1, iters=-1)


@pytest.mark.parametrize("call, message", [
    (lambda: HyperParams(schedule="cosine"), "unknown schedule 'cosine'"),
    (lambda: HyperParams(alpha=0.1, adaptive_scope="swarm"), "adaptive_scope must be 'agent' or 'global', got 'swarm'"),
    (lambda: step_size_at(HyperParams(option="II", schedule="sqrt", schedule_b=1.0), 0), "sqrt schedule needs k >= 1"),
    (lambda: step(AgentSwarm.zeros(uniform_mixing(2), 2, 3), uniform_mixing(2), HyperParams(alpha=0.1),
                  np.zeros((2, 2))), r"gradient shape \(2, 2\) != state shape \(2, 3\)"),
    (lambda: HyperParams(), "constant schedule needs alpha > 0"),
    (lambda: HyperParams(alpha=0.1, schedule="sqrt", schedule_b=0.5),
     r"the sqrt\(B/k\) schedule varies the penalty weight of the option-I objective every iteration"),
], ids=["schedule", "adaptive-scope", "sqrt-k", "grad-shape", "no-alpha", "sqrt-option-I"])
def test_optimizer_refusals(call, message):
    """Each refusal of the loop's inputs raises ValueError with its own reason."""
    with pytest.raises(ValueError, match=message):
        call()


def test_hyperparams_are_frozen():
    hp = HyperParams(alpha=0.1, beta=0.5)
    with pytest.raises(dataclasses.FrozenInstanceError):
        hp.beta = 2.0
    assert hp.beta == 0.5
    # a changed copy goes through the same checks
    assert dataclasses.replace(hp, beta=0.9).beta == 0.9
    with pytest.raises(ValueError):
        dataclasses.replace(hp, beta=2.0)
