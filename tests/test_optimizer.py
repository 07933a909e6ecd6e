import numpy as np
import pytest

from dmsgd.objectives import StochasticOracle, UnifiedObjective, make_quadratic, unified_optimum
from dmsgd.optimizer import (
    AgentSwarm,
    HyperParams,
    NonFiniteGradientError,
    adaptive_omega,
    agent_rngs,
    momentum_delta,
    run,
    step,
    step_size_at,
)
from dmsgd.topology import build_topology, effective_matrix, metropolis_mixing, spectrum
from dmsgd.verify import recompute_running_avg


def uniform_mixing(n):
    return metropolis_mixing(build_topology("full", n))


def quad_setup(alpha=0.1, beta=0.9, omega=0.0, option="I", iters=10, seed=0, sigma=0.0):
    suite = make_quadratic([[0.0], [2.0]], [1.0, 1.0])
    mix = uniform_mixing(2)
    hp = HyperParams(option=option, alpha=alpha, beta=beta, omega=omega, iters=iters, seed=seed)
    oracle = StochasticOracle(mode="additive", sigma=sigma)
    objective = UnifiedObjective(suite, mix, alpha if option == "I" else None)
    _, f_star = unified_optimum(objective)
    return mix, suite, oracle, hp, objective, f_star


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


def test_step_size_schedule():
    hp = HyperParams(schedule="sqrt", schedule_b=4.0, alpha=None, iters=5)
    assert step_size_at(hp, 1) == pytest.approx(2.0)
    assert step_size_at(hp, 4) == pytest.approx(1.0)
    const = HyperParams(alpha=0.3, iters=5)
    assert step_size_at(const, 99) == 0.3


# ---------------------------------------------------------- worked example


def test_hand_worked_two_agent_step():
    # quadratic targets (0, 2), Pi = J/2, a=0.1, b=0.9, w=0, zero init:
    # both options give x_2 = (0, 0.2)
    for option in ("I", "II"):
        mix, suite, oracle, hp, _, _ = quad_setup(option=option)
        swarm = AgentSwarm.zeros(mix, 2, 1)
        grads = suite.evaluate(swarm.x_cur)[1]
        step(swarm, mix, hp, grads)
        assert np.allclose(swarm.x_cur, [[0.0], [0.2]], atol=1e-15)


def test_hand_worked_second_step_option_one():
    mix, suite, oracle, hp, _, _ = quad_setup(option="I")
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
        mix, suite, oracle, hp, _, _ = quad_setup(beta=0.0, omega=omega, iters=3)
        swarm = AgentSwarm.zeros(mix, 2, 1)
        step(swarm, mix, hp, suite.evaluate(swarm.x_cur)[1])
        step(swarm, mix, hp, suite.evaluate(swarm.x_cur)[1])
        ref = None
        # compare against omega=0 reference
        mix2, suite2, _, hp0, _, _ = quad_setup(beta=0.0, omega=0.0, iters=3)
        s2 = AgentSwarm.zeros(mix2, 2, 1)
        step(s2, mix2, hp0, suite2.evaluate(s2.x_cur)[1])
        step(s2, mix2, hp0, suite2.evaluate(s2.x_cur)[1])
        assert np.array_equal(swarm.x_cur, s2.x_cur)


def test_non_finite_gradient_diagnostic():
    mix, suite, oracle, hp, _, _ = quad_setup()
    swarm = AgentSwarm.zeros(mix, 2, 1)
    bad = np.array([[0.0], [np.nan]])
    with pytest.raises(NonFiniteGradientError) as err:
        step(swarm, mix, hp, bad)
    assert err.value.agent == 1
    assert err.value.iteration == 1


# ------------------------------------------------------------------- runs


def test_run_zero_iters_empty_trace():
    mix, suite, oracle, hp, objective, f_star = quad_setup(iters=0)
    trace = run(mix, suite, oracle, hp, objective, f_star)
    assert len(trace) == 0
    assert np.array_equal(trace.swarm.x_cur, np.zeros((2, 1)))
    assert trace.status == "completed"


def test_run_deterministic_bitwise():
    mix, suite, oracle, hp, objective, f_star = quad_setup(iters=50, sigma=0.3, seed=11)
    t1 = run(mix, suite, oracle, hp, objective, f_star)
    t2 = run(mix, suite, oracle, hp, objective, f_star)
    for name in ("gap", "grad_norm_sq", "step_norm", "consensus_err_max", "omega_used"):
        assert np.array_equal(getattr(t1, name), getattr(t2, name))


def test_run_trace_lengths_and_finiteness():
    mix, suite, oracle, hp, objective, f_star = quad_setup(iters=25)
    trace = run(mix, suite, oracle, hp, objective, f_star)
    assert len(trace) == 25
    assert np.array_equal(trace.k, np.arange(1, 26))
    for name in ("gap", "grad_norm_sq", "running_avg_grad", "step_norm"):
        assert np.isfinite(getattr(trace, name)).all()


def test_running_avg_recomputes():
    mix, suite, oracle, hp, objective, f_star = quad_setup(iters=30, sigma=0.2)
    trace = run(mix, suite, oracle, hp, objective, f_star)
    again = recompute_running_avg(trace.grad_norm_sq)
    assert np.abs(again - trace.running_avg_grad).max() <= 1e-12


def test_beta_zero_traces_identical_across_omega():
    traces = []
    for omega in (0.0, 0.25, 0.5, 1.0, "adaptive"):
        mix, suite, oracle, hp, objective, f_star = quad_setup(beta=0.0, omega=omega, iters=40)
        traces.append(run(mix, suite, oracle, hp, objective, f_star))
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


def test_displacement_bound_beta_zero():
    # with b=0 every step norm is alpha * ||S(x_k)|| <= alpha * M by the
    # definition of the measured gradient bound
    mix, suite, oracle, hp, objective, f_star = quad_setup(beta=0.0, iters=100, alpha=0.05)
    trace = run(mix, suite, oracle, hp, objective, f_star)
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
    trace = run(mix, suite, oracle, hp, objective, f_star)
    m_meas = np.sqrt(trace.grad_norm_sq.max())
    lam = omega + (1 - omega) * spectrum(mix).lambda2
    bl = beta * lam
    k = trace.k.astype(float)
    bound = alpha * m_meas * (1 - bl ** (k + 1)) / (1 - bl)
    assert (trace.step_norm <= bound + 1e-9).all()


def test_run_aborts_on_divergence():
    # gigantic step size on a quadratic blows up; the trace must be flagged
    mix, suite, oracle, hp, objective, f_star = quad_setup(alpha=1e8, beta=0.0, iters=400)
    trace = run(mix, suite, oracle, hp, objective, f_star)
    assert trace.status == "aborted"
    assert trace.aborted_at is not None
    assert len(trace) < 400
    for name in ("gap", "grad_norm_sq", "step_norm"):
        assert np.isfinite(getattr(trace, name)).all()


def test_run_records_abort_reason_and_agent():
    # the state overflows: agent 1, pulled toward 2.0, takes the first infinite step
    trace = run(*quad_setup(alpha=1e8, beta=0.0, iters=400))
    assert (trace.abort_reason, trace.abort_agent) == ("nonfinite_step", 1)
    assert trace.aborted_at == len(trace) + 1
    # an infinite noise scale makes agent 0's first draw non-finite
    trace = run(*quad_setup(sigma=float("inf")))
    assert (trace.abort_reason, trace.abort_agent, trace.aborted_at) == ("nonfinite_grad", 0, 1)
    # agent 1's curvature overflows the squared metric gradient at x = 0
    mix, _, oracle, hp, _, _ = quad_setup()
    suite = make_quadratic([[0.0], [2.0]], [1.0, 1e300])
    trace = run(mix, suite, oracle, hp, UnifiedObjective(suite, mix, hp.alpha), 0.0)
    assert (trace.abort_reason, trace.abort_agent, trace.aborted_at) == ("nonfinite_value", 1, 1)
    assert len(trace) == 0


def test_completed_run_has_no_abort_reason():
    trace = run(*quad_setup())
    assert trace.status == "completed"
    assert (trace.aborted_at, trace.abort_reason, trace.abort_agent) == (None, None, None)


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
        HyperParams(beta=1.0)
    with pytest.raises(ValueError):
        HyperParams(omega=1.5)
    with pytest.raises(ValueError):
        HyperParams(omega="auto")
    with pytest.raises(ValueError):
        HyperParams(alpha=-0.1)
    with pytest.raises(ValueError):
        HyperParams(schedule="sqrt", schedule_b=None)
    with pytest.raises(ValueError):
        HyperParams(iters=-1)
