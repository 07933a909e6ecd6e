"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every expected value here is either computed by an independent oracle inside
the test or pinned from the frozen oracle evaluations in the unit tests.
"""

import time

import numpy as np
import pytest

from dmsgd.bounds import (
    BoundInputs,
    consensus_bound,
    nonconvex_avg_grad_bound,
    pl_trajectory,
    simpler_q,
    strongly_convex_trajectory,
    verify_alpha_positivity,
)
from dmsgd.harness import main, parse_config_text, build_scenario
from dmsgd.objectives import (
    StochasticOracle,
    UnifiedObjective,
    make_pl,
    make_quadratic,
    stochastic_grad,
    unified_optimum,
)
from dmsgd.optimizer import AgentSwarm, HyperParams, run, step
from dmsgd.topology import (
    build_topology,
    effective_matrix,
    lambda_cap,
    metropolis_mixing,
    spectrum,
)
from dmsgd.verify import check_bound_domination, reference_step


def report(num, name, passed, detail=""):
    tag = "PASS" if passed else "FAIL"
    print(f"[criterion {num:2d}] {tag} {name} {detail}".rstrip())
    assert passed, f"criterion {num} failed: {name} {detail}"


def lazy_full(n, laziness):
    return metropolis_mixing(build_topology("full", n), laziness=laziness)


# ---------------------------------------------------------------- 1: oracle


def test_criterion_1_oracle_equivalence():
    rng = np.random.default_rng(7)
    n, d, steps = 5, 3, 100
    mix = metropolis_mixing(build_topology("ring", n), laziness=0.1)
    pi = mix.entries
    alpha, beta, omega = 0.05, 0.8, 0.3
    pi_eff = omega * np.eye(n) + (1 - omega) * pi
    start = time.perf_counter()
    worst = 0.0
    for option in ("I", "II"):
        hp = HyperParams(option=option, alpha=alpha, beta=beta, omega=omega, iters=steps)
        swarm = AgentSwarm.zeros(mix, n, d)
        x_ref = np.zeros((n, d))
        x_ref_prev = x_ref.copy()
        for _ in range(steps):
            g = rng.normal(size=(n, d))
            step(swarm, mix, hp, g)
            x_new = reference_step(option, pi_eff, pi, alpha, beta, x_ref, x_ref_prev, g)
            x_ref_prev, x_ref = x_ref, x_new
            worst = max(worst, float(np.abs(swarm.x_cur - x_ref).max()))
    elapsed = time.perf_counter() - start
    report(1, "per-agent loop vs dense reference", worst <= 1e-12 and elapsed < 1.0,
           f"(max abs diff {worst:.2e}, {elapsed:.2f}s)")


# ------------------------------------------------------------- 2: consensus


def test_criterion_2_consensus_domination():
    suite = make_quadratic([[0.0], [0.5], [1.0]], [1.0, 1.0, 1.0])
    mix = lazy_full(3, 0.0)
    spec = spectrum(mix)
    alpha, beta, omega = 0.01, 0.5, 0.5
    lam = lambda_cap(omega, spec.lambda2)
    eta = spec.lambda_min_effective(omega)
    bi = BoundInputs(alpha=alpha, beta=beta, lam=lam, n_agents=3, eta=eta, grad_bound=1.0, sigma=0.0)
    bound = consensus_bound(bi)
    hp = HyperParams(option="I", alpha=alpha, beta=beta, omega=omega, iters=500)
    objective = UnifiedObjective(suite, mix, alpha)
    _, f_star = unified_optimum(objective)
    trace = run(mix, suite, StochasticOracle(sigma=0.0), hp, objective, f_star)
    dom = check_bound_domination(trace.consensus_err_max, np.full(500, bound), slack=0.0)
    value_ok = abs(bound - 0.45255) <= 1e-4
    report(2, "consensus error within the closed-form bound", dom.passed and value_ok,
           f"(bound {bound:.5f}, worst measured {trace.consensus_err_max.max():.2e})")


# ------------------------------------------------------- 3: linear rate


def test_criterion_3_strongly_convex_rate():
    laziness = 0.9
    mix = lazy_full(3, laziness)
    spec = spectrum(mix)
    suite = make_quadratic([[1.0, 0.0], [2.0, 1.0], [3.0, 2.0]], [1.0, 1.0, 1.0])
    alpha, beta, omega = 0.1, 0.5, 0.5
    objective = UnifiedObjective(suite, mix, alpha)
    _, f_star = unified_optimum(objective)
    hp = HyperParams(option="I", alpha=alpha, beta=beta, omega=omega, iters=1000)
    trace = run(mix, suite, StochasticOracle(sigma=0.0), hp, objective, f_star)
    grad_bound = 1.05 * float(np.sqrt(trace.grad_norm_sq.max()))
    mu_p = objective.mu_prime(spec)
    l_p = objective.l_prime(spec)
    bi = BoundInputs(
        alpha=alpha, beta=beta, lam=lambda_cap(omega, spec.lambda2), n_agents=3,
        eta=spec.lambda_min_effective(omega), grad_bound=grad_bound, sigma=0.0,
        smooth=l_p, strong_mu=mu_p, gap1=float(trace.gap[0]),
    )
    traj = strongly_convex_trajectory(bi, 1000)
    dom = check_bound_domination(trace.gap, traj, slack=0.0)
    theta = 2 * alpha * mu_p**2 / l_p
    window = (trace.k >= 2) & (trace.k <= 60) & (trace.gap > 1e-10 * trace.gap[0])
    slope = np.polyfit(trace.k[window], np.log(trace.gap[window]), 1)[0]
    slope_ok = slope <= np.log(1 - theta) + 1e-3
    report(3, "gap dominated by the linear-rate trajectory", dom.passed and slope_ok,
           f"(slope {slope:.3f} vs bound {np.log(1 - theta):.3f})")


# ------------------------------------------------------- 4: reductions


def test_criterion_4_reduction_identities():
    suite = make_quadratic([[0.0], [1.0], [2.0], [3.0]], [1.0, 0.5, 1.5, 1.0])
    mix = metropolis_mixing(build_topology("ring", 4))
    objective0 = UnifiedObjective(suite, mix, 0.05)
    _, f_star = unified_optimum(objective0)
    base = None
    identical = True
    for omega in (0.0, 0.25, 0.5, 0.75, 1.0, "adaptive"):
        hp = HyperParams(option="I", alpha=0.05, beta=0.0, omega=omega, iters=200, seed=3)
        trace = run(mix, suite, StochasticOracle(sigma=0.25), hp, objective0, f_star)
        cols = np.stack([trace.gap, trace.grad_norm_sq, trace.step_norm,
                         trace.consensus_err_max, trace.consensus_err_stacked])
        if base is None:
            base = cols
        elif not np.array_equal(base, cols):
            identical = False
    # omega = 1 option I equals classic decentralized momentum:
    # x_{k+1} = Pi x_k - a g(x_k) + b (x_k - x_{k-1}), implemented separately
    alpha, beta = 0.05, 0.7
    hp = HyperParams(option="I", alpha=alpha, beta=beta, omega=1.0, iters=150)
    swarm = AgentSwarm.zeros(mix, 4, 1)
    x = np.zeros((4, 1))
    x_prev = x.copy()
    worst = 0.0
    for _ in range(150):
        g = suite.evaluate(swarm.x_cur)[1]
        step(swarm, mix, hp, g)
        x_new = mix.entries @ x - alpha * suite.evaluate(x)[1] + beta * (x - x_prev)
        x_prev, x = x, x_new
        worst = max(worst, float(np.abs(swarm.x_cur - x).max()))
    report(4, "momentum-free and classic-momentum reductions", identical and worst <= 1e-12,
           f"(classic-momentum max diff {worst:.2e})")


# --------------------------------------------------------------- 5: PL rate


def test_criterion_5_pl_convergence():
    suite = make_pl(3)
    mu_hat = suite.pl_constant
    alpha = 1.0 / (2.0 * mu_hat)
    beta, omega = 0.5, 0.5
    mix = lazy_full(3, 0.5)
    spec = spectrum(mix)
    objective = UnifiedObjective(suite, mix, alpha)
    _, f_star = unified_optimum(objective)
    hp = HyperParams(option="I", alpha=alpha, beta=beta, omega=omega, iters=1000)
    trace = run(mix, suite, StochasticOracle(sigma=0.0), hp, objective, f_star)
    bi = BoundInputs(
        alpha=alpha, beta=beta, lam=lambda_cap(omega, spec.lambda2), n_agents=3,
        eta=spec.lambda_min_effective(omega), grad_bound=1.0, sigma=0.0,
        smooth=objective.l_prime(spec), pl_mu=mu_hat, gap1=float(trace.gap[0]),
    )
    traj = pl_trajectory(bi, 1000)  # as-printed variant
    dom = check_bound_domination(trace.gap, traj, slack=0.0)
    report(5, "PL gap dominated by the gradient-dominance trajectory", dom.passed,
           f"(mu_hat {mu_hat:.4f}, alpha {alpha:.3f}, final gap {trace.gap[-1]:.2e})")


# --------------------------------------------------- 6: non-convex envelope


def envelope_case(suite, l_m):
    laziness, beta, omega = 0.5, 0.5, 0.5
    mix = lazy_full(3, laziness)
    spec = spectrum(mix)
    lam = lambda_cap(omega, spec.lambda2)
    alpha = (spec.lambda2 - (beta * lam) ** 2) / l_m
    objective = UnifiedObjective(suite, mix, alpha)
    # the closed-form alpha satisfies alpha = (1 - (beta Lambda)^2) / L'
    assert alpha == pytest.approx((1 - (beta * lam) ** 2) / objective.l_prime(spec), rel=1e-12)
    _, f_star = unified_optimum(objective)
    hp = HyperParams(option="I", alpha=alpha, beta=beta, omega=omega, iters=1000)
    trace = run(mix, suite, StochasticOracle(sigma=0.0), hp, objective, f_star)
    zero = np.zeros((suite.n, suite.d))
    delta = objective.value(zero) - f_star
    bi = BoundInputs(
        alpha=alpha, beta=beta, lam=lam, n_agents=3, eta=spec.lambda_min_effective(omega),
        grad_bound=1.0, sigma=0.0, smooth=objective.l_prime(spec), gap1=delta,
    )
    envelope = nonconvex_avg_grad_bound(bi, trace.k)
    return check_bound_domination(trace.running_avg_grad, envelope, slack=0.0)


def test_criterion_6_nonconvex_envelope():
    quad = make_quadratic([[1.8, 2.0], [2.0, 2.2], [2.2, 1.8]], [1.0, 1.0, 1.0])
    dom_quad = envelope_case(quad, 1.0)
    pl = make_pl(3, shifts=[0.45, 0.5, 0.55])
    dom_pl = envelope_case(pl, 8.0)
    report(6, "averaged squared gradient within the O(1/k) envelope",
           dom_quad.passed and dom_pl.passed,
           f"(worst ratios {dom_quad.worst_ratio:.2f}, {dom_pl.worst_ratio:.2f})")


# ------------------------------------------------------ 7: simpler schedule


def test_criterion_7_simpler_step_size():
    n, seeds_count, iters = 3, 64, 1000
    laziness, beta, omega, schedule_b = 0.5, 0.5, 0.5, 0.5
    mix = lazy_full(n, laziness)
    spec = spectrum(mix)
    lam = lambda_cap(omega, spec.lambda2)
    suite = make_quadratic([[0.5], [1.0], [1.5]], [1.0, 1.0, 1.0])
    objective = UnifiedObjective(suite, mix, None)  # option II: plain F
    _, f_star = unified_optimum(objective)
    delta = objective.value(np.zeros((n, 1))) - f_star
    ok_all = True
    details = []
    for sigma in (0.0, 0.5):
        oracle = StochasticOracle(sigma=sigma)
        avgs, max_grad = [], 0.0
        for s in range(seeds_count if sigma > 0 else 1):
            hp = HyperParams(option="II", alpha=None, schedule="sqrt", schedule_b=schedule_b,
                             beta=beta, omega=omega, iters=iters, seed=s)
            trace = run(mix, suite, oracle, hp, objective, f_star)
            avgs.append(trace.running_avg_grad)
            max_grad = max(max_grad, float(np.sqrt(trace.grad_norm_sq.max())))
        mean_avg = np.mean(avgs, axis=0)
        bi = BoundInputs(
            alpha=1.0, beta=beta, lam=lam, n_agents=n, eta=spec.lambda_min_effective(omega),
            grad_bound=1.05 * max_grad, sigma=sigma * np.sqrt(n), smooth=suite.l_m, gap1=delta,
        )
        q = simpler_q(bi, schedule_b)
        ks = np.arange(1, iters + 1)
        window = ks >= 10
        bound = (q / np.sqrt(ks[window])) * (1.0 + 3.0 / 8.0)
        dom = check_bound_domination(mean_avg[window], bound, slack=0.0)
        ok_all = ok_all and dom.passed
        details.append(f"sigma={sigma}: worst ratio {dom.worst_ratio:.2f}")
    report(7, "sqrt(B/k) schedule within the Q/sqrt(k) envelope", ok_all, "(" + "; ".join(details) + ")")


# ------------------------------------------------------- 8: oracle stats


def test_criterion_8_oracle_statistics():
    suite = make_quadratic([[1.0, -1.0, 0.5, 0.0]], [2.0])
    sigma = 0.7
    oracle = StochasticOracle(mode="additive", sigma=sigma)
    rng = np.random.default_rng(12345)
    x = np.array([[0.3, -0.2, 0.0, 1.0]])
    stacked = suite.evaluate(x)[1]
    exact = stacked[0]
    n_draws = 100_000
    draws = np.empty((n_draws, 4))
    for i in range(n_draws):
        draws[i] = stochastic_grad(suite, oracle, x, stacked, [rng])[0]
    se = (sigma / np.sqrt(4)) / np.sqrt(n_draws)
    mean_ok = np.abs(draws.mean(axis=0) - exact).max() <= 3 * se
    var = float(((draws - exact) ** 2).sum(axis=1).mean())
    var_ok = 0.95 * sigma**2 <= var <= 1.05 * sigma**2
    report(8, "oracle mean and variance statistics", mean_ok and var_ok,
           f"(sample variance {var:.4f} vs sigma^2 {sigma**2:.4f})")


# ------------------------------------------------------ 9: spectrum goldens


def test_criterion_9_spectrum_goldens():
    ring = spectrum(metropolis_mixing(build_topology("ring", 4)))
    ring_ok = np.abs(ring.eigenvalues - np.array([1.0, 1 / 3, 1 / 3, -1 / 3])).max() <= 1e-10
    full_ok = True
    for n in (2, 3, 5, 8):
        s = spectrum(metropolis_mixing(build_topology("full", n)))
        full_ok = full_ok and abs(s.lambda2) <= 1e-12
    rng = np.random.default_rng(99)
    affine_ok = True
    for _ in range(50):
        n = int(rng.integers(2, 9))
        pairs = [(j, (j + 1) % n) for j in range(n)] if n > 2 else [(0, 1)]
        for _ in range(int(rng.integers(0, 3))):
            a, b = sorted(rng.choice(n, size=2, replace=False))
            pairs.append((int(a), int(b)))
        mix = metropolis_mixing(build_topology("custom", n, edges=pairs),
                                laziness=float(rng.uniform(0, 0.9)))
        w = float(rng.uniform(0, 1))
        base = spectrum(mix).eigenvalues
        eff = spectrum(effective_matrix(mix, w)).eigenvalues
        affine_ok = affine_ok and np.abs(eff - (w + (1 - w) * base)).max() <= 1e-10
    report(9, "spectrum golden values and affine blend map", ring_ok and full_ok and affine_ok)


# ----------------------------------------------------- 10: alpha positivity


def test_criterion_10_alpha_positivity():
    rng = np.random.default_rng(2024)
    points = [
        (
            float(rng.uniform(1e-6, 10.0)),
            float(rng.uniform(0.0, 10.0)),
            float(rng.uniform(0.0, 0.99)),
            float(rng.uniform(0.0, 1.0)),
            float(rng.uniform(0.01, 10.0)),
        )
        for _ in range(1000)
    ]
    rep = verify_alpha_positivity(points)
    report(10, "variance-aware step size positive on 1000 admissible points",
           rep.all_positive and rep.min_alpha > 0.0,
           f"(min alpha {rep.min_alpha:.3e})")


# ------------------------------------------------------------- 11: sweeps


BASE_SWEEP = """\
topology.kind = full
topology.n = 4
objective.kind = logistic
objective.dataset = synthetic
objective.samples = 400
objective.features = 5
objective.classes = 2
objective.agents = 4
objective.reg = 0.1
oracle.mode = minibatch
oracle.batch = full
hp.option = I
hp.alpha = 2.0
hp.beta = 0.5
hp.omega = 0.5
hp.iters = 150
sweep.topology = full,ring,bipartite
"""


def read_sweep_gaps(path):
    gaps = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("#") or line.startswith("omega"):
                continue
            parts = line.strip().split(",")
            if not parts or parts == [""]:
                continue
            gaps[parts[2]] = float(parts[6])
    return gaps


def test_criterion_11_desk_scale_sweep(tmp_path):
    wins = 0
    for seed in range(4):
        for partition in ("iid", "noniid"):
            cfg = BASE_SWEEP + (
                f"objective.dataset_seed = {100 + seed}\n"
                f"objective.partition_seed = {seed}\n"
                f"objective.partition = {partition}\n"
                f"hp.seed = {seed}\n"
            )
            cfg_path = tmp_path / f"sweep_{seed}_{partition}.cfg"
            cfg_path.write_text(cfg, encoding="utf-8")
            out = str(tmp_path / f"out_{seed}_{partition}")
            code = main(["sweep", "--config", str(cfg_path), "--out", out])
            assert code == 0
            gaps = read_sweep_gaps(out + "/sweep.csv")
            assert set(gaps) == {"full", "ring", "bipartite"}
            if partition == "iid" and gaps["full"] <= gaps["bipartite"]:
                wins += 1
    report(11, "iid sweep: full topology at least as good as bipartite",
           wins >= 3, f"({wins}/4 seeds)")
