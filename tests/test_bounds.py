from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from dmsgd.bounds import (
    BOUNDS,
    BoundInputs,
    check_bound_domination,
    consensus_bound,
    displacement_bound,
    evaluate_bounds,
    nonconvex_alpha_star,
    nonconvex_avg_grad_bound,
    optimal_schedule_b,
    pl_trajectory,
    r_constant,
    simpler_q,
    simpler_step_bound,
    strongly_convex_trajectory,
)
from dmsgd.harness import RunConfig, _solve, bound_inputs_from_scenario, check_scenario
from dmsgd.objectives import (
    StochasticOracle,
    UnifiedObjective,
    make_logistic,
    make_pl,
    make_quadratic,
    make_synthetic_dataset,
    partition_iid,
)
from dmsgd.optimizer import HyperParams, run
from dmsgd.topology import build_topology, metropolis_mixing, spectrum


def inputs(**kw):
    base = dict(alpha=0.01, beta=0.5, lam=0.5, n_agents=3, eta=0.5, grad_bound=1.0, sigma=0.0, smooth=2.0)
    base.update(kw)
    return BoundInputs(**base)


# ------------------------------------------------------------- validation


def test_inputs_validation():
    with pytest.raises(ValueError, match="alpha must be positive"):
        inputs(alpha=0.0)
    with pytest.raises(ValueError):
        inputs(beta=1.0)
    with pytest.raises(ValueError):
        inputs(beta=0.999, lam=1.5)  # beta*lam >= 1
    with pytest.raises(ValueError, match="eta"):
        inputs(eta=0.0)
    with pytest.raises(ValueError, match="eta"):
        inputs(eta=-1 / 3)
    with pytest.raises(ValueError):
        inputs(sigma=-0.1)
    assert inputs(alpha=None).alpha is None  # a sqrt(B/k) schedule has no constant step size


@pytest.mark.parametrize("bound", [
    consensus_bound,
    lambda bi: displacement_bound(bi, np.arange(3)),
    r_constant,
    lambda bi: strongly_convex_trajectory(bi, 3),
    lambda bi: pl_trajectory(bi, 3),
    lambda bi: nonconvex_avg_grad_bound(bi, np.arange(1, 4)),
], ids=["consensus", "displacement", "r_constant", "strongly_convex", "pl", "envelope"])
def test_alpha_reading_bounds_refuse_no_alpha(bound):
    bi = inputs(alpha=None, strong_mu=0.5, pl_mu=0.5, gap1=1.0)
    with pytest.raises(ValueError, match="constant step size alpha"):
        bound(bi)
    assert bound(replace(bi, alpha=0.01)) is not None  # the same inputs with a step size have a value


@pytest.mark.parametrize("call, message", [
    (lambda: inputs(n_agents=0), "agent count must be >= 1"),
    (lambda: inputs(eta=1e-13), r"must lie in \(1e-12, 1\], got 1e-13; the spectrum cannot show"),
    (lambda: displacement_bound(inputs(), np.array([0, -1])), "k must be >= 0"),
    (lambda: strongly_convex_trajectory(inputs(strong_mu=0.5), 3), "trajectory bounds need the initial gap gap1"),
    (lambda: strongly_convex_trajectory(inputs(strong_mu=0.0, gap1=1.0), 3), "needs strong_mu > 0"),
    (lambda: pl_trajectory(inputs(pl_mu=0.5), 3), "trajectory bounds need the initial gap gap1"),
    (lambda: pl_trajectory(inputs(pl_mu=0.0, gap1=1.0), 3), "PL trajectory needs pl_mu > 0"),
    (lambda: nonconvex_alpha_star(inputs(grad_bound=0.0)), "gradient bound and sigma cannot both be zero"),
    (lambda: nonconvex_avg_grad_bound(inputs(), np.arange(1, 4)), "the envelope needs the initial gap"),
    (lambda: simpler_q(inputs(gap1=1.0), 0.0), "B must be positive"),
    (lambda: simpler_q(inputs(), 1.0), "the sqrt-schedule bound needs the initial gap"),
    (lambda: simpler_step_bound(inputs(gap1=1.0), 1.0, np.arange(0, 3)), "k must be >= 1"),
    (lambda: optimal_schedule_b(inputs()), "needs the initial gap"),
    (lambda: optimal_schedule_b(inputs(grad_bound=0.0, gap1=1.0)), "needs a positive gradient second moment"),
], ids=["agents", "eta-floor", "displacement-k", "cor1-gap1", "cor1-mu", "thm2-gap1", "thm2-mu", "alpha-star",
        "envelope-gap1", "q-B", "q-gap1", "sqrt-k", "schedule-b-gap1", "schedule-b-moment"])
def test_bound_refusals(call, message):
    """Each refusal of the engine raises ValueError with its own reason."""
    with pytest.raises(ValueError, match=message):
        call()


# ---------------------------------------------------------- a run's inputs


def _suite(kind):
    if kind == "quadratic":
        return make_quadratic([[0.0, 1.0], [1.0, 0.5], [2.0, -1.0], [3.0, 0.0]], [1.0, 2.0, 1.5, 0.5])
    if kind == "pl":
        return make_pl(4, [0.0, 0.5, 1.0, -0.5])
    dataset = make_synthetic_dataset(seed=1, n_samples=40, d_feat=3)
    return make_logistic(dataset, partition_iid(dataset, 4, seed=1), reg=0.1 if kind == "logistic" else 0.0)


@pytest.mark.parametrize("kind", ["quadratic", "pl", "logistic", "logistic_reg0"])
@pytest.mark.parametrize("option, schedule", [("I", "constant"), ("II", "constant"), ("II", "sqrt")])
@pytest.mark.parametrize("omega", [0.3, "adaptive"])
def test_of_run_takes_each_symbol_from_the_run(kind, option, schedule, omega):
    """of_run's rule, symbol by symbol: alpha is None under the sqrt schedule, Lambda and eta are the blend's at a
    fixed omega and at w = 1 and w = 0 for an adaptive one, L and mu are L' and mu' (mu' only for mu_m > 0), the PL
    constant is the suite's, gap1 is the trace's first gap to the bit, and G and sigma are passed through (0 if not)."""
    suite = _suite(kind)
    mix = metropolis_mixing(build_topology("ring", 4), laziness=0.3)
    spec = spectrum(mix)
    hp = HyperParams(option=option, alpha=0.05, schedule=schedule, schedule_b=0.5, beta=0.5, omega=omega, iters=1)
    objective = UnifiedObjective(suite, mix, 0.05 if option == "I" else None)
    f_star = 0.125
    bi = BoundInputs.of_run(objective, spec, hp, f_star, grad_bound=2.5, sigma=0.75)
    assert bi.alpha == (0.05 if schedule == "constant" else None)
    assert (bi.beta, bi.n_agents, bi.grad_bound, bi.sigma) == (0.5, 4, 2.5, 0.75)
    if omega == "adaptive":
        assert (bi.lam, bi.eta) == (1.0, spec.lambda_n)
    else:
        assert (bi.lam, bi.eta) == (0.3 + 0.7 * spec.lambda2, 0.3 + 0.7 * spec.lambda_n)
    penalty = option == "I"  # option I's L' and mu' add the penalty's curvature at alpha; option II's are L_m, mu_m
    assert bi.smooth == (suite.l_m + (1.0 - spec.lambda2) / 0.05 if penalty else suite.l_m)
    if kind in ("pl", "logistic_reg0"):
        assert (suite.mu_m, bi.strong_mu) == (0.0, None)
    else:
        assert suite.mu_m > 0
        assert bi.strong_mu == (suite.mu_m + (1.0 - spec.lambda_n) / (2.0 * 0.05) if penalty else suite.mu_m)
    assert bi.pl_mu is suite.pl_constant
    assert (bi.pl_mu is None) == (kind != "pl")
    gap1 = run(objective, StochasticOracle(sigma=0.0), hp, f_star).gap[0]
    assert bi.gap1.hex() == float(gap1).hex()
    assert BoundInputs.of_run(objective, spec, hp, f_star) == replace(bi, grad_bound=0.0, sigma=0.0)


# -------------------------------------------------------------- consensus


def test_consensus_bound_frozen_value():
    # independent evaluation: 8*0.01*sqrt(3)/(sqrt(0.5*0.75)*(1-0.5))
    assert consensus_bound(inputs()) == pytest.approx(0.4525483399593905, abs=1e-12)


def test_consensus_bound_linear_in_alpha():
    b1 = consensus_bound(inputs(alpha=0.01))
    b2 = consensus_bound(inputs(alpha=0.005))
    assert b2 == pytest.approx(b1 / 2)
    assert consensus_bound(inputs(alpha=1e-12)) < 1e-9


def test_consensus_bound_omega_zero_uses_lambda2():
    # with w = 0 the blended eigenvalue is just lambda_2
    lam2 = 0.3
    bi = inputs(lam=lam2, eta=0.2)
    expected = 8 * bi.alpha * np.sqrt(3) * 1.0 / (np.sqrt(0.2 * (1 - 0.5 * lam2)) * (1 - np.sqrt(0.5 * lam2)))
    assert consensus_bound(bi) == pytest.approx(expected, rel=1e-12)


def test_consensus_bound_requires_eta():
    with pytest.raises(ValueError, match="eta"):
        consensus_bound(inputs(eta=None))


def test_consensus_bound_monotone():
    base = consensus_bound(inputs())
    assert consensus_bound(inputs(alpha=0.02)) > base
    assert consensus_bound(inputs(n_agents=5)) > base
    assert consensus_bound(inputs(beta=0.7)) > base
    assert consensus_bound(inputs(lam=0.8)) > base


# ----------------------------------------------------------- displacement


def test_displacement_frozen_values():
    bi = inputs(alpha=0.1, beta=0.5, lam=1.0)  # beta*lam = 0.5
    assert displacement_bound(bi, k=0) == pytest.approx(0.01, abs=1e-15)
    assert displacement_bound(bi, k=1) == pytest.approx(0.0225, abs=1e-15)
    assert displacement_bound(bi, k=200) == pytest.approx(0.1**2 / 0.25, abs=1e-15)  # (1 - 2^-201)^2 rounds to 1


def test_displacement_beta_zero_constant():
    bi = inputs(alpha=0.1, beta=0.0, sigma=0.5)
    expected = 0.01 * (1 + 0.25)
    for k in (0, 1, 5, 100):
        assert displacement_bound(bi, k=k) == pytest.approx(expected)


def test_displacement_tight_approaches_loose():
    bi = inputs(alpha=0.1, beta=0.9, lam=0.9)
    limit = bi.alpha**2 * (bi.grad_bound**2 + bi.sigma**2) / (1 - bi.beta * bi.lam) ** 2
    assert displacement_bound(bi, k=2000) == pytest.approx(limit, rel=1e-12)
    assert displacement_bound(bi, k=0) < limit


# --------------------------------------------------------------- residual


def test_r_constant_frozen_value():
    bi = inputs(alpha=0.01, beta=0.5, lam=0.5, grad_bound=1.0, sigma=0.0, smooth=2.0)
    assert bi.bl == 0.25
    assert r_constant(bi) == pytest.approx(0.013511111111111113, abs=1e-15)


def test_r_constant_boundary_collapse():
    bi = inputs(beta=0.0, sigma=0.0, alpha=0.05, smooth=3.0, grad_bound=2.0)
    expected = 0.05 * 4.0 + 3.0 * 0.05**2 * 4.0 / 2.0
    assert r_constant(bi) == pytest.approx(expected, rel=1e-12)


def test_r_constant_monotone():
    base = r_constant(inputs(sigma=0.2))
    assert r_constant(inputs(sigma=0.4)) > base
    assert r_constant(inputs(sigma=0.2, alpha=0.02)) > base
    assert r_constant(inputs(sigma=0.2, beta=0.8)) > base


# ------------------------------------------------------ strongly convex


def test_strongly_convex_asymptote_frozen():
    bi = inputs(strong_mu=1.0, gap1=5.0)
    traj = strongly_convex_trajectory(bi, 2000)
    asymptote = r_constant(bi) * bi.smooth / (2 * bi.alpha * bi.strong_mu**2)
    assert asymptote == pytest.approx(1.3511111111111112, abs=1e-12)
    assert traj[-1] == pytest.approx(asymptote, rel=1e-3)


def test_strongly_convex_base_case_and_decay():
    bi = inputs(strong_mu=1.0, gap1=50.0)
    traj = strongly_convex_trajectory(bi, 100)
    assert traj[0] == 50.0
    # monotone toward the asymptote when the initial gap exceeds it
    assert (np.diff(traj) <= 1e-12).all()


def test_strongly_convex_r_zero_pure_decay():
    bi = inputs(strong_mu=1.0, gap1=1.0, grad_bound=0.0, sigma=0.0)
    traj = strongly_convex_trajectory(bi, 50)
    theta = 2 * bi.alpha * 1.0 / bi.smooth
    assert np.allclose(traj, (1 - theta) ** (np.arange(50)), rtol=1e-12)


def test_strongly_convex_inadmissible_alpha():
    with pytest.raises(ValueError, match="admissible"):
        strongly_convex_trajectory(inputs(alpha=2.0, strong_mu=1.0, gap1=1.0), 10)


# ------------------------------------------------------------------- PL


def test_pl_boundary_contraction():
    bi = inputs(alpha=1.0, pl_mu=0.5, gap1=3.0, grad_bound=0.5)
    traj = pl_trajectory(bi, 10)
    asymptote = r_constant(bi) / (2 * 1.0 * 0.5**2)
    # contraction factor 0 at the admissibility boundary: flat after k=1
    assert np.allclose(traj[1:], asymptote, rtol=1e-12)
    assert traj[0] == 3.0


def test_pl_r_zero_geometric():
    bi = inputs(pl_mu=2.0, gap1=1.0, grad_bound=0.0, sigma=0.0, alpha=0.1)
    traj = pl_trajectory(bi, 30)
    assert np.allclose(traj, (1 - 2 * 0.1 * 2.0) ** np.arange(30), rtol=1e-12)


def test_pl_matches_strongly_convex_denominator():
    # with mu_hat = mu and matching R, the printed PL asymptote R/(2 a mu^2)
    # differs from the strongly convex one R L/(2 a mu^2) by exactly L
    bi = inputs(strong_mu=1.0, pl_mu=1.0, gap1=5.0)
    r = r_constant(bi)
    sc_asymptote = r * bi.smooth / (2 * bi.alpha * bi.strong_mu**2)
    pl_asymptote = r / (2 * bi.alpha * bi.pl_mu**2)
    assert sc_asymptote / pl_asymptote == pytest.approx(bi.smooth, rel=1e-12)
    # and the long-run trajectories settle onto those asymptotes
    assert strongly_convex_trajectory(bi, 5000)[-1] == pytest.approx(sc_asymptote, rel=1e-6)
    assert pl_trajectory(bi, 5000)[-1] == pytest.approx(pl_asymptote, rel=1e-6)


def test_pl_inadmissible_alpha():
    with pytest.raises(ValueError, match="admissible"):
        pl_trajectory(inputs(alpha=3.0, pl_mu=0.5, gap1=1.0), 10)


# ------------------------------------------------------------- non-convex


def test_alpha_star_sigma_zero():
    bi = inputs(beta=0.5, lam=1.0, sigma=0.0, smooth=2.0)  # bl = 0.5
    assert nonconvex_alpha_star(bi) == pytest.approx(0.375, abs=1e-15)
    bi0 = inputs(beta=0.0, sigma=0.0, smooth=2.0)
    assert nonconvex_alpha_star(bi0) == pytest.approx(0.5, abs=1e-15)


def test_alpha_star_frozen_noisy_value():
    bi = inputs(beta=0.5, lam=1.0, sigma=1.0, grad_bound=1.0, smooth=2.0)
    assert nonconvex_alpha_star(bi) == pytest.approx(0.1357233047033631, abs=1e-12)


def test_alpha_star_monotone_decreasing():
    vals_sigma = [nonconvex_alpha_star(inputs(sigma=s)) for s in (0.0, 0.5, 1.0, 2.0)]
    assert all(a > b for a, b in zip(vals_sigma, vals_sigma[1:]))
    vals_bl = [nonconvex_alpha_star(inputs(beta=b, sigma=0.5)) for b in (0.0, 0.3, 0.6, 0.9)]
    assert all(a > b for a, b in zip(vals_bl, vals_bl[1:]))


def test_alpha_star_degenerate_flagged():
    with pytest.raises(ValueError, match="non-positive|cannot both"):
        nonconvex_alpha_star(inputs(grad_bound=0.0, sigma=1.0, beta=0.5))


def test_positivity_sweep_random():
    rng = np.random.default_rng(0)
    pts = [
        (rng.uniform(1e-3, 10), rng.uniform(0, 10), rng.uniform(0, 0.99), rng.uniform(0, 1), rng.uniform(0.1, 10))
        for _ in range(500)
    ]
    for g, sigma, beta, lam, smooth in pts:
        bi = BoundInputs(alpha=1.0, beta=beta, lam=lam, grad_bound=g, sigma=sigma, smooth=smooth)
        assert nonconvex_alpha_star(bi) > 0


def test_positivity_sweep_flags_zero_g():
    with pytest.raises(ValueError, match="non-positive step size"):
        nonconvex_alpha_star(BoundInputs(alpha=1.0, beta=0.5, lam=0.5, grad_bound=0.0, sigma=1.0, smooth=1.0))


def test_envelope_values():
    bi = inputs(alpha=0.5, gap1=1.0)
    assert nonconvex_avg_grad_bound(bi, 3) == pytest.approx(1.0)
    assert nonconvex_avg_grad_bound(bi, 10**6) < 1e-5
    bi2 = replace(bi, gap1=2.0)
    assert nonconvex_avg_grad_bound(bi2, 3) == pytest.approx(2.0)


# ---------------------------------------------------------- sqrt schedule


def test_simpler_q_degenerate():
    bi = inputs(alpha=1.0, beta=0.0, gap1=1.0, grad_bound=1.0, sigma=0.0, smooth=1.0)
    assert simpler_q(bi, 1.0) == pytest.approx(3.0)
    assert simpler_step_bound(bi, 1.0, 9) == pytest.approx(1.0)
    assert simpler_step_bound(bi, 1.0, 1) == pytest.approx(3.0)


def test_simpler_b_star_minimizes_q():
    bi = inputs(alpha=1.0, beta=0.4, lam=0.6, gap1=2.5, grad_bound=1.5, sigma=0.5, smooth=2.0)
    b_star = optimal_schedule_b(bi)
    q_star = simpler_q(bi, b_star)
    # grid oracle around the minimizer
    for b in np.linspace(0.2 * b_star, 5 * b_star, 200):
        assert q_star <= simpler_q(bi, b) + 1e-12
    bl = bi.bl
    closed = 2 * np.sqrt(2 * bi.gap1 * bi.smooth * bi.second_moment) / (1 - bl)
    assert q_star == pytest.approx(closed, rel=1e-12)


# ------------------------------------------------------- engine symmetry


def test_option_symmetry_by_renaming():
    # the engine is symbol-agnostic: penalized-objective constants and
    # plain-objective constants evaluate through identical formulas
    first = BoundInputs(alpha=0.05, beta=0.3, lam=0.6, n_agents=4, eta=0.4,
                        grad_bound=2.0, sigma=0.7, smooth=3.0, strong_mu=0.9, gap1=4.0)
    second = BoundInputs(alpha=0.05, beta=0.3, lam=0.6, n_agents=4, eta=0.4,
                         grad_bound=2.0, sigma=0.7, smooth=3.0, strong_mu=0.9, gap1=4.0)
    assert consensus_bound(first) == consensus_bound(second)
    assert r_constant(first) == r_constant(second)
    assert np.array_equal(
        strongly_convex_trajectory(first, 50),
        strongly_convex_trajectory(second, 50),
    )
    assert displacement_bound(first, 7) == displacement_bound(second, 7)


# ------------------------------------------- each formula stated once, same bits
# The references below are the engine's earlier inline expressions, kept here
# so the residual, the per-k displacement and the geometric trajectory are
# checked against them bit for bit.


def inline_r(bi):
    bl = bi.bl
    return float(
        bi.alpha * bi.grad_bound * bi.sigma
        + bi.alpha * bi.grad_bound * np.sqrt(bi.second_moment) / (1.0 - bl)
        + bi.smooth * bi.alpha**2 * bi.second_moment / (2.0 * (1.0 - bl) ** 2)
    )


def inline_geometric(bi, theta, asymptote, k_max):
    ks = np.arange(1, k_max + 1)
    vals = asymptote + (1.0 - theta) ** (ks - 1) * (bi.gap1 - asymptote)
    vals[0] = bi.gap1
    return vals


def seeded_inputs(count, seed=12):
    """Random admissible inputs, with zero-noise and zero-momentum corners mixed in."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        alpha = float(10.0 ** rng.uniform(-4, 0))
        smooth = float(10.0 ** rng.uniform(-1, 2))
        yield BoundInputs(
            alpha=alpha,
            beta=0.0 if i % 7 == 0 else float(rng.uniform(0, 0.99)),
            lam=float(rng.uniform(-0.5, 1.0)),
            grad_bound=float(10.0 ** rng.uniform(-2, 2)),
            sigma=0.0 if i % 5 == 0 else float(10.0 ** rng.uniform(-3, 1)),
            smooth=smooth,
            strong_mu=float(np.sqrt(smooth * rng.uniform(0.01, 1.0) / (2.0 * alpha))),
            pl_mu=float(rng.uniform(0.01, 1.0) / (2.0 * alpha)),
            gap1=float(10.0 ** rng.uniform(-2, 3)),
        )


def same_bits(a, b):
    return type(a) is type(b) and np.asarray(a).tobytes() == np.asarray(b).tobytes()


def test_shared_formulas_keep_the_inline_bits():
    ks = np.arange(40)
    for bi in seeded_inputs(400):
        assert same_bits(r_constant(bi), inline_r(bi))
        loose_disp = bi.alpha**2 * bi.second_moment / (1.0 - bi.bl) ** 2
        assert same_bits(displacement_bound(bi, ks), loose_disp * (1.0 - bi.bl ** (ks + 1)) ** 2)
        for k in (0, 1, 5, 39):
            assert same_bits(displacement_bound(bi, k), loose_disp * (1.0 - bi.bl ** (np.asarray(k) + 1)) ** 2)
        mu, l = bi.strong_mu, bi.smooth
        theta = 2.0 * bi.alpha * mu**2 / l
        sc_asymptote = inline_r(bi) * l / (2.0 * bi.alpha * mu**2)
        pl_asymptote = inline_r(bi) / (2.0 * bi.alpha * bi.pl_mu**2)
        for k_max in (0, 1, 40):
            sc, pl = strongly_convex_trajectory(bi, k_max), pl_trajectory(bi, k_max)
            if k_max == 0:  # a run of no iterations has an empty trajectory
                assert sc.dtype == pl.dtype == np.float64 and sc.shape == pl.shape == (0,)
                continue
            assert same_bits(sc, inline_geometric(bi, theta, sc_asymptote, k_max))
            assert same_bits(pl, inline_geometric(bi, 2.0 * bi.alpha * bi.pl_mu, pl_asymptote, k_max))


# -------------------------------------------------------------- domination


def test_domination_pass_and_fail():
    metric = np.array([1.0, 0.5, 0.25])
    assert check_bound_domination(metric, np.array([1.0, 1.0, 1.0])).passed
    rep = check_bound_domination(metric, np.array([1.0, 0.4, 1.0]))
    assert not rep.passed
    assert rep.first_violation == 2
    assert rep.metric_at_violation == 0.5


def test_domination_zero_bound_fails_at_first_nonzero():
    rep = check_bound_domination(np.array([0.0, 0.0, 0.3]), np.zeros(3))
    assert not rep.passed
    assert rep.first_violation == 3


def test_domination_empty_vacuous():
    assert check_bound_domination(np.array([]), np.array([])).passed


def test_domination_slack():
    metric = np.array([1.05, 1.0])
    bound = np.array([1.0, 1.0])
    assert not check_bound_domination(metric, bound).passed
    assert check_bound_domination(metric, bound, slack=0.1).passed
    with pytest.raises(ValueError):
        check_bound_domination(metric, bound, slack=-0.5)
    with pytest.raises(ValueError):
        check_bound_domination(metric, np.array([1.0]))


# ------------------------------------------------- noiseless violation map


def noiseless_quadratic(rng):
    """One random noiseless quadratic config: a full or ring graph of 3..10 agents, d in 1..3, option I or II,
    a fixed or adaptive omega, 20..300 iterations, and G measured by the pilot."""
    n, d = int(rng.integers(3, 11)), int(rng.integers(1, 4))
    targets, curvatures = rng.uniform(-2, 2, size=(n, d)), rng.uniform(0.5, 2, size=n)
    return RunConfig(items={
        "topology.kind": str(rng.choice(["full", "ring"])), "topology.n": str(n),
        "topology.laziness": repr(rng.uniform(0.05, 0.5)),
        "objective.kind": "quadratic", "objective.grad_bound": "auto", "oracle.sigma": "0",
        "objective.targets": ";".join(",".join(map(repr, row)) for row in targets.tolist()),
        "objective.curvatures": ",".join(map(repr, curvatures.tolist())),
        "hp.option": str(rng.choice(["I", "II"])), "hp.alpha": repr(10 ** rng.uniform(-3, -1)),
        "hp.beta": repr(rng.uniform(0, 0.9)),
        "hp.omega": "adaptive" if rng.random() < 0.5 else repr(rng.uniform(0, 0.95)),
        "hp.iters": str(int(rng.integers(20, 301))),
    })


# (bound, hp.option, omega kind): (configs whose run the bound fails, configs it was checked on) over the 100
# configs of seed 0; the engine refuses NOISELESS_REFUSED of them (a blend with eta <= 0), and skips cor1_gap on
# the option-I configs whose alpha its trajectory does not admit
NOISELESS_MAP = {
    ("consensus", "I", "adaptive"): (0, 15), ("consensus", "I", "fixed"): (0, 28),
    ("consensus", "II", "adaptive"): (2, 20), ("consensus", "II", "fixed"): (5, 28),
    ("displacement_sq", "I", "adaptive"): (0, 15), ("displacement_sq", "I", "fixed"): (1, 28),
    ("displacement_sq", "II", "adaptive"): (0, 20), ("displacement_sq", "II", "fixed"): (5, 28),
    ("avg_grad_envelope", "I", "adaptive"): (1, 15), ("avg_grad_envelope", "I", "fixed"): (0, 28),
    ("avg_grad_envelope", "II", "adaptive"): (0, 20), ("avg_grad_envelope", "II", "fixed"): (0, 28),
    ("cor1_gap", "I", "adaptive"): (3, 11), ("cor1_gap", "I", "fixed"): (6, 13),
    ("cor1_gap", "II", "adaptive"): (0, 20), ("cor1_gap", "II", "fixed"): (0, 28),
}
NOISELESS_REFUSED = 9


# the README's "applies" cell of a bound on a schedule, by the constant it needs
APPLIES = {None: "{} schedule", "strong_mu": "{}, strongly convex", "pl_mu": "{}, PL objective"}


def readme_bound_table():
    """The cells of each row of the README's bound table, in order."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n| bound name ", 1)[1].split("\n\n", 1)[0]
    return [[cell.strip() for cell in line.strip("|").split("|")] for line in block.splitlines()[2:]]


def test_readme_bound_table_states_each_record():
    """The README's bound table lists the bounds of ``BOUNDS`` in bounds.csv's row order, when each applies (its
    schedule, and the constant it needs) and the trace column it dominates, "squared" where its transform squares."""
    expected = []
    for name, bound in BOUNDS.items():
        squared = bound.transform(3.0) == 9.0
        assert squared or bound.transform(3.0) == 3.0
        dominates = f"`{bound.column}`" + (" squared" if squared else "")
        expected.append([f"`{name}`", APPLIES[bound.needs].format(bound.schedule), dominates])
    assert readme_bound_table() == expected


def test_noiseless_violation_map():
    """Where each bound fails noiseless runs that it was evaluated for, with zero slack.  A map, not a pass test:
    a fix, a new refusal or a changed bound moves a count here, and the change states why."""
    rng = np.random.default_rng(0)
    found, refused = {}, 0
    for _ in range(100):
        cfg = noiseless_quadratic(rng)
        scenario = _solve(cfg, *check_scenario(cfg, {}))
        try:
            bi = bound_inputs_from_scenario(scenario)
        except ValueError:  # the engine refuses the inputs, as dmsgd bounds does with exit 1
            refused += 1
            continue
        reports, _ = evaluate_bounds(bi, scenario.hp)
        trace = run(scenario.objective, scenario.oracle, scenario.hp, scenario.f_star)
        omega_kind = "adaptive" if scenario.hp.omega == "adaptive" else "fixed"
        for name, _, values in reports:
            bound = BOUNDS[name]
            failed, checked = found.get((name, scenario.hp.option, omega_kind), (0, 0))
            report = check_bound_domination(bound.transform(getattr(trace, bound.column)), values)
            found[name, scenario.hp.option, omega_kind] = (failed + (not report.passed), checked + 1)
    assert (found, refused) == (NOISELESS_MAP, NOISELESS_REFUSED)
