from dataclasses import replace

import numpy as np
import pytest

from dmsgd.bounds import (
    BoundInputs,
    consensus_bound,
    descent_slack,
    displacement_bound,
    nonconvex_alpha_star,
    nonconvex_avg_grad_bound,
    optimal_schedule_b,
    pl_trajectory,
    r_constant,
    simpler_q,
    simpler_step_bound,
    strongly_convex_trajectory,
    verify_alpha_positivity,
)


def inputs(**kw):
    base = dict(alpha=0.01, beta=0.5, lam=0.5, n_agents=3, eta=0.5, grad_bound=1.0, sigma=0.0, smooth=2.0)
    base.update(kw)
    return BoundInputs(**base)


# ------------------------------------------------------------- validation


def test_inputs_validation():
    with pytest.raises(ValueError):
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
    assert displacement_bound(bi) == pytest.approx(0.1**2 / 0.25, abs=1e-15)


def test_displacement_beta_zero_constant():
    bi = inputs(alpha=0.1, beta=0.0, sigma=0.5)
    expected = 0.01 * (1 + 0.25)
    for k in (0, 1, 5, 100):
        assert displacement_bound(bi, k=k) == pytest.approx(expected)


def test_displacement_tight_approaches_loose():
    bi = inputs(alpha=0.1, beta=0.9, lam=0.9)
    assert displacement_bound(bi, k=2000) == pytest.approx(displacement_bound(bi), rel=1e-12)
    assert displacement_bound(bi, k=0) < displacement_bound(bi)


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


def test_strongly_convex_tight_dominated_by_loose():
    bi = inputs(strong_mu=1.0, gap1=5.0, sigma=0.3)
    loose = strongly_convex_trajectory(bi, 200)
    tight = strongly_convex_trajectory(bi, 200, tight=True)
    assert (tight <= loose + 1e-12).all()


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


def test_pl_residual_power_variant():
    bi = inputs(pl_mu=0.25, gap1=2.0, alpha=0.5)
    printed = pl_trajectory(bi, 400, residual_power=2)[-1]
    variant = pl_trajectory(bi, 400, residual_power=1)[-1]
    assert printed == pytest.approx(variant / 0.25, rel=1e-6)


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
    rep = verify_alpha_positivity(pts)
    assert rep.all_positive
    assert rep.min_alpha > 0
    assert rep.checked == 500


def test_positivity_sweep_flags_zero_g():
    rep = verify_alpha_positivity([(0.0, 1.0, 0.5, 0.5, 1.0)])
    assert not rep.all_positive
    assert rep.failures == [(0.0, 1.0, 0.5, 0.5, 1.0)]


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


# ------------------------------------------------------------ descent slack


def test_descent_slack_boundary_zero():
    bi = inputs(alpha=0.5, beta=0.0, sigma=0.0, smooth=2.0, grad_bound=1.5)
    assert descent_slack(bi) == pytest.approx(0.0, abs=1e-15)  # alpha = 1/L


def test_descent_slack_negative_below_boundary():
    bi = inputs(alpha=0.25, beta=0.0, sigma=0.0, smooth=2.0, grad_bound=1.5)
    assert descent_slack(bi) == pytest.approx(-(1.5**2) / (8 * 2.0), abs=1e-15)


def test_descent_slack_tight_first_term_factor():
    bi = inputs(alpha=0.1, beta=0.5, lam=1.0, sigma=0.0, grad_bound=1.0, smooth=2.0)  # bl = 0.5
    loose_first = (bi.smooth * bi.alpha**2 - bi.alpha) * 1.0 / (2 * 0.25)
    tight = descent_slack(bi, k=0)
    # at k=0 only the first term survives, scaled by (1 - bl)^2 = 0.25
    assert tight == pytest.approx(loose_first * 0.25, rel=1e-12)


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
# so the shared residual, tight factors, geometric trajectory and descent slack
# are checked against them bit for bit.


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


def inline_tight_trajectory(bi, theta, k_max):
    bl = bi.bl
    vals = np.empty(k_max)
    vals[0] = bi.gap1
    gap = bi.gap1
    for k in range(1, k_max):
        residual = (
            bi.alpha * bi.grad_bound * bi.sigma
            + bi.alpha * bi.grad_bound * np.sqrt(bi.second_moment) * (1.0 - bl**k) / (1.0 - bl)
            + bi.smooth * (1.0 - bl ** (k + 1)) ** 2 * bi.alpha**2 * bi.second_moment / (2.0 * (1.0 - bl) ** 2)
        )
        gap = (1.0 - theta) * gap + residual
        vals[k] = gap
    return vals


def inline_slack(bi, k=None):
    bl, p = bi.bl, bi.second_moment
    if k is None:
        return float(
            (bi.smooth * bi.alpha**2 - bi.alpha) * p / (2.0 * (1.0 - bl) ** 2)
            + bi.alpha * bi.sigma**2 / 2.0
            + bi.alpha * bi.sigma * np.sqrt(p) * bl / (1.0 - bl)
            + bi.alpha * bl**2 * p / (2.0 * (1.0 - bl) ** 2)
        )
    return float(
        (bi.smooth * bi.alpha**2 - bi.alpha) / 2.0 * (1.0 - bl ** (k + 1)) ** 2 / (1.0 - bl) ** 2 * p
        + bi.alpha * bi.sigma**2 / 2.0
        + bi.alpha * bi.sigma * np.sqrt(p) * bl * (1.0 - bl**k) / (1.0 - bl)
        + bi.alpha * bl**2 * (1.0 - bl**k) ** 2 * p / (2.0 * (1.0 - bl) ** 2)
    )


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
    k_max, ks = 40, np.arange(40)
    for bi in seeded_inputs(400):
        assert same_bits(r_constant(bi), inline_r(bi))
        loose_disp = bi.alpha**2 * bi.second_moment / (1.0 - bi.bl) ** 2
        assert same_bits(displacement_bound(bi), float(loose_disp))
        assert same_bits(displacement_bound(bi, ks), loose_disp * (1.0 - bi.bl ** (ks + 1)) ** 2)
        for k in (0, 1, 5, 39):
            assert same_bits(displacement_bound(bi, k), loose_disp * (1.0 - bi.bl ** (np.asarray(k) + 1)) ** 2)
        mu, l = bi.strong_mu, bi.smooth
        theta = 2.0 * bi.alpha * mu**2 / l
        asymptote = inline_r(bi) * l / (2.0 * bi.alpha * mu**2)
        assert same_bits(strongly_convex_trajectory(bi, k_max), inline_geometric(bi, theta, asymptote, k_max))
        assert same_bits(strongly_convex_trajectory(bi, k_max, tight=True), inline_tight_trajectory(bi, theta, k_max))
        for power in (1, 2):
            asymptote = inline_r(bi) / (2.0 * bi.alpha * bi.pl_mu**power)
            assert same_bits(
                pl_trajectory(bi, k_max, residual_power=power),
                inline_geometric(bi, 2.0 * bi.alpha * bi.pl_mu, asymptote, k_max),
            )
        assert same_bits(descent_slack(bi), inline_slack(bi))
        for k in (0, 1, 5, 39):
            assert descent_slack(bi, k) == pytest.approx(inline_slack(bi, k), rel=1e-14)
