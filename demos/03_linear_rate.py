"""Strongly convex runs decay linearly; the bound trajectory certifies it.

A quadratic suite over a lazy full mesh: the penalized objective is strongly
convex, so the gap contracts geometrically at least as fast as the
theoretical factor (1 - 2 a mu'^2 / L').  The printout tabulates measured
gap against the bound trajectory and fits the empirical decay slope.
"""

import numpy as np

from dmsgd.bounds import BoundInputs, strongly_convex_trajectory
from dmsgd.objectives import StochasticOracle, UnifiedObjective, make_quadratic, unified_optimum
from dmsgd.optimizer import HyperParams, run
from dmsgd.topology import build_topology, lambda_cap, metropolis_mixing, spectrum

alpha, beta, omega, laziness = 0.1, 0.5, 0.5, 0.9
suite = make_quadratic([[1.0, 0.0], [2.0, 1.0], [3.0, 2.0]], [1.0, 1.0, 1.0])
mix = metropolis_mixing(build_topology("full", 3), laziness=laziness)
spec = spectrum(mix)
objective = UnifiedObjective(suite, mix, alpha)
_, f_star = unified_optimum(objective)

hp = HyperParams(option="I", alpha=alpha, beta=beta, omega=omega, iters=200)
trace = run(mix, suite, StochasticOracle(sigma=0.0), hp, objective, f_star)

mu_p, l_p = objective.mu_prime(spec), objective.l_prime(spec)
bi = BoundInputs(
    alpha=alpha, beta=beta, lam=lambda_cap(omega, spec.lambda2), n_agents=3,
    eta=spec.lambda_min_effective(omega),
    grad_bound=1.05 * float(np.sqrt(trace.grad_norm_sq.max())),
    sigma=0.0, smooth=l_p, strong_mu=mu_p, gap1=float(trace.gap[0]),
)
traj = strongly_convex_trajectory(bi, 200)

theta = 2 * alpha * mu_p**2 / l_p
print(f"mu' = {mu_p:.3f}, L' = {l_p:.3f}, theoretical contraction factor {1 - theta:.3f}")
print()
print("  k      measured gap     bound trajectory")
for k in (1, 2, 5, 10, 20, 40, 80, 200):
    print(f"{k:5d}   {trace.gap[k - 1]:.6e}    {traj[k - 1]:.6e}")

window = (trace.k >= 2) & (trace.k <= 60) & (trace.gap > 1e-10 * trace.gap[0])
slope = np.polyfit(trace.k[window], np.log(trace.gap[window]), 1)[0]
print()
print(f"empirical log-gap slope {slope:.3f} vs theoretical {np.log(1 - theta):.3f} "
      "(momentum beats the conservative rate)")
