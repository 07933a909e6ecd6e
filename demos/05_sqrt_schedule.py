"""Decaying step sizes sqrt(B/k) need no curvature or noise knowledge.

With a constant step size the averaged squared gradient stalls at a noise
floor; with alpha_k = sqrt(B/k) it keeps shrinking and stays below the
Q/sqrt(k) envelope whose constant only involves measurable quantities.
Averaging a few seeds stands in for the expectation the bound speaks about.
"""

import numpy as np

from dmsgd.bounds import BoundInputs, optimal_schedule_b, simpler_q
from dmsgd.objectives import StochasticOracle, UnifiedObjective, make_quadratic, unified_optimum
from dmsgd.optimizer import HyperParams, run
from dmsgd.topology import build_topology, metropolis_mixing, spectrum

n, beta, omega, sigma, schedule_b = 3, 0.5, 0.5, 0.5, 0.5
suite = make_quadratic([[0.5], [1.0], [1.5]], [1.0, 1.0, 1.0])
mix = metropolis_mixing(build_topology("full", n), laziness=0.5)
spec = spectrum(mix)
objective = UnifiedObjective(suite, mix, None)  # schedule runs use option II
_, f_star = unified_optimum(objective)

avgs, max_grad = [], 0.0
for seed in range(16):
    hp = HyperParams(option="II", alpha=None, schedule="sqrt", schedule_b=schedule_b,
                     beta=beta, omega=omega, iters=1000, seed=seed)
    trace = run(objective, StochasticOracle(sigma=sigma), hp, f_star)
    avgs.append(trace.running_avg_grad)
    max_grad = max(max_grad, float(np.sqrt(trace.grad_norm_sq.max())))
mean_avg = np.mean(avgs, axis=0)

bi = BoundInputs.of_run(objective, spec, hp, f_star, grad_bound=1.05 * max_grad, sigma=sigma * np.sqrt(n))
q = simpler_q(bi, schedule_b)

print(f"B = {schedule_b}, Q = {q:.3f} (B minimizing Q would be {optimal_schedule_b(bi):.3f})")
print()
print("   k    mean running avg ||grad||^2    Q/sqrt(k)")
for k in (10, 30, 100, 300, 1000):
    print(f"{k:5d}   {mean_avg[k - 1]:22.6e}    {q / np.sqrt(k):.4f}")
