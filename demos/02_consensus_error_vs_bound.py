"""Run the simulator and compare measured consensus error against theory.

Three agents with different quadratic targets disagree persistently while
gradients pull them apart; the closed-form consensus bound caps how far any
agent can drift from the swarm average.  The bound is loose by design (it
holds uniformly over iterations and noise), which the printout makes visible.
"""

import numpy as np

from dmsgd.bounds import BoundInputs, consensus_bound
from dmsgd.objectives import StochasticOracle, UnifiedObjective, make_quadratic, unified_optimum
from dmsgd.optimizer import HyperParams, run
from dmsgd.topology import build_topology, metropolis_mixing, spectrum

alpha, beta, omega = 0.01, 0.5, 0.5
suite = make_quadratic([[0.0], [0.5], [1.0]], [1.0, 1.0, 1.0])
mix = metropolis_mixing(build_topology("full", 3))
spec = spectrum(mix)

hp = HyperParams(option="I", alpha=alpha, beta=beta, omega=omega, iters=500)
objective = UnifiedObjective.of_run(suite, mix, hp)
_, f_star = unified_optimum(objective)
trace = run(objective, StochasticOracle(sigma=0.0), hp, f_star)

bi = BoundInputs.of_run(objective, spec, hp, f_star, grad_bound=1.0)
bound = consensus_bound(bi)

print(f"Lambda = {bi.lam:.3f}, eta = {bi.eta:.3f}, beta*Lambda = {bi.bl:.3f}")
print(f"closed-form consensus bound: {bound:.5f}")
print(f"measured max_j ||x_j - xbar||: peak {trace.consensus_err_max.max():.3e}, "
      f"final {trace.consensus_err_max[-1]:.3e}")
print()
print("  k    consensus_err   bound")
for k in (1, 2, 5, 10, 50, 200, 500):
    print(f"{k:5d}   {trace.consensus_err_max[k - 1]:.6e}   {bound:.5f}")
