"""Sweep the momentum blend weight, including the adaptive variant.

w = 1 is classic momentum on each agent's own displacement; w = 0 puts the
momentum on the consensus variables; the adaptive rule picks the blend from
the ratio of the two displacement norms every iteration.  Large w weakens
the consensus guarantee, which shows up directly in the disagreement floor.
"""

from dataclasses import replace

import numpy as np

from dmsgd.objectives import StochasticOracle, UnifiedObjective, make_quadratic, unified_optimum
from dmsgd.optimizer import HyperParams, run
from dmsgd.topology import build_topology, metropolis_mixing

suite = make_quadratic([[0.0], [1.0], [2.0], [3.0]], [1.0, 1.0, 1.0, 1.0])
mix = metropolis_mixing(build_topology("ring", 4), laziness=0.3)
base = HyperParams(option="I", alpha=0.05, beta=0.8, iters=400, seed=1)
objective = UnifiedObjective.of_run(suite, mix, base)
_, f_star = unified_optimum(objective)

print("omega      final gap   final consensus err   mean omega used")
for omega in (0.0, 0.25, 0.5, 0.75, 1.0, "adaptive"):
    trace = run(objective, StochasticOracle(sigma=0.1), replace(base, omega=omega), f_star)
    label = omega if isinstance(omega, str) else f"{omega:.2f}"
    print(f"{label:9s} {trace.gap[-1]:11.4e}   {trace.consensus_err_max[-1]:15.4e}   "
          f"{trace.omega_used.mean():12.3f}")

print()
print("option II bases the gradient step on the local variable instead of the")
print("consensus variable; with the same blend it trades consensus for speed:")
for option in ("I", "II"):
    hp = replace(base, option=option, omega="adaptive")
    obj = UnifiedObjective.of_run(suite, mix, hp)
    _, fs = unified_optimum(obj)
    trace = run(obj, StochasticOracle(sigma=0.1), hp, fs)
    print(f"  option {option}: final gap {trace.gap[-1]:.4e}, "
          f"final consensus err {trace.consensus_err_max[-1]:.4e}")
