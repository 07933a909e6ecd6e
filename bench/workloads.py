"""The three benchmark workloads: config text generated from a seed, and the
CLI command sequence one job runs on it.

The program under test only ever sees the config file written from
``config_text``; every random choice (targets, curvatures, minibatch draws) is
made here from the workload seed.  Full sizes are the benchmark's; smoke sizes
exist only so that ``run.py --smoke`` can exercise every code path in a few
seconds.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np


def _floats(values):
    return ",".join(repr(float(v)) for v in values)


@dataclass(frozen=True)
class ManyAgents:
    """Ring of 128 agents, quadratic suite: spectrum and per-agent loop heavy."""

    name = "many_agents"
    n: int = 128
    d: int = 10
    iters: int = 300

    def config_text(self, seed):
        rng = np.random.default_rng([seed, 1])
        targets = rng.normal(size=(self.n, self.d))
        curvatures = rng.uniform(0.5, 2.0, size=self.n)
        return "\n".join([
            "topology.kind = ring",
            f"topology.n = {self.n}",
            "topology.laziness = 0.3",
            "objective.kind = quadratic",
            "objective.targets = " + ";".join(_floats(row) for row in targets),
            "objective.curvatures = " + _floats(curvatures),
            "objective.grad_bound = auto",
            "oracle.mode = additive",
            "oracle.sigma = 0.1",
            "hp.option = I",
            "hp.alpha = 0.05",
            "hp.beta = 0.5",
            "hp.omega = adaptive",
            f"hp.iters = {self.iters}",
            f"hp.seed = {seed}",
        ]) + "\n"

    def commands(self, cfg, out, seed):
        return [
            ("run", "run", ["run", "--config", cfg, "--out", out]),
            ("bounds", "bounds", ["bounds", "--config", cfg, "--out", out]),
            ("check", "check", ["check", "--trace", os.path.join(out, f"trace_seed{seed}.csv"),
                                "--bounds", os.path.join(out, "bounds.csv")]),
        ]

    def trace_files(self, seed):
        return [("trace[0]", f"trace_seed{seed}.csv")]


@dataclass(frozen=True)
class ManySeeds:
    """Acceptance criterion 7's shape through the CLI: 3 agents, many seeds."""

    name = "many_seeds"
    seeds: int = 16
    iters: int = 400

    def config_text(self, seed):
        rng = np.random.default_rng([seed, 2])
        targets = np.sort(rng.uniform(0.0, 2.0, size=3))
        return "\n".join([
            "topology.kind = full",
            "topology.n = 3",
            "topology.laziness = 0.5",
            "objective.kind = quadratic",
            "objective.targets = " + ";".join(repr(float(t)) for t in targets),
            "objective.curvatures = 1",
            "objective.grad_bound = auto",
            "oracle.mode = additive",
            "oracle.sigma = 0.5",
            "hp.option = II",
            "hp.schedule = sqrt",
            "hp.B = 0.5",
            "hp.beta = 0.5",
            "hp.omega = 0.5",
            f"hp.iters = {self.iters}",
            f"hp.seed = {seed}",
        ]) + "\n"

    def commands(self, cfg, out, seed):
        bounds_csv = os.path.join(out, "bounds.csv")
        cmds = [
            ("run", "run", ["run", "--config", cfg, "--out", out, "--seeds", str(self.seeds)]),
            ("bounds", "bounds", ["bounds", "--config", cfg, "--out", out]),
        ]
        for label, fname in self.trace_files(seed):
            cmds.append((label.replace("trace", "check"), "check",
                         ["check", "--trace", os.path.join(out, fname), "--bounds", bounds_csv]))
        return cmds

    def trace_files(self, seed):
        files = [(f"trace[{i}]", f"trace_seed{seed + i}.csv") for i in range(self.seeds)]
        return files + [("trace[avg]", "trace_avg.csv")]


@dataclass(frozen=True)
class MinibatchSweep:
    """Non-iid logistic regression, minibatch oracle, an 18-cell sweep.

    The dataset is the same for every workload seed, so every seed asks the
    same L-BFGS work of the optimum; the seed picks the minibatch draws.
    """

    name = "minibatch_sweep"
    n: int = 16
    samples: int = 400
    iters: int = 50
    dataset_seed: int = 0

    def config_text(self, seed):
        return "\n".join([
            "topology.kind = ring",
            f"topology.n = {self.n}",
            "topology.laziness = 0.3",
            "objective.kind = logistic",
            "objective.dataset = synthetic",
            f"objective.dataset_seed = {self.dataset_seed}",
            f"objective.samples = {self.samples}",
            "objective.features = 10",
            "objective.classes = 2",
            f"objective.agents = {self.n}",
            "objective.partition = noniid",
            "objective.reg = 0.1",
            "objective.grad_bound = auto",
            "oracle.mode = minibatch",
            "oracle.batch = 16",
            "hp.option = I",
            "hp.alpha = 0.5",
            "hp.beta = 0.5",
            "hp.omega = 0.5",
            f"hp.iters = {self.iters}",
            f"hp.seed = {seed}",
            "sweep.topology = full,ring,bipartite",
            "sweep.omega = 0.2,0.5,adaptive",
            f"sweep.seed = {seed},{seed + 1}",
        ]) + "\n"

    def commands(self, cfg, out, seed):
        return [
            ("sweep", "sweep", ["sweep", "--config", cfg, "--out", out]),
            ("bounds", "bounds", ["bounds", "--config", cfg, "--out", out]),
        ]

    def trace_files(self, seed):
        return []


WORKLOADS = {
    "many_agents": ManyAgents(),
    "many_seeds": ManySeeds(),
    "minibatch_sweep": MinibatchSweep(),
}

SMOKE = {
    "many_agents": ManyAgents(n=8, d=3, iters=30),
    "many_seeds": ManySeeds(seeds=3, iters=40),
    "minibatch_sweep": MinibatchSweep(n=4, samples=80, iters=10),
}
