"""Bitwise pins of traces and bound rows for configurations the benchmark leaves out.

Each digest is the sha256 of the run's trace arrays (or of the bound inputs
and every ``evaluate_bounds`` row), so a refactor that moves any value by a
single bit fails here.  The digests were taken once and must not be re-pinned
to make a refactor pass.
"""

import hashlib

import numpy as np
import pytest

from dmsgd.harness import bound_inputs_from_scenario, build_scenario, evaluate_bounds, parse_config_text
from dmsgd.optimizer import run

TRACE_FIELDS = ("k", "consensus_err_max", "consensus_err_stacked", "value", "gap",
                "grad_norm_sq", "running_avg_grad", "step_norm", "omega_used")
BOUND_INPUTS = ("alpha", "beta", "lam", "eta", "n_agents", "grad_bound", "sigma",
                "smooth", "strong_mu", "pl_mu", "gap1")

CONFIGS = {
    # distinct shifts: grid PL constant, L-BFGS stacked optimum, thm2_gap
    "pl_shifts": """\
topology.kind = ring
topology.n = 4
topology.laziness = 0.3
objective.kind = pl
objective.n = 4
objective.shifts = -0.6;-0.2;0.3;0.8
objective.grad_bound = auto
oracle.mode = additive
oracle.sigma = 0.1
hp.option = I
hp.alpha = 0.05
hp.beta = 0.5
hp.omega = 0.5
hp.iters = 30
hp.seed = 3
""",
    "option2_fixed_omega": """\
topology.kind = ring
topology.n = 5
topology.laziness = 0.4
objective.kind = quadratic
objective.targets = 0.5,-1.0;1.5,0.2;-0.3,0.8;2.0,1.0;0.0,-0.5
objective.curvatures = 1.0;0.5;2.0;1.5;0.8
objective.grad_bound = auto
oracle.mode = additive
oracle.sigma = 0.0
hp.option = II
hp.alpha = 0.05
hp.beta = 0.4
hp.omega = 0.3
hp.iters = 40
hp.seed = 0
""",
    "adaptive_global": """\
topology.kind = bipartite
topology.n = 6
topology.laziness = 0.5
objective.kind = quadratic
objective.targets = 0.1,0.2,0.3;1.0,-1.0,0.5;0.4,0.4,0.4;-0.8,0.1,1.2;1.1,0.9,-0.2;0.0,0.0,1.0
objective.curvatures = 1.0;2.0;0.7;1.3;0.9;1.6
objective.grad_bound = auto
oracle.mode = additive
oracle.sigma = 0.2
hp.option = I
hp.alpha = 0.05
hp.beta = 0.6
hp.omega = adaptive
hp.adaptive_scope = global
hp.iters = 40
hp.seed = 7
""",
    "logistic_iid_full_batch": """\
topology.kind = ring
topology.n = 4
topology.laziness = 0.3
objective.kind = logistic
objective.dataset = synthetic
objective.dataset_seed = 2
objective.samples = 60
objective.features = 3
objective.classes = 2
objective.agents = 4
objective.partition = iid
objective.partition_seed = 1
objective.reg = 0.1
objective.grad_bound = auto
oracle.mode = minibatch
oracle.batch = full
hp.option = I
hp.alpha = 0.2
hp.beta = 0.3
hp.omega = 0.5
hp.iters = 25
hp.seed = 0
""",
    # minibatch pilot: sigma is measured from the pilot's draws
    "logistic_iid_minibatch": """\
topology.kind = full
topology.n = 3
topology.laziness = 0.5
objective.kind = logistic
objective.dataset = synthetic
objective.dataset_seed = 3
objective.samples = 45
objective.features = 3
objective.classes = 3
objective.agents = 3
objective.partition = iid
objective.reg = 0.05
objective.grad_bound = auto
oracle.mode = minibatch
oracle.batch = 5
hp.option = I
hp.alpha = 0.2
hp.beta = 0.3
hp.omega = 0.5
hp.iters = 25
hp.seed = 1
""",
}

PINS = {
    "adaptive_global": {
        "trace": "547441c6baed00f011ec114f86478a4af854011920fae6140fa652eafbbea15b",
        "bounds": "a443b874cb8d59260cfee28847483df4e36d6000c3e1232f98f6fbf993efdcff",
        "bound_names": ("consensus", "displacement_sq", "avg_grad_envelope", "cor1_gap"),
    },
    "logistic_iid_full_batch": {
        "trace": "7d61fe6b7bcc581183b3dbe2bd4db94b7885820857dda6aa62539aa3de406bf3",
        "bounds": "860cd43699297b6ed390ddfcc8a66a145f8d705431d71aa608a8079f4c88f57e",
        "bound_names": ("consensus", "displacement_sq", "avg_grad_envelope", "cor1_gap"),
    },
    "logistic_iid_minibatch": {
        "trace": "e7648a601fd68f77dd7ccf836bf6b8e4ef11bda1bf47866752b72e2535bc232d",
        "bounds": "4c0cfa9d105433ab97c5a51eafcdd54cf2aeb8045b56708a89209fea31a3b095",
        "bound_names": ("consensus", "displacement_sq", "avg_grad_envelope", "cor1_gap"),
    },
    "option2_fixed_omega": {
        "trace": "0fe36f3fc8edd43345821cafb3e27473b943dcdbdde1efb2d5bf0437faa7c3ac",
        "bounds": "8c87cfc45fd08aead1346067dfa0fd6c6449c27f74d08190c3f175f4df9150f0",
        "bound_names": ("consensus", "displacement_sq", "avg_grad_envelope", "cor1_gap"),
    },
    "pl_shifts": {
        "trace": "b048c9ce7aa86d2012a1ff55afaceabfb388f01cc5b2839d03175cb74a621fcc",
        "bounds": "4715e67852826baa56de730d7a52eaf48118437c2a5c539841dd735ab9dc396a",
        "bound_names": ("consensus", "displacement_sq", "avg_grad_envelope", "thm2_gap"),
    },
}


def _sha(parts):
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode("utf-8"))
    return h.hexdigest()


def _floats(a):
    return np.ascontiguousarray(a, dtype=np.float64).tobytes()


def digests(text):
    scenario = build_scenario(parse_config_text(text))
    trace = run(scenario.mixing, scenario.suite, scenario.oracle, scenario.hp,
                scenario.objective, scenario.f_star)
    trace_digest = _sha([trace.status, scenario.f_star, _floats(trace.swarm.x_cur)]
                        + [_floats(getattr(trace, name)) for name in TRACE_FIELDS])
    bi = bound_inputs_from_scenario(scenario)
    reports = evaluate_bounds(scenario, bi)
    bounds_digest = _sha([getattr(bi, key) for key in BOUND_INPUTS]
                         + [p for name, ks, values in reports for p in (name, _floats(ks), _floats(values))])
    return {"trace": trace_digest, "bounds": bounds_digest,
            "bound_names": tuple(name for name, _, _ in reports)}


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_pinned_digests(name):
    assert digests(CONFIGS[name]) == PINS[name]

