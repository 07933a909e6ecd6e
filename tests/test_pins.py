"""Bitwise pins of traces, bound rows, mixing-matrix spectra and CLI outputs.

Each trace digest is the sha256 of the run's trace arrays (or of the bound
inputs and every ``evaluate_bounds`` row) for a configuration the benchmark
leaves out; each spectrum digest is the sha256 of ``spectrum(m).eigenvalues``
for a stock mixing matrix.  The CLI pins cover whole ``sweep.csv`` files, the
data rows and input metadata of ``bounds.csv`` files (with and without a
skipped trajectory) and the stdout of every demo; the benchmark sweep config's
two optima are pinned by their ``repr``.  A refactor that moves any value by a
single bit fails here.  The digests were taken once and must not be
re-pinned to make a refactor pass.  Every test here carries the ``pin``
marker: the bits move with numpy's OpenBLAS kernel and SIMD level, so
``-m "not pin"`` runs the tests that hold on any kernel.
"""

import hashlib
import os
import re
import runpy
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from dmsgd.bounds import evaluate_bounds
from dmsgd.harness import bound_inputs_from_scenario, build_scenario, main, parse_config_text
from dmsgd.objectives import common_optimum
from dmsgd.optimizer import run
from dmsgd.topology import build_topology, effective_matrix, metropolis_mixing, spectrum

pytestmark = pytest.mark.pin

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
    # ragged iid partitions 16/15/15/15: batch 15 is the exact gradient for
    # three agents and a draw for the fourth; three classes, one-vs-rest
    "logistic_iid_ragged": """\
topology.kind = ring
topology.n = 4
topology.laziness = 0.3
objective.kind = logistic
objective.dataset = synthetic
objective.dataset_seed = 4
objective.samples = 61
objective.features = 3
objective.classes = 3
objective.agents = 4
objective.partition = iid
objective.partition_seed = 2
objective.reg = 0.05
objective.grad_bound = auto
oracle.mode = minibatch
oracle.batch = 15
hp.option = I
hp.alpha = 0.2
hp.beta = 0.3
hp.omega = adaptive
hp.iters = 25
hp.seed = 2
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
        "trace": "99c5219add2159b34d314e47967a393b93277b7e007b06ea0757f320fcb01a1c",
        "bounds": "860cd43699297b6ed390ddfcc8a66a145f8d705431d71aa608a8079f4c88f57e",
        "bound_names": ("consensus", "displacement_sq", "avg_grad_envelope", "cor1_gap"),
    },
    "logistic_iid_minibatch": {
        "trace": "cdcce73ad65012ee37857997ade24e0312c49f2c59394869f985bdd49900956d",
        "bounds": "37f460d1846c1e2e1ffffe653029ac78d6fad9a279d85c10d595c830097860c6",
        "bound_names": ("consensus", "displacement_sq", "avg_grad_envelope", "cor1_gap"),
    },
    "logistic_iid_ragged": {
        "trace": "d22837659e17cb570a035f147db7421eff6fb2db07630eb39a033e921ab70203",
        "bounds": "c709509f2054de5062e8f761013af9b75f795cac5da7ed2e4a50e26785cc672f",
        "bound_names": ("consensus", "displacement_sq", "avg_grad_envelope", "cor1_gap"),
    },
    "option2_fixed_omega": {
        "trace": "0fe36f3fc8edd43345821cafb3e27473b943dcdbdde1efb2d5bf0437faa7c3ac",
        "bounds": "8c87cfc45fd08aead1346067dfa0fd6c6449c27f74d08190c3f175f4df9150f0",
        "bound_names": ("consensus", "displacement_sq", "avg_grad_envelope", "cor1_gap"),
    },
    "pl_shifts": {
        "trace": "b048c9ce7aa86d2012a1ff55afaceabfb388f01cc5b2839d03175cb74a621fcc",
        "bounds": "f5bd15a2592287aab13bd5526512d3168f68e56a572ff010e8ee184489f43023",
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
    trace = run(scenario.objective, scenario.oracle, scenario.hp, scenario.f_star)
    trace_digest = _sha([trace.status, scenario.f_star, _floats(trace.swarm.x_cur)]
                        + [_floats(getattr(trace, name)) for name in TRACE_FIELDS])
    bi = bound_inputs_from_scenario(scenario)
    reports, _ = evaluate_bounds(bi, scenario.hp)
    bounds_digest = _sha([getattr(bi, key) for key in BOUND_INPUTS]
                         + [p for name, ks, values in reports for p in (name, _floats(ks), _floats(values))])
    return {"trace": trace_digest, "bounds": bounds_digest,
            "bound_names": tuple(name for name, _, _ in reports)}


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_pinned_digests(name):
    assert digests(CONFIGS[name]) == PINS[name]



# ---------------------------------------------------------------- spectra


def _stock_mixing(kind, n, laziness):
    parts = (n // 2, n - n // 2) if kind == "bipartite" else None
    return metropolis_mixing(build_topology(kind, n, parts=parts), laziness=laziness)


SPECTRUM_MATRICES = {
    f"{kind}{n}_lazy{ell}": (lambda kind=kind, n=n, ell=ell: _stock_mixing(kind, n, ell))
    for kind in ("ring", "full", "bipartite")
    for n in (2, 3, 4, 16, 64)
    for ell in (0.0, 0.3, 0.5)
}
# the many_agents benchmark matrix
SPECTRUM_MATRICES["ring128_lazy0.3"] = lambda: _stock_mixing("ring", 128, 0.3)
SPECTRUM_MATRICES["ring16_lazy0.3_blend0.4"] = lambda: effective_matrix(_stock_mixing("ring", 16, 0.3), 0.4)
# demo 01: the stock n=4 graphs at laziness 0 are in the grid above
SPECTRUM_MATRICES["demo01_ring4_lazy0.2"] = lambda: _stock_mixing("ring", 4, 0.2)
for _w in (0.0, 0.5, 1.0):
    SPECTRUM_MATRICES[f"demo01_ring4_blend{_w}"] = lambda w=_w: effective_matrix(_stock_mixing("ring", 4, 0.0), w)

SPECTRUM_PINS = {
    "bipartite16_lazy0.0": "7145780ebf9b13c726e75fdec8c71d33dd7271bde3ce3ce47b43e18a4dc76f7b",
    "bipartite16_lazy0.3": "499b4dd353cd0b00bad7d597036d07d6a40caa83b3a15697ae68b45880ed1ce6",
    "bipartite16_lazy0.5": "fec792884dc5bba9428f19f3bf4d46261dc59c45ca88d3b0d59b9faa81c7cb9e",
    "bipartite2_lazy0.0": "7a984fd196fde1a9e829a8824268ed411d8f74a2ccb8f06e42e4832d7aeab59b",
    "bipartite2_lazy0.3": "aeb5f7b842e866df88818d1d4051102fde788fab8d1b6fe7f44f1047268c7cc8",
    "bipartite2_lazy0.5": "fb09f5633f8a5ff23dc2cda2143240055b6f15b2915951f3928bcfca4cc20841",
    "bipartite3_lazy0.0": "74325332e1cbdf8e882f3e843513bfa681df327c94d9cb051897d1a0a1b5f012",
    "bipartite3_lazy0.3": "ccca8cf003be0f5e5ee656d440b31834fd41e6db8fc4b5304feca1887b34faaa",
    "bipartite3_lazy0.5": "1e0acf9aa13d54349a9c4108b55d9d96b4959d0f4696c32c7894ac7baa4e3fcb",
    "bipartite4_lazy0.0": "cc68501d8bb30481137e7440f9429329bb1ddefbbac716ca2df21814352434f6",
    "bipartite4_lazy0.3": "f3ad0bd96572973ffa18a94c37a15945a19a0b32b4ff223f138b63c71f5a62f7",
    "bipartite4_lazy0.5": "78f8a0453c46c90567fce47404d4e4a9993abbd3032c007599d7131e45766f33",
    "bipartite64_lazy0.0": "b83ec04b49f2fc5b394651eb4011aa888a1081140740e44f163f9e6c1a66a5f7",
    "bipartite64_lazy0.3": "64c0316c2659423f89fbec4f718f51dd6e1db302db87e6700752525e57c19ea5",
    "bipartite64_lazy0.5": "4f09f2e4a35b0dc283ee4672ea9b8dd39b933bb373d13595dac8f28130599b22",
    "demo01_ring4_blend0.0": "4c335ed3dc9a3748b8ff9e83c4564a53c6d5096fe6f36fc4bd9625517ec618c1",
    "demo01_ring4_blend0.5": "40abd5f44ea609ea52368103889f6bd6a6795ece5cf168aed2216f59a1f78a6e",
    "demo01_ring4_blend1.0": "c914e8188e43fff1c96e25283e15b252af0d9f39b469f2d1518915802c756d18",
    "demo01_ring4_lazy0.2": "d441eb023a2698c852aaaec25ac5d49f2e157ee88b0bf063006db804da11017e",
    "full16_lazy0.0": "b7e6de89dc3d6c41335de5fccbebe2ed01a45ffd31fc21c4e9e0371054f8cb9f",
    "full16_lazy0.3": "46c02b2566b1ae820ce68c94b88dd3da2c22fedec754e58201bb77b8bcfa816b",
    "full16_lazy0.5": "b69a7d792a6f10a3a996eb642ebb3b4c87f3bfd13287c8bb74dde7d93b8c8cf4",
    "full2_lazy0.0": "7a984fd196fde1a9e829a8824268ed411d8f74a2ccb8f06e42e4832d7aeab59b",
    "full2_lazy0.3": "aeb5f7b842e866df88818d1d4051102fde788fab8d1b6fe7f44f1047268c7cc8",
    "full2_lazy0.5": "fb09f5633f8a5ff23dc2cda2143240055b6f15b2915951f3928bcfca4cc20841",
    "full3_lazy0.0": "9a5b4937c1f21855601142bfebfc201542dc9616c1608867a6ab1020b1342e3a",
    "full3_lazy0.3": "41320a0f731cd12fc7ec57091e27f8068b454ebda3aa19d1b2138d4b9ba738e1",
    "full3_lazy0.5": "a0a346c543ee214a0bdb34c6f07fdfdd4cdd715db851cdf26a33eb4720ace0ce",
    "full4_lazy0.0": "508da69866843bdc0f028e13eef7768510e2342f28dab4cb643e64690e27b248",
    "full4_lazy0.3": "c42c5e8581f54bcd96a73cba3d3f79972db8e9587fd1d902b13c608f09db766e",
    "full4_lazy0.5": "c516ea835e7dfde9fa3dbd0beb070bb49acd40b4eec20f7b04ba88216a3bafe3",
    "full64_lazy0.0": "b93ee91985f7168dbb2f18a3599778b52c8c69db668c15c50c4cc1ee2a45df59",
    "full64_lazy0.3": "7bb2f9f21803527c733b3ab40e4e2661873d388caaea4e5fcf6aab6d9bc55372",
    "full64_lazy0.5": "63df66270f2b7719183d71851a150d15b215eb11c60f30691f5c39a4e051521a",
    "ring128_lazy0.3": "f51caef8f1f8a92eec1a4a0e439345b3b63344d4b7b34f784ffc1676731b27fe",
    "ring16_lazy0.0": "9172ed1164ad61879bbe9184f2c68ecceed6773607f9f9fee8ada896c267bb80",
    "ring16_lazy0.3": "e2f859d105c1295fa5d06d241dca8e21e1bdf0ddbb3d5fe24270659dd6e4776f",
    "ring16_lazy0.3_blend0.4": "bcc1bb581614698ff4c73ba491cc21768fbd0b5630b0e9722be6c7ff209d2cd4",
    "ring16_lazy0.5": "81fe80dbd72dff8ef6b7d8a4ac1f8faa5372f1bab84eeeeef3b3b6f2b38809a4",
    "ring2_lazy0.0": "7a984fd196fde1a9e829a8824268ed411d8f74a2ccb8f06e42e4832d7aeab59b",
    "ring2_lazy0.3": "aeb5f7b842e866df88818d1d4051102fde788fab8d1b6fe7f44f1047268c7cc8",
    "ring2_lazy0.5": "fb09f5633f8a5ff23dc2cda2143240055b6f15b2915951f3928bcfca4cc20841",
    "ring3_lazy0.0": "9a5b4937c1f21855601142bfebfc201542dc9616c1608867a6ab1020b1342e3a",
    "ring3_lazy0.3": "41320a0f731cd12fc7ec57091e27f8068b454ebda3aa19d1b2138d4b9ba738e1",
    "ring3_lazy0.5": "a0a346c543ee214a0bdb34c6f07fdfdd4cdd715db851cdf26a33eb4720ace0ce",
    "ring4_lazy0.0": "4c335ed3dc9a3748b8ff9e83c4564a53c6d5096fe6f36fc4bd9625517ec618c1",
    "ring4_lazy0.3": "3982821b6ea6904fda5c354c96d1fa3239e5242e07b1e64eaf7cbfa0287af8ed",
    "ring4_lazy0.5": "40abd5f44ea609ea52368103889f6bd6a6795ece5cf168aed2216f59a1f78a6e",
    "ring64_lazy0.0": "1a4a935b8b3b01b567803ca41ebb6f442162fef0106b07230746a430a5464b77",
    "ring64_lazy0.3": "de13afbf8c6454e08ad4b36a9d09585b6759ee074626174a1f59a147f6b4b3c9",
    "ring64_lazy0.5": "170fa597219b7d03cf1c2c4484e5291e1722a46ea67a45bfab5640400387d4a2",
}


@pytest.mark.parametrize("name", sorted(SPECTRUM_MATRICES))
def test_pinned_spectrum(name):
    assert _sha([_floats(spectrum(SPECTRUM_MATRICES[name]()).eigenvalues)]) == SPECTRUM_PINS[name]


# ------------------------------------------------------------ CLI outputs

QUAD = """\
topology.kind = full
topology.n = 3
topology.laziness = 0.5
objective.kind = quadratic
objective.targets = 1.8,2.0;2.0,2.2;2.2,1.8
objective.curvatures = 1
objective.grad_bound = auto
oracle.mode = additive
oracle.sigma = 0.0
hp.option = I
hp.alpha = 0.05
hp.beta = 0.5
hp.omega = 0.5
hp.iters = 40
hp.seed = 0
output.seeds = 1
"""

SWEEP_CONFIGS = {
    # axes left out of the grid fall back to the config's values
    "omega_only": QUAD + "sweep.omega = 0,0.25,0.5,0.75,1\n",
    "divergent": (QUAD.replace("hp.alpha = 0.05", "hp.alpha = 10000.0").replace("hp.iters = 40", "hp.iters = 80")
                  + "sweep.beta = 0.5\nsweep.omega = 0.99\nsweep.seed = 0,1\n"),
    "empty": QUAD,
    # non-iid logistic minibatch cells, each solving its own L-BFGS optimum
    "logistic_noniid": (CONFIGS["logistic_iid_ragged"].replace("objective.partition = iid", "objective.partition = noniid")
                        .replace("oracle.batch = 15", "oracle.batch = 4").replace("hp.iters = 25", "hp.iters = 15")
                        + "sweep.topology = full,ring\nsweep.omega = 0.5,adaptive\n"),
    # option I cells solve the penalized stacked optimum, option II cells plain F
    "option_grid": CONFIGS["logistic_iid_ragged"] + "sweep.option = I,II\nsweep.topology = full,ring\n",
    # problem axes (topology, option) interleaved with run axes (omega, beta, seed) in all five columns;
    # a ring of 3 is the full graph, so the second topology is bipartite
    "five_axes": (QUAD.replace("oracle.sigma = 0.0", "oracle.sigma = 0.3")
                  + "sweep.omega = 0.2,adaptive\nsweep.beta = 0,0.5\nsweep.topology = full,bipartite\n"
                  + "sweep.option = I,II\nsweep.seed = 0,1\n"),
}

SWEEP_PINS = {
    "divergent": "1b679d336fffd3edee79eb4b432f75d5168103379fe04dad2e1140e0fe4eb06a",
    "empty": "eca6007657489da40717ae1bfb35a59f05337d0d2b1bfd8dff6401103cabb7d7",
    "five_axes": "72dea3d744fb0b7300787f3eca8e3a6c0b6bcef872a421c4fcb89e49d64c9bbe",
    "logistic_noniid": "9138967d03ba77a7a85707eccd3638a0c96a1f6e33360f222876f0a0fe5f56b7",
    "omega_only": "e71c4d60fe22ef8a4168598dbc5ea5990792560ae4d59914658353d435b6bc16",
    "option_grid": "7c0fe484b789b8c57aa985e80b4aa6950f3c841176205f4431fc3a6006324acb",
}

BOUNDS_CONFIGS = {
    "pl_thm2": CONFIGS["pl_shifts"],
    # alpha above 1/(2 mu_hat) = 0.7067: thm2_gap is skipped
    "pl_thm2_skipped": CONFIGS["pl_shifts"].replace("hp.alpha = 0.05", "hp.alpha = 0.8"),
    # option II, L = 4, mu = 1: alpha above L/(2 mu^2) = 2 skips cor1_gap
    "quadratic_cor1_skipped": (QUAD.replace("objective.curvatures = 1", "objective.curvatures = 1;2;4")
                               .replace("objective.grad_bound = auto", "objective.grad_bound = 2.0")
                               .replace("hp.option = I", "hp.option = II").replace("hp.alpha = 0.05", "hp.alpha = 2.5")),
    "sqrt_schedule": """\
topology.kind = full
topology.n = 3
topology.laziness = 0.5
objective.kind = quadratic
objective.targets = 0.5;1.0;1.5
objective.grad_bound = 2.0
oracle.mode = additive
oracle.sigma = 0.0
hp.option = II
hp.schedule = sqrt
hp.B = 0.5
hp.beta = 0.5
hp.omega = 0.5
hp.iters = 20
""",
}

# metadata keys every bounds.csv carries; files may add keys beside them
BOUNDS_META_KEYS = ("config_hash",) + BOUND_INPUTS

BOUNDS_PINS = {
    "pl_thm2": ("2b6bead63997c956c718c427180b6d8bf5f2f41b119e2b92e9a7e2eb6a6762b2",
                "75bf71ab52fb6532efdb84856ab7fb6e534bbfe4848f73388381425f70f1b72e"),
    "pl_thm2_skipped": ("176472300b0e396f8eeaeb5183aad47313e49b8225dcee20384a9cc4775585ad",
                        "22e6ddcd0bd7f397163c750134488f727de45bba1c9818f281a8f071d2e9679a"),
    "quadratic_cor1_skipped": ("701335ee33063538a0459b060e7e9a7dcde5ec714c083d1135dbc0eb04424203",
                               "767c9155c2f90e0713859709399d83e7c8f22af063e067f9d6fc627d6229a6fa"),
    "sqrt_schedule": ("e79e1330892eaaee031b58c4c202125b03dc67994489d9fdbecc0a6fd5e21c41",
                      "1cecd8bb2f9aed68b3ba2c2493b638e8e69d503c55347f98eb9090404f97459e"),
}

DEMO_PINS = {
    "01_mixing_and_spectra.py": "cf9fd5d73d7b3a317fcd88a28d71da503fb0c67b0ec942bf1917f42b6ea50bb5",
    "02_consensus_error_vs_bound.py": "c375d20b299d4dbf4a589bfbc0666073f8e675509cfcfec003accf8edb56e8cf",
    "03_linear_rate.py": "e01bd92004601a6b7ca43949a0659d3f52fcd4d59ed958586be6131738adf4ef",
    "04_momentum_blends.py": "a4e9e45cf6e42d54d2c5e0690f5e39b42023caf8bf266cecad654c0c0ba3dfc5",
    "05_sqrt_schedule.py": "ddbdf0cb7a11202d80c62bdc9c55f343c7b02eac1f3c4251b9bc4c10246a639d",
    "06_noniid_logistic_cli.py": "a61512805eae64c92a5334dd9c5c40ddf3562920dcaf951bdcfadbb8df25623d",
}


def _cli_output(tmp_path, command, text, name):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text, encoding="utf-8")
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    return (tmp_path / "out" / name).read_bytes()


@pytest.mark.parametrize("name", sorted(SWEEP_CONFIGS))
def test_pinned_sweep_csv(tmp_path, name):
    assert _sha([_cli_output(tmp_path, "sweep", SWEEP_CONFIGS[name], "sweep.csv")]) == SWEEP_PINS[name]


# a ring of 6 and a 4-agent edge list: the topology cell changes the agent count, and so the suite
RING_CUSTOM_SWEEP = """\
topology.kind = ring
topology.n = 6
topology.edges = ring4.edges
topology.laziness = 0.3
objective.kind = logistic
objective.dataset_seed = 4
objective.samples = 61
objective.features = 3
objective.classes = 3
objective.partition = noniid
objective.reg = 0.1
oracle.mode = minibatch
oracle.batch = 4
hp.alpha = 0.2
hp.beta = 0.3
hp.omega = 0.5
hp.iters = 15
sweep.topology = ring,custom
sweep.seed = 0,1
"""
RING_CUSTOM_PIN = "17d2d7e7b8ff0bebe2576d7ce008dc9e2c7fbad08a167240fb18a7958597c7a0"


def test_pinned_ring_custom_sweep_csv(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # the edge list's path is relative, so the config hash is the same in every run
    (tmp_path / "ring4.edges").write_text("4\n0 1\n1 2\n2 3\n3 0\n", encoding="utf-8")
    sweep = _cli_output(tmp_path, "sweep", RING_CUSTOM_SWEEP, "sweep.csv")
    assert [row.split(",")[5] for row in sweep.decode("utf-8").splitlines()[2:]] == ["completed"] * 4
    assert _sha([sweep]) == RING_CUSTOM_PIN


# the benchmark's minibatch_sweep config at seed 0, full and smoke size: the repr of the stacked optimum's f* and of
# its suite's common minimum.  bench/pins.json's digests absorb a move of a few ULP in either.
BENCH_OPTIMA = {
    "WORKLOADS": ("1.5660682885347814", "2.202190655590381"),
    "SMOKE": ("0.4668785397163045", "0.5141490857969754"),
}


@pytest.mark.parametrize("size", sorted(BENCH_OPTIMA))
def test_pinned_benchmark_optima(size):
    workload = runpy.run_path(str(Path(__file__).parents[1] / "bench" / "workloads.py"))[size]["minibatch_sweep"]
    scenario = build_scenario(parse_config_text(workload.config_text(0)))
    assert (repr(scenario.f_star), repr(common_optimum(scenario.objective.suite)[1])) == BENCH_OPTIMA[size]


# 16 noisy seeds over 30 rows: every per-seed trace and the averaged trace
SEEDS_RUN = (QUAD.replace("objective.targets = 1.8,2.0;2.0,2.2;2.2,1.8", "objective.targets = 0.3;1.1;1.7")
             .replace("oracle.sigma = 0.0", "oracle.sigma = 0.5").replace("hp.option = I", "hp.option = II")
             .replace("hp.alpha = 0.05", "hp.alpha = 0.1").replace("hp.iters = 40", "hp.iters = 30"))
SEEDS_RUN_PIN = "aa6bb24ec89627fdd1d859befc8a9b166f91c0211c7a96a5f2f825befac24739"


def test_pinned_run_seeds_csv(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(SEEDS_RUN, encoding="utf-8")
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--seeds", "16", "--out", str(out)]) == 0
    names = sorted(os.listdir(out))
    assert names == sorted(["trace_avg.csv"] + [f"trace_seed{s}.csv" for s in range(16)])
    rows = [[ln for ln in (out / name).read_text(encoding="utf-8").splitlines() if not ln.startswith("#")]
            for name in names]
    assert all(len(r) == 31 for r in rows)  # the header and 30 rows
    assert _sha([p for name, r in zip(names, rows) for p in (name, r)]) == SEEDS_RUN_PIN


@pytest.mark.parametrize("name", sorted(BOUNDS_CONFIGS))
def test_pinned_bounds_csv(tmp_path, name):
    lines = _cli_output(tmp_path, "bounds", BOUNDS_CONFIGS[name], "bounds.csv").decode("utf-8").splitlines()
    meta = dict(ln[1:].strip().partition("=")[::2] for ln in lines if ln.startswith("#"))
    data = [ln for ln in lines if not ln.startswith("#")]
    assert (_sha([meta.get(key) for key in BOUNDS_META_KEYS]), _sha(data)) == BOUNDS_PINS[name]


@pytest.mark.parametrize("name", sorted(DEMO_PINS))
def test_pinned_demo_stdout(name):
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"), os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, str(root / "demos" / name)], env=env, check=True,
                         capture_output=True, text=True).stdout
    out = re.sub(re.escape(tempfile.gettempdir()) + r"\S*", "<tmp>", out)
    assert _sha([out]) == DEMO_PINS[name]


def test_simd_lookup_names_the_baseline_when_no_target_is_active():
    """With dispatch capped at the build's baseline, the report header names the baseline's top entry."""
    from numpy._core._multiarray_umath import __cpu_baseline__

    tests = Path(__file__).resolve().parent
    script = f"import sys; sys.path.insert(0, {str(tests)!r}); import conftest; print(conftest._lookup(conftest._simd_top))"
    env = dict(os.environ, NPY_ENABLE_CPU_FEATURES=" ".join(__cpu_baseline__))
    out = subprocess.run([sys.executable, "-c", script], env=env, check=True, capture_output=True, text=True).stdout
    assert out.strip() == __cpu_baseline__[-1]
