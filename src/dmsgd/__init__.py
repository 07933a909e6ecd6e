"""Desk-scale laboratory for decentralized momentum SGD over gossip graphs.

Submodules: ``topology`` (graphs, mixing matrices, spectra), ``objectives``
(loss suites over the agent stack, oracles, penalized stacked objective),
``optimizer`` (the update loop over the (n, d) agent stack), ``bounds``
(closed-form consensus/convergence bounds), ``verify`` (dense reference
stepper and domination checks), and ``harness`` (config files, CSV traces,
CLI).
"""

__version__ = "0.1.0"

from . import bounds, harness, objectives, optimizer, topology, verify  # noqa: F401
