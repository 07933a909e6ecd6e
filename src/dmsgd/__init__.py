"""Desk-scale laboratory for decentralized momentum SGD over gossip graphs.

Submodules: ``topology`` (graphs, mixing matrices, spectra), ``objectives``
(loss suites over the agent stack, oracles, penalized stacked objective),
``optimizer`` (the update loop over the (n, d) agent stack), ``bounds``
(closed-form consensus/convergence bounds and the domination check), and
``harness`` (config files, CSV traces, CLI).  The independent oracles that
check them live in ``tests/oracles.py``, outside the package.
"""

__version__ = "0.1.0"

from . import bounds, objectives, optimizer, topology  # noqa: F401
