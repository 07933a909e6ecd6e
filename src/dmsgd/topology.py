"""Communication graphs, doubly stochastic mixing matrices, and their spectra.

Every bound in the package is driven by a handful of spectral quantities of
the mixing matrix: the second-largest eigenvalue lambda_2, the smallest
eigenvalue lambda_N, the blended second eigenvalue Lambda = w + (1-w)*lambda_2,
and eta = lambda_min of the blended matrix wI + (1-w)Pi when positive.
This module builds the graphs, turns them into symmetric doubly stochastic
matrices via Metropolis weights (plus an optional lazy blend toward the
identity), and extracts the spectrum with a cyclic Jacobi eigensolver.  The
solver is bit-identical to ``verify.reference_jacobi_eigenvalues``, 1.5 to
2.5 times faster, and most of a scenario build at large n; the benchmark
reports its time as ``topology.spectrum_s``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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
    "lambda_cap",
]

STOCHASTIC_TOL = 1e-12


class JacobiConvergenceError(RuntimeError):
    """Raised when the cyclic Jacobi sweep limit is hit before convergence."""


@dataclass(frozen=True)
class Topology:
    """Undirected communication graph on agents 0..n-1.

    Edges are canonical (j, l) pairs with j < l, no self-loops, no
    duplicates.  Construction validates connectivity; disconnected graphs
    are rejected because gossip averaging cannot reach consensus on them.
    """

    n: int
    edges: frozenset

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"agent count must be >= 1, got {self.n}")
        for j, l in self.edges:
            if j == l:
                raise ValueError(f"self-loop ({j},{j}) not allowed")
            if not (0 <= j < l < self.n):
                raise ValueError(f"edge ({j},{l}) out of range for n={self.n}")
        if not self._connected():
            raise ValueError("graph is not connected")

    def _connected(self):
        if self.n == 1:
            return True
        adj = {j: [] for j in range(self.n)}
        for j, l in self.edges:
            adj[j].append(l)
            adj[l].append(j)
        seen = {0}
        stack = [0]
        while stack:
            v = stack.pop()
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == self.n

    def degrees(self):
        deg = np.zeros(self.n, dtype=int)
        for j, l in self.edges:
            deg[j] += 1
            deg[l] += 1
        return deg


def _canonical_edges(pairs):
    return frozenset((min(j, l), max(j, l)) for j, l in pairs)


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
        Edge list for ``kind="custom"``.
    """
    if kind == "full":
        pairs = [(j, l) for j in range(n) for l in range(j + 1, n)]
    elif kind == "ring":
        if n <= 2:
            pairs = [(0, 1)] if n == 2 else []
        else:
            pairs = [(j, (j + 1) % n) for j in range(n)]
    elif kind == "bipartite":
        p, q = parts if parts is not None else (n // 2, n - n // 2)
        if p < 1 or q < 1 or p + q != n:
            raise ValueError(f"invalid bipartite split {(p, q)} for n={n}")
        pairs = [(j, l) for j in range(p) for l in range(p, n)]
    elif kind == "custom":
        if edges is None:
            raise ValueError("custom topology needs an edge list")
        pairs = list(edges)
    else:
        raise ValueError(f"unknown topology kind {kind!r}")
    return Topology(n=n, edges=_canonical_edges(pairs))


@dataclass(frozen=True)
class MixingMatrix:
    """Symmetric doubly stochastic gossip matrix.

    ``laziness`` records the total identity-blend weight applied at
    construction.  ``edges`` (when known) pins the admissible sparsity
    pattern: off-diagonal entries may be positive only on graph edges.
    """

    n: int
    entries: np.ndarray
    laziness: float = 0.0
    edges: frozenset | None = field(default=None, compare=False)

    def __post_init__(self):
        m = np.asarray(self.entries, dtype=float)
        if m.shape != (self.n, self.n):
            raise ValueError(f"expected {self.n}x{self.n} matrix, got {m.shape}")
        # metropolis_mixing enforces [0,1); exactly 1.0 can only arise from
        # effective_matrix(w=1), where the blend legitimately reaches I
        if not (0.0 <= self.laziness <= 1.0):
            raise ValueError(f"laziness must lie in [0,1], got {self.laziness}")
        if m.min() < -STOCHASTIC_TOL:
            raise ValueError("mixing matrix has negative entries")
        if np.abs(m.sum(axis=0) - 1.0).max() > STOCHASTIC_TOL:
            raise ValueError("column sums differ from 1")
        if np.abs(m.sum(axis=1) - 1.0).max() > STOCHASTIC_TOL:
            raise ValueError("row sums differ from 1")
        if np.abs(m - m.T).max() > STOCHASTIC_TOL:
            raise ValueError("mixing matrix is not symmetric")
        if self.edges is not None:
            allowed = np.eye(self.n, dtype=bool)
            for j, l in self.edges:
                allowed[j, l] = allowed[l, j] = True
            if (np.abs(m) > STOCHASTIC_TOL)[~allowed].any():
                raise ValueError("mixing matrix violates the topology sparsity pattern")
        object.__setattr__(self, "entries", m)


def metropolis_mixing(t, laziness=0.0):
    """Metropolis-Hastings mixing matrix with a lazy identity blend.

    Edge weight 1/(1 + max(deg_j, deg_l)), diagonal takes the slack, and the
    result is blended as (1-laziness)*base + laziness*I.  The blend lets the
    caller force the effective matrix positive definite so the consensus
    bound's eta exists.
    """
    if not (0.0 <= laziness < 1.0):
        raise ValueError(f"laziness must lie in [0,1), got {laziness}")
    deg = t.degrees()
    base = np.zeros((t.n, t.n))
    for j, l in t.edges:
        w = 1.0 / (1.0 + max(deg[j], deg[l]))
        base[j, l] = w
        base[l, j] = w
    np.fill_diagonal(base, 1.0 - base.sum(axis=1))
    m = (1.0 - laziness) * base + laziness * np.eye(t.n)
    return MixingMatrix(n=t.n, entries=m, laziness=laziness, edges=t.edges)


@dataclass(frozen=True)
class SpectralInfo:
    """Eigenvalues of a mixing matrix, sorted descending.

    For n=1 the convention lambda2 = lambdaN = 1 is used (single agent:
    consensus is exact and the blended spectrum collapses to {1}).
    """

    eigenvalues: np.ndarray
    lambda2: float
    lambda_n: float

    def lambda_min_effective(self, omega):
        """Smallest eigenvalue of wI + (1-w)Pi; eta when positive."""
        if not (0.0 <= omega <= 1.0):
            raise ValueError(f"omega must lie in [0,1], got {omega}")
        return omega + (1.0 - omega) * self.lambda_n


def jacobi_eigenvalues(matrix, tol=1e-12, max_sweeps=100):
    """All eigenvalues of a symmetric matrix via cyclic Jacobi rotations.

    Convergence is declared when the off-diagonal Frobenius mass drops
    below ``tol``.  Raises :class:`JacobiConvergenceError` after
    ``max_sweeps`` full sweeps, which should not occur for the well
    conditioned matrices this package builds.

    Sweeps visit the pivots (p, q) in cyclic row order and skip those that
    are exactly zero.  Each rotation first replaces rows p and q by
    (c*u - s*v, s*u + c*v), then columns p and q the same way, every
    product rounded before the sum; the result is bit-identical to
    ``verify.reference_jacobi_eigenvalues``.  The pivot scalars are Python
    floats, and each row or column pair takes six in-place numpy calls on
    views and scratch buffers made once per call (four when c == 1.0, since
    multiplying by 1.0 is exact; that holds for 38% of the rotations on a
    lazy ring of 128, and the four-call path makes its solve about 15%
    faster).  No matmul or BLAS rotation is used,
    because a fused multiply-add or another summation order would move the
    last bits.  Every sweep still makes O(n^2) Python-level rotations; on
    rings of 16 to 128 agents at laziness 0.3 the solve takes 1/2.5 to 1/1.5
    of the reference's time (``topology.spectrum_s`` in the benchmark).
    """
    a = np.array(matrix, dtype=float)
    n = a.shape[0]
    if n == 1:
        return a.diagonal().copy()
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
    for _ in range(max_sweeps):
        off = off_mass(a)
        if off <= tol:
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
                    if c == 1.0:
                        mul(u, s_arr, buf1)
                        mul(v, s_arr, buf2)
                        sub(u, buf2, u)
                        add(buf1, v, v)
                    else:
                        mul(u, s_arr, buf1)
                        mul(v, c_arr, buf2)
                        mul(v, s_arr, v)
                        mul(u, c_arr, u)
                        sub(u, v, u)
                        add(buf1, buf2, v)
    off = off_mass(a)
    if off <= tol:
        return a.diagonal().copy()
    raise JacobiConvergenceError(f"no convergence after {max_sweeps} sweeps (off mass {off:.3e})")


def spectrum(m):
    """Full spectrum of a mixing matrix, sorted descending."""
    eig = np.sort(jacobi_eigenvalues(m.entries))[::-1]
    if m.n == 1:
        return SpectralInfo(eigenvalues=eig, lambda2=float(eig[0]), lambda_n=float(eig[0]))
    return SpectralInfo(eigenvalues=eig, lambda2=float(eig[1]), lambda_n=float(eig[-1]))


def effective_matrix(m, omega):
    """Blend toward the identity: wI + (1-w)Pi, itself a mixing matrix."""
    if not (0.0 <= omega <= 1.0):
        raise ValueError(f"omega must lie in [0,1], got {omega}")
    blended = omega * np.eye(m.n) + (1.0 - omega) * m.entries
    total_laziness = omega + (1.0 - omega) * m.laziness
    return MixingMatrix(n=m.n, entries=blended, laziness=total_laziness, edges=m.edges)


def lambda_cap(omega, lambda2):
    """Blended second eigenvalue Lambda = w + (1-w)*lambda_2."""
    if not (0.0 <= omega <= 1.0):
        raise ValueError(f"omega must lie in [0,1], got {omega}")
    if not (-1.0 <= lambda2 <= 1.0):
        raise ValueError(f"lambda2 must lie in [-1,1], got {lambda2}")
    return omega + (1.0 - omega) * lambda2
