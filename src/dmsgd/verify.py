"""Independent oracles: dense reference stepper, reference Jacobi solver,
finite differences, metrics.

The reference stepper implements the dense matrix form of the update and
deliberately shares no code with ``optimizer.step``/``optimizer.run``, so the
two can cross-check each other; ``reference_jacobi_eigenvalues`` plays the
same part for ``topology.jacobi_eigenvalues``.  Bound-domination reports
compare a measured metric trajectory against a theoretical bound trajectory
with a configurable relative slack.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .topology import JacobiConvergenceError

__all__ = [
    "reference_step",
    "finite_diff_grad",
    "consensus_error_max",
    "consensus_error_stacked",
    "DominationReport",
    "check_bound_domination",
    "recompute_running_avg",
    "reference_jacobi_eigenvalues",
]


def reference_step(option, pi_eff, pi, alpha, beta, x_k, x_prev, grads):
    """Dense one-step reference: x - alpha*S(x) + beta*PiEff*(x - x_prev).

    For option I, S(x) = g + (1/alpha)(I - Pi) x; for option II the raw
    gradient g is used.  All inputs are plain arrays; ``pi_eff`` is the
    blended matrix wI + (1-w)Pi.
    """
    x_k = np.asarray(x_k, dtype=float)
    x_prev = np.asarray(x_prev, dtype=float)
    grads = np.asarray(grads, dtype=float)
    if x_k.shape != x_prev.shape or x_k.shape != grads.shape:
        raise ValueError("state and gradient shapes disagree")
    n = x_k.shape[0]
    if np.shape(pi) != (n, n) or np.shape(pi_eff) != (n, n):
        raise ValueError("mixing matrix dimensions disagree with the state")
    if option == "I":
        s = grads + (np.eye(n) - pi) @ x_k / alpha
    elif option == "II":
        s = grads
    else:
        raise ValueError(f"option must be 'I' or 'II', got {option!r}")
    return x_k - alpha * s + beta * (pi_eff @ (x_k - x_prev))


def finite_diff_grad(f, x, h=1e-6):
    """Central-difference gradient estimate, one coordinate at a time."""
    if h <= 0:
        raise ValueError("h must be positive")
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e.flat[i] = h
        out.flat[i] = (f(x + e) - f(x - e)) / (2.0 * h)
    return out


def consensus_error_max(x):
    """max_j ||x_j - xbar|| over the agent axis."""
    dev = x - x.mean(axis=0)
    return float(np.linalg.norm(dev, axis=1).max())


def consensus_error_stacked(x):
    """||x - xbar|| of the full stacked deviation."""
    return float(np.linalg.norm(x - x.mean(axis=0)))


@dataclass
class DominationReport:
    """Outcome of metric <= bound * (1 + slack) checked row by row."""

    passed: bool
    checked: int
    first_violation: int | None = None
    metric_at_violation: float | None = None
    bound_at_violation: float | None = None
    worst_ratio: float = 0.0

    def __bool__(self):
        return self.passed


def check_bound_domination(metric, bound, slack=0.0):
    """Verify metric_k <= bound_k * (1 + slack) for every k.

    Rows are compared positionally (both trajectories must have equal
    length); an empty pair passes vacuously.  The first violating index is
    1-based, matching trace row numbering.
    """
    metric = np.asarray(metric, dtype=float)
    bound = np.asarray(bound, dtype=float)
    if metric.shape != bound.shape:
        raise ValueError(f"length mismatch: metric {metric.shape} vs bound {bound.shape}")
    if slack < 0:
        raise ValueError("slack must be >= 0")
    if metric.size == 0:
        return DominationReport(passed=True, checked=0)
    allowed = bound * (1.0 + slack)
    ok = metric <= allowed
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(allowed > 0, metric / allowed, np.where(metric <= 0, 0.0, np.inf))
    worst = float(np.nanmax(ratios))
    if ok.all():
        return DominationReport(passed=True, checked=metric.size, worst_ratio=worst)
    idx = int(np.argmin(ok))
    return DominationReport(
        passed=False,
        checked=metric.size,
        first_violation=idx + 1,
        metric_at_violation=float(metric[idx]),
        bound_at_violation=float(allowed[idx]),
        worst_ratio=worst,
    )


def recompute_running_avg(grad_norm_sq):
    """Recompute the running average column from raw squared gradient norms."""
    grad_norm_sq = np.asarray(grad_norm_sq, dtype=float)
    k = np.arange(1, grad_norm_sq.size + 1)
    return np.cumsum(grad_norm_sq) / (k + 1)


def _jacobi_rotate(a, p, q):
    # one Givens rotation zeroing a[p, q]; a updated in place, symmetric
    apq = a[p, q]
    diff = a[q, q] - a[p, p]
    if abs(apq) < abs(diff) * 1e-36:
        t = apq / diff  # tiny pivot: first-order tangent avoids overflow
    else:
        theta = diff / (2.0 * apq)
        t = 1.0 / (abs(theta) + np.sqrt(theta * theta + 1.0))
        if theta < 0.0:
            t = -t
    c = 1.0 / np.sqrt(t * t + 1.0)
    s = t * c
    rp = a[p, :].copy()
    rq = a[q, :].copy()
    a[p, :] = c * rp - s * rq
    a[q, :] = s * rp + c * rq
    cp = a[:, p].copy()
    cq = a[:, q].copy()
    a[:, p] = c * cp - s * cq
    a[:, q] = s * cp + c * cq


def reference_jacobi_eigenvalues(matrix, tol=1e-12, max_sweeps=100):
    """Cyclic Jacobi eigenvalues, one whole-row and whole-column rotation at a time.

    The independent oracle for ``topology.jacobi_eigenvalues``: the same
    pivot order, zero-pivot skip, sweep limit and off-mass test, written as
    the plain textbook update with fresh row and column copies per rotation.
    The two must agree bit for bit; no production code calls this.
    """
    a = np.array(matrix, dtype=float)
    n = a.shape[0]
    if n == 1:
        return a.diagonal().copy()
    def off_mass(mat):
        od = mat.copy()
        np.fill_diagonal(od, 0.0)
        return float(np.linalg.norm(od))

    for _ in range(max_sweeps):
        off = off_mass(a)
        if off <= tol:
            return a.diagonal().copy()
        for p in range(n - 1):
            for q in range(p + 1, n):
                if abs(a[p, q]) > 0.0:
                    _jacobi_rotate(a, p, q)
    off = off_mass(a)
    if off <= tol:
        return a.diagonal().copy()
    raise JacobiConvergenceError(f"no convergence after {max_sweeps} sweeps (off mass {off:.3e})")
