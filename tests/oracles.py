"""Independent oracles, which tests read and no module of ``dmsgd`` shares.

Each oracle checks production code and shares none of it: the dense
reference stepper checks ``optimizer.step``/``optimizer.run``, the reference
Jacobi solver ``topology.jacobi_eigenvalues``, ``recompute_running_avg`` the
trace's running-average column, ``additive_noise`` its ``draw_dev_sq`` column
and ``finite_diff_grad`` the gradients.
"""

from __future__ import annotations

import numpy as np

from dmsgd.topology import JACOBI_MAX_SWEEPS, JACOBI_TOL, JacobiConvergenceError


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


def recompute_running_avg(grad_norm_sq):
    """Recompute the running average column from raw squared gradient norms."""
    grad_norm_sq = np.asarray(grad_norm_sq, dtype=float)
    k = np.arange(1, grad_norm_sq.size + 1)
    return np.cumsum(grad_norm_sq) / (k + 1)


def additive_noise(seed, n, d, sigma, iters):
    """(iters, n, d): row k - 1 holds each agent's k-th N(0, sigma^2/d I) draw of an additive oracle, each agent drawing
    from its own generator keyed by (seed, agent id)."""
    noise = np.empty((iters, n, d))
    for j in range(n):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=(int(seed), j)))
        for k in range(iters):
            noise[k, j] = rng.normal(0.0, sigma / np.sqrt(d), size=d)
    return noise


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


def reference_jacobi_eigenvalues(matrix):
    """Cyclic Jacobi eigenvalues, one whole-row and whole-column rotation at a time.

    The independent oracle for ``topology.jacobi_eigenvalues``: the same
    pivot order, zero-pivot skip, sweep limit ``topology.JACOBI_MAX_SWEEPS``
    and off-mass test against ``topology.JACOBI_TOL``, written as the plain textbook update with fresh
    row and column copies per rotation.
    The two must agree bit for bit; no production code calls this.
    """
    a = np.array(matrix, dtype=float)
    n = a.shape[0]
    def off_mass(mat):
        od = mat.copy()
        np.fill_diagonal(od, 0.0)
        return float(np.linalg.norm(od))

    for _ in range(JACOBI_MAX_SWEEPS):
        off = off_mass(a)
        if off <= JACOBI_TOL:
            return a.diagonal().copy()
        for p in range(n - 1):
            for q in range(p + 1, n):
                if abs(a[p, q]) > 0.0:
                    _jacobi_rotate(a, p, q)
    off = off_mass(a)
    if off <= JACOBI_TOL:
        return a.diagonal().copy()
    raise JacobiConvergenceError(f"no convergence after {JACOBI_MAX_SWEEPS} sweeps (off mass {off:.3e})")
